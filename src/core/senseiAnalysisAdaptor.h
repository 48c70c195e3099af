#ifndef senseiAnalysisAdaptor_h
#define senseiAnalysisAdaptor_h

/// @file senseiAnalysisAdaptor.h
/// Base class for SENSEI analysis back ends, carrying the execution-model
/// extensions the paper adds for heterogeneous architectures (Section 3)
/// so that every back end has them:
///
///  * an execution method — `lockstep`, where simulation and analysis take
///    turns, or `asynchronous`, where the analysis deep-copies the data it
///    needs and runs in a C++ thread concurrently with the simulation;
///  * placement control over which accelerator (or the host) the analysis
///    runs on — manual explicit device selection or automatic selection by
///
///        d = ((r mod n_u) * s + d_0) mod n_a            (Eq. 1)
///
///    where r is the process's MPI rank, n_u the number of devices to use
///    per node, s the stride, d_0 the offset, and n_a the number of
///    devices on the node. r and n_a come from system queries; n_u, s,
///    d_0 are user controls defaulting to n_u = n_a, s = 1, d_0 = 0.
///
/// Automatic placement is delegated to a pluggable sched::PlacementPolicy
/// (`static` is Eq. 1 verbatim; see schedPolicy.h). ConfigurableAnalysis
/// exposes both controls in the run time XML configuration.
///
/// The back-end contract: a back end's Execute supplies a sched::WorkHint
/// describing its work (so the cost-model policy can price it) and its
/// computation, as a Task. The base runs the rest through three protected
/// helpers: GetTable (the step's mesh), GetInputs (the simulation's
/// columns zero-copy, or the step's snapshot) and Dispatch (lockstep:
/// drain the pipeline, then run inline; asynchronous: submit to the one
/// pipeline the base owns, on the communicator it duplicates). Its
/// DrainAsync and Finalize drain that pipeline. A back end whose tasks
/// read its own members drains in its destructor, because those members
/// die before the base's pipeline does. A back end that composes another
/// analysis (Histogram and viz::RenderAnalysis own a DataBinning) hands
/// it its placement through PassPlacement, and forwards DrainAsync and
/// Finalize to it when it also hands it its execution method.

#include "schedPipeline.h"
#include "senseiDataAdaptor.h"
#include "svtkObjectBase.h"

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace sensei
{

/// How an analysis runs relative to the simulation.
enum class ExecutionMethod : int
{
  Lockstep = 0, ///< simulation waits for the analysis each step
  Asynchronous  ///< analysis runs in a thread, concurrently
};

/// Base class for analysis back ends.
class AnalysisAdaptor : public svtkObjectBase
{
public:
  const char *GetClassName() const override
  {
    return "sensei::AnalysisAdaptor";
  }

  /// Sentinels accepted by SetDeviceId.
  static constexpr int DEVICE_AUTO = -2; ///< select by Eq. 1
  static constexpr int DEVICE_HOST = -1; ///< run on the host CPU

  /// Process the current simulation state. Returns false on failure.
  /// In asynchronous mode the task is handed to the base's pipeline
  /// (Dispatch) and Execute returns without waiting for it.
  virtual bool Execute(DataAdaptor *data) = 0;

  /// Complete outstanding asynchronous work and release resources.
  /// Returns zero on success. The base drains its pipeline.
  virtual int Finalize()
  {
    this->Runner_.Drain();
    return 0;
  }

  /// Wait for in-flight asynchronous work without releasing anything.
  /// ConfigurableAnalysis calls this on every analysis before finalizing
  /// any of them, so no back end's Finalize (or the profiler shutdown
  /// that follows) can run while a sibling still has a task in flight.
  /// The base drains its pipeline.
  virtual void DrainAsync() { this->Runner_.Drain(); }

  // --- execution method ------------------------------------------------------

  void SetExecutionMethod(ExecutionMethod m) { this->Method_ = m; }
  ExecutionMethod GetExecutionMethod() const { return this->Method_; }

  /// Convenience: toggle asynchronous execution.
  void SetAsynchronous(bool on)
  {
    this->Method_ = on ? ExecutionMethod::Asynchronous
                       : ExecutionMethod::Lockstep;
  }
  bool GetAsynchronous() const
  {
    return this->Method_ == ExecutionMethod::Asynchronous;
  }

  // --- placement ----------------------------------------------------------------

  /// Explicit device id, DEVICE_HOST, or DEVICE_AUTO (the default).
  void SetDeviceId(int id) { this->DeviceId_ = id; }
  int GetDeviceId() const { return this->DeviceId_; }

  /// n_u in Eq. 1: devices to use per node (0 = all available).
  void SetDevicesToUse(int n) { this->DevicesToUse_ = n; }
  int GetDevicesToUse() const { return this->DevicesToUse_; }

  /// d_0 in Eq. 1: first device to use.
  void SetDeviceStart(int d0) { this->DeviceStart_ = d0; }
  int GetDeviceStart() const { return this->DeviceStart_; }

  /// s in Eq. 1: stride between devices.
  void SetDeviceStride(int s) { this->DeviceStride_ = s; }
  int GetDeviceStride() const { return this->DeviceStride_; }

  /// The policy used for automatic placement (DEVICE_AUTO): `static`
  /// (Eq. 1, the default), `least-loaded`, or `cost-model`.
  void SetPlacementPolicy(sched::PolicyKind k) { this->Policy_ = k; }
  sched::PolicyKind GetPlacementPolicy() const { return this->Policy_; }

  /// Resolve the device this analysis runs on for MPI rank `rank`, given
  /// `devicesPerNode` (n_a) devices on the node: the explicit device when
  /// one was set, DEVICE_HOST for host placement, otherwise the placement
  /// policy (Eq. 1 under `static`). When no device is usable (n_a <= 0,
  /// or a negative devices_to_use was configured) returns DEVICE_HOST and
  /// warns once per process instead of dividing by zero in Eq. 1. The
  /// optional `hint` describes the work so the cost-model policy can
  /// price it. Returns a device id in [0, n_a) or DEVICE_HOST.
  int GetPlacementDevice(int rank, int devicesPerNode,
                         const sched::WorkHint &hint = {}) const;

  /// Resolve against the live platform (n_a from a system query) using the
  /// data adaptor's communicator for the rank (rank 0 in serial use).
  int GetPlacementDevice(DataAdaptor *data,
                         const sched::WorkHint &hint = {}) const;

  // --- data requirements ------------------------------------------------------

  /// The columns of mesh `mesh` this back end reads: a list (empty when
  /// it reads nothing of that mesh), or std::nullopt for any column, the
  /// answer of a back end that does not say. The in transit service
  /// grants a tenant the union over its chain, and the tenant ships only
  /// those columns.
  virtual std::optional<std::vector<std::string>>
  GetColumnsRead(const std::string & /*mesh*/) const
  {
    return std::nullopt;
  }

  // --- diagnostics ------------------------------------------------------------

  void SetVerbose(int v) { this->Verbose_ = v; }
  int GetVerbose() const { return this->Verbose_; }

protected:
  AnalysisAdaptor() = default;
  ~AnalysisAdaptor() override = default;

  /// Mesh `mesh` of `data` as a table, or null when the adaptor has no
  /// such mesh or it is not a table. The holder owns the reference
  /// DataAdaptor::GetMesh returned.
  static svtkSmartPtr<svtkTable> GetTable(DataAdaptor *data,
                                         const std::string &mesh);

  /// The typed inputs of this execute, one per column, in order: the
  /// simulation's arrays shared zero-copy (lockstep), or the step's deep
  /// copies resident on `device` (asynchronous; DataAdaptor::Snapshot,
  /// which also fills `ranges` when it is given).
  std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>>
  GetInputs(DataAdaptor *data, const std::vector<svtkDataArray *> &columns,
            int device,
            std::vector<DataAdaptor::ColumnRange> *ranges = nullptr) const;

  /// A step's computation, run on the communicator it is handed (null in
  /// serial use).
  using Task = std::function<void(minimpi::Communicator *)>;

  /// Run `task` by the execution method. Lockstep: drain the pipeline
  /// (a task of an earlier asynchronous step must not finish after this
  /// one and overwrite its result), then run it inline on `data`'s
  /// communicator. Asynchronous: submit it on a communicator duplicated
  /// from `data`'s at the first asynchronous dispatch, so its collectives
  /// never interleave with the simulation's; `payloadBytes` is what the
  /// closure's deep copies hold (what the queue depth meters) and
  /// `rawBytes`, when nonzero, their size before compression.
  void Dispatch(DataAdaptor *data, Task task, std::size_t payloadBytes,
                std::size_t rawBytes = 0);

  /// Give `to` this analysis's placement controls: the device id,
  /// devices_to_use, device_start, device_stride and the placement
  /// policy. A back end that composes another analysis calls it at each
  /// execute, so the composed one is placed as it is.
  void PassPlacement(AnalysisAdaptor &to) const
  {
    to.DeviceId_ = this->DeviceId_;
    to.DevicesToUse_ = this->DevicesToUse_;
    to.DeviceStart_ = this->DeviceStart_;
    to.DeviceStride_ = this->DeviceStride_;
    to.Policy_ = this->Policy_;
  }

private:
  ExecutionMethod Method_ = ExecutionMethod::Lockstep;
  sched::PolicyKind Policy_ = sched::PolicyKind::Static;
  int DeviceId_ = DEVICE_AUTO;
  int DevicesToUse_ = 0; ///< 0 = n_a
  int DeviceStart_ = 0;
  int DeviceStride_ = 1;
  int Verbose_ = 0;

  /// Declared before the pipeline, so it outlives the pipeline's
  /// draining destructor.
  std::optional<minimpi::Communicator> AsyncComm_;
  sched::BoundedPipeline Runner_;
};

// back ends pass their placement straight to the HDA access API, where
// GetDeviceAccessible(vp::HostDevice) is the host view
static_assert(AnalysisAdaptor::DEVICE_HOST == vp::HostDevice,
              "a host placement must name the host device");

} // namespace sensei

#endif
