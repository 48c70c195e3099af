#ifndef senseiAnalysisAdaptor_h
#define senseiAnalysisAdaptor_h

/// @file senseiAnalysisAdaptor.h
/// Base class for SENSEI analysis back ends, carrying the execution-model
/// extensions the paper adds for heterogeneous architectures (Section 3):
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
/// These controls are defined here, in the base class, and are therefore
/// available to all back ends; ConfigurableAnalysis exposes them in the
/// run time XML configuration.
///
/// Automatic placement is delegated to a pluggable sched::PlacementPolicy:
/// `static` is Eq. 1 verbatim (the default — bit-for-bit the original
/// rule), `least-loaded` and `cost-model` consult the virtual platform's
/// per-device load before deciding (see schedPolicy.h). Back ends may
/// describe the work being placed with a sched::WorkHint so the
/// cost-model policy can price it.

#include "cmpCodec.h"
#include "schedPolicy.h"
#include "senseiDataAdaptor.h"
#include "svtkObjectBase.h"

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
  /// In asynchronous mode implementations take the deep copies they need
  /// from DataAdaptor::Snapshot, launch their thread, and return
  /// immediately.
  virtual bool Execute(DataAdaptor *data) = 0;

  /// Complete outstanding asynchronous work and release resources.
  /// Returns zero on success.
  virtual int Finalize() { return 0; }

  /// Wait for in-flight asynchronous work without releasing anything.
  /// ConfigurableAnalysis calls this on every analysis before finalizing
  /// any of them, so no back end's Finalize (or the profiler shutdown
  /// that follows) can run while a sibling still has a task in flight.
  virtual void DrainAsync() {}

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

  // --- compression ------------------------------------------------------------

  /// Request a codec for this back end's bulk payloads (in transit
  /// frames, binary snapshots, async write buffers). Overrides the
  /// process-wide cmp::Configure default; CodecId::None forces
  /// uncompressed payloads even when the global default is on.
  void SetCompression(const cmp::Params &p)
  {
    this->Compress_ = p;
    this->HaveCompress_ = true;
  }
  bool GetCompressionSet() const { return this->HaveCompress_; }

  /// The codec this back end should use: the per-analysis override when
  /// one was set, else the process-wide default when compression is
  /// enabled globally, else CodecId::None.
  cmp::Params GetEffectiveCompression() const
  {
    if (this->HaveCompress_)
      return this->Compress_;
    const cmp::Config &cfg = cmp::GetConfig();
    if (cfg.Enabled)
      return cfg.Default;
    cmp::Params off;
    off.Codec = cmp::CodecId::None;
    return off;
  }

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

private:
  ExecutionMethod Method_ = ExecutionMethod::Lockstep;
  sched::PolicyKind Policy_ = sched::PolicyKind::Static;
  cmp::Params Compress_;
  bool HaveCompress_ = false;
  int DeviceId_ = DEVICE_AUTO;
  int DevicesToUse_ = 0; ///< 0 = n_a
  int DeviceStart_ = 0;
  int DeviceStride_ = 1;
  int Verbose_ = 0;
};

// back ends pass their placement straight to the HDA access API, where
// GetDeviceAccessible(vp::HostDevice) is the host view
static_assert(AnalysisAdaptor::DEVICE_HOST == vp::HostDevice,
              "a host placement must name the host device");

} // namespace sensei

#endif
