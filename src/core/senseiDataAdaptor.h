#ifndef senseiDataAdaptor_h
#define senseiDataAdaptor_h

/// @file senseiDataAdaptor.h
/// The simulation-facing side of the SENSEI in situ interface. A
/// simulation implements a DataAdaptor that presents its state through the
/// SENSEI data model (svtkDataObject and friends); analysis back ends pull
/// what they need through it. The simulation should always prefer
/// zero-copy transfer: it shares pointers (via svtkHAMRDataArray) that
/// give the in situ code direct access to the data, and the back end
/// decides whether a deep copy is needed.

#include "minimpi.h"
#include "svtkDataObject.h"
#include "svtkHAMRDataArray.h"
#include "svtkObjectBase.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace sensei
{

struct PendingBinning;

/// Abstract interface between a simulation and SENSEI analyses.
class DataAdaptor : public svtkObjectBase
{
public:
  const char *GetClassName() const override { return "sensei::DataAdaptor"; }

  /// Names of the meshes the simulation can provide.
  virtual std::vector<std::string> GetMeshNames() = 0;

  /// The named mesh. Returns a new reference the caller must release, or
  /// nullptr when the mesh is unknown. Array data inside the returned
  /// object is shared zero-copy whenever the simulation allows it.
  virtual svtkDataObject *GetMesh(const std::string &meshName) = 0;

  /// Invoked by the framework when analyses are done with the current
  /// step's data; the simulation may reclaim buffers it shared. Runs the
  /// step's queued lockstep completions (FinishLockstep) and drops the
  /// step's snapshot; overrides must call this base version before they
  /// reclaim anything the step's analyses read.
  virtual void ReleaseData();

  /// The step's lockstep batch. A lockstep DataBinning execute runs its
  /// host half (inputs, views and record sizing) and hands the rest
  /// here. The call counts one lockstep binning execute of this step.
  /// While this step's count is below the previous step's, the adaptor
  /// expects another lockstep binning execute, and the execute is queued;
  /// otherwise the queue and this execute complete together, in the order
  /// queued (DataBinning::CompleteBatch): one range pass and one range
  /// collective for the batch's auto-ranged axes, per placement device
  /// one launch set and one readback, and one collective for every
  /// record. A lone
  /// binning (a previous count of at most 1) completes inside its own
  /// execute. The decision reads the counts alone, never placement or
  /// residency, so every rank of a lockstep run queues alike and issues
  /// the same collectives in the same order. The count rolls at the
  /// step's end like the snapshot's (a ReleaseData with no lockstep
  /// execute since the last one keeps the expectation).
  void BatchLockstep(std::shared_ptr<PendingBinning> execute);

  /// Complete every queued lockstep execute, as one batch in the order
  /// queued. ReleaseData, a step index change, the end of
  /// ConfigurableAnalysis::Execute, DataBinning::Finalize and the
  /// adaptor's destructor call it; a reader of a binning's result
  /// mid-step calls it first (DataBinning::GetLastResult).
  void FinishLockstep();

  /// A snapshot copy's local [min, max], as its packed copy's gather
  /// folded it (hamr::buffer::part_range): two host values, valid once
  /// `ready` has completed; a null `min_max` when the copy has none.
  using ColumnRange = hamr::buffer<double>::part_range;

  /// The asynchronous execution method's deep copy: shared, read-only
  /// copies of `columns` (distinct columns of this step's mesh), in
  /// order, resident on `device` (a negative id,
  /// AnalysisAdaptor::DEVICE_HOST, for the host); null for a null
  /// column. The first request for a (column, device) pair in a step
  /// makes the copy, and later requests share it. The copies one call
  /// makes are one hamr::buffer::packed_deep_copy: device-resident
  /// columns moved on one stream are gathered into one block by one
  /// kernel on that stream (the stream a move to `device` would use),
  /// the block moves to `device` in one transfer when it is not already
  /// there, and each copy is a zero-copy slice of it; a column alone on
  /// its stream, or host-resident, gets its own deep copy. The copies
  /// are async-mode: a copy of device-resident data may still be in
  /// flight when it is handed out, ordered after the column's pending
  /// work and before the simulation's later work on the column's
  /// stream, so a consumer must Synchronize() it before reading. A
  /// non-HAMR column is converted once, and the private conversion is
  /// adopted when it already lives on `device`. The adaptor keeps its
  /// own reference to a copy only while another request is expected: it
  /// drops it right after the request that brings the count for
  /// (column name, device) to the previous step's count, and keeps it
  /// until ReleaseData when there is no count yet. A copy is never
  /// handed out again after ReleaseData or once the step index changes.
  ///
  /// With `ranges`, which receives one entry per column, the gathers of
  /// the call's packed copy also fold each copied column's local [min,
  /// max] in the pass that reads it, and read them back to the host on
  /// the gather's stream (hamr::buffer::packed_deep_copy). A copy keeps
  /// its range for the step and hands it to every request it serves. A
  /// copy made by a call without `ranges`, or not gathered (a column
  /// alone on its stream, host-resident, or an adopted conversion), has
  /// none: its entry's min_max is null. A call without `ranges` pays
  /// nothing for them.
  std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>>
  Snapshot(const std::vector<svtkDataArray *> &columns, int device,
           std::vector<ColumnRange> *ranges = nullptr);

  /// Simulated time of the current step.
  double GetDataTime() const { return this->Time_; }
  void SetDataTime(double t) { this->Time_ = t; }

  /// Index of the current step.
  long GetDataTimeStep() const { return this->TimeStep_; }
  void SetDataTimeStep(long s) { this->TimeStep_ = s; }

  /// The communicator analyses should use for collective operations. May
  /// be null in serial use.
  minimpi::Communicator *GetCommunicator() const { return this->Comm_; }
  void SetCommunicator(minimpi::Communicator *comm) { this->Comm_ = comm; }

protected:
  DataAdaptor() = default;
  /// Completes the lockstep batch; a batch that throws is reported on
  /// stderr.
  ~DataAdaptor() override;

private:
  /// Run the lockstep batch, drop the snapshot's copies, and make this
  /// step's requests and lockstep count the next step's expectation.
  void EndStep();

  /// EndStep when the step index moved since the entries were made.
  void FollowStep();

  struct SnapshotEntry
  {
    svtkSmartPtr<const svtkDataArray> Source; ///< pins the key's address
    svtkSmartPtr<const svtkHAMRDoubleArray> Copy;
    ColumnRange Range; ///< the copy's local range, when its gather folded it
  };
  using RequestKey = std::pair<std::string, int>; ///< (column name, device)

  double Time_ = 0.0;
  long TimeStep_ = 0;
  minimpi::Communicator *Comm_ = nullptr;

  long Step_ = 0; ///< step the snapshot's entries belong to

  std::map<std::pair<const svtkDataArray *, int>, SnapshotEntry> Snapshots_;
  std::map<RequestKey, long> Requests_;  ///< requests this step
  std::map<RequestKey, long> Expected_;  ///< requests the step before

  std::vector<std::shared_ptr<PendingBinning>> Lockstep_; ///< queued
  long LockstepCount_ = 0;    ///< lockstep binning executes this step
  long LockstepExpected_ = 0; ///< lockstep binning executes the step before
};

/// A concrete DataAdaptor presenting a single svtkTable, used by
/// simulations whose state is tabular (one row per particle/sample) and by
/// tests. The table is shared zero-copy.
class TableAdaptor : public DataAdaptor
{
public:
  static TableAdaptor *New(const std::string &meshName = "table")
  {
    auto *a = new TableAdaptor;
    a->MeshName_ = meshName;
    return a;
  }

  const char *GetClassName() const override { return "sensei::TableAdaptor"; }

  std::vector<std::string> GetMeshNames() override { return {this->MeshName_}; }

  svtkDataObject *GetMesh(const std::string &meshName) override
  {
    if (meshName != this->MeshName_ || !this->Table_)
      return nullptr;
    this->Table_->Register();
    return this->Table_;
  }

  void ReleaseData() override
  {
    this->DataAdaptor::ReleaseData();
    if (this->Table_)
    {
      this->Table_->UnRegister();
      this->Table_ = nullptr;
    }
  }

  /// Share `table` as this step's data (takes a reference).
  void SetTable(svtkTable *table)
  {
    if (table)
      table->Register();
    if (this->Table_)
      this->Table_->UnRegister();
    this->Table_ = table;
  }

  svtkTable *GetTable() const { return this->Table_; }

protected:
  TableAdaptor() = default;
  ~TableAdaptor() override
  {
    if (this->Table_)
      this->Table_->UnRegister();
  }

private:
  std::string MeshName_;
  svtkTable *Table_ = nullptr;
};

} // namespace sensei

#endif
