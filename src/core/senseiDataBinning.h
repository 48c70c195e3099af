#ifndef senseiDataBinning_h
#define senseiDataBinning_h

/// @file senseiDataBinning.h
/// The data binning analysis back end (paper Section 4.2). Given tabular
/// data where columns are variables and rows are co-occurring realizations,
/// binning uses a chosen subset of the variables as the coordinate axes of
/// a uniform Cartesian mesh: each realization's coordinate values locate
/// the mesh cell (bin) it belongs to. Incrementing a per-cell counter
/// yields a histogram; additional reductions (sum, min, max, average)
/// incorporate non-coordinate variables into the result. Axis bounds may
/// be fixed or computed on the fly from the data (with an MPI allreduce
/// across ranks).
///
/// The implementation follows the paper: a CPU path that runs on the host
/// and a CUDA path that runs on an assigned device (using the data model's
/// PM-agnostic access so the simulation's PM never matters), both runnable
/// asynchronously in a C++ thread through the AnalysisAdaptor base's
/// execution method, which also places them. The GPU path
/// uses atomic memory updates to handle races between threads hitting the
/// same bin — which is why, as the paper observes, binning is not an ideal
/// GPU algorithm.

#include "senseiAnalysisAdaptor.h"
#include "svtkDataObject.h"
#include "svtkHAMRDataArray.h"
#include "vpStream.h"

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace vp
{
namespace graph
{
class Session;
}
}

namespace sensei
{

/// Reduction used to incorporate a variable into the binning result.
enum class BinningOp : int
{
  Count = 0, ///< per-bin realization count (histogram)
  Sum,
  Min,
  Max,
  Average
};

/// Parse an operation name ("count", "sum", "min", "max", "average"/"avg").
/// Throws std::invalid_argument on unknown names.
BinningOp BinningOpFromName(const std::string &name);

/// Short human readable name.
const char *BinningOpName(BinningOp op);

/// How the device path accumulates into shared bins. The paper observes
/// that "data binning is not an ideal algorithm for GPUs since it
/// requires the use of atomic memory updates", and lists optimizing the
/// GPU implementation as future work; the privatized strategy is that
/// optimization: each thread block accumulates into a private (shared
/// memory) copy of the histogram, paying only block-local atomics, and a
/// final merge kernel reduces the private copies — trading an extra
/// O(bins x copies) merge for near-streaming accumulation throughput.
enum class GpuBinningStrategy : int
{
  GlobalAtomics = 0, ///< naive: every update is a global atomic
  Privatized         ///< per-block private histograms + merge kernel
};

/// Parse a strategy name ("global_atomics", "privatized").
GpuBinningStrategy GpuBinningStrategyFromName(const std::string &name);

struct PendingBinning;

/// One coordinate-system data binning operator instance.
class DataBinning : public AnalysisAdaptor
{
public:
  static DataBinning *New() { return new DataBinning; }

  const char *GetClassName() const override { return "sensei::DataBinning"; }

  // --- configuration ----------------------------------------------------------

  /// Mesh (table) to pull from the data adaptor.
  void SetMeshName(const std::string &name) { this->MeshName_ = name; }
  const std::string &GetMeshName() const { return this->MeshName_; }

  /// Coordinate axes: 1 to 3 column names.
  void SetAxes(const std::vector<std::string> &axes);
  const std::vector<std::string> &GetAxes() const { return this->Axes_; }

  /// Bins along each axis (same length as the axes list; a single value
  /// is broadcast to all axes).
  void SetResolution(const std::vector<long> &res);

  /// Fix axis `i`'s bounds instead of computing them from the data
  /// every step (the default).
  void SetRange(int axis, double lo, double hi);

  /// Add a reduction of `column` (ignored/empty for Count).
  void AddOperation(const std::string &column, BinningOp op);

  /// Drop every configured reduction (the implicit count remains). Used
  /// by steering to swap the rendered variable mid-run.
  void ClearOperations() { this->Ops_.clear(); }

  /// Write the result grid as <dir>/<prefix>_<step>.vti on rank 0 every
  /// `frequency` steps (0 disables writing, the default).
  void SetOutput(const std::string &dir, const std::string &prefix,
                 long frequency);

  /// Select the device accumulation strategy (default GlobalAtomics, the
  /// implementation the paper evaluated; Privatized is the optimization
  /// its future work calls for).
  void SetGpuStrategy(GpuBinningStrategy s) { this->GpuStrategy_ = s; }
  GpuBinningStrategy GetGpuStrategy() const { return this->GpuStrategy_; }

  // --- framework interface -----------------------------------------------------

  bool Execute(DataAdaptor *data) override;
  /// Its axes and the columns of its reductions.
  std::optional<std::vector<std::string>>
  GetColumnsRead(const std::string &mesh) const override;
  /// Drain, complete a lockstep execute still queued (with every one
  /// queued before it), then free the record's device buffers and the
  /// arena (an execute after Finalize allocates them again).
  int Finalize() override;

  /// The most recent result: a uniform mesh whose point data holds one
  /// array per configured operation (named "<column>_<op>", plus
  /// "count"). Returns a new reference, or nullptr before the first
  /// completed Execute. When a result is complete depends on the method:
  /// - lockstep: when the step's lockstep batch runs this execute's
  ///   completion (DataAdaptor::BatchLockstep). That is inside Execute
  ///   for a lone binning (the previous step ran at most one lockstep
  ///   binning execute on the adaptor), and otherwise at the step's last
  ///   lockstep binning execute, ReleaseData, a step index change, the
  ///   end of ConfigurableAnalysis::Execute or DataAdaptor::
  ///   FinishLockstep(), whichever comes first. While the completion is
  ///   still queued this throws std::logic_error rather than return the
  ///   previous step's grid: a reader mid-step calls FinishLockstep()
  ///   on the adaptor first;
  /// - asynchronous: when the task has run, so the result trails the
  ///   simulation by up to one in-flight step.
  svtkImageData *GetLastResult() const;

  /// GetLastResult, with the exact [lo[a], hi[a]] each axis a of that
  /// result was binned over (the image's origin and spacing do not give
  /// hi back bit for bit). `lo` and `hi` are left alone when there is no
  /// result.
  svtkImageData *GetLastResult(std::vector<double> &lo,
                               std::vector<double> &hi) const;

  /// Number of completed binning executions.
  long GetExecuteCount() const;

protected:
  DataBinning(); // out of line: GraphSession_ needs the complete type
  ~DataBinning() override;

private:
  struct Operation
  {
    std::string Column;
    BinningOp Kind = BinningOp::Count;
  };

  /// One block's typed columns: the simulation's, shared zero-copy
  /// (lockstep), or the data adaptor's snapshot on the placement device
  /// (asynchronous), and the simulation's arrays behind the axes, which
  /// key the batch's range scan. A svtkTable mesh yields one block; a
  /// svtkMultiBlockDataSet yields one per non-null table block. An
  /// asynchronous execute with auto-ranged axes also holds the local
  /// range the snapshot folded for each axis (a null min_max where it
  /// folded none); otherwise AxisRanges is empty.
  struct BlockInput
  {
    std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> AxisCols;
    std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> ValueCols;
    std::vector<svtkSmartPtr<const svtkDataArray>> AxisSources;
    std::vector<DataAdaptor::ColumnRange> AxisRanges;
  };

  /// A step's worth of inputs.
  struct StepInputs
  {
    std::vector<BlockInput> Blocks;
    minimpi::Communicator *Comm = nullptr;
    long Step = 0;
    int Device = DEVICE_HOST;
    std::size_t Rows = 0;  ///< total rows over the blocks
    std::size_t Bytes = 0; ///< payload of the distinct columns
  };

  /// The step's inputs by the execution method: the typed columns of
  /// every block (GetInputs). Places the execute only once its columns
  /// are found.
  bool GatherInputs(DataAdaptor *data, StepInputs &in);

  /// The host half of an execute: views, the configuration the batch
  /// reads (axes, fixed ranges, reductions, resolution) and the record's
  /// sizing. It launches nothing; the ranges and the device work are the
  /// batch's (CompleteBatch).
  void PrepareBinning(PendingBinning &p);

  using Batch = std::vector<std::shared_ptr<PendingBinning>>;

  /// Complete `batch`, executes whose host halves have run: a lockstep
  /// batch's queue in queue order (DataAdaptor::FinishLockstep), or an
  /// asynchronous task's one execute. First the range pass and each
  /// execute's bin geometry (SetBinGeometry). Then on each placement
  /// device the device's share is one accumulate launch per GPU strategy
  /// (plus the privatized merge), one compact launch over all of its
  /// records and one readback of their compact forms into the pinned
  /// arena of the batch's first execute's instance; the host-placed
  /// executes accumulate and compact in queue order meanwhile. Then one
  /// batched AllreduceCompact reduces every record (without a
  /// communicator, an unpack or copy each), and FinishBinning completes
  /// each execute in turn.
  static void CompleteBatch(const Batch &batch);
  friend class DataAdaptor;
  friend struct PendingBinning;

  /// The batch's range pass, then every execute's bin geometry. Each
  /// auto-ranged (execute, axis, block) takes the local range its
  /// snapshot folded when its copy has one (asynchronous), and otherwise
  /// that of one scan unit per distinct source array and block, scanned
  /// through the view of the first execute in queue order that reads it:
  /// one multi-unit kernel and one readback per placement device (into
  /// the scratch of the batch leader's Arena), a host loop on the host.
  /// The parts of each (mesh, column) slot fold in block order, and one
  /// Min collective over the slots in name order makes them global. The
  /// slots follow from the configuration alone, so every rank issues the
  /// same collective, and none when every axis is fixed.
  static void SetBinGeometry(const Batch &batch);

  /// One execute's result from its record's reduction `reduced`, a
  /// compact record holding `held` bins (null: a host record without a
  /// communicator, already final): the result arrays, averages and empty
  /// bins finalized, stored, then written to the output file.
  void FinishBinning(const PendingBinning &p, const void *reduced,
                     std::size_t held);

  /// The accumulation kernel body of block `block` of `p` over the
  /// packed record at `rec`, and its price per row.
  static auto AccumulateBody(const PendingBinning &p, std::size_t block,
                             double *rec);
  static double OpsPerRow(const PendingBinning &p);

  /// Run this instance's queued lockstep completion (and, in order,
  /// every one queued before it on the same adaptor).
  void FinishQueued();

  /// The packed grid record [count | seg 1 | ... | seg nRed], kept
  /// across executes. On a device the record is allocated once per
  /// (device, bins, kinds) and initialized by the first batch that runs
  /// it, and compaction writes every bin it packs back to its identity,
  /// so each execute leaves the record as it was initialized; the
  /// cross-rank reduction (or, alone, the unpack) of the compact record
  /// writes each segment straight into its result array, so a device
  /// placement has no dense record on the host. The compact forms live
  /// in the Arena of the instance that leads the batch. Nothing locks
  /// the record: two executes of one instance never overlap (one
  /// consumer per pipeline; an execute first runs its instance's queued
  /// lockstep completion, and a lockstep one drains the pipeline), and
  /// Finalize and the destructor drain and finish before they free.
  struct Record
  {
    int Device = DEVICE_HOST;     ///< where DeviceRec lives
    std::size_t Bins = 0;         ///< bins per segment
    std::vector<BinningOp> Kinds; ///< one per segment
    double *DeviceRec = nullptr;  ///< Kinds.size() x Bins, at identities
    bool Fresh = false;           ///< DeviceRec still awaits its init
    std::vector<double> Host;     ///< a host placement's dense record
  };

  /// Size the record for (device, bins, kinds), allocating only what a
  /// change of device, bins or kinds requires.
  void PrepareRecord(int device, std::size_t nBins,
                     const std::vector<BinningOp> &kinds);

  /// The buffers of a batch this instance leads (its first execute is
  /// this instance's), kept across batches: per placement device, the
  /// range scan's scratch (2 doubles per unit) and the buffer the
  /// device's compact launch writes its share into, and the pinned host
  /// arena every record's compact form lands in, each device's share by
  /// one readback. Allocated outside the pool and grown, in powers of
  /// two, to cover the largest batch; a device's buffers are freed when
  /// a batch leaves its device out, and everything at Finalize.
  struct Arena
  {
    struct Buffer
    {
      void *P = nullptr;
      std::size_t Bytes = 0;
      /// Room for `bytes`: pinned host memory when `host`, else device
      /// memory on the current device, reallocated to the next power of
      /// two when it holds less.
      void *Reserve(std::size_t bytes, bool host);
    };
    struct DeviceBuffers
    {
      Buffer Scan, Compact;
    };
    std::map<int, DeviceBuffers> Device;
    Buffer Host;
  };

  /// Free the record's device buffers and the arena, and drop the host
  /// ones.
  void ReleaseRecord();

  /// Placement with the captured-graph pin: while GraphSession_ holds an
  /// armed graph the capture-time device is kept (replay requires it),
  /// unless the policy has genuinely diverged from the pin — then the
  /// graph is dropped and placement re-decided.
  int PlaceForGraph(DataAdaptor *data, const sched::WorkHint &hint);

  void StoreResult(svtkImageData *image, const std::vector<double> &lo,
                   const std::vector<double> &hi);

  std::string MeshName_ = "table";
  std::vector<std::string> Axes_;
  std::vector<long> Resolution_;
  std::vector<double> FixedLo_, FixedHi_;
  std::vector<bool> HasFixedRange_;
  std::vector<Operation> Ops_;

  std::string OutputDir_;
  std::string OutputPrefix_ = "binning";
  long OutputFrequency_ = 0;
  GpuBinningStrategy GpuStrategy_ = GpuBinningStrategy::GlobalAtomics;

  Record Record_;
  Arena Arena_;

  /// Captured step-graph session (src/graph) of the device shares this
  /// instance's execute leads in a batch, created on the first one when
  /// vp::graph is enabled.
  std::unique_ptr<vp::graph::Session> GraphSession_;
  int GraphDevice_ = DEVICE_AUTO; ///< device pinned at capture

  mutable std::mutex ResultMutex_;
  svtkImageData *LastResult_ = nullptr;
  std::vector<double> LastLo_, LastHi_; ///< LastResult_'s axis ranges
  long ExecuteCount_ = 0;
  /// The adaptor whose lockstep batch holds this instance's completion,
  /// or null when none is queued.
  DataAdaptor *Queued_ = nullptr;
};

/// One execute between its host half (DataBinning::PrepareBinning) and
/// its completion (DataBinning::CompleteBatch). It keeps alive, until the
/// batch has synchronized its device work, the inputs and views the
/// kernels read and everything their bodies capture.
struct PendingBinning
{
  DataBinning *Owner = nullptr;
  DataBinning::StepInputs In;
  std::map<const svtkHAMRDoubleArray *, std::shared_ptr<const double>> Views;
  std::vector<std::size_t> Rows; ///< per block
  std::vector<std::vector<const double *>> Ax, Vals;
  std::string Mesh;
  std::vector<std::string> Axes;
  std::vector<bool> Fixed; ///< per axis: Lo and Hi are the fixed range
  std::vector<DataBinning::Operation> RedOps;
  std::vector<BinningOp> Kinds; ///< one per segment
  std::vector<long> Res;
  std::vector<double> Lo, Hi, Scale, Shift;
  GpuBinningStrategy Strategy = GpuBinningStrategy::GlobalAtomics;
  minimpi::CompactShape Shape;
  std::size_t Cap = 0;
  vp::Stream Strm; ///< a device placement's private stream
};

} // namespace sensei

#endif
