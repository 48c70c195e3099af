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
/// asynchronously in a C++ thread, with placement and execution method
/// controlled through the AnalysisAdaptor base extensions. The GPU path
/// uses atomic memory updates to handle races between threads hitting the
/// same bin — which is why, as the paper observes, binning is not an ideal
/// GPU algorithm.

#include "schedPipeline.h"
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

  /// Fix axis `i`'s bounds instead of computing them from the data.
  void SetRange(int axis, double lo, double hi);

  /// Recompute bounds from the data every step (the default).
  void SetAutoRange(bool on) { this->AutoRange_ = on; }

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

  /// Run asynchronous executions on real std::threads instead of the
  /// default deterministic virtual-time accounting (see
  /// schedPipeline.h for the trade-off).
  void SetUseRealThreads(bool on) { this->Runner_.SetUseRealThreads(on); }

  // --- framework interface -----------------------------------------------------

  bool Execute(DataAdaptor *data) override;
  /// Its axes and the columns of its reductions.
  std::optional<std::vector<std::string>>
  GetColumnsRead(const std::string &mesh) const override;
  void DrainAsync() override { this->Runner_.Drain(); }
  /// Drain, then free the record's device buffers (an execute after
  /// Finalize allocates them again).
  int Finalize() override;

  /// The most recent result: a uniform mesh whose point data holds one
  /// array per configured operation (named "<column>_<op>", plus
  /// "count"). Returns a new reference, or nullptr before the first
  /// completed Execute. For asynchronous execution the result trails the
  /// simulation by up to one in-flight step.
  svtkImageData *GetLastResult() const;

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
  /// (asynchronous). A svtkTable mesh yields one block; a
  /// svtkMultiBlockDataSet yields one per non-null table block.
  struct BlockInput
  {
    std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> AxisCols;
    std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> ValueCols;
  };

  /// A column a lockstep range fill covers: one of the execute's axes
  /// the table missed (Axis >= 0, scanned through the execute's views),
  /// or a peer, a column the previous step's lockstep executes requested
  /// on the mesh (typed per block that holds it). Sources, per block that
  /// holds it, key the table.
  struct FillColumn
  {
    std::string Name;
    int Axis = -1;
    DataAdaptor::ColumnSet Sources;
    std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> Peer;
  };

  /// A step's worth of inputs.
  struct StepInputs
  {
    std::vector<BlockInput> Blocks;
    minimpi::Communicator *Comm = nullptr;
    long Step = 0;
    double Time = 0.0;
    int Device = DEVICE_HOST;
    std::size_t Rows = 0;  ///< total rows over the blocks
    std::size_t Bytes = 0; ///< payload of the distinct columns

    /// Lockstep: the adaptor whose axis-range table holds the global
    /// range of the auto-ranged axes (null for an asynchronous execute,
    /// whose task scans its own axes), the ranges it had, per axis, and
    /// on a miss what the fill covers, in name order.
    DataAdaptor *Table = nullptr;
    std::vector<DataAdaptor::AxisRange> Ranges;
    std::vector<FillColumn> Fill;
  };

  bool GatherInputs(DataAdaptor *data, bool async, StepInputs &in);
  void RunBinning(const StepInputs &in);

  /// The lockstep fill: scan every column of in.Fill in one pass (the
  /// axes through the execute's views `ax`, the peers resident on the
  /// execute's device in the same kernel, other peers where they live),
  /// reduce them in one collective, store them in in.Table, and set `lo`
  /// and `hi` of the axes it covered.
  void FillRanges(const StepInputs &in,
                  const std::vector<std::vector<const double *>> &ax,
                  const std::vector<std::size_t> &rows,
                  const vp::Stream &strm, std::vector<double> &lo,
                  std::vector<double> &hi);

  /// The packed grid record [count | seg 1 | ... | seg nRed] and its
  /// compact form, kept across executes. On a device the record is
  /// allocated and initialized once per (device, bins, kinds), and
  /// compaction writes every bin it packs back to its identity, so each
  /// execute leaves the record as it was initialized. The compact
  /// buffers grow to the largest capacity seen. Nothing locks them: two
  /// RunBinning calls of one instance never overlap (one consumer per
  /// pipeline, lockstep on the caller's thread after a drain), and
  /// Finalize and the destructor drain before they free.
  struct Record
  {
    int Device = DEVICE_HOST;     ///< where DeviceRec and DeviceCompact live
    std::size_t Bins = 0;         ///< bins per segment
    std::vector<BinningOp> Kinds; ///< one per segment
    double *DeviceRec = nullptr;  ///< Kinds.size() x Bins, at identities
    void *DeviceCompact = nullptr;
    std::size_t DeviceCompactBytes = 0;
    std::vector<double> Host;    ///< the dense record on the host
    std::vector<double> Compact; ///< the compact record on the host
    /// The range scan's device scratch, 2 doubles per unit, keyed by
    /// the scanned device (a lockstep fill may scan peers that live on
    /// another device); allocated outside the pool and grown to the
    /// largest scan seen.
    struct Scratch
    {
      double *P = nullptr;
      std::size_t Units = 0;
    };
    std::map<int, Scratch> Scan;
  };

  /// Size the record for (device, bins, kinds) and a compact record of
  /// `compactBytes`, allocating and initializing on `strm` only what a
  /// change of device, bins or kinds, or a larger capacity, requires.
  void PrepareRecord(int device, std::size_t nBins,
                     const std::vector<BinningOp> &kinds,
                     std::size_t compactBytes, const vp::Stream &strm);

  /// The range scan's scratch on `device`, room for `nUnits` units.
  double *ScanScratch(int device, std::size_t nUnits);

  /// Free the device buffers and drop the host ones.
  void ReleaseRecord();

  /// Placement with the captured-graph pin: while GraphSession_ holds an
  /// armed graph the capture-time device is kept (replay requires it),
  /// unless the policy has genuinely diverged from the pin — then the
  /// graph is dropped and placement re-decided.
  int PlaceForGraph(DataAdaptor *data, const sched::WorkHint &hint);

  void StoreResult(svtkImageData *image);

  std::string MeshName_ = "table";
  std::vector<std::string> Axes_;
  std::vector<long> Resolution_;
  std::vector<double> FixedLo_, FixedHi_;
  std::vector<bool> HasFixedRange_;
  bool AutoRange_ = true;
  std::vector<Operation> Ops_;

  std::string OutputDir_;
  std::string OutputPrefix_ = "binning";
  long OutputFrequency_ = 0;
  GpuBinningStrategy GpuStrategy_ = GpuBinningStrategy::GlobalAtomics;

  Record Record_;

  sched::BoundedPipeline Runner_;
  /// communicator duplicated for the in situ thread, so its collectives
  /// never interleave with the simulation's
  std::optional<minimpi::Communicator> AsyncComm_;

  /// Captured step-graph session for the device path (src/graph),
  /// created on the first device execution when vp::graph is enabled.
  std::unique_ptr<vp::graph::Session> GraphSession_;
  int GraphDevice_ = DEVICE_AUTO; ///< device pinned at capture

  mutable std::mutex ResultMutex_;
  svtkImageData *LastResult_ = nullptr;
  long ExecuteCount_ = 0;
};

} // namespace sensei

#endif
