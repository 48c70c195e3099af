#include "senseiDataBinning.h"

#include "senseiProfiler.h"
#include "sio.h"
#include "svtkAOSDataArray.h"
#include "vcuda.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace sensei
{

BinningOp BinningOpFromName(const std::string &name)
{
  if (name == "count")
    return BinningOp::Count;
  if (name == "sum")
    return BinningOp::Sum;
  if (name == "min")
    return BinningOp::Min;
  if (name == "max")
    return BinningOp::Max;
  if (name == "average" || name == "avg")
    return BinningOp::Average;
  throw std::invalid_argument("unknown binning operation '" + name + "'");
}

GpuBinningStrategy GpuBinningStrategyFromName(const std::string &name)
{
  if (name == "global_atomics" || name == "atomics" || name.empty())
    return GpuBinningStrategy::GlobalAtomics;
  if (name == "privatized")
    return GpuBinningStrategy::Privatized;
  throw std::invalid_argument("unknown GPU binning strategy '" + name + "'");
}

const char *BinningOpName(BinningOp op)
{
  switch (op)
  {
    case BinningOp::Count: return "count";
    case BinningOp::Sum: return "sum";
    case BinningOp::Min: return "min";
    case BinningOp::Max: return "max";
    case BinningOp::Average: return "avg";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
DataBinning::~DataBinning()
{
  this->DrainAsync(); // tasks read members
  // a batch that throws is reported; it has left the queue either way
  try
  {
    this->FinishQueued();
  }
  catch (const std::exception &e)
  {
    std::cerr << "sensei::DataBinning: a queued lockstep batch failed: "
              << e.what() << std::endl;
  }
  this->ReleaseRecord();
  if (this->LastResult_)
    this->LastResult_->UnRegister();
}

void DataBinning::SetAxes(const std::vector<std::string> &axes)
{
  if (axes.empty() || axes.size() > 3)
    throw std::invalid_argument("DataBinning::SetAxes: 1 to 3 axes required");
  this->Axes_ = axes;
  this->FixedLo_.assign(axes.size(), 0.0);
  this->FixedHi_.assign(axes.size(), 0.0);
  this->HasFixedRange_.assign(axes.size(), false);
  if (this->Resolution_.size() != axes.size())
    this->Resolution_.assign(axes.size(), 256);
}

void DataBinning::SetResolution(const std::vector<long> &res)
{
  if (this->Axes_.empty())
    throw std::logic_error("DataBinning::SetResolution: set axes first");
  if (res.size() == 1)
  {
    this->Resolution_.assign(this->Axes_.size(), res[0]);
  }
  else if (res.size() == this->Axes_.size())
  {
    this->Resolution_ = res;
  }
  else
  {
    throw std::invalid_argument(
      "DataBinning::SetResolution: need one value or one per axis");
  }
  for (long r : this->Resolution_)
    if (r < 1)
      throw std::invalid_argument(
        "DataBinning::SetResolution: resolution must be positive");
}

void DataBinning::SetRange(int axis, double lo, double hi)
{
  if (axis < 0 || axis >= static_cast<int>(this->Axes_.size()))
    throw std::out_of_range("DataBinning::SetRange: bad axis");
  if (!(lo < hi))
    throw std::invalid_argument("DataBinning::SetRange: need lo < hi");
  this->FixedLo_[static_cast<std::size_t>(axis)] = lo;
  this->FixedHi_[static_cast<std::size_t>(axis)] = hi;
  this->HasFixedRange_[static_cast<std::size_t>(axis)] = true;
}

void DataBinning::AddOperation(const std::string &column, BinningOp op)
{
  if (op != BinningOp::Count && column.empty())
    throw std::invalid_argument(
      "DataBinning::AddOperation: reduction needs a column");
  this->Ops_.push_back(Operation{column, op});
}

void DataBinning::SetOutput(const std::string &dir, const std::string &prefix,
                            long frequency)
{
  this->OutputDir_ = dir;
  this->OutputPrefix_ = prefix;
  this->OutputFrequency_ = frequency;
}

// ---------------------------------------------------------------------------
bool DataBinning::GatherInputs(DataAdaptor *data, StepInputs &in)
{
  auto obj = svtkSmartPtr<svtkDataObject>::Take(data->GetMesh(this->MeshName_));
  if (!obj)
    return false;

  // resolve to a list of tables: a table mesh is one block; a multi-block
  // mesh contributes every non-null block (all of which must be tables)
  std::vector<svtkTable *> tables;
  if (auto *table = dynamic_cast<svtkTable *>(obj.Get()))
  {
    tables.push_back(table);
  }
  else if (auto *mb = dynamic_cast<svtkMultiBlockDataSet *>(obj.Get()))
  {
    for (int i = 0; i < mb->GetNumberOfBlocks(); ++i)
    {
      svtkDataObject *block = mb->GetBlock(i);
      if (!block)
        continue;
      auto *t = dynamic_cast<svtkTable *>(block);
      if (!t)
        return false;
      tables.push_back(t);
    }
  }
  else
  {
    return false;
  }

  // each block's source columns. A reduction list often names the same
  // column several times (e.g. min/max/avg of one variable); each
  // distinct column counts toward the payload, and is typed (and, for
  // async, snapshotted) once, so it also moves at most once.
  struct BlockSources
  {
    std::vector<svtkDataArray *> Axis, Value;
  };
  std::vector<BlockSources> sources;
  for (svtkTable *table : tables)
  {
    BlockSources src;
    std::set<const svtkDataArray *> distinct;
    auto grab = [&](const std::string &name,
                    std::vector<svtkDataArray *> &out) -> bool
    {
      svtkDataArray *col = table->GetColumnByName(name);
      if (!col)
        return false;
      if (distinct.insert(col).second)
        in.Bytes +=
          static_cast<std::size_t>(col->GetNumberOfTuples()) * sizeof(double);
      out.push_back(col);
      return true;
    };
    // a missing column fails the execute before it is placed
    for (const std::string &axis : this->Axes_)
      if (!grab(axis, src.Axis))
        return false;
    for (const Operation &op : this->Ops_)
      if (op.Kind != BinningOp::Count && !grab(op.Column, src.Value))
        return false;

    if (!src.Axis.empty())
      in.Rows += static_cast<std::size_t>(src.Axis[0]->GetNumberOfTuples());
    sources.push_back(std::move(src));
  }

  in.Step = data->GetDataTimeStep();

  // describe the accumulation so the cost-model policy can price it: the
  // per-row cost and atomic fraction mirror the kernel launched below.
  // Row counts and bytes come from the source columns, so placement
  // precedes any copy and the snapshot lands where the work runs.
  std::size_t nRed = 0;
  for (const Operation &op : this->Ops_)
    if (op.Kind != BinningOp::Count)
      ++nRed;
  sched::WorkHint hint;
  hint.Elements = in.Rows;
  hint.OpsPerElement = 4.0 * static_cast<double>(this->Axes_.size()) +
                       3.0 * static_cast<double>(nRed + 1);
  hint.AtomicFraction =
    this->GpuStrategy_ == GpuBinningStrategy::GlobalAtomics ? 0.6 : 0.05;
  hint.MoveBytes = in.Bytes;
  in.Device = this->GetPlacementDevice(data, hint);

  // the typed columns, taken for all of a block's distinct columns at
  // once. An asynchronous binning with auto-ranged axes also takes the
  // local ranges the snapshot's gather folds, so its task need not scan
  // its axes.
  const bool autoRanged =
    std::find(this->HasFixedRange_.begin(), this->HasFixedRange_.end(),
              false) != this->HasFixedRange_.end();
  for (const BlockSources &src : sources)
  {
    std::vector<svtkDataArray *> distinct;
    for (const auto *cols : {&src.Axis, &src.Value})
      for (svtkDataArray *col : *cols)
        if (std::find(distinct.begin(), distinct.end(), col) == distinct.end())
          distinct.push_back(col);
    std::vector<DataAdaptor::ColumnRange> ranges;
    const std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> snapshots =
      this->GetInputs(data, distinct, in.Device,
                      autoRanged ? &ranges : nullptr);
    auto at = [&](svtkDataArray *col)
    {
      return static_cast<std::size_t>(
        std::find(distinct.begin(), distinct.end(), col) - distinct.begin());
    };
    BlockInput block;
    for (svtkDataArray *col : src.Axis)
    {
      block.AxisCols.push_back(snapshots[at(col)]);
      block.AxisSources.emplace_back(col);
      if (!ranges.empty())
        block.AxisRanges.push_back(ranges[at(col)]);
    }
    for (svtkDataArray *col : src.Value)
      block.ValueCols.push_back(snapshots[at(col)]);
    in.Blocks.push_back(std::move(block));
  }
  return true;
}

bool DataBinning::Execute(DataAdaptor *data)
{
  if (!data || this->Axes_.empty())
    return false;

  // a completion of this instance still queued shares the record
  this->FinishQueued();
  auto p = std::make_shared<PendingBinning>();
  p->Owner = this;

  if (this->GetAsynchronous())
  {
    ScopedEvent ev("binning::execute_async_visible");
    if (!this->GatherInputs(data, p->In))
      return false;
    this->Dispatch(data,
                   [this, p](minimpi::Communicator *comm)
                   {
                     p->In.Comm = comm;
                     this->PrepareBinning(*p);
                     CompleteBatch({p});
                   },
                   p->In.Bytes);
    return true;
  }

  ScopedEvent ev("binning::execute_lockstep");
  // a task left in flight by an asynchronous execute shares the record
  this->DrainAsync();
  if (!this->GatherInputs(data, p->In))
    return false;
  p->In.Comm = data->GetCommunicator();
  this->PrepareBinning(*p);
  {
    std::lock_guard<std::mutex> lock(this->ResultMutex_);
    this->Queued_ = data;
  }
  data->BatchLockstep(std::move(p));
  return true;
}

void DataBinning::FinishQueued()
{
  if (this->Queued_)
    this->Queued_->FinishLockstep();
}

std::optional<std::vector<std::string>>
DataBinning::GetColumnsRead(const std::string &mesh) const
{
  std::vector<std::string> cols;
  if (mesh != this->MeshName_)
    return cols;
  cols = this->Axes_;
  for (const Operation &op : this->Ops_)
    if (!op.Column.empty())
      cols.push_back(op.Column);
  return cols;
}

int DataBinning::Finalize()
{
  this->DrainAsync();
  this->FinishQueued();
  this->ReleaseRecord();
  return 0;
}

// ---------------------------------------------------------------------------
namespace
{
/// The min/max of host-resident data.
void PointerRangeHost(const double *p, std::size_t n, double &lo, double &hi)
{
  lo = std::numeric_limits<double>::infinity();
  hi = -std::numeric_limits<double>::infinity();
  if (!n)
    return;

  double mn = std::numeric_limits<double>::infinity();
  double mx = -mn;
  vp::Platform::Get().HostParallelFor(
    vp::KernelDesc{n, 2.0, 0.0, "binning_range_host"},
    [p, &mn, &mx](std::size_t b, std::size_t e)
    {
      for (std::size_t i = b; i < e; ++i)
      {
        mn = std::min(mn, p[i]);
        mx = std::max(mx, p[i]);
      }
    });
  lo = mn;
  hi = mx;
}

/// `N` values at `P`, readable where they are scanned, whose min and max
/// fold into slot `Slot`.
struct RangeUnit
{
  const double *P;
  std::size_t N;
  std::size_t Slot;
};

/// Fold the min and max of each unit (N > 0) into lo[Slot] and hi[Slot]:
/// each unit in index order from +/-inf with std::min and std::max, the
/// fold hamr's packed gather repeats for a snapshot's columns. On a
/// device, one multi-unit kernel into `scratch` (2 doubles per unit, on
/// `device`) and one stream-ordered readback on `strm`; on the host
/// (device < 0), a parallel loop per unit. A batch's range pass scans
/// through here.
void ScanRanges(const std::vector<RangeUnit> &scan, int device,
                const vcuda::stream_t &strm, double *scratch,
                std::vector<double> &lo, std::vector<double> &hi)
{
  if (scan.empty())
    return;
  if (device < 0)
  {
    for (const RangeUnit &unit : scan)
    {
      double ulo = 0, uhi = 0;
      PointerRangeHost(unit.P, unit.N, ulo, uhi);
      lo[unit.Slot] = std::min(lo[unit.Slot], ulo);
      hi[unit.Slot] = std::max(hi[unit.Slot], uhi);
    }
    return;
  }

  auto units = std::make_shared<const std::vector<RangeUnit>>(scan);
  const std::size_t nUnits = units->size();
  std::size_t totalRows = 0;
  for (const RangeUnit &unit : *units)
    totalRows += unit.N;
  std::vector<double> out(2 * nUnits, 0.0);
  const double opsPerUnit =
    2.0 * static_cast<double>(totalRows) / static_cast<double>(nUnits);
  vcuda::LaunchN(
    strm, nUnits,
    [units, scratch](std::size_t ub, std::size_t ue)
    {
      for (std::size_t u = ub; u < ue; ++u)
      {
        const RangeUnit &unit = (*units)[u];
        double mn = std::numeric_limits<double>::infinity();
        double mx = -mn;
        for (std::size_t i = 0; i < unit.N; ++i)
        {
          mn = std::min(mn, unit.P[i]);
          mx = std::max(mx, unit.P[i]);
        }
        scratch[2 * u] = mn;
        scratch[2 * u + 1] = mx;
      }
    },
    vcuda::LaunchBounds{opsPerUnit, 0.05, "binning_range_multi"});
  vcuda::MemcpyAsync(out.data(), scratch, 2 * nUnits * sizeof(double), strm);
  vcuda::StreamSynchronize(strm);
  for (std::size_t u = 0; u < nUnits; ++u)
  {
    const std::size_t slot = (*units)[u].Slot;
    lo[slot] = std::min(lo[slot], out[2 * u]);
    hi[slot] = std::max(hi[slot], out[2 * u + 1]);
  }
}

/// Reduce per-slot ranges across ranks: one Min collective over
/// [lo | -hi], since max(x) = -min(-x) exactly. Nothing without a
/// communicator.
void ReduceRanges(minimpi::Communicator *comm, std::vector<double> &lo,
                  std::vector<double> &hi)
{
  if (!comm)
    return;
  const std::size_t n = lo.size();
  std::vector<double> ext(2 * n);
  for (std::size_t i = 0; i < n; ++i)
  {
    ext[i] = lo[i];
    ext[n + i] = -hi[i];
  }
  comm->Allreduce(ext.data(), ext.size(), minimpi::Op::Min);
  for (std::size_t i = 0; i < n; ++i)
  {
    lo[i] = ext[i];
    hi[i] = -ext[n + i];
  }
}

/// Initial grid value of a reduction kind (count and sums start at 0).
double InitValue(BinningOp op)
{
  switch (op)
  {
    case BinningOp::Min: return std::numeric_limits<double>::infinity();
    case BinningOp::Max: return -std::numeric_limits<double>::infinity();
    default: return 0.0;
  }
}

/// The cross-rank operator of a grid (count, sum and avg add up).
minimpi::Op ReduceOp(BinningOp op)
{
  return op == BinningOp::Min
           ? minimpi::Op::Min
           : (op == BinningOp::Max ? minimpi::Op::Max : minimpi::Op::Sum);
}

/// Fill [b, e) of the packed record `p` (segment g of kinds[g], nBins
/// each) with each segment's init value, one std::fill per segment run.
void FillInit(const BinningOp *kinds, std::size_t nBins, double *p,
              std::size_t b, std::size_t e)
{
  while (b < e)
  {
    const std::size_t seg = b / nBins;
    const std::size_t end = std::min(e, (seg + 1) * nBins);
    std::fill(p + b, p + end, InitValue(kinds[seg]));
    b = end;
  }
}
} // namespace

void DataBinning::PrepareRecord(int device, std::size_t nBins,
                                const std::vector<BinningOp> &kinds)
{
  Record &r = this->Record_;
  const std::size_t recLen = kinds.size() * nBins;
  if (device < 0)
  {
    r.Host.resize(recLen);
    return;
  }
  std::vector<double>().swap(r.Host);

  if (!r.DeviceRec || r.Device != device || r.Bins != nBins ||
      r.Kinds != kinds)
  {
    vcuda::Free(r.DeviceRec);
    r.Device = device;
    r.Bins = nBins;
    r.Kinds = kinds;
    r.DeviceRec =
      static_cast<double *>(vcuda::Malloc(recLen * sizeof(double)));
    r.Fresh = true;
  }
}

void *DataBinning::Arena::Buffer::Reserve(std::size_t bytes, bool host)
{
  // powers of two, so row counts that creep up from step to step (a
  // repartitioning simulation) reallocate rarely
  if (this->Bytes < bytes)
  {
    vcuda::Free(this->P);
    this->Bytes = std::bit_ceil(bytes);
    this->P = host ? vcuda::MallocHost(this->Bytes) : vcuda::Malloc(this->Bytes);
  }
  return this->P;
}

void DataBinning::ReleaseRecord()
{
  vcuda::Free(this->Record_.DeviceRec);
  this->Record_ = Record();
  for (const auto &entry : this->Arena_.Device)
  {
    vcuda::Free(entry.second.Scan.P);
    vcuda::Free(entry.second.Compact.P);
  }
  vcuda::Free(this->Arena_.Host.P);
  this->Arena_ = Arena();
}

double DataBinning::OpsPerRow(const PendingBinning &p)
{
  // index math per axis plus one atomic-ish update per grid
  return 4.0 * static_cast<double>(p.Lo.size()) +
         3.0 * static_cast<double>(p.RedOps.size() + 1);
}

auto DataBinning::AccumulateBody(const PendingBinning &p, std::size_t block,
                                 double *rec)
{
  // the accumulation body over the packed record at `rec`: bin index from
  // the coordinate columns, then a counter increment plus each reduction
  // (segment 1 + k takes valp[k]) — the updates that need atomics on a
  // real GPU. Every placement, strategy and exec mode runs this body over
  // the same rows in the same order, so the grids are bit-exact across
  // all of them.
  const std::size_t nAxes = p.Lo.size();
  const std::size_t nRed = p.RedOps.size();
  const std::size_t nBins = p.Shape.Bins;
  const BinningOp *kn = p.Kinds.data();
  const long *res = p.Res.data();
  const double *scale = p.Scale.data();
  const double *shift = p.Shift.data();
  const double *const *axp = p.Ax[block].data();
  const double *const *valp = p.Vals[block].data();
  return [=](std::size_t b, std::size_t e)
  {
    for (std::size_t i = b; i < e; ++i)
    {
      std::size_t idx = 0;
      std::size_t strideAcc = 1;
      for (std::size_t a = 0; a < nAxes; ++a)
      {
        long bi = static_cast<long>((axp[a][i] - shift[a]) * scale[a]);
        bi = std::clamp(bi, 0L, res[a] - 1);
        idx += static_cast<std::size_t>(bi) * strideAcc;
        strideAcc *= static_cast<std::size_t>(res[a]);
      }
      rec[idx] += 1.0;
      for (std::size_t k = 0; k < nRed; ++k)
      {
        double &cell = rec[(1 + k) * nBins + idx];
        const double v = valp[k][i];
        switch (kn[1 + k])
        {
          case BinningOp::Sum:
          case BinningOp::Average:
            cell += v;
            break;
          case BinningOp::Min:
            cell = std::min(cell, v);
            break;
          case BinningOp::Max:
            cell = std::max(cell, v);
            break;
          default:
            break;
        }
      }
    }
  };
}

void DataBinning::PrepareBinning(PendingBinning &p)
{
  ScopedEvent ev("binning::prepare");

  const StepInputs &in = p.In;
  const std::size_t nAxes = this->Axes_.size();
  const std::size_t nBlocks = in.Blocks.size();

  const bool onDevice = in.Device >= 0;
  if (onDevice)
    vcuda::SetDevice(in.Device);

  // the configuration the batch reads: the axes, their fixed ranges (the
  // batch's range pass sets the auto-ranged ones) and the reductions to
  // perform (count is implicit)
  p.Mesh = this->MeshName_;
  p.Axes = this->Axes_;
  p.Fixed = this->HasFixedRange_;
  p.Lo = this->FixedLo_;
  p.Hi = this->FixedHi_;
  for (const Operation &op : this->Ops_)
    if (op.Kind != BinningOp::Count)
      p.RedOps.push_back(op);
  const std::size_t nRed = p.RedOps.size();
  p.Strategy = this->GpuStrategy_;

  // --- the packed grid record: one buffer [count | seg 1 | ... | seg nRed]
  // of nGrids x nBins doubles, segment 1 + k holding reduction k;
  // kinds[g] is the kind of segment g
  const std::size_t nGrids = 1 + nRed;
  std::vector<BinningOp> &kinds = p.Kinds;
  kinds.assign(nGrids, BinningOp::Count);
  for (std::size_t k = 0; k < nRed; ++k)
    kinds[1 + k] = p.RedOps[k].Kind;
  p.Res = this->Resolution_;

  // --- inputs at the target location, acquired exactly once per column
  // (the access API moves a lockstep column at most once per execute;
  // an asynchronous snapshot already lives there, so its view is
  // zero-copy; both the range scan and the accumulation use the same
  // view)
  auto acquire =
    [&](const svtkHAMRDoubleArray *col) -> const double *
  {
    auto it = p.Views.find(col);
    if (it == p.Views.end())
      it = p.Views.emplace(col, col->GetDeviceAccessible(in.Device)).first;
    return it->second.get();
  };

  std::vector<std::size_t> &rows = p.Rows;
  std::vector<std::vector<const double *>> &ax = p.Ax;
  std::vector<std::vector<const double *>> &vals = p.Vals;
  rows.assign(nBlocks, 0);
  ax.resize(nBlocks);
  vals.resize(nBlocks);
  for (std::size_t b = 0; b < nBlocks; ++b)
  {
    const BlockInput &blk = in.Blocks[b];
    rows[b] = blk.AxisCols.empty() ? 0 : blk.AxisCols[0]->GetNumberOfTuples();
    ax[b].resize(nAxes);
    vals[b].resize(nRed);
    for (std::size_t a = 0; a < nAxes; ++a)
      ax[b][a] = acquire(blk.AxisCols[a].Get());
    for (std::size_t k = 0; k < nRed; ++k)
      vals[b][k] = acquire(blk.ValueCols[k].Get());
    // make sure data in flight, if it was moved, has arrived
    for (const auto &c : blk.AxisCols)
      c->Synchronize();
    for (const auto &c : blk.ValueCols)
      c->Synchronize();
  }

  if (onDevice)
    p.Strm = vcuda::StreamCreate();

  // --- the record's compact form, in which it leaves the device and
  // crosses ranks: the occupancy bitmap plus the values of each occupied
  // bin (src/comm). A rank cannot occupy more bins than it binned rows,
  // so the capacity is known before any kernel runs and the readback has
  // a fixed size
  std::size_t nBins = 1;
  for (long r : p.Res)
    nBins *= static_cast<std::size_t>(r);
  p.Shape.Bins = nBins;
  for (BinningOp k : kinds)
    p.Shape.Ops.push_back(ReduceOp(k));
  std::size_t cap = 0;
  for (std::size_t b = 0; b < nBlocks; ++b)
    cap += rows[b];
  p.Cap = std::min(cap, nBins);
  this->PrepareRecord(in.Device, nBins, kinds);
}

void DataBinning::SetBinGeometry(const Batch &batch)
{
  constexpr double Inf = std::numeric_limits<double>::infinity();

  // the slots: every auto-ranged axis's (mesh, column), in name order
  std::map<std::pair<std::string, std::string>, std::size_t> slots;
  for (const auto &p : batch)
    for (std::size_t a = 0; a < p->Axes.size(); ++a)
      if (!p->Fixed[a])
        slots.emplace(std::make_pair(p->Mesh, p->Axes[a]), 0);
  std::size_t nSlots = 0;
  for (auto &slot : slots)
    slot.second = nSlots++;
  std::vector<double> lo(nSlots, Inf), hi(nSlots, -Inf);

  if (nSlots)
  {
    // the parts, each a (slot, block, source array)'s local range: the
    // snapshot's fold, or the scan of a unit queued on the placement
    // device of the first execute that reads it
    std::map<std::tuple<std::size_t, std::size_t, const svtkDataArray *>,
             std::size_t>
      parts;
    std::vector<std::size_t> partSlot;
    std::vector<double> partLo, partHi;
    std::map<int, std::vector<RangeUnit>> units;
    std::set<std::shared_ptr<const double>, std::owner_less<>> waited;
    for (const auto &pp : batch)
    {
      const PendingBinning &p = *pp;
      for (std::size_t a = 0; a < p.Axes.size(); ++a)
      {
        if (p.Fixed[a])
          continue;
        const std::size_t slot = slots.at({p.Mesh, p.Axes[a]});
        for (std::size_t b = 0; b < p.Rows.size(); ++b)
        {
          const BlockInput &blk = p.In.Blocks[b];
          if (!p.Rows[b] ||
              !parts.try_emplace({slot, b, blk.AxisSources[a].Get()},
                                 partSlot.size())
                 .second)
            continue;
          partSlot.push_back(slot);
          partLo.push_back(Inf);
          partHi.push_back(-Inf);
          // a fold covers the whole column, a scan the block's rows
          const DataAdaptor::ColumnRange *folded =
            blk.AxisRanges.empty() ? nullptr : &blk.AxisRanges[a];
          if (!folded || !folded->min_max ||
              blk.AxisCols[a]->GetBuffer().size() != p.Rows[b])
          {
            units[std::max(p.In.Device, DEVICE_HOST)].push_back(
              RangeUnit{p.Ax[b][a], p.Rows[b], partSlot.size() - 1});
            continue;
          }
          if (waited.insert(folded->min_max).second)
            vcuda::EventSynchronize(folded->ready);
          partLo.back() = folded->min_max.get()[0];
          partHi.back() = folded->min_max.get()[1];
        }
      }
    }

    // one scan per placement device, on the stream of its first execute
    // in queue order (the stream its share's launches run on)
    Arena &arena = batch.front()->Owner->Arena_;
    for (const auto &[device, scan] : units)
    {
      const PendingBinning &first = **std::find_if(
        batch.begin(), batch.end(), [device = device](const auto &p)
        { return std::max(p->In.Device, DEVICE_HOST) == device; });
      double *scratch = nullptr;
      if (device >= 0)
      {
        vcuda::SetDevice(device);
        scratch = static_cast<double *>(arena.Device[device].Scan.Reserve(
          2 * scan.size() * sizeof(double), false));
      }
      ScanRanges(scan, device, first.Strm, scratch, partLo, partHi);
    }
    for (std::size_t i = 0; i < partSlot.size(); ++i)
    {
      lo[partSlot[i]] = std::min(lo[partSlot[i]], partLo[i]);
      hi[partSlot[i]] = std::max(hi[partSlot[i]], partHi[i]);
    }
    ReduceRanges(batch.front()->In.Comm, lo, hi);
  }

  // --- each execute's bin geometry
  for (const auto &pp : batch)
  {
    PendingBinning &p = *pp;
    const std::size_t nAxes = p.Axes.size();
    p.Scale.resize(nAxes);
    p.Shift.resize(nAxes);
    for (std::size_t a = 0; a < nAxes; ++a)
    {
      double &alo = p.Lo[a], &ahi = p.Hi[a];
      if (!p.Fixed[a])
      {
        const std::size_t slot = slots.at({p.Mesh, p.Axes[a]});
        alo = lo[slot];
        ahi = hi[slot];
      }
      if (!std::isfinite(alo) || !std::isfinite(ahi))
      {
        alo = 0.0;
        ahi = 1.0;
      }
      if (!(ahi > alo))
        ahi = alo + 1.0;
      p.Scale[a] = static_cast<double>(p.Res[a]) / (ahi - alo);
      p.Shift[a] = alo;
    }
  }
}

void DataBinning::CompleteBatch(const Batch &batch)
{
  ScopedEvent ev("binning::complete");
  for (const auto &p : batch)
  {
    std::lock_guard<std::mutex> lock(p->Owner->ResultMutex_);
    p->Owner->Queued_ = nullptr;
  }
  SetBinGeometry(batch);

  // --- the arena's layout: each placement's share (the host's, then the
  // devices' in id order), its executes in queue order, one compact
  // record after the other (each a whole number of doubles)
  struct Share
  {
    std::vector<std::size_t> Items; ///< indices into the batch
    std::size_t Base = 0, Bytes = 0;
  };
  std::map<int, Share> shares;
  for (std::size_t i = 0; i < batch.size(); ++i)
    shares[std::max(batch[i]->In.Device, DEVICE_HOST)].Items.push_back(i);
  std::vector<std::size_t> at(batch.size());
  std::size_t total = 0;
  for (auto &[device, share] : shares)
  {
    share.Base = total;
    for (std::size_t i : share.Items)
    {
      at[i] = total;
      total += batch[i]->Shape.Bytes(batch[i]->Cap);
    }
    share.Bytes = total - share.Base;
  }

  Arena &arena = batch.front()->Owner->Arena_;
  auto *host = static_cast<std::byte *>(arena.Host.Reserve(total, true));
  for (auto it = arena.Device.begin(); it != arena.Device.end();)
  {
    if (shares.count(it->first))
    {
      ++it;
      continue;
    }
    vcuda::Free(it->second.Scan.P);
    vcuda::Free(it->second.Compact.P);
    it = arena.Device.erase(it);
  }

  // --- each device's share: the fresh records' inits, one accumulate
  // launch per GPU strategy, one compact launch and one readback, all on
  // the share's first execute's stream
  for (auto &[device, share] : shares)
  {
    if (device < 0)
      continue;
    vcuda::SetDevice(device);
    void *buf = arena.Device[device].Compact.Reserve(share.Bytes, false);
    const vcuda::stream_t &strm = batch[share.Items.front()]->Strm;
    for (std::size_t i : share.Items)
    {
      Record &r = batch[i]->Owner->Record_;
      if (!r.Fresh)
        continue;
      r.Fresh = false;
      vcuda::LaunchN(
        strm, r.Kinds.size() * r.Bins,
        [kn = r.Kinds, nBins = r.Bins, rec = r.DeviceRec](std::size_t b,
                                                          std::size_t e)
        { FillInit(kn.data(), nBins, rec, b, e); },
        vcuda::LaunchBounds{1.0, 0.0, "binning_init"});
    }

    // global atomics is the implementation the paper evaluated: every bin
    // update is a global atomic, so contention throttles the device
    // (AtomicFraction models the contention the paper identifies as
    // binning's GPU weakness). Privatized uses per-thread-block
    // shared-memory histograms, making the accumulation nearly streaming;
    // on real hardware that changes scheduling, not arithmetic, so the
    // body is the same and only the atomic fraction differs. One launch
    // covers every block of every execute of the strategy: row j of the
    // launch is a row of the run holding it, each run accumulating its
    // block's rows in order into its own record, so the grids are those
    // of one launch per block
    for (GpuBinningStrategy strategy :
         {GpuBinningStrategy::GlobalAtomics, GpuBinningStrategy::Privatized})
    {
      struct Run
      {
        std::size_t First, Rows;
        vp::KernelFn Body;
      };
      auto runs = std::make_shared<std::vector<Run>>();
      std::size_t nRows = 0, mergeLen = 0;
      double work = 0.0;
      for (std::size_t i : share.Items)
      {
        PendingBinning &p = *batch[i];
        if (p.Strategy != strategy)
          continue;
        const std::size_t before = nRows;
        for (std::size_t b = 0; b < p.Rows.size(); ++b)
        {
          if (!p.Rows[b])
            continue;
          runs->push_back(Run{nRows, p.Rows[b],
                              AccumulateBody(p, b, p.Owner->Record_.DeviceRec)});
          nRows += p.Rows[b];
          work += static_cast<double>(p.Rows[b]) * OpsPerRow(p);
        }
        if (nRows > before)
          mergeLen += p.Kinds.size() * p.Shape.Bins;
      }
      if (!nRows)
        continue;
      const double ops = work / static_cast<double>(nRows);
      const bool privatized = strategy == GpuBinningStrategy::Privatized;
      vcuda::LaunchN(
        strm, nRows,
        [runs](std::size_t b, std::size_t e)
        {
          for (const Run &run : *runs)
          {
            const std::size_t rb = std::max(b, run.First);
            const std::size_t re = std::min(e, run.First + run.Rows);
            if (rb < re)
              run.Body(rb - run.First, re - run.First);
          }
        },
        privatized
          ? vcuda::LaunchBounds{ops, 0.05, "binning_accum_privatized"}
          : vcuda::LaunchBounds{ops, 0.6, "binning_accum"});
      if (privatized)
      {
        // the merge of the private copies: each bin gathers them. The
        // accumulation already wrote the final records, so this
        // body-less kernel only charges the merge's virtual cost.
        constexpr double PrivateCopies = 64.0;
        vcuda::LaunchN(
          strm, mergeLen, vp::KernelFn(),
          vcuda::LaunchBounds{PrivateCopies, 0.0, "binning_merge_privatized"});
      }
    }

    // compact every record into the share's buffer and write the bins it
    // packed back to their identities, leaving each record as it was
    // initialized; the pack reads every bin and the reset writes at most
    // cap of them, so the launch is priced from capacities. Then one
    // stream-ordered readback of the share into the arena, on the
    // private stream (the default stream is shared with the simulation)
    struct Pack
    {
      const minimpi::CompactShape *Shape;
      double *Rec;
      std::size_t Cap;
      void *Out;
    };
    std::vector<Pack> packs;
    std::size_t nBins = 0;
    double work = 0.0;
    for (std::size_t i : share.Items)
    {
      PendingBinning &p = *batch[i];
      packs.push_back(Pack{&p.Shape, p.Owner->Record_.DeviceRec, p.Cap,
                           static_cast<std::byte *>(buf) + at[i] -
                             share.Base});
      nBins += p.Shape.Bins;
      work += static_cast<double>(p.Shape.Grids()) *
              static_cast<double>(p.Shape.Bins + p.Cap);
    }
    vcuda::LaunchN(
      strm, nBins,
      [packs = std::move(packs)](std::size_t, std::size_t)
      {
        for (const Pack &k : packs)
        {
          minimpi::PackCompact(*k.Shape, k.Rec, k.Cap, k.Out);
          minimpi::ResetCompacted(*k.Shape, k.Out, k.Rec);
        }
      },
      vcuda::LaunchBounds{work / static_cast<double>(nBins), 0.0,
                          "binning_compact"});
    vcuda::MemcpyAsync(host + share.Base, buf, share.Bytes, strm);
  }

  // --- the host share, in queue order, while the devices work. A host
  // placement accumulates here rather than in its host half: the
  // caller's thread has no device work of its own to overlap, and its
  // claims on the shared host pool come after the batch's range pass
  minimpi::Communicator *comm = batch.front()->In.Comm;
  if (auto it = shares.find(DEVICE_HOST); it != shares.end())
    for (std::size_t i : it->second.Items)
    {
      PendingBinning &p = *batch[i];
      std::vector<double> &record = p.Owner->Record_.Host;
      FillInit(p.Kinds.data(), p.Shape.Bins, record.data(), 0,
               record.size());
      for (std::size_t b = 0; b < p.Rows.size(); ++b)
        if (p.Rows[b])
          vp::Platform::Get().HostParallelFor(
            vp::KernelDesc{p.Rows[b], OpsPerRow(p), 0.15,
                           "binning_accum_host"},
            AccumulateBody(p, b, record.data()));
      // a host record crosses ranks in the compact form too
      if (comm)
        vp::Platform::Get().HostParallelFor(
          vp::KernelDesc{p.Shape.Bins,
                         static_cast<double>(p.Shape.Grids()), 0.0,
                         "binning_compact_host"},
          [&p, &record, out = host + at[i]](std::size_t, std::size_t)
          { minimpi::PackCompact(p.Shape, record.data(), p.Cap, out); });
    }
  for (auto &[device, share] : shares)
    if (device >= 0)
      vcuda::StreamSynchronize(batch[share.Items.front()]->Strm);

  // --- each execute's result, one after the other while its grids are
  // in cache: one batched reduction of every compact record, folded in
  // rank order with each segment's operator, hands each record's
  // reduction over in compact form, however the executes were placed.
  // Without a communicator a device record's own compact form is
  // expanded, and a host record is already final and is copied. A
  // failure to write one result's file leaves the rest of the batch to
  // complete before the first failure is rethrown
  std::exception_ptr failure;
  auto finish = [&batch, &failure](std::size_t i, const void *reduced,
                                   std::size_t held)
  {
    try
    {
      batch[i]->Owner->FinishBinning(*batch[i], reduced, held);
    }
    catch (...)
    {
      if (!failure)
        failure = std::current_exception();
    }
  };
  std::vector<minimpi::CompactRecord> records;
  for (std::size_t i = 0; i < batch.size(); ++i)
    records.push_back(
      minimpi::CompactRecord{&batch[i]->Shape, host + at[i], batch[i]->Cap});
  if (comm)
    comm->AllreduceCompact(records, finish);
  else
    for (std::size_t i = 0; i < batch.size(); ++i)
      finish(i, batch[i]->In.Device >= 0 ? host + at[i] : nullptr,
             batch[i]->Cap);
  if (failure)
    std::rethrow_exception(failure);
}

void DataBinning::FinishBinning(const PendingBinning &p, const void *reduced,
                                std::size_t held)
{
  const std::size_t nAxes = p.Lo.size();
  const std::size_t nBins = p.Shape.Bins;
  const std::vector<double> &lo = p.Lo, &hi = p.Hi;

  // the result arrays, in the configured op order
  std::vector<svtkSmartPtr<svtkAOSDoubleArray>> arrays;
  std::vector<double *> segs;
  for (std::size_t k = 0; k < p.Kinds.size(); ++k)
  {
    arrays.push_back(svtkSmartPtr<svtkAOSDoubleArray>::Take(
      svtkAOSDoubleArray::New(k ? p.RedOps[k - 1].Column + "_" +
                                    BinningOpName(p.RedOps[k - 1].Kind)
                                : std::string("count"))));
    arrays.back()->GetVector().resize(nBins);
    segs.push_back(arrays.back()->GetVector().data());
  }
  if (reduced)
    minimpi::UnpackCompact(p.Shape, reduced, held, segs.data());
  else
    for (std::size_t k = 0; k < segs.size(); ++k)
      std::copy_n(this->Record_.Host.data() + k * nBins, nBins, segs[k]);

  // finalize averages, clean empty bins of min/max
  const double *cnt = segs[0];
  for (std::size_t g = 1; g < segs.size(); ++g)
  {
    double *seg = segs[g];
    if (p.Kinds[g] == BinningOp::Average)
    {
      for (std::size_t i = 0; i < nBins; ++i)
        seg[i] = cnt[i] > 0.0 ? seg[i] / cnt[i] : 0.0;
    }
    else if (p.Kinds[g] == BinningOp::Min || p.Kinds[g] == BinningOp::Max)
    {
      for (std::size_t i = 0; i < nBins; ++i)
        if (cnt[i] == 0.0)
          seg[i] = 0.0;
    }
  }

  // --- package the result -----------------------------------------------------
  const std::vector<long> &res = p.Res;
  auto image = svtkSmartPtr<svtkImageData>::Take(svtkImageData::New());
  image->SetDimensions(static_cast<int>(res[0]),
                       nAxes > 1 ? static_cast<int>(res[1]) : 1,
                       nAxes > 2 ? static_cast<int>(res[2]) : 1);
  image->SetOrigin(lo[0], nAxes > 1 ? lo[1] : 0.0, nAxes > 2 ? lo[2] : 0.0);
  image->SetSpacing(
    (hi[0] - lo[0]) / static_cast<double>(res[0]),
    nAxes > 1 ? (hi[1] - lo[1]) / static_cast<double>(res[1]) : 1.0,
    nAxes > 2 ? (hi[2] - lo[2]) / static_cast<double>(res[2]) : 1.0);
  for (const auto &a : arrays)
    image->GetPointData()->AddArray(a.Get());

  // stored before the file is written, so a write that fails still
  // leaves the step's result
  image->Register();
  this->StoreResult(image.Get(), lo, hi); // takes that reference

  const bool isRoot = !p.In.Comm || p.In.Comm->Rank() == 0;
  if (isRoot && this->OutputFrequency_ > 0 &&
      p.In.Step % this->OutputFrequency_ == 0 && !this->OutputDir_.empty())
  {
    std::ostringstream path;
    path << this->OutputDir_ << '/' << this->OutputPrefix_ << '_'
         << p.In.Step << ".vti";
    sio::WriteVTI(path.str(), image.Get());
  }
}

void DataBinning::StoreResult(svtkImageData *image,
                              const std::vector<double> &lo,
                              const std::vector<double> &hi)
{
  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  if (this->LastResult_)
    this->LastResult_->UnRegister();
  this->LastResult_ = image;
  this->LastLo_ = lo;
  this->LastHi_ = hi;
  ++this->ExecuteCount_;
}

svtkImageData *DataBinning::GetLastResult() const
{
  std::vector<double> lo, hi;
  return this->GetLastResult(lo, hi);
}

svtkImageData *DataBinning::GetLastResult(std::vector<double> &lo,
                                          std::vector<double> &hi) const
{
  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  if (this->Queued_)
    throw std::logic_error(
      "DataBinning::GetLastResult: this step's result is still queued in "
      "the adaptor's lockstep batch; call DataAdaptor::FinishLockstep() "
      "first");
  if (!this->LastResult_)
    return nullptr;
  this->LastResult_->Register();
  lo = this->LastLo_;
  hi = this->LastHi_;
  return this->LastResult_;
}

long DataBinning::GetExecuteCount() const
{
  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  return this->ExecuteCount_;
}

} // namespace sensei
