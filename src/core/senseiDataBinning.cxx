#include "senseiDataBinning.h"

#include "graphCapture.h"
#include "senseiProfiler.h"
#include "sio.h"
#include "svtkAOSDataArray.h"
#include "svtkArrayUtils.h"
#include "vcuda.h"
#include "vpClock.h"
#include "vpLoadTracker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

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
DataBinning::DataBinning() = default;

DataBinning::~DataBinning()
{
  this->Runner_.Drain();
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
bool DataBinning::GatherInputs(DataAdaptor *data, bool async, StepInputs &in)
{
  svtkDataObject *obj = data->GetMesh(this->MeshName_);
  if (!obj)
    return false;

  // resolve to a list of tables: a table mesh is one block; a multi-block
  // mesh contributes every non-null block (all of which must be tables)
  std::vector<svtkTable *> tables;
  if (auto *table = dynamic_cast<svtkTable *>(obj))
  {
    tables.push_back(table);
  }
  else if (auto *mb = dynamic_cast<svtkMultiBlockDataSet *>(obj))
  {
    for (int i = 0; i < mb->GetNumberOfBlocks(); ++i)
    {
      svtkDataObject *block = mb->GetBlock(i);
      if (!block)
        continue;
      auto *t = dynamic_cast<svtkTable *>(block);
      if (!t)
      {
        obj->UnRegister();
        return false;
      }
      tables.push_back(t);
    }
  }
  else
  {
    obj->UnRegister();
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
  bool ok = true;
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
    for (const std::string &axis : this->Axes_)
      ok = ok && grab(axis, src.Axis);
    for (const Operation &op : this->Ops_)
      if (op.Kind != BinningOp::Count)
        ok = ok && grab(op.Column, src.Value);

    if (!src.Axis.empty())
      in.Rows += static_cast<std::size_t>(src.Axis[0]->GetNumberOfTuples());
    sources.push_back(std::move(src));
  }

  in.Step = data->GetDataTimeStep();
  in.Time = data->GetDataTime();

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
  in.Device = this->PlaceForGraph(data, hint);
  if (!ok)
  {
    obj->UnRegister();
    return false;
  }

  // the typed columns: the simulation's, shared zero-copy (lockstep), or
  // the step's snapshot on the placement device (async)
  for (const BlockSources &src : sources)
  {
    std::map<const svtkDataArray *, svtkSmartPtr<const svtkHAMRDoubleArray>>
      typed;
    auto type = [&](svtkDataArray *col)
    {
      auto it = typed.find(col);
      if (it == typed.end())
        it = typed
               .emplace(col, async ? data->Snapshot(col, in.Device)
                                   : svtkSmartPtr<const svtkHAMRDoubleArray>::
                                       Take(svtkAsHAMRDouble(col)))
               .first;
      return it->second;
    };
    BlockInput block;
    for (svtkDataArray *col : src.Axis)
      block.AxisCols.push_back(type(col));
    for (svtkDataArray *col : src.Value)
      block.ValueCols.push_back(type(col));
    in.Blocks.push_back(std::move(block));
  }

  // lockstep: the auto-ranged axes' global ranges from the adaptor's
  // per-step table. On a miss the fill covers the missed axes and every
  // column the previous step's lockstep executes requested on this mesh
  // that no fill has stored yet. The set follows from the names alone,
  // never from placement or residency, so every rank issues the same
  // collectives.
  if (!async)
  {
    in.Table = data;
    in.Ranges.assign(this->Axes_.size(),
                     {std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity()});
    std::map<std::string, FillColumn> fill; // name order
    for (std::size_t a = 0; a < this->Axes_.size(); ++a)
    {
      if (this->HasFixedRange_[a] || !this->AutoRange_)
        continue;
      DataAdaptor::ColumnSet cols;
      for (const BlockSources &src : sources)
        cols.emplace_back(src.Axis[a]);
      const std::string &name = this->Axes_[a];
      if (auto range = data->FindAxisRange(this->MeshName_, name, cols))
        in.Ranges[a] = *range;
      else if (!fill.count(name))
        fill[name] = FillColumn{name, static_cast<int>(a), cols, {}};
    }
    if (!fill.empty())
      for (const std::string &name : data->PendingAxisRanges(this->MeshName_))
      {
        if (fill.count(name))
          continue;
        FillColumn &peer = fill[name];
        peer.Name = name;
        for (svtkTable *table : tables)
          if (svtkDataArray *col = table->GetColumnByName(name))
          {
            peer.Sources.emplace_back(col);
            peer.Peer.push_back(
              svtkSmartPtr<const svtkHAMRDoubleArray>::Take(
                svtkAsHAMRDouble(col)));
          }
      }
    for (auto &kv : fill)
      in.Fill.push_back(std::move(kv.second));
  }

  obj->UnRegister();
  return true;
}

int DataBinning::PlaceForGraph(DataAdaptor *data, const sched::WorkHint &hint)
{
  const bool armed = this->GraphSession_ && this->GraphSession_->Armed();
  if (!armed || this->GraphDevice_ < 0 || this->GetDeviceId() != DEVICE_AUTO)
    return this->GraphDevice_ = this->GetPlacementDevice(data, hint);

  // an armed graph pins the capture-time device — moving the work would
  // invalidate the graph anyway — unless the policy has diverged from
  // the pin (Eq. 1 names another device, or the pinned device's backlog
  // fell behind the candidates by more than the repin threshold); then
  // drop the graph and decide afresh
  sched::PlacementRequest req;
  req.Rank =
    data && data->GetCommunicator() ? data->GetCommunicator()->Rank() : 0;
  req.DevicesPerNode = vp::Platform::Get().NumDevices();
  req.DevicesToUse = this->GetDevicesToUse();
  req.DeviceStart = this->GetDeviceStart();
  req.DeviceStride = this->GetDeviceStride();
  req.Node = vp::Platform::GetThisNode();
  req.Hint = hint;
  if (sched::PlacementDiverged(this->GetPlacementPolicy(), req,
                               this->GraphDevice_,
                               vp::graph::kRepinThreshold,
                               vp::ThisClock().Now()))
  {
    this->GraphSession_->Drop();
    return this->GraphDevice_ = this->GetPlacementDevice(data, hint);
  }
  vp::DeviceLoadTracker::Get().RecordPlacement(req.Node, this->GraphDevice_);
  return this->GraphDevice_;
}

bool DataBinning::Execute(DataAdaptor *data)
{
  if (!data || this->Axes_.empty())
    return false;

  if (this->GetAsynchronous())
  {
    ScopedEvent ev("binning::execute_async_visible");

    if (!this->AsyncComm_ && data->GetCommunicator())
      this->AsyncComm_.emplace(data->GetCommunicator()->Dup());

    auto in = std::make_shared<StepInputs>();
    if (!this->GatherInputs(data, /*async=*/true, *in))
      return false;
    in->Comm = this->AsyncComm_ ? &*this->AsyncComm_ : nullptr;

    this->Runner_.Submit([this, in]() { this->RunBinning(*in); }, in->Bytes);
    return true;
  }

  ScopedEvent ev("binning::execute_lockstep");
  // a task left in flight by an asynchronous execute shares the record
  this->Runner_.Drain();
  StepInputs in;
  if (!this->GatherInputs(data, /*async=*/false, in))
    return false;
  in.Comm = data->GetCommunicator();
  this->RunBinning(in);
  return true;
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
  this->Runner_.Drain();
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

/// Fold the min and max of each unit (N > 0) into lo[Slot] and hi[Slot].
/// On a device, one multi-unit kernel into `scratch` (2 doubles per unit,
/// on `device`) and one stream-ordered readback on `strm`; on the host
/// (device < 0), a parallel loop per unit. Both the asynchronous task and
/// the lockstep fill scan through here.
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
                                const std::vector<BinningOp> &kinds,
                                std::size_t compactBytes,
                                const vp::Stream &strm)
{
  Record &r = this->Record_;
  const std::size_t recLen = kinds.size() * nBins;
  r.Host.resize(recLen);
  if (r.Compact.size() * sizeof(double) < compactBytes)
    r.Compact.resize(compactBytes / sizeof(double));
  if (device < 0)
    return;

  if (!r.DeviceRec || r.Device != device || r.Bins != nBins ||
      r.Kinds != kinds)
  {
    vcuda::Free(r.DeviceRec);
    vcuda::Free(r.DeviceCompact);
    r.DeviceCompact = nullptr;
    r.DeviceCompactBytes = 0;
    r.Device = device;
    r.Bins = nBins;
    r.Kinds = kinds;
    r.DeviceRec =
      static_cast<double *>(vcuda::Malloc(recLen * sizeof(double)));
    vcuda::LaunchN(
      strm, recLen,
      [kn = r.Kinds, nBins, rec = r.DeviceRec](std::size_t b, std::size_t e)
      { FillInit(kn.data(), nBins, rec, b, e); },
      vcuda::LaunchBounds{1.0, 0.0, "binning_init"});
  }
  if (r.DeviceCompactBytes < compactBytes)
  {
    vcuda::Free(r.DeviceCompact);
    r.DeviceCompact = vcuda::Malloc(compactBytes);
    r.DeviceCompactBytes = compactBytes;
  }
}

double *DataBinning::ScanScratch(int device, std::size_t nUnits)
{
  Record::Scratch &s = this->Record_.Scan[device];
  if (s.Units < nUnits)
  {
    vcuda::Free(s.P);
    s.P = static_cast<double *>(vp::Platform::Get().Allocate(
      vp::MemSpace::Device, device, 2 * nUnits * sizeof(double),
      vp::PmKind::Cuda));
    s.Units = nUnits;
  }
  return s.P;
}

void DataBinning::ReleaseRecord()
{
  vcuda::Free(this->Record_.DeviceRec);
  vcuda::Free(this->Record_.DeviceCompact);
  for (const auto &entry : this->Record_.Scan)
    vcuda::Free(entry.second.P);
  this->Record_ = Record();
}

void DataBinning::FillRanges(
  const StepInputs &in, const std::vector<std::vector<const double *>> &ax,
  const std::vector<std::size_t> &rows, const vcuda::stream_t &strm,
  std::vector<double> &lo, std::vector<double> &hi)
{
  const std::size_t nFill = in.Fill.size();
  std::vector<double> flo(nFill, std::numeric_limits<double>::infinity());
  std::vector<double> fhi(nFill, -std::numeric_limits<double>::infinity());

  // units by where they are scanned: the axes through the views, and the
  // peers resident with them, where the execute runs; every other peer
  // in place, on the host or its owner device. A peer this rank lacks
  // has no unit and contributes the identity.
  const int here = in.Device;
  std::map<int, std::vector<RangeUnit>> units;
  for (std::size_t f = 0; f < nFill; ++f)
  {
    const FillColumn &col = in.Fill[f];
    if (col.Axis >= 0)
    {
      for (std::size_t b = 0; b < rows.size(); ++b)
        if (rows[b])
          units[here].push_back(
            RangeUnit{ax[b][static_cast<std::size_t>(col.Axis)], rows[b], f});
      continue;
    }
    for (const auto &peer : col.Peer)
    {
      const std::size_t n = peer->GetNumberOfTuples();
      if (!n)
        continue;
      int at = here;
      if (here >= 0 ? !peer->DeviceAccessible(here) : !peer->HostAccessible())
        at = peer->HostAccessible() ? DEVICE_HOST : peer->GetOwner();
      peer->Synchronize();
      units[at].push_back(RangeUnit{peer->GetData(), n, f});
    }
  }
  for (const auto &[at, scan] : units)
    ScanRanges(scan, at,
               at >= 0 && at != here
                 ? vp::Stream::New(vp::Platform::GetThisNode(), at)
                 : strm,
               at >= 0 ? this->ScanScratch(at, scan.size()) : nullptr, flo,
               fhi);
  ReduceRanges(in.Comm, flo, fhi);

  for (std::size_t f = 0; f < nFill; ++f)
  {
    const FillColumn &col = in.Fill[f];
    in.Table->StoreAxisRange(this->MeshName_, col.Name, col.Sources,
                             {flo[f], fhi[f]});
    for (std::size_t a = 0; a < this->Axes_.size(); ++a)
      if (col.Axis >= 0 && this->Axes_[a] == col.Name &&
          !this->HasFixedRange_[a] && this->AutoRange_)
      {
        lo[a] = flo[f];
        hi[a] = fhi[f];
      }
  }
}

void DataBinning::RunBinning(const StepInputs &in)
{
  ScopedEvent ev("binning::run");

  const std::size_t nAxes = this->Axes_.size();
  const std::size_t nBlocks = in.Blocks.size();

  const bool onDevice = in.Device >= 0;
  if (onDevice)
    vcuda::SetDevice(in.Device);

  // reductions to perform (count is implicit)
  std::vector<Operation> redOps;
  for (const Operation &op : this->Ops_)
    if (op.Kind != BinningOp::Count)
      redOps.push_back(op);
  const std::size_t nRed = redOps.size();

  // --- the packed grid record: one buffer [count | seg 1 | ... | seg nRed]
  // of nGrids x nBins doubles, segment 1 + k holding reduction k;
  // kinds[g] is the kind of segment g
  const std::size_t nGrids = 1 + nRed;
  std::vector<BinningOp> kinds(nGrids, BinningOp::Count);
  for (std::size_t k = 0; k < nRed; ++k)
    kinds[1 + k] = redOps[k].Kind;

  // --- inputs at the target location, acquired exactly once per column
  // (the access API moves a lockstep column at most once per execute;
  // an asynchronous snapshot already lives there, so its view is
  // zero-copy; both the range scan and the accumulation use the same
  // view)
  std::map<const svtkHAMRDoubleArray *, std::shared_ptr<const double>> views;
  auto acquire =
    [&](const svtkHAMRDoubleArray *col) -> const double *
  {
    auto it = views.find(col);
    if (it == views.end())
      it = views.emplace(col, col->GetDeviceAccessible(in.Device)).first;
    return it->second.get();
  };

  std::vector<std::size_t> rows(nBlocks, 0);
  std::vector<std::vector<const double *>> ax(nBlocks);
  std::vector<std::vector<const double *>> vals(nBlocks);
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

  // --- axis bounds: fixed, or the global range of the data over every
  // block and rank ---
  std::vector<double> lo(nAxes), hi(nAxes);
  std::vector<std::size_t> autoAxes;
  for (std::size_t a = 0; a < nAxes; ++a)
  {
    if (this->HasFixedRange_[a] || !this->AutoRange_)
    {
      lo[a] = this->FixedLo_[a];
      hi[a] = this->HasFixedRange_[a] ? this->FixedHi_[a] : this->FixedLo_[a];
      if (!this->HasFixedRange_[a])
      {
        lo[a] = 0.0;
        hi[a] = 1.0;
      }
      continue;
    }
    lo[a] = std::numeric_limits<double>::infinity();
    hi[a] = -lo[a];
    autoAxes.push_back(a);
  }

  vcuda::stream_t strm;
  if (onDevice)
    strm = vcuda::StreamCreate();

  // lockstep: the adaptor's table, filled on a miss before the step-graph
  // scope opens, so the captured graph has one shape whether this
  // execute fills the table or hits it
  if (in.Table && !autoAxes.empty())
  {
    for (std::size_t a : autoAxes)
    {
      lo[a] = in.Ranges[a].first;
      hi[a] = in.Ranges[a].second;
    }
    if (!in.Fill.empty())
      this->FillRanges(in, ax, rows, strm, lo, hi);
  }

  // --- the record's compact form, in which it leaves the device and
  // crosses ranks: the occupancy bitmap plus the values of each occupied
  // bin (src/comm). A rank cannot occupy more bins than it binned rows,
  // so the capacity is known before any kernel runs and the readback has
  // a fixed size. The record's buffers are sized here, before the
  // step-graph scope opens, so every captured step has one shape.
  std::size_t nBins = 1;
  for (std::size_t a = 0; a < nAxes; ++a)
    nBins *= static_cast<std::size_t>(this->Resolution_[a]);
  minimpi::CompactShape shape{nBins, {}};
  for (BinningOp k : kinds)
    shape.Ops.push_back(ReduceOp(k));
  std::size_t cap = 0;
  for (std::size_t b = 0; b < nBlocks; ++b)
    cap += rows[b];
  cap = std::min(cap, nBins);
  const std::size_t compactBytes = shape.Bytes(cap);
  this->PrepareRecord(in.Device, nBins, kinds, compactBytes, strm);

  // asynchronous: the task scans its own axes, every (axis, block) pair
  // in one pass, then one collective; skipped when every axis has a
  // fixed range (the config, and so the decision, is the same on every
  // rank). Its scratch, like the record, is sized before the scope opens
  const bool scanHere = !in.Table && !autoAxes.empty();
  std::vector<RangeUnit> units;
  if (scanHere)
    for (std::size_t a : autoAxes)
      for (std::size_t b = 0; b < nBlocks; ++b)
        if (rows[b])
          units.push_back(RangeUnit{ax[b][a], rows[b], a});
  double *scratch = onDevice && !units.empty()
                      ? this->ScanScratch(in.Device, units.size())
                      : nullptr;
  std::vector<double> &record = this->Record_.Host;
  std::vector<double> &compact = this->Record_.Compact;

  // --- captured step-graph session: the whole device DAG below runs on
  // one private stream; capture it once, then replay it with pointer
  // rebinding on later steps (see src/graph). The scope opens after the
  // input views settle (their movement is data-dependent, not part of
  // the recurring step shape) and closes when this function returns.
  std::optional<vp::graph::StepScope> graphScope;
  if (onDevice && vp::graph::Enabled())
  {
    if (!this->GraphSession_)
      this->GraphSession_ = std::make_unique<vp::graph::Session>();
    graphScope.emplace(*this->GraphSession_);
  }

  if (scanHere)
  {
    ScanRanges(units, in.Device, strm, scratch, lo, hi);
    ReduceRanges(in.Comm, lo, hi);
  }

  for (std::size_t a = 0; a < nAxes; ++a)
  {
    if (!std::isfinite(lo[a]) || !std::isfinite(hi[a]))
    {
      lo[a] = 0.0;
      hi[a] = 1.0;
    }
    if (!(hi[a] > lo[a]))
      hi[a] = lo[a] + 1.0;
  }

  // --- bin geometry ----------------------------------------------------------
  std::vector<double> scale(nAxes), shift(nAxes);
  for (std::size_t a = 0; a < nAxes; ++a)
  {
    scale[a] = static_cast<double>(this->Resolution_[a]) / (hi[a] - lo[a]);
    shift[a] = lo[a];
  }

  const std::size_t recLen = nGrids * nBins;
  const BinningOp *kn = kinds.data();
  const std::size_t nAxesC = nAxes;
  const std::size_t nRedC = nRed;
  const long *resPtr = this->Resolution_.data();
  const double *scalePtr = scale.data();
  const double *shiftPtr = shift.data();

  // the accumulation body over the packed record at `rec`: bin index from
  // the coordinate columns, then a counter increment plus each reduction
  // (segment 1 + k takes valp[k]) — the updates that need atomics on a
  // real GPU. Every placement, strategy and exec mode runs this body
  // over the same rows in the same order, so the grids are bit-exact
  // across all of them.
  auto makeBody = [=](double *rec, const double *const *axp,
                      const double *const *valp)
  {
    return [=](std::size_t b, std::size_t e)
    {
      for (std::size_t i = b; i < e; ++i)
      {
        std::size_t idx = 0;
        std::size_t strideAcc = 1;
        for (std::size_t a = 0; a < nAxesC; ++a)
        {
          long bi =
            static_cast<long>((axp[a][i] - shiftPtr[a]) * scalePtr[a]);
          bi = std::clamp(bi, 0L, resPtr[a] - 1);
          idx += static_cast<std::size_t>(bi) * strideAcc;
          strideAcc *= static_cast<std::size_t>(resPtr[a]);
        }
        rec[idx] += 1.0;
        for (std::size_t k = 0; k < nRedC; ++k)
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
  };

  // cost of one row: index math per axis plus one atomic-ish update per grid
  const double opsPerRow = 4.0 * static_cast<double>(nAxes) +
                           3.0 * static_cast<double>(nRed + 1);
  if (onDevice)
  {
    // the resident device record, accumulated with atomics
    // (AtomicFraction models the contention the paper identifies as
    // binning's GPU weakness), then compacted and read back once
    double *dRec = this->Record_.DeviceRec;
    void *dCompact = this->Record_.DeviceCompact;
    const bool privatized =
      this->GpuStrategy_ == GpuBinningStrategy::Privatized;
    bool accumulated = false;
    for (std::size_t b = 0; b < nBlocks; ++b)
    {
      if (!rows[b])
        continue;
      accumulated = true;
      // global atomics is the implementation the paper evaluated: every
      // bin update is a global atomic, so contention throttles the
      // device. Privatized uses per-thread-block shared-memory
      // histograms, making the accumulation nearly streaming; on real
      // hardware that changes scheduling, not arithmetic, so the body
      // is the same and only the atomic fraction differs.
      vcuda::LaunchN(
        strm, rows[b], makeBody(dRec, ax[b].data(), vals[b].data()),
        privatized
          ? vcuda::LaunchBounds{opsPerRow, 0.05, "binning_accum_privatized"}
          : vcuda::LaunchBounds{opsPerRow, 0.6, "binning_accum"});
    }
    if (accumulated && privatized)
    {
      // the merge of the private copies: each bin gathers them. The
      // accumulation already wrote the final record, so this body-less
      // kernel only charges the merge's virtual cost.
      constexpr double PrivateCopies = 64.0;
      vcuda::LaunchN(strm, recLen, vp::KernelFn(),
                     vcuda::LaunchBounds{PrivateCopies, 0.0,
                                         "binning_merge_privatized"});
    }
    // compact the record on the device and write the bins it packed back
    // to their identities, leaving the record as it was initialized; the
    // pack reads every bin and the reset writes at most cap of them, so
    // both are priced from capacities. Then one stream-ordered readback
    // of the compact buffer on the private stream (the default stream is
    // shared with the simulation and would splice foreign work into the
    // captured graph).
    vcuda::LaunchN(
      strm, nBins,
      [&shape, cap, dRec, dCompact](std::size_t, std::size_t)
      {
        minimpi::PackCompact(shape, dRec, cap, dCompact);
        minimpi::ResetCompacted(shape, dCompact, dRec);
      },
      vcuda::LaunchBounds{static_cast<double>(nGrids) *
                            static_cast<double>(nBins + cap) /
                            static_cast<double>(nBins),
                          0.0, "binning_compact"});
    vcuda::MemcpyAsync(compact.data(), dCompact, compactBytes, strm);
    vcuda::StreamSynchronize(strm);
  }
  else
  {
    FillInit(kn, nBins, record.data(), 0, recLen);
    for (std::size_t b = 0; b < nBlocks; ++b)
      if (rows[b])
        vp::Platform::Get().HostParallelFor(
          vp::KernelDesc{rows[b], opsPerRow, 0.15, "binning_accum_host"},
          makeBody(record.data(), ax[b].data(), vals[b].data()));
  }

  // --- cross-rank reduction: each rank's compact record in, the dense
  // record out, folded in rank order with each segment's operator. A
  // host record is compacted here; without a communicator it is already
  // final, and a device one only needs expanding.
  if (in.Comm)
  {
    if (!onDevice)
      vp::Platform::Get().HostParallelFor(
        vp::KernelDesc{nBins, static_cast<double>(nGrids), 0.0,
                       "binning_compact_host"},
        [&shape, cap, &record, &compact](std::size_t, std::size_t)
        { minimpi::PackCompact(shape, record.data(), cap, compact.data()); });
    in.Comm->AllreduceCompact(shape, compact.data(), cap, record.data());
  }
  else if (onDevice)
  {
    minimpi::UnpackCompact(shape, compact.data(), cap, record.data());
  }

  // finalize averages, clean empty bins of min/max
  const double *cnt = record.data();
  for (std::size_t g = 1; g < nGrids; ++g)
  {
    double *seg = record.data() + g * nBins;
    if (kinds[g] == BinningOp::Average)
    {
      for (std::size_t i = 0; i < nBins; ++i)
        seg[i] = cnt[i] > 0.0 ? seg[i] / cnt[i] : 0.0;
    }
    else if (kinds[g] == BinningOp::Min || kinds[g] == BinningOp::Max)
    {
      for (std::size_t i = 0; i < nBins; ++i)
        if (cnt[i] == 0.0)
          seg[i] = 0.0;
    }
  }

  // --- package the result -----------------------------------------------------
  svtkImageData *image = svtkImageData::New();
  image->SetDimensions(static_cast<int>(this->Resolution_[0]),
                       nAxes > 1 ? static_cast<int>(this->Resolution_[1]) : 1,
                       nAxes > 2 ? static_cast<int>(this->Resolution_[2]) : 1);
  image->SetOrigin(lo[0], nAxes > 1 ? lo[1] : 0.0, nAxes > 2 ? lo[2] : 0.0);
  image->SetSpacing(
    (hi[0] - lo[0]) / static_cast<double>(this->Resolution_[0]),
    nAxes > 1 ? (hi[1] - lo[1]) / static_cast<double>(this->Resolution_[1])
              : 1.0,
    nAxes > 2 ? (hi[2] - lo[2]) / static_cast<double>(this->Resolution_[2])
              : 1.0);

  // arrays in the configured op order, each copied from its segment
  for (std::size_t k = 0; k < nGrids; ++k)
  {
    svtkAOSDoubleArray *a = svtkAOSDoubleArray::New(
      k ? redOps[k - 1].Column + "_" + BinningOpName(redOps[k - 1].Kind)
        : std::string("count"));
    const double *p = record.data() + k * nBins;
    a->GetVector().assign(p, p + nBins);
    image->GetPointData()->AddArray(a);
    a->Delete();
  }

  const bool isRoot = !in.Comm || in.Comm->Rank() == 0;
  if (isRoot && this->OutputFrequency_ > 0 &&
      in.Step % this->OutputFrequency_ == 0 && !this->OutputDir_.empty())
  {
    std::ostringstream path;
    path << this->OutputDir_ << '/' << this->OutputPrefix_ << '_'
         << in.Step << ".vti";
    sio::WriteVTI(path.str(), image);
  }

  this->StoreResult(image); // takes the reference
}

void DataBinning::StoreResult(svtkImageData *image)
{
  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  if (this->LastResult_)
    this->LastResult_->UnRegister();
  this->LastResult_ = image;
  ++this->ExecuteCount_;
}

svtkImageData *DataBinning::GetLastResult() const
{
  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  if (this->LastResult_)
    this->LastResult_->Register();
  return this->LastResult_;
}

long DataBinning::GetExecuteCount() const
{
  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  return this->ExecuteCount_;
}

} // namespace sensei
