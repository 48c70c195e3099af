#include "senseiHistogram.h"

#include "svtkArrayUtils.h"
#include "vcuda.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sensei
{

bool Histogram::Execute(DataAdaptor *data)
{
  if (!data || this->Column_.empty())
    return false;

  svtkDataObject *obj = data->GetMesh(this->MeshName_);
  auto *table = dynamic_cast<svtkTable *>(obj);
  if (!table)
  {
    if (obj)
      obj->UnRegister();
    return false;
  }

  svtkDataArray *raw = table->GetColumnByName(this->Column_);
  if (!raw)
  {
    table->UnRegister();
    return false;
  }

  // describe the two passes (range scan + accumulation) for the
  // cost-model placement policy
  const std::size_t n = static_cast<std::size_t>(raw->GetNumberOfTuples());
  const std::size_t bytes = n * sizeof(double);
  sched::WorkHint hint;
  hint.Elements = n;
  hint.OpsPerElement = 7.0; // 2 (range) + 5 (accumulate), as launched below
  hint.AtomicFraction = 0.6;
  hint.MoveBytes = bytes;
  const int device = this->GetPlacementDevice(data, hint);

  if (this->GetAsynchronous())
  {
    if (!this->AsyncComm_ && data->GetCommunicator())
      this->AsyncComm_.emplace(data->GetCommunicator()->Dup());

    // the step's deep copy on the placement device, then run concurrently
    svtkSmartPtr<const svtkHAMRDoubleArray> snap = data->Snapshot(raw, device);
    table->UnRegister();

    minimpi::Communicator *comm =
      this->AsyncComm_ ? &*this->AsyncComm_ : nullptr;
    this->Runner_.Submit([this, snap, comm, device]()
                         { this->Run(snap, comm, device); },
                         bytes);
    return true;
  }

  auto col =
    svtkSmartPtr<const svtkHAMRDoubleArray>::Take(svtkAsHAMRDouble(raw));
  this->Run(col, data->GetCommunicator(), device);
  table->UnRegister();
  return true;
}

std::optional<std::vector<std::string>>
Histogram::GetColumnsRead(const std::string &mesh) const
{
  if (mesh != this->MeshName_ || this->Column_.empty())
    return std::vector<std::string>();
  return std::vector<std::string>{this->Column_};
}

int Histogram::Finalize()
{
  this->Runner_.Drain();
  return 0;
}

void Histogram::Run(const svtkSmartPtr<const svtkHAMRDoubleArray> &col,
                    minimpi::Communicator *comm, int device)
{
  const std::size_t n = col->GetNumberOfTuples();
  const std::size_t bins = static_cast<std::size_t>(this->Bins_);

  double lo = this->Lo_;
  double hi = this->Hi_;
  if (this->AutoRange_)
  {
    lo = std::numeric_limits<double>::infinity();
    hi = -lo;
    // range scan at the placement target via the agnostic access API
    auto view = col->GetDeviceAccessible(device);
    const double *p = view.get();
    col->Synchronize();
    const vp::KernelDesc desc{n, 2.0, 0.0, "histogram_range"};
    const auto body = [p, &lo, &hi](std::size_t b, std::size_t e)
    {
      for (std::size_t i = b; i < e; ++i)
      {
        lo = std::min(lo, p[i]);
        hi = std::max(hi, p[i]);
      }
    };
    if (device >= 0)
    {
      vcuda::SetDevice(device);
      vcuda::stream_t strm = vcuda::StreamCreate();
      vcuda::LaunchN(strm, n, body, vcuda::LaunchBounds{2.0, 0.0, desc.Name});
      vcuda::StreamSynchronize(strm);
    }
    else
    {
      vp::Platform::Get().HostParallelFor(desc, body);
    }

    if (comm)
    {
      // one Min collective over [lo, -hi]: max(x) = -min(-x) exactly
      double ext[2] = {lo, -hi};
      comm->Allreduce(ext, 2, minimpi::Op::Min);
      lo = ext[0];
      hi = -ext[1];
    }
    if (!std::isfinite(lo) || !std::isfinite(hi))
    {
      lo = 0.0;
      hi = 1.0;
    }
    if (!(hi > lo))
      hi = lo + 1.0;
  }

  std::vector<double> counts(bins, 0.0);
  {
    auto view = col->GetDeviceAccessible(device);
    const double *p = view.get();
    col->Synchronize();

    const double scale = static_cast<double>(bins) / (hi - lo);
    double *c = counts.data();
    const auto body = [p, c, lo, scale, bins](std::size_t b, std::size_t e)
    {
      for (std::size_t i = b; i < e; ++i)
      {
        long bi = static_cast<long>((p[i] - lo) * scale);
        bi = std::clamp(bi, 0L, static_cast<long>(bins) - 1);
        c[static_cast<std::size_t>(bi)] += 1.0;
      }
    };

    if (device >= 0)
    {
      // accumulate into a device grid with atomics, then copy back
      vcuda::SetDevice(device);
      vcuda::stream_t strm = vcuda::StreamCreate();
      auto *dc =
        static_cast<double *>(vcuda::MallocAsync(bins * sizeof(double), strm));
      vcuda::LaunchN(
        strm, bins,
        [dc](std::size_t b, std::size_t e)
        {
          for (std::size_t i = b; i < e; ++i)
            dc[i] = 0.0;
        },
        vcuda::LaunchBounds{1.0, 0.0, "histogram_init"});
      const double scaleD = scale;
      vcuda::LaunchN(
        strm, n,
        [p, dc, lo, scaleD, bins](std::size_t b, std::size_t e)
        {
          for (std::size_t i = b; i < e; ++i)
          {
            long bi = static_cast<long>((p[i] - lo) * scaleD);
            bi = std::clamp(bi, 0L, static_cast<long>(bins) - 1);
            dc[static_cast<std::size_t>(bi)] += 1.0;
          }
        },
        vcuda::LaunchBounds{5.0, 0.6, "histogram_accum"});
      vcuda::StreamSynchronize(strm);
      vcuda::Memcpy(counts.data(), dc, bins * sizeof(double));
      vcuda::Free(dc);
    }
    else
    {
      vp::Platform::Get().HostParallelFor(
        vp::KernelDesc{n, 5.0, 0.15, "histogram_accum_host"}, body);
    }
  }

  if (comm)
    comm->Allreduce(counts.data(), bins, minimpi::Op::Sum);

  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  this->LastCounts_ = std::move(counts);
  this->LastLo_ = lo;
  this->LastHi_ = hi;
  this->HaveResult_ = true;
}

bool Histogram::GetLastResult(std::vector<double> &counts, double &lo,
                              double &hi) const
{
  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  if (!this->HaveResult_)
    return false;
  counts = this->LastCounts_;
  lo = this->LastLo_;
  hi = this->LastHi_;
  return true;
}

} // namespace sensei
