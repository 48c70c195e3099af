#include "senseiAutocorrelation.h"

#include "vcuda.h"

#include <algorithm>
#include <cmath>

namespace sensei
{

bool Autocorrelation::Execute(DataAdaptor *data)
{
  if (!data || this->Column_.empty())
    return false;

  svtkSmartPtr<svtkTable> table = GetTable(data, this->MeshName_);
  svtkDataArray *raw = table ? table->GetColumnByName(this->Column_) : nullptr;
  if (!raw)
    return false;

  // one dot product per lag over the newest column
  const std::size_t n = static_cast<std::size_t>(raw->GetNumberOfTuples());
  const std::size_t lags = std::min<std::size_t>(
    this->History_.size() + 1, static_cast<std::size_t>(this->Window_));
  sched::WorkHint hint;
  hint.Elements = n;
  hint.OpsPerElement = 2.0 * static_cast<double>(lags);
  hint.MoveBytes = lags * n * sizeof(double);
  const int device = this->GetPlacementDevice(data, hint);

  // the window entry is the step's snapshot on the placement device:
  // always a deep copy, since the window outlives the simulation's
  // buffers, and one of this column alone, since a slice of a snapshot
  // packed with other analyses' columns would keep their bytes alive too
  svtkSmartPtr<const svtkHAMRDoubleArray> snap =
    data->Snapshot({raw}, device).front();
  if (snap->GetBuffer().is_slice())
    snap = svtkSmartPtr<const svtkHAMRDoubleArray>::Take(
      svtkHAMRDoubleArray::New(snap->GetName(),
                              snap->GetBuffer().deep_copy(device),
                              snap->GetNumberOfComponents()));
  this->History_.push_back(std::move(snap));

  while (static_cast<long>(this->History_.size()) > this->Window_)
    this->History_.pop_front();

  std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> window(
    this->History_.begin(), this->History_.end());

  // an asynchronous task's closure holds the whole window of deep copies
  this->Dispatch(data,
                 [this, window = std::move(window),
                  device](minimpi::Communicator *comm)
                 { this->Run(window, comm, device); },
                 hint.MoveBytes);
  return true;
}

std::optional<std::vector<std::string>>
Autocorrelation::GetColumnsRead(const std::string &mesh) const
{
  if (mesh != this->MeshName_ || this->Column_.empty())
    return std::vector<std::string>();
  return std::vector<std::string>{this->Column_};
}

void Autocorrelation::Run(
  std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> window,
  minimpi::Communicator *comm, int device)
{
  // [the lag sums | the rows each lag summed], reduced in one collective
  const std::size_t lags = window.size();
  std::vector<double> sums(2 * lags, 0.0);

  const svtkHAMRDoubleArray *newest = window.back().Get();

  auto newestView = newest->GetDeviceAccessible(device);
  newest->Synchronize();
  const double *vT = newestView.get();

  for (std::size_t tau = 0; tau < lags; ++tau)
  {
    const svtkHAMRDoubleArray *past = window[lags - 1 - tau].Get();
    auto pastView = past->GetDeviceAccessible(device);
    past->Synchronize();
    const double *vP = pastView.get();
    // a rank's row count may change between steps: a lag covers the
    // rows both entries hold
    const std::size_t n =
      std::min(newest->GetNumberOfTuples(), past->GetNumberOfTuples());

    double acc = 0.0;
    const auto body = [vT, vP, &acc](std::size_t b, std::size_t e)
    {
      for (std::size_t i = b; i < e; ++i)
        acc += vT[i] * vP[i];
    };

    if (device >= 0)
    {
      vcuda::SetDevice(device);
      vcuda::stream_t strm = vcuda::StreamCreate();
      vcuda::LaunchN(strm, n, body,
                     vcuda::LaunchBounds{2.0, 0.0, "autocorr_dot"});
      vcuda::StreamSynchronize(strm);
    }
    else
    {
      vp::Platform::Get().HostParallelFor(
        vp::KernelDesc{n, 2.0, 0.0, "autocorr_dot_host"}, body);
    }
    sums[tau] = acc;
    sums[lags + tau] = static_cast<double>(n);
  }

  if (comm)
    comm->Allreduce(sums.data(), sums.size(), minimpi::Op::Sum);
  for (std::size_t tau = 0; tau < lags; ++tau)
  {
    const double count = sums[lags + tau];
    sums[tau] = count > 0 ? sums[tau] / count : 0.0;
  }
  sums.resize(lags);

  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  this->Last_ = std::move(sums);
}

std::vector<double> Autocorrelation::GetLastResult() const
{
  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  return this->Last_;
}

} // namespace sensei
