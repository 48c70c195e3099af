#include "senseiAutocorrelation.h"

#include "svtkArrayUtils.h"
#include "vcuda.h"

#include <algorithm>
#include <cmath>

namespace sensei
{

bool Autocorrelation::Execute(DataAdaptor *data)
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
  // buffers
  this->History_.push_back(data->Snapshot(raw, device));
  table->UnRegister();

  while (static_cast<long>(this->History_.size()) > this->Window_)
    this->History_.pop_front();

  std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> window(
    this->History_.begin(), this->History_.end());

  if (this->GetAsynchronous())
  {
    if (!this->AsyncComm_ && data->GetCommunicator())
      this->AsyncComm_.emplace(data->GetCommunicator()->Dup());
    minimpi::Communicator *comm =
      this->AsyncComm_ ? &*this->AsyncComm_ : nullptr;
    // the closure holds the whole window of deep copies alive
    const std::size_t bytes = hint.MoveBytes;
    this->Runner_.Submit([this, window = std::move(window), comm, device]()
                         { this->Run(window, comm, device); },
                         bytes);
    return true;
  }

  this->Run(window, data->GetCommunicator(), device);
  return true;
}

std::optional<std::vector<std::string>>
Autocorrelation::GetColumnsRead(const std::string &mesh) const
{
  if (mesh != this->MeshName_ || this->Column_.empty())
    return std::vector<std::string>();
  return std::vector<std::string>{this->Column_};
}

int Autocorrelation::Finalize()
{
  this->Runner_.Drain();
  return 0;
}

void Autocorrelation::Run(
  std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> window,
  minimpi::Communicator *comm, int device)
{
  const std::size_t lags = window.size();
  std::vector<double> sums(lags, 0.0);

  const svtkHAMRDoubleArray *newest = window.back().Get();
  const std::size_t n = newest->GetNumberOfTuples();

  auto newestView = newest->GetDeviceAccessible(device);
  newest->Synchronize();
  const double *vT = newestView.get();

  for (std::size_t tau = 0; tau < lags; ++tau)
  {
    const svtkHAMRDoubleArray *past = window[lags - 1 - tau].Get();
    auto pastView = past->GetDeviceAccessible(device);
    past->Synchronize();
    const double *vP = pastView.get();

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
  }

  // combine across ranks in one collective: the dot products plus the
  // element count packed behind them
  sums.push_back(static_cast<double>(n));
  if (comm)
    comm->Allreduce(sums.data(), sums.size(), minimpi::Op::Sum);
  const double count = sums.back();
  sums.pop_back();

  for (double &s : sums)
    s = count > 0 ? s / count : 0.0;

  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  this->Last_ = std::move(sums);
}

std::vector<double> Autocorrelation::GetLastResult() const
{
  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  return this->Last_;
}

} // namespace sensei
