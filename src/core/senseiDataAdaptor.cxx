#include "senseiDataAdaptor.h"

#include "svtkArrayUtils.h"

namespace sensei
{

void DataAdaptor::ReleaseData()
{
  this->EndSnapshotStep();
}

void DataAdaptor::EndSnapshotStep()
{
  this->Snapshots_.clear();
  // a release with no requests since the last one (an Update that
  // releases before the step's analyses run) keeps the expectation
  if (!this->Requests_.empty())
  {
    this->Expected_.swap(this->Requests_);
    this->Requests_.clear();
  }
}

svtkSmartPtr<const svtkHAMRDoubleArray>
DataAdaptor::Snapshot(svtkDataArray *column, int device)
{
  if (!column)
    return {};
  if (device < 0)
    device = vp::HostDevice;
  if (this->TimeStep_ != this->SnapshotStep_)
  {
    this->EndSnapshotStep();
    this->SnapshotStep_ = this->TimeStep_;
  }

  const RequestKey name(column->GetName(), device);
  const long seen = ++this->Requests_[name];

  auto it = this->Snapshots_.find({column, device});
  if (it == this->Snapshots_.end())
  {
    auto h = svtkSmartPtr<svtkHAMRDoubleArray>::Take(svtkAsHAMRDouble(column));
    const bool adopt =
      h.Get() != column &&
      (device == vp::HostDevice ? h->HostAccessible()
                                : h->DeviceAccessible(device));
    SnapshotEntry e;
    e.Source = svtkSmartPtr<const svtkDataArray>(column);
    e.Copy = adopt ? h
                   : svtkSmartPtr<svtkHAMRDoubleArray>::Take(
                       h->NewDeepCopy(device));
    it = this->Snapshots_.emplace(std::make_pair(column, device), std::move(e))
           .first;
  }
  svtkSmartPtr<const svtkHAMRDoubleArray> copy = it->second.Copy;

  auto expected = this->Expected_.find(name);
  if (expected != this->Expected_.end() && expected->second == seen)
    this->Snapshots_.erase(it);
  return copy;
}

} // namespace sensei
