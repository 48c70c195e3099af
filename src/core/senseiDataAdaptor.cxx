#include "senseiDataAdaptor.h"

#include "svtkArrayUtils.h"

#include <algorithm>

namespace sensei
{

namespace
{
/// Make this step's requests the expectation. A release with no requests
/// since the last one (an Update that releases before the step's
/// analyses run) keeps the expectation.
template <typename Requests>
void Roll(Requests &requests, Requests &expected)
{
  if (requests.empty())
    return;
  expected.swap(requests);
  requests.clear();
}
} // namespace

void DataAdaptor::ReleaseData()
{
  this->EndStep();
}

void DataAdaptor::EndStep()
{
  this->Snapshots_.clear();
  this->AxisRanges_.clear();
  Roll(this->Requests_, this->Expected_);
  Roll(this->AxisRequests_, this->AxisExpected_);
}

void DataAdaptor::FollowStep()
{
  if (this->TimeStep_ == this->Step_)
    return;
  this->EndStep();
  this->Step_ = this->TimeStep_;
}

svtkSmartPtr<const svtkHAMRDoubleArray>
DataAdaptor::Snapshot(svtkDataArray *column, int device)
{
  if (!column)
    return {};
  if (device < 0)
    device = vp::HostDevice;
  this->FollowStep();

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
                       h->NewDeepCopy(device, svtkStreamMode::async));
    it = this->Snapshots_.emplace(std::make_pair(column, device), std::move(e))
           .first;
  }
  svtkSmartPtr<const svtkHAMRDoubleArray> copy = it->second.Copy;

  auto expected = this->Expected_.find(name);
  if (expected != this->Expected_.end() && expected->second == seen)
    this->Snapshots_.erase(it);
  return copy;
}

std::optional<DataAdaptor::AxisRange>
DataAdaptor::FindAxisRange(const std::string &mesh, const std::string &name,
                           const ColumnSet &columns)
{
  this->FollowStep();
  const AxisKey key(mesh, name);
  this->AxisRequests_.insert(key);

  auto it = this->AxisRanges_.find(key);
  if (it == this->AxisRanges_.end() ||
      !std::equal(it->second.Columns.begin(), it->second.Columns.end(),
                  columns.begin(), columns.end(),
                  [](const auto &held, const auto &col)
                  { return held.Get() == col.Get(); }))
    return std::nullopt;
  return it->second.Range;
}

std::vector<std::string> DataAdaptor::PendingAxisRanges(const std::string &mesh)
{
  this->FollowStep();
  std::vector<std::string> names;
  for (auto it = this->AxisExpected_.lower_bound({mesh, std::string()});
       it != this->AxisExpected_.end() && it->first == mesh; ++it)
    if (!this->AxisRanges_.count(*it))
      names.push_back(it->second);
  return names;
}

void DataAdaptor::StoreAxisRange(const std::string &mesh,
                                 const std::string &name,
                                 const ColumnSet &columns, AxisRange range)
{
  this->FollowStep();
  this->AxisRanges_[{mesh, name}] = AxisRangeEntry{columns, range};
}

} // namespace sensei
