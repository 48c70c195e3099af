#include "senseiDataAdaptor.h"

#include "senseiDataBinning.h"
#include "svtkArrayUtils.h"

#include <exception>
#include <iostream>

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

void Roll(long &count, long &expected)
{
  if (!count)
    return;
  expected = count;
  count = 0;
}
} // namespace

DataAdaptor::~DataAdaptor()
{
  try
  {
    this->FinishLockstep();
  }
  catch (const std::exception &e)
  {
    std::cerr << "sensei::DataAdaptor: a queued lockstep batch failed: "
              << e.what() << std::endl;
  }
}

void DataAdaptor::ReleaseData()
{
  this->EndStep();
}

void DataAdaptor::EndStep()
{
  this->FinishLockstep();
  this->Snapshots_.clear();
  Roll(this->Requests_, this->Expected_);
  Roll(this->LockstepCount_, this->LockstepExpected_);
}

void DataAdaptor::BatchLockstep(std::shared_ptr<PendingBinning> execute)
{
  this->FollowStep();
  this->Lockstep_.push_back(std::move(execute));
  if (++this->LockstepCount_ >= this->LockstepExpected_)
    this->FinishLockstep();
}

void DataAdaptor::FinishLockstep()
{
  // taken off the queue first, so a batch that throws is not run again
  std::vector<std::shared_ptr<PendingBinning>> batch;
  batch.swap(this->Lockstep_);
  if (!batch.empty())
    DataBinning::CompleteBatch(batch);
}

void DataAdaptor::FollowStep()
{
  if (this->TimeStep_ == this->Step_)
    return;
  this->EndStep();
  this->Step_ = this->TimeStep_;
}

std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>>
DataAdaptor::Snapshot(const std::vector<svtkDataArray *> &columns, int device,
                      std::vector<ColumnRange> *ranges)
{
  if (device < 0)
    device = vp::HostDevice;
  this->FollowStep();

  // the columns not held for this step: a private conversion already on
  // `device` is adopted, the rest are copied by one packed deep copy
  std::vector<SnapshotEntry *> copied;
  std::vector<svtkSmartPtr<svtkHAMRDoubleArray>> typed;
  std::vector<const hamr::buffer<double> *> parts;
  for (svtkDataArray *column : columns)
  {
    if (!column)
      continue;
    auto [it, fresh] = this->Snapshots_.try_emplace({column, device});
    if (!fresh)
      continue;
    SnapshotEntry &e = it->second;
    e.Source = svtkSmartPtr<const svtkDataArray>(column);
    auto h = svtkSmartPtr<svtkHAMRDoubleArray>::Take(svtkAsHAMRDouble(column));
    if (h.Get() != column && (device == vp::HostDevice
                                ? h->HostAccessible()
                                : h->DeviceAccessible(device)))
    {
      e.Copy = h;
      continue;
    }
    copied.push_back(&e);
    parts.push_back(&h->GetBuffer());
    typed.push_back(std::move(h));
  }
  std::vector<ColumnRange> folded;
  std::vector<hamr::buffer<double>> copies =
    hamr::buffer<double>::packed_deep_copy(parts, device,
                                           hamr::stream_mode::async,
                                           ranges ? &folded : nullptr);
  for (std::size_t k = 0; k < copies.size(); ++k)
  {
    copied[k]->Copy = svtkSmartPtr<svtkHAMRDoubleArray>::Take(
      svtkHAMRDoubleArray::New(typed[k]->GetName(), std::move(copies[k]),
                              typed[k]->GetNumberOfComponents()));
    if (ranges)
      copied[k]->Range = std::move(folded[k]);
  }

  std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> out;
  if (ranges)
    ranges->clear();
  for (svtkDataArray *column : columns)
  {
    const SnapshotEntry *e =
      column ? &this->Snapshots_.at({column, device}) : nullptr;
    out.push_back(e ? e->Copy : svtkSmartPtr<const svtkHAMRDoubleArray>());
    if (ranges)
      ranges->push_back(e ? e->Range : ColumnRange());
  }
  for (svtkDataArray *column : columns)
  {
    if (!column)
      continue;
    const RequestKey name(column->GetName(), device);
    const long seen = ++this->Requests_[name];
    auto expected = this->Expected_.find(name);
    if (expected != this->Expected_.end() && expected->second == seen)
      this->Snapshots_.erase({column, device});
  }
  return out;
}

} // namespace sensei
