#include "senseiAnalysisAdaptor.h"

#include "svtkArrayUtils.h"
#include "vpLoadTracker.h"
#include "vpPlatform.h"

#include <utility>

namespace sensei
{

int AnalysisAdaptor::GetPlacementDevice(int rank, int devicesPerNode,
                                        const sched::WorkHint &hint) const
{
  const int node = vp::Platform::GetThisNode();

  if (this->DeviceId_ == DEVICE_HOST)
  {
    vp::DeviceLoadTracker::Get().RecordPlacement(node, DEVICE_HOST);
    return DEVICE_HOST;
  }

  if (this->DeviceId_ >= 0 && devicesPerNode >= 1)
  {
    const int d = this->DeviceId_ % devicesPerNode;
    vp::DeviceLoadTracker::Get().RecordPlacement(node, d);
    return d;
  }

  // automatic selection by the placement policy (Eq. 1 under `static`).
  // With no usable device (n_a <= 0, or a negative n_u configured) every
  // policy returns DEVICE_HOST and warns once per process — Eq. 1 would
  // divide by zero.
  sched::PlacementRequest req;
  req.Rank = rank;
  req.DevicesPerNode = devicesPerNode;
  req.DevicesToUse = this->DevicesToUse_;
  req.DeviceStart = this->DeviceStart_;
  req.DeviceStride = this->DeviceStride_;
  req.Node = node;
  req.Hint = hint;
  return sched::GetPolicy(this->Policy_).SelectDevice(req);
}

int AnalysisAdaptor::GetPlacementDevice(DataAdaptor *data,
                                        const sched::WorkHint &hint) const
{
  const int rank =
    data && data->GetCommunicator() ? data->GetCommunicator()->Rank() : 0;
  return this->GetPlacementDevice(rank, vp::Platform::Get().NumDevices(),
                                  hint);
}

svtkSmartPtr<svtkTable> AnalysisAdaptor::GetTable(DataAdaptor *data,
                                                 const std::string &mesh)
{
  auto obj = svtkSmartPtr<svtkDataObject>::Take(data->GetMesh(mesh));
  return svtkSmartPtr<svtkTable>(dynamic_cast<svtkTable *>(obj.Get()));
}

std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>>
AnalysisAdaptor::GetInputs(DataAdaptor *data,
                           const std::vector<svtkDataArray *> &columns,
                           int device,
                           std::vector<DataAdaptor::ColumnRange> *ranges) const
{
  if (this->GetAsynchronous())
    return data->Snapshot(columns, device, ranges);
  std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> typed;
  for (svtkDataArray *col : columns)
    typed.push_back(
      svtkSmartPtr<const svtkHAMRDoubleArray>::Take(svtkAsHAMRDouble(col)));
  return typed;
}

void AnalysisAdaptor::Dispatch(DataAdaptor *data, Task task,
                               std::size_t payloadBytes, std::size_t rawBytes)
{
  if (!this->GetAsynchronous())
  {
    this->Runner_.Drain();
    task(data->GetCommunicator());
    return;
  }
  if (!this->AsyncComm_ && data->GetCommunicator())
    this->AsyncComm_.emplace(data->GetCommunicator()->Dup());
  minimpi::Communicator *comm = this->AsyncComm_ ? &*this->AsyncComm_ : nullptr;
  this->Runner_.Submit([task = std::move(task), comm]() { task(comm); },
                       payloadBytes, rawBytes);
}

} // namespace sensei
