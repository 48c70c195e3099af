#include "senseiColumnStatistics.h"

#include "svtkArrayUtils.h"
#include "vcuda.h"

#include <cmath>
#include <fstream>
#include <limits>

namespace sensei
{

double ColumnMoments::StdDev() const
{
  return std::sqrt(this->Variance());
}

void ColumnMoments::Merge(const ColumnMoments &other)
{
  if (other.Count == 0.0)
    return;
  if (this->Count == 0.0)
  {
    *this = other;
    return;
  }

  const double na = this->Count;
  const double nb = other.Count;
  const double delta = other.Mean - this->Mean;
  const double n = na + nb;

  this->Min = std::min(this->Min, other.Min);
  this->Max = std::max(this->Max, other.Max);
  this->Mean += delta * nb / n;
  this->M2 += other.M2 + delta * delta * na * nb / n;
  this->Count = n;
}

// ---------------------------------------------------------------------------
bool ColumnStatistics::Execute(DataAdaptor *data)
{
  if (!data)
    return false;

  svtkDataObject *obj = data->GetMesh(this->MeshName_);
  auto *table = dynamic_cast<svtkTable *>(obj);
  if (!table)
  {
    if (obj)
      obj->UnRegister();
    return false;
  }

  // resolve the column list
  std::vector<std::string> names = this->Columns_;
  if (names.empty())
    for (int c = 0; c < table->GetNumberOfColumns(); ++c)
      names.push_back(table->GetColumn(c)->GetName());

  std::vector<svtkDataArray *> raw;
  raw.reserve(names.size());
  for (const std::string &name : names)
  {
    svtkDataArray *col = table->GetColumnByName(name);
    if (!col)
    {
      table->UnRegister();
      return false;
    }
    raw.push_back(col);
  }

  const long step = data->GetDataTimeStep();

  // one Welford pass per column
  std::size_t elements = 0;
  for (const svtkDataArray *c : raw)
    elements += static_cast<std::size_t>(c->GetNumberOfTuples());
  sched::WorkHint hint;
  hint.Elements = elements;
  hint.OpsPerElement = 8.0;
  hint.MoveBytes = elements * sizeof(double);
  const int device = this->GetPlacementDevice(data, hint);

  // the simulation's columns (lockstep) or the step's deep copies on the
  // placement device (asynchronous)
  std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> cols;
  cols.reserve(raw.size());
  for (svtkDataArray *c : raw)
    cols.push_back(this->GetAsynchronous()
                     ? data->Snapshot(c, device)
                     : svtkSmartPtr<const svtkHAMRDoubleArray>::Take(
                         svtkAsHAMRDouble(c)));
  table->UnRegister();

  if (this->GetAsynchronous())
  {
    if (!this->AsyncComm_ && data->GetCommunicator())
      this->AsyncComm_.emplace(data->GetCommunicator()->Dup());
    minimpi::Communicator *comm =
      this->AsyncComm_ ? &*this->AsyncComm_ : nullptr;
    this->Runner_.Submit(
      [this, names, cols, comm, step, device]()
      { this->Run(names, cols, comm, step, device); },
      hint.MoveBytes);
    return true;
  }

  this->Run(names, cols, data->GetCommunicator(), step, device);
  return true;
}

std::optional<std::vector<std::string>>
ColumnStatistics::GetColumnsRead(const std::string &mesh) const
{
  if (mesh != this->MeshName_)
    return std::vector<std::string>();
  if (this->Columns_.empty())
    return std::nullopt; // every column of the mesh
  return this->Columns_;
}

int ColumnStatistics::Finalize()
{
  this->Runner_.Drain();
  return 0;
}

void ColumnStatistics::Run(
  const std::vector<std::string> &names,
  const std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> &cols,
  minimpi::Communicator *comm, long step, int device)
{
  std::map<std::string, ColumnMoments> result;

  for (std::size_t c = 0; c < cols.size(); ++c)
  {
    const std::size_t n = cols[c]->GetNumberOfTuples();

    auto view = cols[c]->GetDeviceAccessible(device);
    const double *p = view.get();
    cols[c]->Synchronize();

    // single pass: count, min, max, mean, M2 (Welford)
    ColumnMoments m;
    m.Min = std::numeric_limits<double>::infinity();
    m.Max = -m.Min;
    const auto body = [p, &m](std::size_t b, std::size_t e)
    {
      for (std::size_t i = b; i < e; ++i)
      {
        const double v = p[i];
        m.Count += 1.0;
        m.Min = std::min(m.Min, v);
        m.Max = std::max(m.Max, v);
        const double d = v - m.Mean;
        m.Mean += d / m.Count;
        m.M2 += d * (v - m.Mean);
      }
    };

    if (device >= 0)
    {
      vcuda::SetDevice(device);
      vcuda::stream_t strm = vcuda::StreamCreate();
      vcuda::LaunchN(strm, n, body,
                     vcuda::LaunchBounds{8.0, 0.0, "column_stats"});
      vcuda::StreamSynchronize(strm);
    }
    else
    {
      vp::Platform::Get().HostParallelFor(
        vp::KernelDesc{n, 8.0, 0.0, "column_stats_host"}, body);
    }

    // combine across ranks: gather the 5 moments and merge in rank order
    if (comm)
    {
      const double mine[5] = {m.Count, m.Min, m.Max, m.Mean, m.M2};
      const std::vector<double> all = comm->Allgather(mine, 5);
      ColumnMoments merged;
      for (std::size_t r = 0; r * 5 < all.size(); ++r)
      {
        ColumnMoments part;
        part.Count = all[r * 5 + 0];
        part.Min = all[r * 5 + 1];
        part.Max = all[r * 5 + 2];
        part.Mean = all[r * 5 + 3];
        part.M2 = all[r * 5 + 4];
        merged.Merge(part);
      }
      m = merged;
    }

    if (m.Count == 0.0)
    {
      m.Min = 0.0;
      m.Max = 0.0;
    }
    result[names[c]] = m;
  }

  const bool isRoot = !comm || comm->Rank() == 0;
  if (isRoot && !this->OutputFile_.empty())
  {
    std::ofstream f(this->OutputFile_, std::ios::app);
    for (const auto &kv : result)
      f << step << ',' << kv.first << ',' << kv.second.Count << ','
        << kv.second.Min << ',' << kv.second.Max << ',' << kv.second.Mean
        << ',' << kv.second.StdDev() << '\n';
  }

  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  this->Last_ = std::move(result);
}

std::map<std::string, ColumnMoments> ColumnStatistics::GetLastResult() const
{
  std::lock_guard<std::mutex> lock(this->ResultMutex_);
  return this->Last_;
}

} // namespace sensei
