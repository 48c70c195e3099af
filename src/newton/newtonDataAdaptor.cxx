#include "newtonDataAdaptor.h"

#include "vomp.h"

#include <cmath>

namespace newton
{

std::vector<std::string> DataAdaptor::VariableNames()
{
  return {"x", "y", "z", "vx", "vy", "vz", "m", "id", "speed", "ke", "r"};
}

svtkDataObject *DataAdaptor::GetMesh(const std::string &meshName)
{
  if (meshName != "bodies" || !this->Solver_)
    return nullptr;

  if (this->Cached_)
  {
    this->Cached_->Register();
    return this->Cached_;
  }

  svtkTable *table = svtkTable::New();

  // zero-copy share of the solver's device-resident state
  for (const std::string &name : Solver::ColumnNames())
    table->AddColumn(this->Solver_->GetColumn(name));

  // derived variables, recomputed in place on the solver's device
  const std::size_t n = this->Solver_->LocalBodies();
  const int dev = this->Solver_->GetDevice();
  const int ompDev = dev < 0 ? vomp::GetInitialDevice() : dev;
  vomp::SetDefaultDevice(ompDev);
  this->PrepareDerived(n, ompDev);

  if (n)
  {
    const double *x = this->Solver_->GetColumn("x")->GetData();
    const double *y = this->Solver_->GetColumn("y")->GetData();
    const double *z = this->Solver_->GetColumn("z")->GetData();
    const double *vx = this->Solver_->GetColumn("vx")->GetData();
    const double *vy = this->Solver_->GetColumn("vy")->GetData();
    const double *vz = this->Solver_->GetColumn("vz")->GetData();
    const double *m = this->Solver_->GetColumn("m")->GetData();
    double *ps = this->Speed_->GetData();
    double *pk = this->Ke_->GetData();
    double *pr = this->R_->GetData();

    vomp::TargetParallelFor(
      ompDev, n,
      [=](std::size_t b, std::size_t e)
      {
        for (std::size_t i = b; i < e; ++i)
        {
          const double v2 =
            vx[i] * vx[i] + vy[i] * vy[i] + vz[i] * vz[i];
          ps[i] = std::sqrt(v2);
          pk[i] = 0.5 * m[i] * v2;
          pr[i] = std::sqrt(x[i] * x[i] + y[i] * y[i] + z[i] * z[i]);
        }
      },
      vomp::TargetBounds{12.0, 0.0, "newton_derived", /*Shardable=*/true});
  }

  table->AddColumn(this->Speed_.Get());
  table->AddColumn(this->Ke_.Get());
  table->AddColumn(this->R_.Get());

  this->Cached_ = table;
  this->Cached_->Register();
  return table;
}

void DataAdaptor::PrepareDerived(std::size_t n, int ompDev)
{
  if (this->Speed_ && this->DerivedDevice_ == ompDev &&
      this->Speed_->GetNumberOfTuples() == n)
    return;
  const svtkAllocator alloc = svtkAllocator::openmp;
  this->Speed_ = svtkSmartPtr<svtkHAMRDoubleArray>::Take(
    svtkHAMRDoubleArray::New("speed", n, 1, alloc));
  this->Ke_ = svtkSmartPtr<svtkHAMRDoubleArray>::Take(
    svtkHAMRDoubleArray::New("ke", n, 1, alloc));
  this->R_ = svtkSmartPtr<svtkHAMRDoubleArray>::Take(
    svtkHAMRDoubleArray::New("r", n, 1, alloc));
  this->DerivedDevice_ = ompDev;
}

void DataAdaptor::ReleaseData()
{
  this->sensei::DataAdaptor::ReleaseData();
  if (this->Cached_)
  {
    this->Cached_->UnRegister();
    this->Cached_ = nullptr;
  }
}

void DataAdaptor::Update()
{
  this->ReleaseData();
  if (this->Solver_)
  {
    this->SetDataTime(this->Solver_->GetTime());
    this->SetDataTimeStep(this->Solver_->GetStepIndex());
  }
}

} // namespace newton
