#include "senseiHistogram.h"

#include "senseiDataBinning.h"
#include "svtkAOSDataArray.h"

namespace sensei
{

Histogram::Histogram() : Binning_(DataBinning::New()) { this->Configure(); }

Histogram::~Histogram() { this->Binning_->UnRegister(); }

void Histogram::SetMeshName(const std::string &m)
{
  this->Binning_->SetMeshName(m);
}

void Histogram::SetColumn(const std::string &c)
{
  this->Column_ = c;
  this->Configure();
}

void Histogram::SetBins(long n)
{
  this->Bins_ = n > 0 ? n : 64;
  this->Configure();
}

void Histogram::SetRange(double lo, double hi)
{
  this->Binning_->SetRange(0, lo, hi); // throws unless lo < hi
  this->Range_.emplace(lo, hi);
}

void Histogram::Configure()
{
  this->Binning_->SetAxes({this->Column_}); // drops the axis's range
  this->Binning_->SetResolution({this->Bins_});
  if (this->Range_)
    this->Binning_->SetRange(0, this->Range_->first, this->Range_->second);
}

bool Histogram::Execute(DataAdaptor *data)
{
  if (!data || this->Column_.empty())
    return false;
  this->Binning_->SetExecutionMethod(this->GetExecutionMethod());
  this->PassPlacement(*this->Binning_);
  return this->Binning_->Execute(data);
}

std::optional<std::vector<std::string>>
Histogram::GetColumnsRead(const std::string &mesh) const
{
  if (this->Column_.empty())
    return std::vector<std::string>();
  return this->Binning_->GetColumnsRead(mesh);
}

void Histogram::DrainAsync() { this->Binning_->DrainAsync(); }

int Histogram::Finalize() { return this->Binning_->Finalize(); }

bool Histogram::GetLastResult(std::vector<double> &counts, double &lo,
                              double &hi) const
{
  std::vector<double> los, his;
  auto image = svtkSmartPtr<svtkImageData>::Take(
    this->Binning_->GetLastResult(los, his));
  if (!image)
    return false;
  counts = static_cast<const svtkAOSDoubleArray *>(
             image->GetPointData()->GetArray("count"))
             ->GetVector();
  lo = los[0];
  hi = his[0];
  return true;
}

} // namespace sensei
