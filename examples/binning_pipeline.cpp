// binning_pipeline: standalone in situ data binning on tabular data
// (paper Section 4.2) without a simulation — the pattern for coupling any
// producer of tabular data to the analysis.
//
// Builds a synthetic "disk galaxy" table (columns x, y, z, m, vr), then:
//   1. bins mass with summation on a 128x128 x-y mesh on the host;
//   2. repeats the identical binning on a device and checks the grids
//      match bin for bin;
//   3. bins radial velocity with min/max/average on an r-vr phase plane;
//   4. writes the grids as .vti files for ParaView/VisIt.
//
// Usage: ./binning_pipeline [rows]     (default 50000)

#include "cliArgs.h"
#include "senseiDataAdaptor.h"
#include "senseiDataBinning.h"
#include "sio.h"
#include "svtkAOSDataArray.h"
#include "vpPlatform.h"

#include <cmath>
#include <iostream>
#include <random>

namespace
{
svtkTable *MakeGalaxyTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> uphi(0.0, 2.0 * M_PI);
  std::exponential_distribution<double> ur(4.0);
  std::normal_distribution<double> uz(0.0, 0.05);
  std::uniform_real_distribution<double> um(0.5, 1.5);
  std::normal_distribution<double> uvr(0.0, 0.2);

  std::vector<double> x(n), y(n), z(n), m(n), r(n), vr(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    const double phi = uphi(gen);
    const double rad = std::min(ur(gen), 1.0);
    x[i] = rad * std::cos(phi);
    y[i] = rad * std::sin(phi);
    z[i] = uz(gen);
    m[i] = um(gen);
    r[i] = rad;
    vr[i] = uvr(gen) * (1.0 - rad); // slower dispersion further out
  }

  svtkTable *t = svtkTable::New();
  auto add = [t](const char *name, const std::vector<double> &v)
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, v.size(), 1);
    c->GetVector() = v;
    t->AddColumn(c);
    c->Delete();
  };
  add("x", x);
  add("y", y);
  add("z", z);
  add("m", m);
  add("r", r);
  add("vr", vr);
  return t;
}

std::vector<double> Grid(svtkImageData *img, const char *name)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  std::vector<double> out(a->GetNumberOfTuples());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->GetVariantValue(i, 0);
  return out;
}
} // namespace

// a malformed argument is one line and exit 2
int main(int argc, char **argv)
try
{
  const std::size_t rows =
    cli::Arg<std::size_t>(argc, argv, 1, "rows", 50000);

  vp::PlatformConfig plat;
  plat.DevicesPerNode = 4;
  vp::Platform::Initialize(plat);

  svtkTable *table = MakeGalaxyTable(rows, 7);
  sensei::TableAdaptor *adaptor = sensei::TableAdaptor::New("galaxy");
  adaptor->SetTable(table);

  // --- 1. mass surface density on the host --------------------------------------
  sensei::DataBinning *host = sensei::DataBinning::New();
  host->SetMeshName("galaxy");
  host->SetAxes({"x", "y"});
  host->SetResolution({128});
  host->AddOperation("m", sensei::BinningOp::Sum);
  host->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
  host->Execute(adaptor);

  svtkImageData *hostGrid = host->GetLastResult();
  sio::WriteVTI("binning_mass_xy.vti", hostGrid);

  // --- 2. the identical binning on a device ---------------------------------------
  sensei::DataBinning *dev = sensei::DataBinning::New();
  dev->SetMeshName("galaxy");
  dev->SetAxes({"x", "y"});
  dev->SetResolution({128});
  dev->AddOperation("m", sensei::BinningOp::Sum);
  dev->SetDeviceId(2);
  dev->Execute(adaptor);

  svtkImageData *devGrid = dev->GetLastResult();
  const std::vector<double> a = Grid(hostGrid, "m_sum");
  const std::vector<double> b = Grid(devGrid, "m_sum");
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > 1e-9)
      ++mismatches;

  std::cout << rows << " rows binned onto 128x128 mesh\n"
            << "host vs device 2 grids: " << mismatches
            << " mismatching bins (expect 0)\n";

  // --- 3. phase-plane binning with several reductions -----------------------------
  sensei::DataBinning *phase = sensei::DataBinning::New();
  phase->SetMeshName("galaxy");
  phase->SetAxes({"r", "vr"});
  phase->SetResolution({64, 64});
  phase->AddOperation("m", sensei::BinningOp::Sum);
  phase->AddOperation("vr", sensei::BinningOp::Min);
  phase->AddOperation("vr", sensei::BinningOp::Max);
  phase->AddOperation("m", sensei::BinningOp::Average);
  phase->Execute(adaptor);

  svtkImageData *phaseGrid = phase->GetLastResult();
  sio::WriteVTI("binning_phase_r_vr.vti", phaseGrid);

  double totalMass = 0, totalCount = 0;
  for (double v : Grid(phaseGrid, "m_sum"))
    totalMass += v;
  for (double v : Grid(phaseGrid, "count"))
    totalCount += v;
  std::cout << "phase plane: " << totalCount << " rows, total mass "
            << totalMass << "\n"
            << "wrote binning_mass_xy.vti, binning_phase_r_vr.vti\n";

  phaseGrid->UnRegister();
  devGrid->UnRegister();
  hostGrid->UnRegister();
  phase->Delete();
  dev->Delete();
  host->Delete();
  adaptor->ReleaseData();
  adaptor->Delete();
  table->Delete();

  return mismatches == 0 ? 0 : 1;
}
catch (const cli::BadArgument &e)
{
  std::cerr << "binning_pipeline: " << e.what() << "\n";
  return 2;
}
