// Figure 1 reproduction: an n-body run initialized from uniform random
// distributions in position, mass, and velocity with a massive body at
// the origin (left panel), with in situ data binning of the sum of mass
// on 256x256 meshes in the x-y plane (middle panel) and the x-z plane
// (right panel).
//
// The paper's visualization run used 100k bodies on 64 GPUs (and the
// Section 4.3 campaign 24M on 512); here the simulation really executes,
// so the default is 8k bodies on 4 virtual GPUs — pass a body count to
// scale. Outputs fig1_xy.vti and fig1_xz.vti (ParaView/VisIt loadable)
// and prints grid statistics for a quick shape check.

#include "cliArgs.h"
#include "minimpi.h"
#include "newtonDriver.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataBinning.h"
#include "sio.h"
#include "vpPlatform.h"

#include <cmath>
#include <iostream>

namespace
{
void GridStats(svtkImageData *img, const char *name, const char *label)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  double total = 0, peak = 0;
  std::size_t populated = 0, peakIdx = 0;
  for (std::size_t i = 0; i < a->GetNumberOfTuples(); ++i)
  {
    const double v = a->GetVariantValue(i, 0);
    total += v;
    if (v > 0)
      ++populated;
    if (v > peak)
    {
      peak = v;
      peakIdx = i;
    }
  }

  int dims[3];
  img->GetDimensions(dims);
  double origin[3], spacing[3];
  img->GetOrigin(origin);
  img->GetSpacing(spacing);
  const double px =
    origin[0] + (static_cast<double>(peakIdx % static_cast<std::size_t>(dims[0])) + 0.5) * spacing[0];
  const double py =
    origin[1] + (static_cast<double>(peakIdx / static_cast<std::size_t>(dims[0])) + 0.5) * spacing[1];

  std::cout << "  " << label << ": total mass " << total << ", "
            << populated << "/" << a->GetNumberOfTuples()
            << " bins populated, peak " << peak << " at (" << px << ", "
            << py << ")\n";
}
} // namespace

// a malformed argument is one line and exit 2
int main(int argc, char **argv)
try
{
  const std::size_t bodies =
    cli::Arg<std::size_t>(argc, argv, 1, "bodies", 8192);
  const long steps = cli::Arg<long>(argc, argv, 2, "steps", 5);

  std::cout << "FIG1 | n-body + in situ data binning of sum(m) on 256x256 "
               "meshes (x-y and x-z)\n"
            << "FIG1 | " << bodies
            << " bodies, uniform random IC with a massive body at the "
               "origin, 4 ranks / 4 virtual GPUs\n";

  vp::PlatformConfig plat;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 64;
  vp::Platform::Initialize(plat);

  newton::Config sim;
  sim.TotalBodies = bodies;
  sim.Ic = newton::InitialCondition::UniformRandom;
  sim.CentralMass = 1000.0; // the massive body at the origin
  sim.VelocityScale = 0.3;
  sim.Dt = 5e-4;

  const char *xml = R"(<sensei>
    <analysis type="data_binning" mesh="bodies" axes="x,y"
              resolution="256,256" ops="sum" values="m" device="auto"/>
    <analysis type="data_binning" mesh="bodies" axes="x,z"
              resolution="256,256" ops="sum" values="m" device="auto"/>
  </sensei>)";

  minimpi::Run(4,
               [&](minimpi::Communicator &comm)
               {
                 sensei::ConfigurableAnalysis *analysis =
                   sensei::ConfigurableAnalysis::New();
                 analysis->InitializeString(xml);

                 newton::Driver driver(&comm, sim, analysis);
                 driver.Initialize();
                 driver.Run(steps);

                 if (comm.Rank() == 0)
                 {
                   auto *xy = dynamic_cast<sensei::DataBinning *>(
                     analysis->GetAnalysis(0));
                   auto *xz = dynamic_cast<sensei::DataBinning *>(
                     analysis->GetAnalysis(1));

                   svtkImageData *gxy = xy->GetLastResult();
                   svtkImageData *gxz = xz->GetLastResult();
                   sio::WriteVTI("fig1_xy.vti", gxy);
                   sio::WriteVTI("fig1_xz.vti", gxz);

                   std::cout << "FIG1 | step " << steps << " results:\n";
                   GridStats(gxy, "m_sum", "x-y plane (middle panel)");
                   GridStats(gxz, "m_sum", "x-z plane (right panel)");
                   std::cout
                     << "FIG1 | wrote fig1_xy.vti, fig1_xz.vti\n"
                     << "FIG1 | expected shape: total mass == sum of body "
                        "masses; peak bin at the origin (the massive body)\n";

                   gxy->UnRegister();
                   gxz->UnRegister();
                 }
                 analysis->Delete();
               });

  return 0;
}
catch (const cli::BadArgument &e)
{
  std::cerr << "fig1_binning: " << e.what() << "\n";
  return 2;
}
