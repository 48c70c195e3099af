// intransit_pipeline: in transit analysis — the deployment alternative
// the paper's related work compares against (refs [4, 8, 13, 14]). The
// world's ranks split into simulation senders and analysis endpoints:
// each solver rank serializes its body table every step and ships it to
// an assigned endpoint (M-to-N redistribution); endpoints assemble their
// blocks and run the data binning analysis across the endpoint group,
// completely off the simulation's resources.
//
// Usage: ./intransit_pipeline [bodies] [steps] [senders] [endpoints]
//        defaults: 2048 8 3 1
//
// Output: intransit_mass_xy.vti (binning of the final step) and a run
// summary contrasting the sender-visible transport cost with the
// endpoint's analysis time.

#include "cliArgs.h"
#include "minimpi.h"
#include "newtonDataAdaptor.h"
#include "newtonSolver.h"
#include "senseiDataBinning.h"
#include "senseiInTransit.h"
#include "sio.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <iostream>

// a malformed argument is one line and exit 2
int main(int argc, char **argv)
try
{
  const std::size_t bodies =
    cli::Arg<std::size_t>(argc, argv, 1, "bodies", 2048);
  const long steps = cli::Arg<long>(argc, argv, 2, "steps", 8);
  const int senders = cli::Arg(argc, argv, 3, "senders", 3);
  const int endpoints = cli::Arg(argc, argv, 4, "endpoints", 1);

  vp::PlatformConfig plat;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 64;
  vp::Platform::Initialize(plat);

  std::cout << "in transit | " << senders << " simulation ranks -> "
            << endpoints << " endpoint rank(s), " << bodies << " bodies, "
            << steps << " steps\n";

  double sendSeconds = 0.0;
  double endpointSeconds = 0.0;
  long processed = 0;

  minimpi::Run(senders + endpoints,
               [&](minimpi::Communicator &world)
               {
                 const sensei::InTransitLayout layout(world.Size(), endpoints);
                 const bool isEp = layout.IsEndpoint(world.Rank());
                 minimpi::Communicator group = world.Split(isEp ? 1 : 0);

                 if (!isEp)
                 {
                   // --- simulation side: solve, serialize, ship -------------
                   newton::Config cfg;
                   cfg.TotalBodies = bodies;
                   cfg.Ic = newton::InitialCondition::Galaxy;
                   cfg.CentralMass = 200.0;
                   cfg.Repartition = false;

                   newton::Solver solver(&group, cfg);
                   solver.Initialize();
                   newton::DataAdaptor *bridge =
                     newton::DataAdaptor::New(&solver);
                   bridge->SetCommunicator(&group);

                   sensei::InTransitSender sender(&world, layout, "bodies");
                   double visible = 0.0;
                   for (long s = 0; s < steps; ++s)
                   {
                     solver.Step();
                     bridge->Update();
                     const double t0 = vp::ThisClock().Now();
                     sender.Send(bridge);
                     bridge->ReleaseData();
                     visible += vp::ThisClock().Now() - t0;
                   }
                   sender.Close();
                   bridge->Delete();

                   if (group.Rank() == 0)
                     sendSeconds = visible / static_cast<double>(steps);
                   return;
                 }

                 // --- endpoint side: receive, assemble, analyze ----------------
                 sensei::DataBinning *binning = sensei::DataBinning::New();
                 binning->SetMeshName("bodies");
                 binning->SetAxes({"x", "y"});
                 binning->SetResolution({256});
                 binning->AddOperation("m", sensei::BinningOp::Sum);
                 binning->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);

                 sensei::InTransitEndpoint endpoint(&world, &group, layout,
                                                    "bodies");
                 const double t0 = vp::ThisClock().Now();
                 const long n = endpoint.Run(binning);
                 const double dt = vp::ThisClock().Now() - t0;

                 if (group.Rank() == 0)
                 {
                   processed = n;
                   endpointSeconds = dt / static_cast<double>(n > 0 ? n : 1);
                   if (svtkImageData *img = binning->GetLastResult())
                   {
                     sio::WriteVTI("intransit_mass_xy.vti", img);
                     img->UnRegister();
                   }
                 }
                 binning->Delete();
               });

  std::cout << "endpoint processed " << processed << " steps\n"
            << "sender-visible transport cost : " << sendSeconds
            << " s/step (serialize + ship)\n"
            << "endpoint analysis cadence     : " << endpointSeconds
            << " s/step (receive + assemble + bin)\n"
            << "wrote intransit_mass_xy.vti\n";
  return processed == steps ? 0 : 1;
}
catch (const cli::BadArgument &e)
{
  std::cerr << "intransit_pipeline: " << e.what() << "\n";
  return 2;
}
