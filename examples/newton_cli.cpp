// newton_cli: the Newton++ simulation as a standalone tool, matching the
// paper's description of the code — "an open source direct n-body
// simulation with a second order, time reversible, symplectic integration
// scheme ... parallelized with MPI and OpenMP device offload ...
// instrumented with SENSEI, and it has a VTK compatible output format for
// post processing and visualization".
//
// Usage:
//   ./newton_cli [options]
//     --bodies N        total bodies                  (default 4096)
//     --steps N         time steps                    (default 20)
//     --ranks N         MPI ranks (threads)           (default 4)
//     --dt X            time step size                (default 5e-4)
//     --ic uniform|galaxy                             (default uniform)
//     --central-mass X  massive body at the origin    (default 1000)
//     --out PREFIX      write PREFIX_rR_sS.vtk snapshots every 10 steps
//     --sensei FILE     drive a SENSEI XML analysis chain in situ
//     --energy          report energy drift (diagnostic; O(N^2) on host)

#include "minimpi.h"
#include "newtonDriver.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiPosthocIO.h"
#include "vpPlatform.h"

#include <cstring>
#include <iostream>

// a configuration error (a malformed XML value or VP_* variable) surfaces
// from every rank's Initialize: report it and exit 1
int main(int argc, char **argv)
try
{
  newton::Config cfg;
  cfg.TotalBodies = 4096;
  cfg.Dt = 5e-4;
  cfg.CentralMass = 1000.0;

  long steps = 20;
  int ranks = 4;
  std::string outPrefix;
  std::string senseiXml;
  bool energyCheck = false;

  for (int i = 1; i < argc; ++i)
  {
    const std::string arg = argv[i];
    auto next = [&]() -> const char *
    {
      if (i + 1 >= argc)
      {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };

    if (arg == "--bodies")
      cfg.TotalBodies = std::stoul(next());
    else if (arg == "--steps")
      steps = std::stol(next());
    else if (arg == "--ranks")
      ranks = std::stoi(next());
    else if (arg == "--dt")
      cfg.Dt = std::stod(next());
    else if (arg == "--central-mass")
      cfg.CentralMass = std::stod(next());
    else if (arg == "--ic")
      cfg.Ic = std::strcmp(next(), "galaxy") == 0
                 ? newton::InitialCondition::Galaxy
                 : newton::InitialCondition::UniformRandom;
    else if (arg == "--out")
      outPrefix = next();
    else if (arg == "--sensei")
      senseiXml = next();
    else if (arg == "--energy")
      energyCheck = true;
    else
    {
      std::cerr << "unknown option " << arg << " (see header for usage)\n";
      return 2;
    }
  }

  vp::PlatformConfig plat;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 64;
  vp::Platform::Initialize(plat);

  std::cout << "newton++ | " << cfg.TotalBodies << " bodies, " << steps
            << " steps, dt=" << cfg.Dt << ", "
            << (cfg.Ic == newton::InitialCondition::Galaxy ? "galaxy"
                                                           : "uniform")
            << " IC, " << ranks << " ranks\n";

  double e0 = 0, e1 = 0, total = 0, solverMean = 0;

  minimpi::Run(ranks,
               [&](minimpi::Communicator &comm)
               {
                 // assemble the in situ chain: user XML and/or VTK output
                 sensei::ConfigurableAnalysis *chain = nullptr;
                 if (!senseiXml.empty())
                 {
                   chain = sensei::ConfigurableAnalysis::New();
                   chain->InitializeFile(senseiXml);
                 }

                 sensei::PosthocIO *writer = nullptr;
                 if (!outPrefix.empty())
                 {
                   writer = sensei::PosthocIO::New();
                   writer->SetMeshName("bodies");
                   writer->SetOutputDir(".");
                   writer->SetPrefix(outPrefix);
                   writer->SetFrequency(10);
                   writer->SetFormat(sensei::PosthocIO::Format::VTK);
                 }

                 newton::Driver driver(&comm, cfg, chain);
                 driver.Initialize();

                 if (energyCheck)
                 {
                   const double e = driver.GetSolver().TotalEnergy();
                   if (comm.Rank() == 0)
                     e0 = e;
                 }

                 // the driver runs the chain; the writer (if any) rides
                 // along per step
                 const double t = [&]
                 {
                   if (!writer)
                     return driver.Run(steps);
                   double elapsed = 0;
                   for (long s = 0; s < steps; ++s)
                   {
                     elapsed += driver.Run(1);
                     writer->Execute(driver.GetBridge());
                   }
                   writer->Finalize();
                   return elapsed;
                 }();

                 if (energyCheck)
                 {
                   const double e = driver.GetSolver().TotalEnergy();
                   if (comm.Rank() == 0)
                     e1 = e;
                 }

                 if (comm.Rank() == 0)
                 {
                   total = t;
                   solverMean = driver.MeanSolverSeconds();
                 }

                 if (writer)
                   writer->Delete();
                 if (chain)
                   chain->Delete();
               });

  std::cout << "total run time (virtual) : " << total << " s\n"
            << "solver per step          : " << solverMean << " s\n";
  if (energyCheck)
  {
    const double drift = std::abs(e1 - e0) / std::abs(e0);
    std::cout << "energy: " << e0 << " -> " << e1 << " (relative drift "
              << drift << ")\n";
    if (drift > 0.05)
    {
      std::cerr << "energy drift too large — reduce dt\n";
      return 1;
    }
  }
  if (!outPrefix.empty())
    std::cout << "wrote " << outPrefix << "_r*_s*.vtk\n";
  return 0;
}
catch (const std::exception &e)
{
  std::cerr << "newton_cli: " << e.what() << "\n";
  return 1;
}
