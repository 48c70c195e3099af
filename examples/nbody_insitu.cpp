// nbody_insitu: the paper's evaluation scenario at laptop scale — the
// Newton++ n-body simulation (OpenMP offload PM) coupled through SENSEI
// to a CUDA data binning analysis, configured at run time with SENSEI
// XML, on a multi-rank, multi-device virtual node.
//
// Usage: ./nbody_insitu [bodies] [steps] [ranks] [xml-file]
//   bodies  total body count            (default 2048)
//   steps   iterations                  (default 10)
//   ranks   MPI ranks = threads         (default 4)
//   xml     SENSEI config file          (default: built-in config)
//
// Outputs (built-in config): nbody_mass_xy.vti (in situ mass binning),
// nbody_bodies_*.csv (posthoc IO), and a run summary on stdout naming
// the files actually written.

#include "minimpi.h"
#include "newtonDriver.h"
#include "schedPipeline.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataBinning.h"
#include "senseiPosthocIO.h"
#include "senseiProfiler.h"
#include "sio.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"
#include "vpPlatform.h"

#include <atomic>
#include <fstream>
#include <iostream>
#include <sstream>

namespace
{
const char *DefaultXml = R"(<sensei>
  <!-- in situ mass binning in the x-y plane, on the data's device -->
  <analysis type="data_binning" mesh="bodies" axes="x,y" resolution="64,64"
            ops="sum,count" values="m," device="auto" async="1"/>
  <!-- a host-side histogram of the speed distribution -->
  <analysis type="histogram" mesh="bodies" column="speed" bins="32"
            device="host"/>
  <!-- dump the final state for post hoc visualization -->
  <analysis type="posthoc_io" mesh="bodies" dir="." prefix="nbody_bodies"
            frequency="10" format="csv"/>
</sensei>)";
} // namespace

// a configuration error (a malformed XML value or VP_* variable) surfaces
// from every rank's Initialize: report it and exit 1
int main(int argc, char **argv)
try
{
  const std::size_t bodies = argc > 1 ? std::stoul(argv[1]) : 2048;
  const long steps = argc > 2 ? std::stol(argv[2]) : 10;
  const int ranks = argc > 3 ? std::stoi(argv[3]) : 4;
  const std::string xmlFile = argc > 4 ? argv[4] : "";

  // one virtual GPU node
  vp::PlatformConfig plat;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 64;
  vp::Platform::Initialize(plat);

  newton::Config sim;
  sim.TotalBodies = bodies;
  sim.Ic = newton::InitialCondition::Galaxy;
  sim.CentralMass = 200.0;
  sim.Dt = 5e-4;

  std::cout << "newton++ | " << bodies << " bodies, " << steps << " steps, "
            << ranks << " ranks on " << plat.DevicesPerNode
            << " virtual GPUs\n";

  std::vector<double> totals(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> solver(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> insitu(static_cast<std::size_t>(ranks), 0.0);
  bool wroteVti = false;
  std::atomic<long> posthocFiles{0};

  minimpi::Run(ranks,
               [&](minimpi::Communicator &comm)
               {
                 sensei::ConfigurableAnalysis *analysis =
                   sensei::ConfigurableAnalysis::New();
                 if (xmlFile.empty())
                   analysis->InitializeString(DefaultXml);
                 else
                   analysis->InitializeFile(xmlFile);

                 newton::Driver driver(&comm, sim, analysis);
                 driver.Initialize();
                 const double total = driver.Run(steps);

                 const std::size_t r = static_cast<std::size_t>(comm.Rank());
                 totals[r] = total;
                 solver[r] = driver.MeanSolverSeconds();
                 insitu[r] = driver.MeanInSituSeconds();

                 // rank 0 exports the final binning result
                 if (comm.Rank() == 0 && xmlFile.empty())
                 {
                   if (auto *binning = dynamic_cast<sensei::DataBinning *>(
                         analysis->GetAnalysis(0)))
                   {
                     if (svtkImageData *img = binning->GetLastResult())
                     {
                       sio::WriteVTI("nbody_mass_xy.vti", img);
                       img->UnRegister();
                       wroteVti = true;
                     }
                   }
                 }
                 for (int i = 0; i < analysis->GetNumberOfAnalyses(); ++i)
                   if (auto *io = dynamic_cast<sensei::PosthocIO *>(
                         analysis->GetAnalysis(i)))
                     posthocFiles += io->GetWriteCount();
                 analysis->Delete();
               });

  double meanSolver = 0, meanInsitu = 0, total = 0;
  for (int r = 0; r < ranks; ++r)
  {
    meanSolver += solver[static_cast<std::size_t>(r)] / ranks;
    meanInsitu += insitu[static_cast<std::size_t>(r)] / ranks;
    total = std::max(total, totals[static_cast<std::size_t>(r)]);
  }

  std::cout << "total run time (virtual)     : " << total << " s\n"
            << "avg solver time / iteration  : " << meanSolver << " s\n"
            << "avg in situ time / iteration : " << meanInsitu
            << " s (apparent; binning ran asynchronously)\n";
  if (wroteVti)
    std::cout << "wrote nbody_mass_xy.vti\n";
  if (posthocFiles > 0)
    std::cout << "wrote " << posthocFiles << " posthoc_io files\n";

  // every rank's analyses were drained before their Finalize (see
  // ConfigurableAnalysis::Finalize) and all ranks have joined, so the
  // scheduler counters and the profiler series are settled: export them
  // now — never while async work is still in flight
  sensei::ExportSchedStats(sensei::Profiler::Global());
  sensei::ExportCompressStats(sensei::Profiler::Global());
  sensei::ExportExecStats(sensei::Profiler::Global());
  sensei::ExportLayoutStats(sensei::Profiler::Global());
  sensei::ExportServiceStats(sensei::Profiler::Global());
  sensei::ExportVizStats(sensei::Profiler::Global());
  {
    std::ofstream json("nbody_profile.json");
    json << sensei::Profiler::Global().ToJson() << '\n';
  }
  {
    const sched::PipelineStats ps = sched::AggregateStats();
    std::cout << "sched: " << ps.Submitted << " submitted, " << ps.Executed
              << " executed, " << ps.Dropped << " dropped, " << ps.Coalesced
              << " coalesced, stall " << ps.StallSeconds << " s (virtual)\n"
              << "wrote nbody_profile.json\n";
  }

  // with <check> (or VP_CHECK=1) the run doubles as a race/lifetime gate:
  // all ranks have joined, so finalize the checker once from the main
  // thread and fail the run on any violation
  if (vp::check::Enabled())
  {
    const vp::check::Report report = vp::check::Finalize();
    sensei::ExportCheckReport(sensei::Profiler::Global(), report);
    if (vp::fault::Enabled())
    {
      const vp::fault::FaultStats f = vp::fault::Stats();
      std::cout << "fault injection: " << f.AllocFailures
                << " allocation failures absorbed by the pool, "
                << f.EventsDropped << " events dropped, " << f.DelaysApplied
                << " stream delays applied\n";
    }
    if (report.Total())
    {
      std::cerr << "VP_CHECK: " << report.Total() << " violations\n"
                << report.Summary();
      return 2;
    }
    std::cout << "VP_CHECK: 0 violations\n";
  }
  return 0;
}
catch (const std::exception &e)
{
  std::cerr << "nbody_insitu: " << e.what() << "\n";
  return 1;
}
