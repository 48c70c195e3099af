// Microbenchmark for the real parallel execution engine (src/exec):
// real wall-clock of the sharded binning-shaped host region under
// VP_EXEC=serial vs VP_EXEC=threads, plus the eight-case Table 1
// campaign timed the same way. Unlike the um_* siblings this bench
// measures *real* seconds (std::chrono::steady_clock), because the
// engine's whole point is that virtual time is identical in both modes
// while wall-clock is not.
//
// Beyond the google-benchmark output, main() runs the comparisons and
// writes BENCH_exec.json into the working directory
// (scripts/run_campaign.sh collects it under results/). Exits nonzero
// unless the threaded binning region is at least 2x faster than serial
// — enforced only when the machine has >= 4 hardware threads; smaller
// boxes record the measurement and mark the gate skipped (a 1-core
// container cannot physically speed anything up).

#include "campaign.h"
#include "execEngine.h"
#include "senseiProfiler.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace
{

constexpr std::size_t kRows = 1 << 20; // rows per binning region
constexpr long kBins = 128 * 128;
constexpr int kRepeats = 8;

void Reset()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vp::check::Reset();
  vp::ThisClock().Set(0.0);
}

void ConfigureMode(bool threads)
{
  vp::exec::ExecConfig cfg;
  cfg.ExecMode = threads ? vp::exec::Mode::Threads : vp::exec::Mode::Serial;
  cfg.Threads = 0; // auto: hardware_concurrency - 1 pool threads
  cfg.ShardGrain = 16384;
  vp::exec::Configure(cfg);
}

double Now()
{
  return std::chrono::duration<double>(
           std::chrono::steady_clock::now().time_since_epoch())
    .count();
}

// ---- the binning-shaped sharded host region ------------------------------

/// A binning-shaped sharded kernel of its own: bin 2D coordinates, fold
/// a value into a per-lane histogram slab (exec::ShardIndex picks the
/// slab), with a little transcendental work per row so the region is
/// compute bound.
struct BinningRegion
{
  std::vector<double> X, Y, V;
  std::vector<double> Slabs; ///< lanes x kBins privatized histograms
  int MaxLanes = 1;

  explicit BinningRegion(unsigned seed)
  {
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    X.resize(kRows);
    Y.resize(kRows);
    V.resize(kRows);
    for (std::size_t i = 0; i < kRows; ++i)
    {
      X[i] = u(gen);
      Y[i] = u(gen);
      V[i] = u(gen);
    }
    MaxLanes = vp::exec::Engine::Get().Lanes();
    Slabs.assign(static_cast<std::size_t>(MaxLanes) *
                   static_cast<std::size_t>(kBins),
                 0.0);
  }

  /// One pass over the rows; safe in both modes (serial reads slab 0).
  void Accumulate()
  {
    const long res = 128;
    double *slabs = Slabs.data();
    const double *x = X.data();
    const double *y = Y.data();
    const double *v = V.data();
    const int maxLanes = MaxLanes;
    vp::KernelDesc desc{kRows, 24.0, 0.0, "um_exec_binning", true};
    vp::Platform::Get().HostParallelFor(
      desc,
      [slabs, x, y, v, maxLanes, res](std::size_t b, std::size_t e)
      {
        const int lane = std::min(vp::exec::ShardIndex(), maxLanes - 1);
        double *slab = slabs + static_cast<std::size_t>(lane) *
                                 static_cast<std::size_t>(kBins);
        for (std::size_t i = b; i < e; ++i)
        {
          const double r = std::sqrt(x[i] * x[i] + y[i] * y[i]);
          const double w = v[i] * std::exp(-r);
          long bx = static_cast<long>((x[i] + 1.0) * 0.5 * res);
          long by = static_cast<long>((y[i] + 1.0) * 0.5 * res);
          bx = bx < 0 ? 0 : (bx >= res ? res - 1 : bx);
          by = by < 0 ? 0 : (by >= res ? res - 1 : by);
          slab[bx + res * by] += w;
        }
      });
  }
};

/// Wall-clock seconds for kRepeats accumulation passes in one mode.
double TimeBinningRegion(bool threads)
{
  Reset();
  ConfigureMode(threads);
  BinningRegion region(17);
  const double t0 = Now();
  for (int r = 0; r < kRepeats; ++r)
    region.Accumulate();
  const double dt = Now() - t0;
  benchmark::DoNotOptimize(region.Slabs.data());
  ConfigureMode(false);
  return dt;
}

// ---- the eight-case campaign, serial vs threads --------------------------

struct CampaignPair
{
  std::string Label;
  double SerialWall = 0.0; ///< real seconds
  double ThreadedWall = 0.0;
  // virtual completion times. Both modes submit the same kernels, but
  // they may still differ: the campaign's rank threads run free, so
  // their claims on shared timelines land in real-time order (ROADMAP
  // item 2)
  double SerialVirtual = 0.0;
  double ThreadedVirtual = 0.0;
};

std::vector<CampaignPair> RunCampaignModes()
{
  campaign::CampaignConfig g = campaign::RealExecutionConfig();
  g.BodiesPerNode = 2000;
  g.Steps = 3;

  std::vector<CampaignPair> out;
  for (const campaign::CaseConfig &c : campaign::AllCases())
  {
    CampaignPair p;
    p.Label = std::string(campaign::PlacementName(c.Place)) +
              (c.Asynchronous ? "/async" : "/lockstep");

    Reset();
    g.ExecMode = "serial";
    double t0 = Now();
    const campaign::CaseResult serial = campaign::RunCase(c, g);
    p.SerialWall = Now() - t0;

    Reset();
    g.ExecMode = "threads";
    t0 = Now();
    const campaign::CaseResult threaded = campaign::RunCase(c, g);
    p.ThreadedWall = Now() - t0;

    p.SerialVirtual = serial.TotalSeconds;
    p.ThreadedVirtual = threaded.TotalSeconds;
    out.push_back(p);
  }
  return out;
}

// ---- reporting -----------------------------------------------------------

void WriteJson(unsigned hw, int lanes, bool gateEnforced, double serialSec,
               double threadedSec, double speedup,
               const std::vector<CampaignPair> &pairs,
               const std::string &path)
{
  std::ofstream os(path);
  os.precision(12);
  os << "{\n"
     << "  \"bench\": \"um_exec\",\n"
     << "  \"rows\": " << kRows << ",\n"
     << "  \"repeats\": " << kRepeats << ",\n"
     << "  \"hardware_threads\": " << hw << ",\n"
     << "  \"lanes\": " << lanes << ",\n"
     << "  \"binning\": {\n"
     << "    \"serial_wall_seconds\": " << serialSec << ",\n"
     << "    \"threaded_wall_seconds\": " << threadedSec << ",\n"
     << "    \"speedup\": " << speedup << ",\n"
     << "    \"gate\": \""
     << (gateEnforced ? (speedup >= 2.0 ? "pass" : "fail")
                      : "skipped (insufficient cores)")
     << "\"\n  },\n"
     << "  \"campaign\": {\n";
  for (std::size_t i = 0; i < pairs.size(); ++i)
  {
    const CampaignPair &p = pairs[i];
    os << "    \"" << p.Label << "\": {\n"
       << "      \"serial_wall_seconds\": " << p.SerialWall << ",\n"
       << "      \"threaded_wall_seconds\": " << p.ThreadedWall << ",\n"
       << "      \"serial_virtual_seconds\": " << p.SerialVirtual << ",\n"
       << "      \"threaded_virtual_seconds\": " << p.ThreadedVirtual
       << "\n    }" << (i + 1 < pairs.size() ? ",\n" : "\n");
  }
  os << "  },\n"
     << "  \"profiler\": " << sensei::Profiler::Global().ToJson() << "\n"
     << "}\n";
}

} // namespace

static void BM_ShardedBinningRegion(benchmark::State &state)
{
  const bool threads = state.range(0) != 0;
  Reset();
  ConfigureMode(threads);
  BinningRegion region(23);
  for (auto _ : state)
    region.Accumulate();
  state.SetLabel(threads ? "threads" : "serial");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
  ConfigureMode(false);
}
BENCHMARK(BM_ShardedBinningRegion)->Arg(0)->Arg(1)->UseRealTime();

int main(int argc, char **argv)
{
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  sensei::Profiler::Global().Clear();

  const double serialSec = TimeBinningRegion(false);
  vp::exec::ResetStats();
  const double threadedSec = TimeBinningRegion(true);
  const double speedup = threadedSec > 0.0 ? serialSec / threadedSec : 0.0;

  // lanes the threaded run actually had (pool threads + caller)
  ConfigureMode(true);
  const int lanes = vp::exec::Engine::Get().Lanes();
  ConfigureMode(false);
  const unsigned hw = std::thread::hardware_concurrency();
  const bool gateEnforced = hw >= 4;

  const std::vector<CampaignPair> pairs = RunCampaignModes();

  sensei::ExportExecStats(sensei::Profiler::Global());

  // under VP_CHECK the threaded campaigns double as a race/lifetime gate
  if (vp::check::Enabled())
  {
    const vp::check::Report report = vp::check::Finalize();
    sensei::ExportCheckReport(sensei::Profiler::Global(), report);
    if (report.Total())
    {
      std::fprintf(stderr, "um_exec: VP_CHECK failed\n%s",
                   report.Summary().c_str());
      return 2;
    }
    std::printf("VP_CHECK: 0 violations across the execution campaigns\n");
  }

  WriteJson(hw, lanes, gateEnforced, serialSec, threadedSec, speedup, pairs,
            "BENCH_exec.json");

  std::printf("binning region: serial %.3f s, threads %.3f s (%.2fx, "
              "%d lanes, %u hw threads)\n",
              serialSec, threadedSec, speedup, lanes, hw);
  for (const CampaignPair &p : pairs)
    std::printf("%-28s serial %.3f s, threads %.3f s (virtual %.3e s)\n",
                p.Label.c_str(), p.SerialWall, p.ThreadedWall,
                p.SerialVirtual);

  if (!gateEnforced)
  {
    std::printf("BENCH_exec.json: 2x gate skipped (insufficient cores: "
                "%u hardware threads)\n",
                hw);
    return 0;
  }
  if (speedup < 2.0)
  {
    std::fprintf(stderr,
                 "um_exec: threaded binning speedup %.2fx is below the 2x "
                 "target on %d lanes\n",
                 speedup, lanes);
    return 3;
  }
  std::printf("BENCH_exec.json: threaded binning %.2fx faster than serial "
              "(gate passed)\n",
              speedup);
  return 0;
}
