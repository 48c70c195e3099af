// Microbenchmark for captured step-graph execution (src/graph): the
// eight-case Table 1 campaign run eagerly vs with VP_GRAPH=1
// (capture once, replay with pointer rebinding), gated on the submission
// work the replay path absorbs. Writes BENCH_graph.json into the
// working directory (scripts/run_campaign.sh collects it under
// results/).
//
// Exit-code gates:
//   - exec::tasks_enqueued must drop >= 2.5x across the campaign with
//     capture/replay on (always enforced; exit 3). Replayed kernel
//     bodies run inline at the flush, so the threaded engine's dispatch
//     counter is a direct measure of absorbed submissions. (Measured
//     2.77x: each binning's grids are one packed record, so the eager
//     baseline no longer pays an init launch per grid.)
//   - campaign wall-clock must not regress by more than 15% (enforced
//     only with >= 4 hardware threads; exit 5).
//   - a serial direct-binning pipeline must be bit-exact between the
//     eager and replayed timelines (always enforced; exit 4).
//   - under VP_CHECK=1 any checker violation exits 2.

#include "campaign.h"
#include "execEngine.h"
#include "graphCapture.h"
#include "senseiDataAdaptor.h"
#include "senseiDataBinning.h"
#include "senseiProfiler.h"
#include "svtkAOSDataArray.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace
{

/// The tasks_enqueued gate: eager over graph-mode dispatches.
constexpr double MinTasksRatio = 2.5;

void Reset()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vomp::SetDefaultDevice(0);
  vp::check::Reset();
  vp::ThisClock().Set(0.0);
}

double Now()
{
  return std::chrono::duration<double>(
           std::chrono::steady_clock::now().time_since_epoch())
    .count();
}

// ---- the eight-case campaign, eager vs captured/replayed ------------------

campaign::CampaignConfig GraphCampaignConfig()
{
  campaign::CampaignConfig g = campaign::RealExecutionConfig();
  g.BodiesPerNode = 2000;
  g.Steps = 16; // 1 capture step amortized over 15 replays
  g.CoordSystems = 9;
  // all ten variables: the binning DAG (the capturable part of a step)
  // must dominate the solver+host work replay cannot absorb
  g.VariablesPerSystem = 10;
  g.ExecMode = "threads";
  return g;
}

struct ModeTotals
{
  double Wall = 0.0;    ///< real seconds across the 8 cases
  double Virtual = 0.0; ///< summed virtual completion times
  std::uint64_t Tasks = 0;
  std::uint64_t Copies = 0;
  vp::graph::GraphStats Graph; ///< summed across cases
};

/// Run the eight cases in one mode. RunCase re-reads VP_GRAPH per case
/// (campaign reset), so the environment toggles capture/replay.
ModeTotals RunCampaign(bool graphOn)
{
  if (graphOn)
    setenv("VP_GRAPH", "1", 1);
  else
    unsetenv("VP_GRAPH");

  const campaign::CampaignConfig g = GraphCampaignConfig();
  ModeTotals t;
  for (const campaign::CaseConfig &c : campaign::AllCases())
  {
    Reset();
    const double t0 = Now();
    const campaign::CaseResult res = campaign::RunCase(c, g);
    t.Wall += Now() - t0;
    t.Virtual += res.TotalSeconds;

    const vp::exec::EngineStats e = vp::exec::Stats();
    t.Tasks += e.TasksEnqueued;
    t.Copies += e.CopiesEnqueued;

    const vp::graph::GraphStats s = vp::graph::Stats();
    t.Graph.Captures += s.Captures;
    t.Graph.CaptureAborts += s.CaptureAborts;
    t.Graph.Replays += s.Replays;
    t.Graph.Invalidations += s.Invalidations;
    t.Graph.NodesCaptured += s.NodesCaptured;
    t.Graph.Flushes += s.Flushes;
    t.Graph.OpsAbsorbed += s.OpsAbsorbed;
  }
  unsetenv("VP_GRAPH");
  return t;
}

// ---- serial bit-exactness ---------------------------------------------------

svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> xs(n), ys(n), vs(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    xs[i] = u(gen);
    ys[i] = u(gen);
    vs[i] = std::floor(8.0 * (xs[i] + 2.0 * ys[i]));
  }
  svtkTable *t = svtkTable::New();
  auto add = [t](const char *name, const std::vector<double> &v)
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, v.size(), 1);
    c->GetVector() = v;
    t->AddColumn(c);
    c->Delete();
  };
  add("x", xs);
  add("y", ys);
  add("v", vs);
  return t;
}

std::vector<double> GridValues(svtkImageData *img, const char *name)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  std::vector<double> out(a ? a->GetNumberOfTuples() : 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->GetVariantValue(i, 0);
  return out;
}

/// Four direct DataBinning steps on device 0 (fresh table per step);
/// returns every step's grids concatenated.
std::vector<std::vector<double>> RunSerialBinning(bool graphOn)
{
  Reset();
  vp::exec::Configure(vp::exec::ExecConfig()); // serial
  vp::graph::GraphConfig gc;
  gc.Enabled = graphOn;
  vp::graph::Configure(gc);
  vp::graph::ResetStats();

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  sensei::DataBinning *b = sensei::DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({32});
  b->SetRange(0, -1.0, 1.0);
  b->SetRange(1, -1.0, 1.0);
  b->AddOperation("v", sensei::BinningOp::Sum);
  b->AddOperation("v", sensei::BinningOp::Min);
  b->AddOperation("v", sensei::BinningOp::Max);
  b->SetDeviceId(0);

  std::vector<std::vector<double>> out;
  for (int s = 0; s < 4; ++s)
  {
    svtkTable *t = MakeTable(5000, 90u + static_cast<unsigned>(s));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    b->Execute(da);
    svtkImageData *img = b->GetLastResult();
    if (img)
    {
      out.push_back(GridValues(img, "count"));
      out.push_back(GridValues(img, "v_sum"));
      out.push_back(GridValues(img, "v_min"));
      out.push_back(GridValues(img, "v_max"));
      img->UnRegister();
    }
  }
  b->Finalize();
  b->Delete();
  da->ReleaseData();
  da->Delete();
  vp::graph::Configure(vp::graph::GraphConfig());
  return out;
}

// ---- reporting -----------------------------------------------------------

const char *GateName(bool pass) { return pass ? "pass" : "fail"; }

void WriteJson(unsigned hw, const ModeTotals &eager, const ModeTotals &graph,
               double ratio, bool wallEnforced, bool wallOk, bool exact,
               const std::string &path)
{
  std::ofstream os(path);
  os.precision(12);
  os << "{\n"
     << "  \"bench\": \"um_graph\",\n"
     << "  \"hardware_threads\": " << hw << ",\n"
     << "  \"campaign\": {\n"
     << "    \"eager\": {\n"
     << "      \"tasks_enqueued\": " << eager.Tasks << ",\n"
     << "      \"copies_enqueued\": " << eager.Copies << ",\n"
     << "      \"wall_seconds\": " << eager.Wall << ",\n"
     << "      \"virtual_seconds\": " << eager.Virtual << "\n    },\n"
     << "    \"graph\": {\n"
     << "      \"tasks_enqueued\": " << graph.Tasks << ",\n"
     << "      \"copies_enqueued\": " << graph.Copies << ",\n"
     << "      \"wall_seconds\": " << graph.Wall << ",\n"
     << "      \"virtual_seconds\": " << graph.Virtual << ",\n"
     << "      \"captures\": " << graph.Graph.Captures << ",\n"
     << "      \"capture_aborts\": " << graph.Graph.CaptureAborts << ",\n"
     << "      \"replays\": " << graph.Graph.Replays << ",\n"
     << "      \"invalidations\": " << graph.Graph.Invalidations << ",\n"
     << "      \"nodes_captured\": " << graph.Graph.NodesCaptured << ",\n"
     << "      \"flushes\": " << graph.Graph.Flushes << ",\n"
     << "      \"ops_absorbed\": " << graph.Graph.OpsAbsorbed << "\n    },\n"
     << "    \"tasks_ratio\": " << ratio << ",\n"
     << "    \"gates\": {\n"
     << "      \"tasks_ratio_2_5x\": \"" << GateName(ratio >= MinTasksRatio)
     << "\",\n"
     << "      \"wall_clock\": \""
     << (wallEnforced ? GateName(wallOk) : "skipped (insufficient cores)")
     << "\",\n"
     << "      \"serial_bit_exact\": \"" << GateName(exact) << "\"\n"
     << "    }\n  },\n"
     << "  \"profiler\": " << sensei::Profiler::Global().ToJson() << "\n"
     << "}\n";
}

} // namespace

// One synthetic binning-shaped step per iteration: the per-step
// submission cost is what capture/replay amortizes away.
static void BM_BinningStep(benchmark::State &state)
{
  const bool graphOn = state.range(0) != 0;
  Reset();
  vp::exec::Configure(vp::exec::ExecConfig());
  vp::graph::GraphConfig gc;
  gc.Enabled = graphOn;
  vp::graph::Configure(gc);

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  sensei::DataBinning *b = sensei::DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({32});
  b->SetRange(0, -1.0, 1.0);
  b->SetRange(1, -1.0, 1.0);
  b->AddOperation("v", sensei::BinningOp::Sum);
  b->SetDeviceId(0);

  svtkTable *t = MakeTable(20000, 7);
  da->SetTable(t);
  t->Delete();

  long step = 0;
  for (auto _ : state)
  {
    da->SetDataTimeStep(step++);
    b->Execute(da);
  }
  state.SetLabel(graphOn ? "graph" : "eager");

  b->Finalize();
  b->Delete();
  da->ReleaseData();
  da->Delete();
  vp::graph::Configure(vp::graph::GraphConfig());
}
BENCHMARK(BM_BinningStep)->Arg(0)->Arg(1)->UseRealTime();

int main(int argc, char **argv)
{
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  sensei::Profiler::Global().Clear();

  // serial bit-exactness first: replay must reproduce the eager timeline
  const std::vector<std::vector<double>> eagerGrids = RunSerialBinning(false);
  const std::vector<std::vector<double>> replayGrids = RunSerialBinning(true);
  const bool exact =
    !eagerGrids.empty() && eagerGrids == replayGrids;

  const ModeTotals eager = RunCampaign(false);
  const ModeTotals graph = RunCampaign(true);

  const double ratio =
    graph.Tasks ? static_cast<double>(eager.Tasks) /
                    static_cast<double>(graph.Tasks)
                : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();
  const bool wallEnforced = hw >= 4;
  const bool wallOk = graph.Wall <= 1.15 * eager.Wall;

  sensei::ExportExecStats(sensei::Profiler::Global());
  sensei::ExportGraphStats(sensei::Profiler::Global());

  // under VP_CHECK the campaigns double as a race/lifetime gate
  if (vp::check::Enabled())
  {
    const vp::check::Report report = vp::check::Finalize();
    sensei::ExportCheckReport(sensei::Profiler::Global(), report);
    if (report.Total())
    {
      std::fprintf(stderr, "um_graph: VP_CHECK failed\n%s",
                   report.Summary().c_str());
      return 2;
    }
    std::printf("VP_CHECK: 0 violations across the graph campaigns\n");
  }

  WriteJson(hw, eager, graph, ratio, wallEnforced, wallOk, exact,
            "BENCH_graph.json");

  std::printf("campaign tasks_enqueued: eager %llu, graph %llu (%.2fx); "
              "wall eager %.3f s, graph %.3f s\n",
              static_cast<unsigned long long>(eager.Tasks),
              static_cast<unsigned long long>(graph.Tasks), ratio,
              eager.Wall, graph.Wall);
  std::printf("graph: %llu captures, %llu replays, %llu ops absorbed, "
              "%llu invalidations\n",
              static_cast<unsigned long long>(graph.Graph.Captures),
              static_cast<unsigned long long>(graph.Graph.Replays),
              static_cast<unsigned long long>(graph.Graph.OpsAbsorbed),
              static_cast<unsigned long long>(graph.Graph.Invalidations));

  if (!exact)
  {
    std::fprintf(stderr, "um_graph: serial replay diverged from the eager "
                         "binning grids\n");
    return 4;
  }
  std::printf("serial replay bit-exact with the eager timeline\n");

  if (ratio < MinTasksRatio)
  {
    std::fprintf(stderr,
                 "um_graph: tasks_enqueued dropped only %.2fx with "
                 "capture/replay (target %.1fx)\n",
                 ratio, MinTasksRatio);
    return 3;
  }
  std::printf("BENCH_graph.json: tasks_enqueued dropped %.2fx (gate "
              "passed)\n",
              ratio);

  if (!wallEnforced)
  {
    std::printf("wall-clock gate skipped (insufficient cores: %u hardware "
                "threads)\n",
                hw);
    return 0;
  }
  if (!wallOk)
  {
    std::fprintf(stderr,
                 "um_graph: campaign wall-clock regressed with replay "
                 "(eager %.3f s -> graph %.3f s)\n",
                 eager.Wall, graph.Wall);
    return 5;
  }
  std::printf("wall-clock did not regress (eager %.3f s, graph %.3f s)\n",
              eager.Wall, graph.Wall);
  return 0;
}
