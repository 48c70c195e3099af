// Benchmark and acceptance gates for the campaign auto-tuner (src/tune):
// offline annealed search over the <pool>/<sched> knob space,
// scored on the virtual platform, plus the online controller that adapts
// bounded-risk knobs from profiler counters mid-run. Writes
// BENCH_tune.json into the working directory (scripts/run_campaign.sh
// collects it under results/).
//
// Exit-code gates:
//   - the tuner-emitted configuration must strictly beat the best
//     hand-written configs/*.xml on total virtual time across the
//     stall-shaded eight-case comparison campaign; the margin and the
//     winning XML are recorded in BENCH_tune.json (exit 3).
//     Hand-written configs are scored through
//     tune::Evaluator::EvaluateXml, i.e. on their scheduling-space knobs
//     over the identical workload — elements outside the knob space
//     (<exec>, <layout>, <compress>, <viz>, <fault>, <check>, <service>)
//     do not participate.
//   - the annealer must beat random search at the same evaluation budget
//     on the proxy campaign (fault-shaded so the sched knobs have graded
//     effects), each algorithm on a fresh evaluator so equal budget means
//     equal campaign runs (exit 4).
//   - the online controller must improve a shifting-workload scenario
//     (the dedicated in situ device stalls 8 ms per submission from
//     step 16 on) over the same static configuration without the
//     controller (exit 5).
//   - two annealer runs with the same seed must produce bit-identical
//     winning XML and search traces (exit 6).
//   - under VP_CHECK=1 any checker violation exits 2.
//
// Budgets scale with VP_TUNE_BUDGET (comparison-campaign search, default
// 16) and VP_TUNE_PROXY_BUDGET (proxy-campaign searches, default 30).

#include "campaign.h"
#include "execEngine.h"
#include "newtonDriver.h"
#include "schedPipeline.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiProfiler.h"
#include "sxml.h"
#include "tuneOnline.h"
#include "tuneSearch.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpFaultInjector.h"
#include "vpMemoryPool.h"
#include "vpPlatform.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#ifndef VP_CONFIG_DIR
#define VP_CONFIG_DIR "configs"
#endif

namespace
{

long EnvLong(const char *name, long def)
{
  const char *v = std::getenv(name);
  return v && *v ? std::atol(v) : def;
}

// ---- the campaigns candidates are scored on -------------------------------

/// The dedicated in situ device (node 0, device 3) carries an extra 2 ms
/// per submission: a `<fault>` element the campaign builder folds into
/// every case, so the queue/backpressure/placement knobs have graded
/// effects instead of a flat floor many configurations tie on.
void StallShading(sxml::Element &root)
{
  sxml::Element *fe = root.FindOrAddChild("fault");
  fe->SetAttribute("enabled", "1");
  fe->SetAttributeDouble("stream_delay", 2e-3);
  fe->SetAttributeInt("delay_node", 0);
  fe->SetAttributeInt("delay_device", 3);
}

/// Eight-case comparison campaign: paper-shaped analysis load (9 systems,
/// 10 variables) at 3 steps, one virtual node to keep a search
/// affordable. Stall-shaded, since the healthy campaign is flat
/// (EXPERIMENTS.md, um_tune).
tune::EvalConfig CompareConfig()
{
  tune::EvalConfig ec;
  ec.Campaign.Nodes = 1;
  ec.Campaign.Steps = 3;
  ec.Campaign.BodiesPerNode = 30000;
  ec.Campaign.CoordSystems = 9;
  ec.Campaign.VariablesPerSystem = 10;
  ec.Campaign.ConfigMutator = StallShading;
  ec.K = 0.0; // the gate is on total virtual time
  return ec;
}

/// Down-scaled, stall-shaded proxy for the search-quality and
/// reproducibility gates: uniform random draws must hit several
/// correlated knobs at once while the annealer can walk there, which is
/// exactly the structure the search-quality gate probes. Scored with
/// k = 1 so the SET footprint term participates too.
tune::EvalConfig ProxyConfig()
{
  tune::EvalConfig ec;
  ec.Campaign.Nodes = 1;
  ec.Campaign.Steps = 2;
  ec.Campaign.BodiesPerNode = 30000;
  ec.Campaign.CoordSystems = 3;
  ec.Campaign.VariablesPerSystem = 4;
  ec.Campaign.ConfigMutator = StallShading;
  ec.K = 1.0;
  return ec;
}

// ---- hand-written configurations ------------------------------------------

struct NamedConfig
{
  std::string Name;
  std::string Xml;
};

std::vector<NamedConfig> LoadConfigs(const std::string &dir)
{
  std::vector<NamedConfig> out;
  std::error_code ec;
  for (const auto &e : std::filesystem::directory_iterator(dir, ec))
  {
    if (!e.is_regular_file() || e.path().extension() != ".xml")
      continue;
    std::ifstream is(e.path());
    std::ostringstream ss;
    ss << is.rdbuf();
    out.push_back(NamedConfig{e.path().filename().string(), ss.str()});
  }
  std::sort(out.begin(), out.end(),
            [](const NamedConfig &a, const NamedConfig &b)
            { return a.Name < b.Name; });
  return out;
}

struct ScoredConfig
{
  std::string Name;
  tune::EvalResult Eval;
};

// ---- search-trace identity (the reproducibility gate) ---------------------

std::string TraceKey(const tune::SearchResult &r)
{
  std::ostringstream ss;
  ss.precision(17);
  for (const tune::TraceEntry &t : r.Trace)
    ss << t.Eval << '|' << t.Move << '|' << t.Cost << '|' << t.Best << '|'
       << t.Accepted << '\n';
  return ss.str();
}

// ---- the shifting-workload scenario ---------------------------------------

constexpr long ScenarioSteps = 48;
constexpr long ScenarioShiftStep = 16;
constexpr int ScenarioInSituDevice = 3;
/// Per-submission stall the shift adds: 4x the 2 ms used while every
/// binning grid was its own allocation, init and readback, since an in
/// situ step now makes about 4x fewer submissions.
constexpr double ScenarioStallSeconds = 8e-3;

/// Single-rank driver run: asynchronous in situ on a dedicated device
/// behind a depth-1 blocking queue (a sane static choice for a healthy
/// device). At ScenarioShiftStep the dedicated device picks up extra
/// per-submission latency — another tenant landed on it — and the static
/// configuration starts stalling the solver on the full queue. With
/// `online` the OnlineTuner rides the step hook and may adapt the queue
/// knobs to the shifted workload. Returns total virtual seconds.
double RunShiftingScenario(bool online, tune::OnlineStats *stats,
                           std::vector<std::string> *decisions)
{
  vp::PlatformConfig plat;
  plat.NumNodes = 1;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 64;
  plat.ExecuteKernels = false; // timing-only, like the campaign
  vp::Platform::Initialize(plat);

  sensei::ResetConfig({"sched", "exec", "fault"});
  sched::ResetAggregateStats();
  vp::exec::ResetStats();
  vp::ThisClock().Set(0.0);
  sensei::Profiler::Global().Clear(); // the controller reads step deltas

  campaign::CampaignConfig g;
  g.Nodes = 1;
  g.CoordSystems = 6;
  g.VariablesPerSystem = 6;
  g.Resolution = 128;
  g.SchedPolicy = "static";
  g.QueueDepth = 1;
  g.Backpressure = "block";
  campaign::CaseConfig c;
  c.Place = campaign::Placement::OneDedicated;
  c.Asynchronous = true;
  const std::string xml = campaign::BuildXml(c, g);

  newton::Config sim;
  sim.TotalBodies = 30000;
  sim.Seed = 42;
  sim.CentralMass = 100.0;
  sim.Repartition = false;
  sim.SimDevices = ScenarioInSituDevice; // devices 0..2 for the solver

  sensei::ConfigurableAnalysis *analysis =
    sensei::ConfigurableAnalysis::New();
  analysis->InitializeString(xml);
  newton::Driver driver(nullptr, sim, analysis);
  analysis->UnRegister();
  driver.Initialize();

  tune::OnlineConfig oc;
  oc.WindowSteps = 2;
  oc.Hysteresis = 0.02;
  oc.CooldownWindows = 2;
  tune::OnlineTuner tuner(oc);

  // compose the workload shift with the controller by hand (Attach would
  // install only the controller)
  driver.SetStepHook(
    [&](long s)
    {
      if (s == ScenarioShiftStep)
      {
        vp::fault::FaultConfig fc;
        fc.Enabled = true;
        fc.StreamDelaySeconds = ScenarioStallSeconds;
        fc.DelayNode = 0;
        fc.DelayDevice = ScenarioInSituDevice;
        vp::fault::Configure(fc);
      }
      if (online)
        tuner.OnStep(s);
    });

  const double total = driver.Run(ScenarioSteps);
  vp::fault::Reset();
  sched::Configure(sched::SchedConfig());

  if (stats)
    *stats = tuner.GetStats();
  if (decisions)
    *decisions = tuner.Decisions();
  return total;
}

// ---- reporting ------------------------------------------------------------

const char *GateName(bool pass) { return pass ? "pass" : "fail"; }

std::string JsonEscape(const std::string &s)
{
  std::string out;
  for (char ch : s)
  {
    if (ch == '"' || ch == '\\')
      out.push_back('\\');
    if (ch == '\n')
    {
      out += "\\n";
      continue;
    }
    out.push_back(ch);
  }
  return out;
}

void WriteJson(const std::vector<ScoredConfig> &hand,
               const ScoredConfig &bestHand, const tune::SearchResult &tuned,
               double margin, const tune::SearchResult &annealProxy,
               const tune::SearchResult &randomProxy, bool reproducible,
               double staticT, double onlineT,
               const tune::OnlineStats &online, const std::string &path)
{
  std::ofstream os(path);
  os.precision(12);
  os << "{\n"
     << "  \"bench\": \"um_tune\",\n"
     << "  \"handwritten\": [\n";
  for (std::size_t i = 0; i < hand.size(); ++i)
    os << "    {\"name\": \"" << JsonEscape(hand[i].Name)
       << "\", \"valid\": " << (hand[i].Eval.Valid ? "true" : "false")
       << ", \"total_seconds\": " << hand[i].Eval.TotalSeconds << "}"
       << (i + 1 < hand.size() ? "," : "") << "\n";
  os << "  ],\n"
     << "  \"best_handwritten\": {\"name\": \""
     << JsonEscape(bestHand.Name)
     << "\", \"total_seconds\": " << bestHand.Eval.TotalSeconds << "},\n"
     << "  \"tuned\": {\n"
     << "    \"total_seconds\": " << tuned.BestEval.TotalSeconds << ",\n"
     << "    \"peak_bytes\": " << tuned.BestEval.PeakBytes << ",\n"
     << "    \"evaluations\": " << tuned.Evaluations << ",\n"
     << "    \"margin_vs_best_handwritten\": " << margin << ",\n"
     << "    \"config\": \"" << JsonEscape(tune::Describe(tuned.Best))
     << "\",\n"
     << "    \"xml\": \"" << JsonEscape(tune::EmitXml(tuned.Best)) << "\"\n"
     << "  },\n"
     << "  \"proxy_search\": {\n"
     << "    \"anneal_cost\": " << annealProxy.BestEval.Cost << ",\n"
     << "    \"anneal_evaluations\": " << annealProxy.Evaluations << ",\n"
     << "    \"random_cost\": " << randomProxy.BestEval.Cost << ",\n"
     << "    \"random_evaluations\": " << randomProxy.Evaluations << ",\n"
     << "    \"advantage\": "
     << (annealProxy.BestEval.Cost > 0.0
           ? randomProxy.BestEval.Cost / annealProxy.BestEval.Cost
           : 0.0)
     << "\n  },\n"
     << "  \"online\": {\n"
     << "    \"static_total_seconds\": " << staticT << ",\n"
     << "    \"online_total_seconds\": " << onlineT << ",\n"
     << "    \"improvement\": "
     << (onlineT > 0.0 ? staticT / onlineT : 0.0) << ",\n"
     << "    \"windows\": " << online.Windows << ",\n"
     << "    \"trials\": " << online.Trials << ",\n"
     << "    \"kept\": " << online.Kept << ",\n"
     << "    \"reverted\": " << online.Reverted << "\n  },\n"
     << "  \"gates\": {\n"
     << "    \"beats_handwritten\": \"" << GateName(margin > 0.0) << "\",\n"
     << "    \"anneal_beats_random\": \""
     << GateName(annealProxy.BestEval.Cost < randomProxy.BestEval.Cost)
     << "\",\n"
     << "    \"online_improves_shifted\": \"" << GateName(onlineT < staticT)
     << "\",\n"
     << "    \"seed_reproducible\": \"" << GateName(reproducible) << "\"\n"
     << "  },\n"
     << "  \"profiler\": " << sensei::Profiler::Global().ToJson() << "\n"
     << "}\n";
}

} // namespace

// One knob-space round trip per iteration: the annealer pays this (plus
// the campaign run) per candidate, so serialization must stay cheap.
static void BM_EmitParseRoundTrip(benchmark::State &state)
{
  const tune::KnobSpace space = tune::KnobSpace::Campaign(2);
  std::mt19937_64 rng(7);
  tune::ConfigPoint p = space.Random(rng);
  for (auto _ : state)
  {
    const std::string xml = tune::EmitXml(p);
    benchmark::DoNotOptimize(tune::ParseXml(xml));
  }
}
BENCHMARK(BM_EmitParseRoundTrip);

// One proxy-campaign neighbourhood move per iteration.
static void BM_NeighborMove(benchmark::State &state)
{
  const tune::KnobSpace space = tune::KnobSpace::Campaign(0);
  std::mt19937_64 rng(7);
  tune::ConfigPoint p;
  for (auto _ : state)
    benchmark::DoNotOptimize(space.Neighbor(p, rng));
}
BENCHMARK(BM_NeighborMove);

int main(int argc, char **argv)
{
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  sensei::Profiler::Global().Clear();
  const tune::KnobSpace space = tune::KnobSpace::Campaign(0);

  // ---- 1. score the hand-written configurations on the comparison
  //         campaign, and search for a better point from the best of them
  tune::Evaluator ev(CompareConfig());
  const std::vector<NamedConfig> files = LoadConfigs(VP_CONFIG_DIR);
  std::printf("um_tune: scoring %zu hand-written configurations from %s\n",
              files.size(), VP_CONFIG_DIR);

  std::vector<ScoredConfig> hand;
  std::vector<tune::ConfigPoint> warm;
  for (const NamedConfig &f : files)
  {
    if (f.Name == "tuned_campaign.xml")
    {
      // the committed tuner output: a warm-start candidate, not a
      // hand-written competitor
      try
      {
        warm.push_back(tune::ParseXml(f.Xml));
      }
      catch (const std::exception &)
      {
      }
      continue;
    }
    ScoredConfig sc{f.Name, ev.EvaluateXml(f.Xml)};
    std::printf("  %-28s t = %.9f s%s\n", sc.Name.c_str(),
                sc.Eval.TotalSeconds,
                sc.Eval.Valid ? "" : "  (failed to load)");
    hand.push_back(std::move(sc));
  }
  if (hand.empty())
  {
    std::fprintf(stderr, "um_tune: no hand-written configurations found\n");
    return 1;
  }

  const ScoredConfig *bestHand = nullptr;
  for (const ScoredConfig &sc : hand)
    if (sc.Eval.Valid &&
        (!bestHand || sc.Eval.TotalSeconds < bestHand->Eval.TotalSeconds))
      bestHand = &sc;
  if (!bestHand)
  {
    std::fprintf(stderr, "um_tune: no hand-written configuration loaded\n");
    return 1;
  }
  std::printf("  best hand-written: %s (t = %.9f s)\n",
              bestHand->Name.c_str(), bestHand->Eval.TotalSeconds);

  tune::SearchConfig tc;
  tc.Seed = 42;
  tc.Budget = static_cast<int>(EnvLong("VP_TUNE_BUDGET", 16));
  for (const ScoredConfig &sc : hand)
    if (&sc == bestHand)
      for (const NamedConfig &f : files)
        if (f.Name == sc.Name)
          tc.Warm.push_back(tune::ParseXml(f.Xml));
  for (const tune::ConfigPoint &w : warm)
    tc.Warm.push_back(w);

  const tune::SearchResult tuned = tune::Anneal(ev, space, tc);
  const double margin =
    (bestHand->Eval.TotalSeconds - tuned.BestEval.TotalSeconds) /
    bestHand->Eval.TotalSeconds;
  std::printf("  tuned: t = %.9f s (margin %+.4f%% vs %s) in %ld "
              "evaluations\n",
              tuned.BestEval.TotalSeconds, 100.0 * margin,
              bestHand->Name.c_str(), tuned.Evaluations);
  tune::ExportTuneStats(sensei::Profiler::Global(), ev, tuned);

  // ---- 2. annealer vs random search at equal budget on the proxy
  tune::SearchConfig pc;
  pc.Seed = 42;
  pc.Budget = static_cast<int>(EnvLong("VP_TUNE_PROXY_BUDGET", 30));
  tune::Evaluator evAnneal(ProxyConfig());
  const tune::SearchResult annealProxy = tune::Anneal(evAnneal, space, pc);
  tune::Evaluator evRandom(ProxyConfig());
  const tune::SearchResult randomProxy =
    tune::RandomSearch(evRandom, space, pc);
  std::printf("  proxy search at budget %d: anneal %.9f vs random %.9f\n",
              pc.Budget, annealProxy.BestEval.Cost,
              randomProxy.BestEval.Cost);

  // ---- 3. fixed-seed bit-reproducibility on a fresh evaluator
  tune::Evaluator evRepro(ProxyConfig());
  const tune::SearchResult annealRepro = tune::Anneal(evRepro, space, pc);
  const bool reproducible =
    tune::EmitXml(annealProxy.Best) == tune::EmitXml(annealRepro.Best) &&
    TraceKey(annealProxy) == TraceKey(annealRepro);

  // ---- 4. the online controller on the shifting workload
  const double staticT = RunShiftingScenario(false, nullptr, nullptr);
  tune::OnlineStats onlineStats;
  std::vector<std::string> decisions;
  const double onlineT =
    RunShiftingScenario(true, &onlineStats, &decisions);
  std::printf("  shifting workload: static %.9f s, online %.9f s "
              "(%ld kept, %ld reverted)\n",
              staticT, onlineT, onlineStats.Kept, onlineStats.Reverted);
  for (const std::string &d : decisions)
    std::printf("    online: %s\n", d.c_str());

  // under VP_CHECK every campaign above doubles as a race/lifetime gate
  if (vp::check::Enabled())
  {
    const vp::check::Report report = vp::check::Finalize();
    sensei::ExportCheckReport(sensei::Profiler::Global(), report);
    if (report.Total())
    {
      std::fprintf(stderr, "um_tune: VP_CHECK failed\n%s",
                   report.Summary().c_str());
      return 2;
    }
    std::printf("VP_CHECK: 0 violations across the tuning campaigns\n");
  }

  WriteJson(hand, *bestHand, tuned, margin, annealProxy, randomProxy,
            reproducible, staticT, onlineT, onlineStats,
            "BENCH_tune.json");

  if (margin <= 0.0)
  {
    std::fprintf(stderr,
                 "um_tune: tuned config (t = %.9f s) failed to beat the "
                 "best hand-written config %s (t = %.9f s)\n",
                 tuned.BestEval.TotalSeconds, bestHand->Name.c_str(),
                 bestHand->Eval.TotalSeconds);
    return 3;
  }
  std::printf("tuned config beats every hand-written config (margin "
              "%+.4f%%)\n",
              100.0 * margin);

  if (!(annealProxy.BestEval.Cost < randomProxy.BestEval.Cost))
  {
    std::fprintf(stderr,
                 "um_tune: annealer (%.9f) did not beat random search "
                 "(%.9f) at budget %d\n",
                 annealProxy.BestEval.Cost, randomProxy.BestEval.Cost,
                 pc.Budget);
    return 4;
  }
  std::printf("annealer beats random search at equal budget (%.9f < "
              "%.9f)\n",
              annealProxy.BestEval.Cost, randomProxy.BestEval.Cost);

  if (!(onlineT < staticT))
  {
    std::fprintf(stderr,
                 "um_tune: online controller did not improve the shifted "
                 "workload (static %.9f s, online %.9f s)\n",
                 staticT, onlineT);
    return 5;
  }
  std::printf("online controller improves the shifted workload (x%.4f)\n",
              staticT / onlineT);

  if (!reproducible)
  {
    std::fprintf(stderr, "um_tune: fixed-seed search is not "
                         "bit-reproducible\n");
    return 6;
  }
  std::printf("fixed-seed search is bit-reproducible\n");
  std::printf("BENCH_tune.json written\n");
  return 0;
}
