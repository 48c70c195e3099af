// The three n-body workloads (solve, campaign_lockstep, campaign_async)
// and the check that their step loop is newton::Driver::Run call for call.

#include "e2eWorkloads.h"

#include "campaign.h"
#include "minimpi.h"
#include "newtonDataAdaptor.h"
#include "newtonDriver.h"
#include "newtonInitialConditions.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataBinning.h"
#include "senseiHistogram.h"
#include "sxml.h"
#include "vpPlatform.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e
{
namespace
{

/// Steps run before the measured window: graph capture and first-touch
/// page faults happen here, not in the measured steps.
constexpr long kWarmupSteps = 3;
constexpr long kMaxSteps = 1L << 30;

/// nbody_insitu's built-in chain without its posthoc I/O: async x-y mass
/// binning on the data's device plus a host histogram of speed.
const char *kSolveXml = R"(<sensei>
  <analysis type="data_binning" mesh="bodies" axes="x,y" resolution="64,64"
            ops="sum,count" values="m," device="auto" async="1"/>
  <analysis type="histogram" mesh="bodies" column="speed" bins="32"
            device="host"/>
</sensei>)";

struct NbodySpec
{
  const char *Name = "";
  int Ranks = 4;
  std::size_t Bodies = 0;
  std::string Xml;
};

newton::Config SimConfig(const NbodySpec &spec, unsigned seed)
{
  // nbody_insitu's galaxy set-up, with repartitioning off as in the
  // paper's runs: each seed fixes its own per-rank body counts at the
  // initial slab split, and the step cost does not drift as the disk
  // rotates bodies across slabs during a run
  newton::Config sim;
  sim.TotalBodies = spec.Bodies;
  sim.Ic = newton::InitialCondition::Galaxy;
  sim.CentralMass = 200.0;
  sim.Dt = 5e-4;
  sim.Seed = seed;
  sim.Repartition = false;
  return sim;
}

/// Global totals of the initial condition, taken from the generator on
/// the host so measuring them moves no data and charges no virtual time.
struct Totals
{
  double Bodies = 0.0;
  double Mass = 0.0;
  std::array<double, 3> Momentum = {0.0, 0.0, 0.0};
};

Totals InitialTotals(const newton::Config &sim, int ranks)
{
  Totals t;
  for (int r = 0; r < ranks; ++r)
  {
    const newton::BodySet b = newton::GenerateInitialCondition(sim, r, ranks);
    t.Bodies += static_cast<double>(b.Size());
    for (std::size_t i = 0; i < b.Size(); ++i)
    {
      t.Mass += b.M[i];
      t.Momentum[0] += b.M[i] * b.VX[i];
      t.Momentum[1] += b.M[i] * b.VY[i];
      t.Momentum[2] += b.M[i] * b.VZ[i];
    }
  }
  return t;
}

/// Wall (T) and virtual (V) stamps of one step: start, after
/// Solver::Step, after ReleaseData.
struct StepRecord
{
  double T0 = 0.0, T1 = 0.0, T2 = 0.0;
  double V0 = 0.0, V1 = 0.0, V2 = 0.0;
};

/// What the ranks share. StopAt is the closed-loop stop: rank 0 stores
/// s + 1 at the start of step s once the time is up. Every rank finishes
/// step s only after receiving rank 0's step-s ring-pass block, which rank
/// 0 sends after that store, so no rank can start step s + 1 unaware.
struct LoopControl
{
  long Warmup = kWarmupSteps;
  long FixedSteps = 0; ///< > 0: run exactly this many measured steps
  double Seconds = 0.0;
  bool Trace = false;
  bool Diagnostics = true; ///< counters, conservation and output checks
  bool CaptureGrid = false;
  std::atomic<long> StopAt{kMaxSteps};
  double MeasureBegin = 0.0; ///< written by rank 0 between two barriers
  Counters Layer;            ///< rank 0, after the final barrier
};

struct RankRun
{
  explicit RankRun(int rank) : Spans("rank " + std::to_string(rank)) {}

  Track Spans;
  std::vector<StepRecord> Steps; ///< measured steps only
  long FirstStep = 0;            ///< global index of Steps[0]
  double Ready = 0.0, End = 0.0;
  double VBegin = 0.0, VEnd = 0.0;
  double FinalizeSeconds = 0.0;
  int FinalizeStatus = 0;
  long Executes = 0, ExecuteFailures = 0;
  std::array<double, 3> Momentum = {0.0, 0.0, 0.0};
  std::vector<double> Grid; ///< rank 0's binning results, CaptureGrid
  std::vector<std::pair<std::string, bool>> Checks; ///< rank 0
};

const char *ExecuteSpanName(const sensei::AnalysisAdaptor *a)
{
  if (dynamic_cast<const sensei::DataBinning *>(a))
    return "sensei::DataBinning::Execute";
  if (dynamic_cast<const sensei::Histogram *>(a))
    return "sensei::Histogram::Execute";
  return "sensei::AnalysisAdaptor::Execute";
}

/// Every point-data value of every binning's last result, in chain order.
std::vector<double> GridOf(const sensei::ConfigurableAnalysis *chain)
{
  std::vector<double> out;
  for (int i = 0; i < chain->GetNumberOfAnalyses(); ++i)
  {
    auto *b = dynamic_cast<sensei::DataBinning *>(chain->GetAnalysis(i));
    if (!b)
      continue;
    Ref<svtkImageData> img(b->GetLastResult());
    if (!img)
      continue;
    svtkFieldData *pd = img->GetPointData();
    for (int a = 0; a < pd->GetNumberOfArrays(); ++a)
    {
      const svtkDataArray *arr = pd->GetArray(a);
      for (std::size_t k = 0; k < arr->GetNumberOfTuples(); ++k)
        out.push_back(arr->GetVariantValue(k, 0));
    }
  }
  return out;
}

double SumOf(const svtkDataArray *arr)
{
  double s = 0.0;
  for (std::size_t k = 0; arr && k < arr->GetNumberOfTuples(); ++k)
    s += arr->GetVariantValue(k, 0);
  return s;
}

/// Rank 0's output checks: every binning holds all the mass and every
/// body, and every histogram counts every body.
void CheckOutputs(const sensei::ConfigurableAnalysis *chain, const Totals &ic,
                  RankRun &out)
{
  for (int i = 0; i < chain->GetNumberOfAnalyses(); ++i)
  {
    const std::string tag = "analysis " + std::to_string(i);
    sensei::AnalysisAdaptor *a = chain->GetAnalysis(i);
    if (auto *b = dynamic_cast<sensei::DataBinning *>(a))
    {
      Ref<svtkImageData> img(b->GetLastResult());
      out.Checks.emplace_back(tag + " binning produced a result", !!img);
      if (!img)
        continue;
      const svtkFieldData *pd = img->GetPointData();
      out.Checks.emplace_back(
        tag + " binning count total equals the body count",
        std::fabs(SumOf(pd->GetArray("count")) - ic.Bodies) < 0.5);
      if (const svtkDataArray *m = pd->GetArray("m_sum"))
        out.Checks.emplace_back(
          tag + " binning sum(m) equals the total mass to 1e-9",
          std::fabs(SumOf(m) - ic.Mass) <= 1e-9 * ic.Mass);
    }
    else if (auto *h = dynamic_cast<sensei::Histogram *>(a))
    {
      std::vector<double> counts;
      double lo = 0.0, hi = 0.0;
      const bool have = h->GetLastResult(counts, lo, hi);
      double n = 0.0;
      for (double c : counts)
        n += c;
      out.Checks.emplace_back(tag + " histogram counts every body",
                              have && std::fabs(n - ic.Bodies) < 0.5);
    }
  }
}

/// The step loop: newton::Driver::Run call for call (Solver::Step, bridge
/// Update, Execute on each analysis, ReleaseData; Finalize and a barrier
/// at the end), with each public call timed from outside.
void StepLoop(minimpi::Communicator &comm, sensei::ConfigurableAnalysis *chain,
              newton::Solver &solver, newton::DataAdaptor *bridge,
              LoopControl &ctl, RankRun &out)
{
  const bool root = comm.Rank() == 0;
  const long last =
    ctl.FixedSteps > 0 ? ctl.Warmup + ctl.FixedSteps : kMaxSteps;

  std::vector<sensei::AnalysisAdaptor *> analyses;
  for (int i = 0; i < chain->GetNumberOfAnalyses(); ++i)
    analyses.push_back(chain->GetAnalysis(i));

  out.VBegin = vp::ThisClock().Now();
  for (long s = 0; s < last; ++s)
  {
    if (s == ctl.Warmup && ctl.Warmup > 0)
    {
      comm.Barrier();
      if (root)
      {
        ResetCounters();
        ctl.MeasureBegin = WallNow();
      }
      comm.Barrier();
      out.VBegin = vp::ThisClock().Now();
    }
    const bool measured = s >= ctl.Warmup;
    if (measured && ctl.FixedSteps == 0)
    {
      if (s >= ctl.StopAt.load(std::memory_order_acquire))
        break;
      if (root && WallNow() - ctl.MeasureBegin >= ctl.Seconds)
        ctl.StopAt.store(s + 1, std::memory_order_release);
    }

    Track *t = ctl.Trace && measured && s % 2 ? &out.Spans : nullptr;
    StepRecord rec;
    rec.V0 = vp::ThisClock().Now();
    rec.T0 = WallNow();
    {
      ScopedSpan span(t, "newton::Solver::Step", s);
      solver.Step();
    }
    rec.T1 = WallNow();
    rec.V1 = vp::ThisClock().Now();
    {
      ScopedSpan span(t, "newton::DataAdaptor::Update", s);
      bridge->Update();
    }
    for (sensei::AnalysisAdaptor *a : analyses)
    {
      ScopedSpan span(t, ExecuteSpanName(a), s);
      ++out.Executes;
      if (!a->Execute(bridge))
        ++out.ExecuteFailures;
    }
    {
      ScopedSpan span(t, "newton::DataAdaptor::ReleaseData", s);
      bridge->ReleaseData();
    }
    rec.T2 = WallNow();
    rec.V2 = vp::ThisClock().Now();
    if (t)
      t->Add(Span{"step", rec.T0, rec.T2, rec.V0, rec.V2, s});
    if (measured)
    {
      if (out.Steps.empty())
        out.FirstStep = s;
      out.Steps.push_back(rec);
    }
  }

  {
    ScopedSpan span(ctl.Trace ? &out.Spans : nullptr,
                    "sensei::ConfigurableAnalysis::Finalize", -1);
    const double f0 = WallNow();
    out.FinalizeStatus = chain->Finalize(); // drains asynchronous work
    out.FinalizeSeconds = WallNow() - f0;
  }
  comm.Barrier();
  out.End = WallNow();
  out.VEnd = vp::ThisClock().Now();
}

/// One rank: set up exactly as newton::Driver::Initialize does, then (when
/// not timing set-up alone) run the step loop and the checks.
void RankBody(minimpi::Communicator &comm, const std::string &xml,
              const newton::Config &sim, const Totals &ic, bool setupOnly,
              LoopControl &ctl, RankRun &out)
{
  Ref<sensei::ConfigurableAnalysis> chain(sensei::ConfigurableAnalysis::New());
  chain->InitializeString(xml);
  newton::Solver solver(&comm, sim);
  solver.Initialize();
  Ref<newton::DataAdaptor> bridge(newton::DataAdaptor::New(&solver));
  bridge->SetCommunicator(&comm);
  bridge->Update();
  out.Ready = WallNow();
  if (setupOnly)
    return;

  StepLoop(comm, chain.get(), solver, bridge.get(), ctl, out);

  const bool root = comm.Rank() == 0;
  if (root && ctl.CaptureGrid)
    out.Grid = GridOf(chain.get());
  if (!ctl.Diagnostics)
    return;
  if (root)
    ctl.Layer = Snapshot();
  comm.Barrier();
  out.Momentum = solver.Momentum(); // collective
  if (root)
    CheckOutputs(chain.get(), ic, out);
}

/// Launch the ranks once; returns the set-up time (start to the slowest
/// rank being ready to step).
double Launch(const NbodySpec &spec, const newton::Config &sim,
              const Totals &ic, bool setupOnly, LoopControl &ctl,
              std::vector<RankRun> &runs, double &epoch)
{
  epoch = WallNow();
  ResetProcessState();
  runs.clear();
  for (int r = 0; r < spec.Ranks; ++r)
    runs.emplace_back(r);

  minimpi::LaunchOptions lo;
  lo.Ranks = spec.Ranks;
  lo.RanksPerNode = spec.Ranks;
  minimpi::Run(lo,
               [&](minimpi::Communicator &comm)
               {
                 RankBody(comm, spec.Xml, sim, ic, setupOnly, ctl,
                          runs[static_cast<std::size_t>(comm.Rank())]);
               });

  double ready = 0.0;
  for (const RankRun &rr : runs)
    ready = std::max(ready, rr.Ready);
  return ready - epoch;
}

std::vector<const Track *> TracksOf(const std::vector<RankRun> &runs)
{
  std::vector<const Track *> out;
  for (const RankRun &rr : runs)
    out.push_back(&rr.Spans);
  return out;
}

void RunNbody(const NbodySpec &spec, const Options &o, Report &r)
{
  const newton::Config sim = SimConfig(spec, o.Seed);
  const Totals ic = InitialTotals(sim, spec.Ranks);
  const std::size_t nRanks = static_cast<std::size_t>(spec.Ranks);

  EndToEnd e;
  std::vector<RankRun> runs;
  double epoch = 0.0;

  // set-up alone, repeated; the measured run's set-up is one more sample
  for (int i = 1; i < (o.Trace ? 1 : o.SetupReps); ++i)
  {
    LoopControl ctl;
    e.SetupSeconds.push_back(Launch(spec, sim, ic, true, ctl, runs, epoch));
  }

  LoopControl ctl;
  ctl.Seconds = o.Seconds;
  ctl.Trace = o.Trace;
  e.SetupSeconds.push_back(Launch(spec, sim, ic, false, ctl, runs, epoch));
  const double peakRss = PeakRssMb(); // before the checks allocate

  // --- both clocks, slowest rank per step. The in situ part is what the
  // step adds after the last rank's solve: earlier ranks wait for that
  // rank anyway, inside the analyses' first collective.
  std::size_t steps = runs[0].Steps.size();
  for (const RankRun &rr : runs)
    steps = std::min(steps, rr.Steps.size());

  WallClock wall;
  wall.FirstStep = runs[0].FirstStep;
  double vInSitu = 0.0, vStep = 0.0, end = 0.0;
  std::vector<double> skew;
  for (std::size_t i = 0; i < steps; ++i)
  {
    double step = 0.0, solved = 0.0, vi = 0.0;
    double first = runs[0].Steps[i].T2, last = first;
    for (const RankRun &rr : runs)
    {
      const StepRecord &s = rr.Steps[i];
      step = std::max(step, s.T2 - s.T0);
      solved = std::max(solved, s.T1);
      vi = std::max(vi, s.V2 - s.V1);
      first = std::min(first, s.T2);
      last = std::max(last, s.T2);
    }
    wall.StepSeconds.push_back(step);
    wall.InSituSeconds.push_back(last - solved);
    vInSitu += vi;
    skew.push_back(last - first);
  }
  for (const RankRun &rr : runs)
  {
    vStep = std::max(vStep, rr.VEnd - rr.VBegin);
    end = std::max(end, rr.End);
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, steps));
  wall.StepsPerSecond = static_cast<double>(steps) / (end - ctl.MeasureBegin);
  e.VirtualStepSeconds = vStep / n;
  e.VirtualInSituSeconds = vInSitu / n;

  // --- checks and operation counts -------------------------------------------
  long executes = 0, failures = 0;
  for (const RankRun &rr : runs)
  {
    executes += rr.Executes;
    failures += rr.ExecuteFailures + (rr.FinalizeStatus != 0);
  }
  r.Operations(static_cast<long>(steps * nRanks) + executes, failures);
  r.Check("every rank ran the same number of steps",
          steps > 0 && std::all_of(runs.begin(), runs.end(),
                                   [&](const RankRun &rr)
                                   { return rr.Steps.size() == steps; }));
  for (const auto &[what, ok] : runs[0].Checks)
    r.Check(what, ok);
  const std::array<double, 3> &p1 = runs[0].Momentum;
  const std::array<double, 3> &p0 = ic.Momentum;
  const double dp = std::hypot(p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]);
  const double drift = dp / std::hypot(p0[0], p0[1], p0[2]);
  r.Check("momentum drift |dp|/|p0| <= 1e-9 (measured " +
            std::to_string(drift) + ")",
          drift <= 1e-9);

  if (!o.Trace)
  {
    ReportEndToEnd(r, e);
    return;
  }

  // --- per layer, from the spans of the odd (traced) steps --------------------
  const std::vector<const Track *> tracks = TracksOf(runs);
  LayerValues sl;
  sl.PeakRssMb = peakRss;
  const std::vector<double> solve =
    SlowestPerStep(tracks, {"newton::Solver::Step"});
  sl.NewtonStepMsP50 = 1e3 * Median(solve);
  double solveSum = 0.0;
  for (double x : solve)
    solveSum += x;
  sl.NewtonInteractionsPerS =
    solveSum > 0.0 ? ic.Bodies * (ic.Bodies - 1.0) *
                       static_cast<double>(solve.size()) / solveSum
                   : 0.0;

  std::map<long, std::vector<double>> solveByStep;
  for (const RankRun &rr : runs)
    for (const auto &[step, sec] :
         rr.Spans.SecondsPerStep("newton::Solver::Step"))
      solveByStep[step].push_back(sec);
  std::vector<double> imbalance;
  for (const auto &kv : solveByStep)
  {
    const double mean = Mean(kv.second);
    if (mean > 0.0)
      imbalance.push_back(
        *std::max_element(kv.second.begin(), kv.second.end()) / mean);
  }
  sl.NewtonRankImbalance = Median(imbalance);
  sl.CommRankSkewMsP50 = 1e3 * Median(skew);

  const std::vector<double> binning =
    SlowestPerStep(tracks, {"sensei::DataBinning::Execute"});
  sl.CoreBinningMsP50 = 1e3 * Percentile(binning, 0.5);
  sl.CoreBinningMsP90 = 1e3 * Percentile(binning, 0.9);
  sl.CoreHistogramMsP50 =
    1e3 * Median(SlowestPerStep(tracks, {"sensei::Histogram::Execute"}));
  sl.CoreBridgeMsP50 =
    1e3 * Median(SlowestPerStep(tracks, {"newton::DataAdaptor::Update",
                                         "newton::DataAdaptor::ReleaseData"}));
  for (const RankRun &rr : runs)
    sl.CoreFinalizeMs = std::max(sl.CoreFinalizeMs, 1e3 * rr.FinalizeSeconds);
  sl.StepUnattributedFrac = UnattributedFraction(tracks);
  ReportPerLayer(r, sl, wall, ctl.Layer, static_cast<long>(steps));

  if (!o.TraceDir.empty())
  {
    const std::string path = o.TraceDir + "/trace_" + spec.Name + "_seed" +
                             std::to_string(o.Seed) + ".json";
    r.Check("trace written to " + path,
            WriteChromeTrace(path, tracks, epoch));
  }
}

/// Paper Table 1's campaign document: 9 coordinate systems x 10 variables
/// summed (90 binnings per step), for one placement and method.
std::string CampaignXml(const campaign::CaseConfig &c, bool tiny,
                        const campaign::CampaignConfig &base)
{
  campaign::CampaignConfig g = base;
  g.Resolution = tiny ? 32 : 128;
  g.CoordSystems = tiny ? 2 : 9;
  g.VariablesPerSystem = 10;
  return campaign::BuildXml(c, g);
}

} // namespace

void RunSolve(const Options &o, Report &r)
{
  NbodySpec spec;
  spec.Name = "solve";
  spec.Ranks = 4;
  spec.Bodies = o.Tiny ? 512 : 6144;
  spec.Xml = kSolveXml;
  RunNbody(spec, o, r);
}

void RunCampaignLockstep(const Options &o, Report &r)
{
  NbodySpec spec;
  spec.Name = "campaign_lockstep";
  spec.Ranks = 4;
  spec.Bodies = o.Tiny ? 256 : 1024;
  spec.Xml = CampaignXml({campaign::Placement::SameDevice, false}, o.Tiny,
                         campaign::CampaignConfig());
  RunNbody(spec, o, r);
}

void RunCampaignAsync(const Options &o, Report &r)
{
  // Table 1's one-dedicated-device asynchronous case, overlapped with the
  // solver through exec worker threads, graph replay and a 2-deep
  // blocking sched pipeline
  campaign::CampaignConfig g;
  g.ExecMode = "threads";
  g.ExecThreads = 2;
  g.QueueDepth = 2;
  g.Backpressure = "block";
  g.ConfigMutator = [](sxml::Element &root)
  {
    sxml::Element *ge = root.AddChild("graph");
    ge->SetAttributeBool("enabled", true);
    ge->SetAttributeBool("fusion", true);
  };

  NbodySpec spec;
  spec.Name = "campaign_async";
  spec.Ranks = 1;
  spec.Bodies = o.Tiny ? 256 : 2048;
  spec.Xml =
    CampaignXml({campaign::Placement::OneDedicated, true}, o.Tiny, g);
  RunNbody(spec, o, r);
}

bool LoopMatchesDriver()
{
  NbodySpec spec;
  spec.Ranks = 4;
  spec.Bodies = 512;
  spec.Xml = kSolveXml;
  const newton::Config sim = SimConfig(spec, 7);
  constexpr long kSteps = 5;

  minimpi::LaunchOptions lo;
  lo.Ranks = spec.Ranks;
  lo.RanksPerNode = spec.Ranks;
  lo.Lockstep = true; // bit-reproducible virtual timelines

  ResetProcessState();
  std::vector<double> driverTotal(static_cast<std::size_t>(spec.Ranks));
  std::vector<double> driverGrid;
  minimpi::Run(lo,
               [&](minimpi::Communicator &comm)
               {
                 Ref<sensei::ConfigurableAnalysis> chain(
                   sensei::ConfigurableAnalysis::New());
                 chain->InitializeString(spec.Xml);
                 newton::Driver driver(&comm, sim, chain.get());
                 driver.Initialize();
                 driverTotal[static_cast<std::size_t>(comm.Rank())] =
                   driver.Run(kSteps);
                 if (comm.Rank() == 0)
                   driverGrid = GridOf(chain.get());
               });

  ResetProcessState();
  LoopControl ctl;
  ctl.Warmup = 0;
  ctl.FixedSteps = kSteps;
  ctl.Diagnostics = false;
  ctl.CaptureGrid = true;
  std::vector<RankRun> runs;
  for (int r = 0; r < spec.Ranks; ++r)
    runs.emplace_back(r);
  minimpi::Run(lo,
               [&](minimpi::Communicator &comm)
               {
                 RankBody(comm, spec.Xml, sim, Totals(), false, ctl,
                          runs[static_cast<std::size_t>(comm.Rank())]);
               });

  bool ok = !driverGrid.empty() && runs[0].Grid == driverGrid;
  if (!ok)
    std::fprintf(stderr, "selftest: binning grids differ from Driver::Run\n");
  for (std::size_t r = 0; r < runs.size(); ++r)
  {
    const double total = runs[r].VEnd - runs[r].VBegin;
    if (total != driverTotal[r])
    {
      std::fprintf(stderr,
                   "selftest: rank %zu virtual total %.17g != Driver::Run "
                   "%.17g\n",
                   r, total, driverTotal[r]);
      ok = false;
    }
  }
  return ok;
}

} // namespace e2e
