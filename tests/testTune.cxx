// Tests for the campaign auto-tuner (src/tune): knob-space sanity
// (bounds, cardinality, single-knob neighbourhood moves), every knob
// moving the evaluator's score, a randomized XML round-trip property
// over the full knob space including per-analysis overrides (point ->
// EmitXml -> ParseXml -> equal, and the campaign-document path through
// ApplyToDoc/ParseDoc), profiler Snapshot/Delta composition (deltas
// across windows sum to the cumulative counters), evaluator
// bit-determinism across fresh instances of a lockstep proxy campaign,
// fixed-seed annealer reproducibility with warm starts, and the online
// controller's keep/revert/cooldown decisions driven by synthetic
// profiler counters.

#include "campaign.h"
#include "schedPipeline.h"
#include "senseiProfiler.h"
#include "sxml.h"
#include "tuneOnline.h"
#include "tuneSearch.h"
#include "tuneSpace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace
{

/// A two-case, one-step campaign small enough for unit tests; the
/// evaluator forces lockstep + serial execution, so scores must be
/// bit-identical across fresh instances.
tune::EvalConfig TinyEvalConfig()
{
  tune::EvalConfig ec;
  ec.Campaign.Nodes = 1;
  ec.Campaign.Steps = 1;
  ec.Campaign.BodiesPerNode = 10000;
  ec.Campaign.CoordSystems = 2;
  ec.Campaign.VariablesPerSystem = 2;
  campaign::CaseConfig host;
  host.Place = campaign::Placement::Host;
  campaign::CaseConfig dedicated;
  dedicated.Place = campaign::Placement::OneDedicated;
  dedicated.Asynchronous = true;
  ec.Cases = {host, dedicated};
  return ec;
}

/// The four asynchronous placements in one campaign, with the dedicated
/// in situ device (node 0, device 3) stalled 2 ms per submission as in
/// bench/um_tune: the placement policies act only across several
/// devices, the pool's cap and trim only where payloads are pooled.
tune::EvalConfig StalledAsyncEvalConfig()
{
  tune::EvalConfig ec;
  ec.Campaign.Nodes = 1;
  ec.Campaign.Steps = 2;
  ec.Campaign.BodiesPerNode = 10000;
  ec.Campaign.CoordSystems = 2;
  ec.Campaign.VariablesPerSystem = 2;
  ec.Campaign.ConfigMutator = [](sxml::Element &root)
  {
    sxml::Element *fe = root.FindOrAddChild("fault");
    fe->SetAttribute("enabled", "1");
    fe->SetAttributeDouble("stream_delay", 2e-3);
    fe->SetAttributeInt("delay_node", 0);
    fe->SetAttributeInt("delay_device", 3);
  };
  for (campaign::Placement place :
       {campaign::Placement::Host, campaign::Placement::SameDevice,
        campaign::Placement::OneDedicated, campaign::Placement::TwoDedicated})
  {
    campaign::CaseConfig c;
    c.Place = place;
    c.Asynchronous = true;
    ec.Cases.push_back(c);
  }
  return ec;
}

/// The i-th value of a knob's domain.
double DomainValue(const tune::Knob &k, std::size_t i)
{
  return k.Kind == tune::KnobKind::PowerOfTwo
           ? k.Min * std::pow(2.0, static_cast<double>(i))
           : k.Min + static_cast<double>(i);
}

} // namespace

// ---------------------------------------------------------------- knob space

TEST(TuneSpace, KnobSanity)
{
  const tune::KnobSpace space = tune::KnobSpace::Campaign(2);
  ASSERT_FALSE(space.Knobs().empty());
  EXPECT_GT(space.Size(), 1.0);

  std::set<std::string> names;
  tune::ConfigPoint p;
  for (const tune::Knob &k : space.Knobs())
  {
    EXPECT_TRUE(names.insert(k.Name).second) << "duplicate knob " << k.Name;
    EXPECT_GE(k.Cardinality(), 2u) << k.Name;

    // Get/Set identity at the default point
    const double v = k.Get(p);
    tune::ConfigPoint q = p;
    k.Set(q, v);
    EXPECT_EQ(q, p) << k.Name;
  }

  // every random point is already clamped
  std::mt19937_64 rng(7);
  for (int i = 0; i < 50; ++i)
  {
    tune::ConfigPoint r = space.Random(rng);
    tune::ConfigPoint c = r;
    space.Clamp(c);
    EXPECT_EQ(c, r);
  }
}

TEST(TuneSpace, NeighborMovesExactlyOneKnob)
{
  const tune::KnobSpace space = tune::KnobSpace::Campaign(2);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 100; ++i)
  {
    const tune::ConfigPoint p = space.Random(rng);
    tune::ConfigPoint q = p;
    const std::string move = space.Neighbor(q, rng);
    ASSERT_FALSE(move.empty());
    EXPECT_NE(q, p) << move;

    int changed = 0;
    for (const tune::Knob &k : space.Knobs())
      if (k.Get(p) != k.Get(q))
        ++changed;
    EXPECT_EQ(changed, 1) << move;

    tune::ConfigPoint c = q;
    space.Clamp(c);
    EXPECT_EQ(c, q) << "neighbour left the domain: " << move;
  }
}

TEST(TuneSpace, EveryKnobMovesTheScore)
{
  // a knob belongs in the space only when some value of it, set alone,
  // changes what the evaluator scores, to the bit (lockstep scoring is
  // deterministic). Start from the default point, and from a busy one
  // (the pool on at a 1 MiB cap, graph capture on, a depth-2 drop-oldest
  // queue) where the pool's cap, trim and block knobs act
  tune::ConfigPoint busy;
  busy.Pool.Enabled = true;
  busy.Pool.MaxCachedBytes = 1 << 20;
  busy.Graph.Enabled = true;
  busy.Sched.QueueDepth = 2;
  busy.Sched.Pressure = sched::Backpressure::DropOldest;

  const tune::KnobSpace space = tune::KnobSpace::Campaign(2);
  tune::Evaluator ev(StalledAsyncEvalConfig());
  for (const tune::Knob &k : space.Knobs())
  {
    bool moved = false;
    for (const tune::ConfigPoint &start : {tune::ConfigPoint(), busy})
    {
      const tune::EvalResult base = ev.Evaluate(start);
      ASSERT_TRUE(base.Valid) << base.Error;
      for (std::size_t i = 0; i < k.Cardinality() && !moved; ++i)
      {
        tune::ConfigPoint p = start;
        k.Set(p, DomainValue(k, i));
        const tune::EvalResult r = ev.Evaluate(p);
        ASSERT_TRUE(r.Valid) << k.Name << ": " << r.Error;
        moved = r.TotalSeconds != base.TotalSeconds ||
                r.PeakBytes != base.PeakBytes;
      }
    }
    EXPECT_TRUE(moved) << k.Name << " never moves the score";
  }
}

// ------------------------------------------------------------ XML round trip

TEST(TuneSpace, RoundTripRandomPoints)
{
  // the property satellite: any point in the space serializes to a
  // loadable document and parses back field for field
  const tune::KnobSpace space = tune::KnobSpace::Campaign(3);
  std::mt19937_64 rng(12345);
  for (int i = 0; i < 200; ++i)
  {
    const tune::ConfigPoint p = space.Random(rng);
    const std::string xml = tune::EmitXml(p);
    const tune::ConfigPoint back = tune::ParseXml(xml);
    EXPECT_EQ(back, p) << xml;
  }

  // and along annealer-style neighbourhood walks
  tune::ConfigPoint w;
  for (int i = 0; i < 100; ++i)
  {
    space.Neighbor(w, rng);
    EXPECT_EQ(tune::ParseXml(tune::EmitXml(w)), w);
  }
}

TEST(TuneSpace, RoundTripPerAnalysisOverrides)
{
  tune::ConfigPoint p;
  p.Graph.Enabled = true;
  p.Sched.QueueDepth = 4;
  p.Overrides.resize(3);
  p.Overrides[0].Policy = static_cast<int>(sched::PolicyKind::LeastLoaded);
  p.Overrides[2].Policy = static_cast<int>(sched::PolicyKind::CostModel);

  // standalone document: overrides ride the <tune> element
  EXPECT_EQ(tune::ParseXml(tune::EmitXml(p)), p);

  // campaign document: overrides ride the i-th <analysis> element
  sxml::Element root;
  root.SetName("sensei");
  for (int i = 0; i < 3; ++i)
    root.AddChild("analysis")->SetAttribute("type", "histogram");
  tune::ApplyToDoc(p, root);
  EXPECT_EQ(tune::ParseDoc(root), p);

  // a sparse vector and one padded with defaults compare (and parse) equal
  tune::ConfigPoint q = p;
  q.Overrides.resize(5);
  EXPECT_EQ(q, p);
  EXPECT_EQ(tune::ParseXml(tune::EmitXml(q)), p);
}

TEST(TuneSpace, ParseRejectsOutOfDomainValues)
{
  EXPECT_THROW(
    tune::ParseXml("<sensei><sched policy=\"warp-speed\"/></sensei>"),
    std::runtime_error);
}

// ------------------------------------------------- profiler snapshot deltas

TEST(TuneProfiler, SnapshotDeltaComposes)
{
  sensei::Profiler prof;
  prof.Event("a", 1.0);
  prof.Event("b", 2.0);
  const sensei::Profiler::CounterSnapshot s0 = prof.Snapshot();
  prof.Event("a", 3.0);
  const sensei::Profiler::CounterSnapshot s1 = prof.Snapshot();
  prof.Event("b", 4.0);
  prof.Event("c", 5.0);
  const sensei::Profiler::CounterSnapshot s2 = prof.Snapshot();

  const sensei::Profiler::CounterSnapshot d10 =
    sensei::Profiler::Delta(s1, s0);
  const sensei::Profiler::CounterSnapshot d21 =
    sensei::Profiler::Delta(s2, s1);
  const sensei::Profiler::CounterSnapshot d20 =
    sensei::Profiler::Delta(s2, s0);

  // the regression satellite: per-window deltas sum to the cumulative
  // delta in Total and Count for every counter
  for (const auto &kv : d20)
  {
    const auto i10 = d10.find(kv.first);
    const auto i21 = d21.find(kv.first);
    const double t10 = i10 == d10.end() ? 0.0 : i10->second.Total;
    const double t21 = i21 == d21.end() ? 0.0 : i21->second.Total;
    const long c10 = i10 == d10.end() ? 0 : i10->second.Count;
    const long c21 = i21 == d21.end() ? 0 : i21->second.Count;
    EXPECT_DOUBLE_EQ(t10 + t21, kv.second.Total) << kv.first;
    EXPECT_EQ(c10 + c21, kv.second.Count) << kv.first;
  }

  // a delta against an empty snapshot is the cumulative state
  const sensei::Profiler::CounterSnapshot all =
    sensei::Profiler::Delta(s2, sensei::Profiler::CounterSnapshot());
  EXPECT_DOUBLE_EQ(all.at("a").Total, 4.0);
  EXPECT_EQ(all.at("a").Count, 2);
  EXPECT_DOUBLE_EQ(all.at("b").Total, 6.0);
  EXPECT_DOUBLE_EQ(all.at("c").Total, 5.0);

  // Max is not differentiable: the delta carries newer's cumulative max
  EXPECT_DOUBLE_EQ(d21.at("b").Max, 4.0);
}

TEST(TuneProfiler, ToJsonCarriesSchemaVersion)
{
  sensei::Profiler prof;
  prof.Event("tune::best_cost", 0.5);
  const std::string json = prof.ToJson();
  EXPECT_NE(json.find(sensei::Profiler::SchemaVersion), std::string::npos);
  EXPECT_NE(json.find("tune::best_cost"), std::string::npos);
}

// ------------------------------------------------------- evaluator & search

TEST(TuneEval, BitDeterministicAcrossFreshEvaluators)
{
  tune::ConfigPoint p;
  p.Graph.Enabled = true;
  p.Sched.QueueDepth = 2;

  tune::Evaluator a(TinyEvalConfig());
  tune::Evaluator b(TinyEvalConfig());
  const tune::EvalResult ra = a.Evaluate(p);
  const tune::EvalResult rb = b.Evaluate(p);
  ASSERT_TRUE(ra.Valid) << ra.Error;
  ASSERT_TRUE(rb.Valid) << rb.Error;
  // lockstep + per-case clock rebase + serial execution: identical bits,
  // not just close values
  EXPECT_EQ(ra.TotalSeconds, rb.TotalSeconds);
  EXPECT_EQ(ra.PeakBytes, rb.PeakBytes);
  EXPECT_EQ(ra.Cost, rb.Cost);
}

TEST(TuneEval, MemoizesOnCanonicalXml)
{
  tune::Evaluator ev(TinyEvalConfig());
  tune::ConfigPoint p;
  const long missesBefore = ev.Evaluations();
  const tune::EvalResult r1 = ev.Evaluate(p);
  const tune::EvalResult r2 = ev.Evaluate(p);
  EXPECT_EQ(ev.Evaluations() - missesBefore, 1);
  EXPECT_GE(ev.CacheHits(), 1L);
  EXPECT_EQ(r1.TotalSeconds, r2.TotalSeconds);
}

TEST(TuneEval, InvalidXmlScoresInvalid)
{
  tune::Evaluator ev(TinyEvalConfig());
  const tune::EvalResult r = ev.EvaluateXml("<sensei><sched");
  EXPECT_FALSE(r.Valid);
  EXPECT_FALSE(r.Error.empty());
  EXPECT_TRUE(std::isinf(r.Cost));
}

TEST(TuneSearch, AnnealFixedSeedReproducibleWithWarmStart)
{
  const tune::KnobSpace space = tune::KnobSpace::Campaign(0);
  tune::SearchConfig sc;
  sc.Seed = 42;
  sc.Budget = 4;
  tune::ConfigPoint warm;
  warm.Graph.Enabled = true;
  sc.Warm.push_back(warm);

  tune::Evaluator a(TinyEvalConfig());
  const tune::SearchResult ra = tune::Anneal(a, space, sc);
  tune::Evaluator b(TinyEvalConfig());
  const tune::SearchResult rb = tune::Anneal(b, space, sc);

  // the incumbent is never worse than any warm-start candidate
  tune::Evaluator c(TinyEvalConfig());
  EXPECT_LE(ra.BestEval.Cost, c.Evaluate(warm).Cost);

  // bit-identical winner and search trace across fresh evaluators
  EXPECT_EQ(tune::EmitXml(ra.Best), tune::EmitXml(rb.Best));
  ASSERT_EQ(ra.Trace.size(), rb.Trace.size());
  for (std::size_t i = 0; i < ra.Trace.size(); ++i)
  {
    EXPECT_EQ(ra.Trace[i].Eval, rb.Trace[i].Eval);
    EXPECT_EQ(ra.Trace[i].Move, rb.Trace[i].Move);
    EXPECT_EQ(ra.Trace[i].Cost, rb.Trace[i].Cost);
    EXPECT_EQ(ra.Trace[i].Best, rb.Trace[i].Best);
    EXPECT_EQ(ra.Trace[i].Accepted, rb.Trace[i].Accepted);
  }
}

// --------------------------------------------------------- online controller

TEST(TuneOnline, KeepsImprovingTrialAndRevertsWorse)
{
  sched::Configure(sched::SchedConfig()); // depth 1, block, static
  sensei::Profiler &prof = sensei::Profiler::Global();
  prof.Clear();

  tune::OnlineConfig oc;
  oc.WindowSteps = 1;
  oc.Hysteresis = 0.05;
  oc.CooldownWindows = 2;
  oc.AdaptPolicy = false; // pin the move sequence to the queue knobs
  tune::OnlineTuner tuner(oc);

  long step = 0;
  auto window = [&](double seconds)
  {
    prof.Event("driver::solver", seconds);
    tuner.OnStep(step++);
  };

  window(1.0); // window 0 only seeds the snapshot
  EXPECT_EQ(sched::GetConfig().QueueDepth, 1);

  window(1.0); // baseline 1.0 -> trial: deepen queue 1 -> 2
  EXPECT_EQ(sched::GetConfig().QueueDepth, 2);

  window(0.5); // 0.5 <= 1.0 * 0.95: kept
  EXPECT_EQ(sched::GetConfig().QueueDepth, 2);
  EXPECT_EQ(tuner.GetStats().Kept, 1);

  // moves round-robin: the next proposal is the shallowing counterpart
  window(0.5); // baseline refresh -> trial: shallow queue 2 -> 1
  EXPECT_EQ(sched::GetConfig().QueueDepth, 1);

  window(0.6); // worse: reverted, shallowing goes on cooldown
  EXPECT_EQ(sched::GetConfig().QueueDepth, 2);
  EXPECT_EQ(tuner.GetStats().Reverted, 1);

  // the cooling move kind is skipped: the next trial is backpressure
  window(0.5);
  EXPECT_EQ(sched::GetConfig().QueueDepth, 2);
  EXPECT_EQ(sched::GetConfig().Pressure, sched::Backpressure::DropOldest);

  const tune::OnlineStats st = tuner.GetStats();
  EXPECT_GE(st.Windows, 6L);
  EXPECT_GE(st.Trials, 2L);
  EXPECT_FALSE(tuner.Decisions().empty());

  sched::Configure(sched::SchedConfig());
  prof.Clear();
}

TEST(TuneOnline, HysteresisRejectsMarginalImprovements)
{
  sched::Configure(sched::SchedConfig());
  sensei::Profiler &prof = sensei::Profiler::Global();
  prof.Clear();

  tune::OnlineConfig oc;
  oc.WindowSteps = 1;
  oc.Hysteresis = 0.05;
  oc.CooldownWindows = 0;
  oc.AdaptPolicy = false;
  tune::OnlineTuner tuner(oc);

  long step = 0;
  auto window = [&](double seconds)
  {
    prof.Event("driver::solver", seconds);
    tuner.OnStep(step++);
  };

  window(1.0);  // seed
  window(1.0);  // baseline -> trial
  window(0.99); // 1% better: inside the hysteresis band, reverted
  EXPECT_EQ(tuner.GetStats().Kept, 0);
  EXPECT_EQ(tuner.GetStats().Reverted, 1);
  EXPECT_EQ(sched::GetConfig().QueueDepth, 1);

  sched::Configure(sched::SchedConfig());
  prof.Clear();
}
