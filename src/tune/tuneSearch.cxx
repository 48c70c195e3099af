#include "tuneSearch.h"

#include "cmpCodec.h"
#include "schedPipeline.h"
#include "senseiProfiler.h"
#include "sxml.h"
#include "vpClock.h"
#include "vpMemoryPool.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tune
{

// -------------------------------------------------------------- evaluator

Evaluator::Evaluator(EvalConfig cfg) : Cfg_(std::move(cfg))
{
  this->Cases_ =
    this->Cfg_.Cases.empty() ? campaign::AllCases() : this->Cfg_.Cases;
}

EvalResult Evaluator::Run(const ConfigPoint &p)
{
  EvalResult out;

  campaign::CampaignConfig g = this->Cfg_.Campaign;
  g.Lockstep = true; // candidate scores must be bit-reproducible
  auto prev = g.ConfigMutator;
  g.ConfigMutator = [&p, prev](sxml::Element &root)
  {
    if (prev)
      prev(root);
    ApplyToDoc(p, root);
    // lockstep scoring requires the bit-exact serial engine: a threaded
    // exec region makes the token-holding rank block in a real join
    // whose completion can depend on another rank's future submissions,
    // which deadlocks cooperative scheduling. Virtual time does not
    // depend on the engine mode (only wall clock does), so neutralizing
    // the mode leaves every score unchanged.
    root.FindOrAddChild("exec")->SetAttribute("mode", "serial");
  };

  try
  {
    // RunCase resets sched/exec per case but the pool, codec, and
    // fault-injector configurations are sticky process state: start them
    // from defaults so nothing a previous candidate (or an earlier
    // workload that armed the injector) can outlive its evaluation — the
    // candidate's XML then specifies every knob explicitly, and a
    // campaign that wants faults arms them through its own ConfigMutator
    sensei::ResetConfig({"pool", "compress", "fault"});

    // score every case from virtual epoch 0: case durations are tiny
    // against an accumulated clock, so `end - start` picks up absolute-
    // offset-dependent rounding unless each case is rebased (ClockScope
    // restores the caller's clock afterwards)
    vp::ClockScope rebase(0.0);

    double total = 0.0;
    double peak = 0.0;
    for (const campaign::CaseConfig &c : this->Cases_)
    {
      // per-case footprint: drop cached blocks and zero the high-water
      // marks so PeakBytesCached describes this case alone
      vp::PoolManager::Get().ReleaseAll();
      vp::PoolManager::Get().ResetStats();
      cmp::ResetStats();

      vp::ThisClock().Set(0.0);
      const campaign::CaseResult r = campaign::RunCase(c, g);
      total += r.TotalSeconds;

      const sched::PipelineStats ss = sched::AggregateStats();
      const vp::PoolStats ps = vp::PoolManager::Get().AggregateStats();
      peak = std::max(peak, static_cast<double>(ss.PeakQueuedBytes) +
                              static_cast<double>(ps.PeakBytesCached));
    }

    out.TotalSeconds = total;
    out.PeakBytes = peak;
    // SET-style objective t^k · p; k = 0 degenerates to pure time, and
    // a configuration that queues/caches nothing scores p = 1 so the
    // product stays meaningful
    out.Cost = this->Cfg_.K == 0.0
                 ? total
                 : std::pow(total, this->Cfg_.K) * std::max(peak, 1.0);
    out.Valid = true;
  }
  catch (const std::exception &e)
  {
    out.Valid = false;
    out.Error = e.what();
    out.Cost = std::numeric_limits<double>::infinity();
  }
  return out;
}

EvalResult Evaluator::Evaluate(const ConfigPoint &p)
{
  const std::string key = EmitXml(p);
  auto it = this->Cache_.find(key);
  if (it != this->Cache_.end())
  {
    ++this->Hits_;
    return it->second;
  }
  EvalResult r = this->Run(p);
  ++this->Misses_;
  this->Cache_.emplace(key, r);
  return r;
}

EvalResult Evaluator::EvaluateXml(const std::string &configXml)
{
  ConfigPoint p;
  try
  {
    p = ParseXml(configXml);
  }
  catch (const std::exception &e)
  {
    EvalResult out;
    out.Valid = false;
    out.Error = e.what();
    out.Cost = std::numeric_limits<double>::infinity();
    return out;
  }
  return this->Evaluate(p);
}

// --------------------------------------------------------------- searches

namespace
{

// shared bookkeeping: seed the search at the default configuration, then
// fold in any warm-start candidates so a walk can begin from the best
// known point rather than from scratch
SearchResult Seed(Evaluator &ev, const char *name, long startMisses,
                  const SearchConfig &cfg)
{
  SearchResult r;
  r.Algorithm = name;
  ConfigPoint origin;
  EvalResult e = ev.Evaluate(origin);
  r.InitialCost = e.Cost;
  r.Best = origin;
  r.BestEval = e;
  r.Trace.push_back(TraceEntry{ev.Evaluations() - startMisses,
                               std::string(), e.Cost, e.Cost, true});
  for (const ConfigPoint &w : cfg.Warm)
  {
    const EvalResult we = ev.Evaluate(w);
    const bool better = we.Valid && we.Cost < r.BestEval.Cost;
    if (better)
    {
      r.Best = w;
      r.BestEval = we;
    }
    r.Trace.push_back(TraceEntry{ev.Evaluations() - startMisses,
                                 "warm start", we.Cost, r.BestEval.Cost,
                                 better});
  }
  return r;
}

} // namespace

SearchResult Anneal(Evaluator &ev, const KnobSpace &space,
                    const SearchConfig &cfg)
{
  std::mt19937_64 rng(cfg.Seed);
  const long start = ev.Evaluations();
  SearchResult r = Seed(ev, "anneal", start, cfg);

  ConfigPoint cur = r.Best;
  EvalResult curE = r.BestEval;
  double T = cfg.T0;

  // restart boundaries split the budget into Restarts+1 segments
  const long segment = cfg.Restarts > 0
                         ? std::max(1, cfg.Budget / (cfg.Restarts + 1))
                         : cfg.Budget + 1;
  long nextRestart = segment;

  // after convergence every neighbour may be memoized: bound the number
  // of proposals so the loop terminates even when no budget is consumed
  const long maxProposals = 50L * cfg.Budget + 100;
  for (long prop = 0; prop < maxProposals; ++prop)
  {
    const long used = ev.Evaluations() - start;
    if (used >= cfg.Budget)
      break;
    if (used >= nextRestart)
    {
      cur = r.Best; // restart from the incumbent, reheated
      curE = r.BestEval;
      T = std::max(cfg.T0 * 0.5, cfg.TMin);
      nextRestart += segment;
    }

    ConfigPoint cand = cur;
    const std::string move = space.Neighbor(cand, rng);
    if (move.empty())
      break;

    const EvalResult ce = ev.Evaluate(cand);
    const double denom = std::max(curE.Cost, 1e-12);
    const double rel = (ce.Cost - curE.Cost) / denom;
    bool accept = false;
    if (ce.Valid)
    {
      if (rel <= 0.0)
        accept = true;
      else
      {
        std::uniform_real_distribution<double> u(0.0, 1.0);
        accept = u(rng) < std::exp(-rel / std::max(T, cfg.TMin));
      }
    }
    if (accept)
    {
      cur = cand;
      curE = ce;
      ++r.Accepted;
    }
    if (ce.Valid && ce.Cost < r.BestEval.Cost)
    {
      r.Best = cand;
      r.BestEval = ce;
    }
    r.Trace.push_back(TraceEntry{ev.Evaluations() - start, move, ce.Cost,
                                 r.BestEval.Cost, accept});
    T = std::max(T * cfg.Cooling, cfg.TMin);
  }

  r.Evaluations = ev.Evaluations() - start;
  return r;
}

SearchResult RandomSearch(Evaluator &ev, const KnobSpace &space,
                          const SearchConfig &cfg)
{
  std::mt19937_64 rng(cfg.Seed);
  const long start = ev.Evaluations();
  SearchResult r = Seed(ev, "random", start, cfg);

  const long maxProposals = 50L * cfg.Budget + 100;
  for (long prop = 0; prop < maxProposals; ++prop)
  {
    if (ev.Evaluations() - start >= cfg.Budget)
      break;
    const ConfigPoint cand = space.Random(rng);
    const EvalResult ce = ev.Evaluate(cand);
    const bool better = ce.Valid && ce.Cost < r.BestEval.Cost;
    if (better)
    {
      r.Best = cand;
      r.BestEval = ce;
      ++r.Accepted;
    }
    r.Trace.push_back(TraceEntry{ev.Evaluations() - start, "random draw",
                                 ce.Cost, r.BestEval.Cost, better});
  }

  r.Evaluations = ev.Evaluations() - start;
  return r;
}

SearchResult GreedyClimb(Evaluator &ev, const KnobSpace &space,
                         const SearchConfig &cfg)
{
  std::mt19937_64 rng(cfg.Seed);
  const long start = ev.Evaluations();
  SearchResult r = Seed(ev, "greedy", start, cfg);

  ConfigPoint cur = r.Best;
  EvalResult curE = r.BestEval;
  const long patience =
    2L * static_cast<long>(std::max<std::size_t>(space.Knobs().size(), 1));
  long rejects = 0;

  const long maxProposals = 50L * cfg.Budget + 100;
  for (long prop = 0; prop < maxProposals; ++prop)
  {
    if (ev.Evaluations() - start >= cfg.Budget)
      break;
    if (rejects > patience)
    {
      // stuck in a local minimum: random restart
      cur = space.Random(rng);
      curE = ev.Evaluate(cur);
      rejects = 0;
      if (curE.Valid && curE.Cost < r.BestEval.Cost)
      {
        r.Best = cur;
        r.BestEval = curE;
      }
      r.Trace.push_back(TraceEntry{ev.Evaluations() - start, "restart",
                                   curE.Cost, r.BestEval.Cost, true});
      continue;
    }

    ConfigPoint cand = cur;
    const std::string move = space.Neighbor(cand, rng);
    if (move.empty())
      break;
    const EvalResult ce = ev.Evaluate(cand);
    const bool accept = ce.Valid && ce.Cost < curE.Cost;
    if (accept)
    {
      cur = cand;
      curE = ce;
      rejects = 0;
      ++r.Accepted;
      if (ce.Cost < r.BestEval.Cost)
      {
        r.Best = cand;
        r.BestEval = ce;
      }
    }
    else
      ++rejects;
    r.Trace.push_back(TraceEntry{ev.Evaluations() - start, move, ce.Cost,
                                 r.BestEval.Cost, accept});
  }

  r.Evaluations = ev.Evaluations() - start;
  return r;
}

void ExportTuneStats(sensei::Profiler &prof, const Evaluator &ev,
                     const SearchResult &r)
{
  prof.Event("tune::evaluations", static_cast<double>(ev.Evaluations()));
  prof.Event("tune::cache_hits", static_cast<double>(ev.CacheHits()));
  prof.Event("tune::accepted", static_cast<double>(r.Accepted));
  prof.Event("tune::initial_cost", r.InitialCost);
  prof.Event("tune::best_cost", r.BestEval.Cost);
  prof.Event("tune::best_total_seconds", r.BestEval.TotalSeconds);
  prof.Event("tune::best_peak_bytes", r.BestEval.PeakBytes);
  prof.Event("tune::improvement",
             r.BestEval.Cost > 0.0 ? r.InitialCost / r.BestEval.Cost : 0.0);
}

} // namespace tune
