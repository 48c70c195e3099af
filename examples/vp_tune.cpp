// vp_tune: offline auto-tuning of the campaign scheduling space on the
// virtual platform. Searches the <pool>/<sched>/<graph> knob space (the
// knobs whose values move the virtual-time score) with a seeded simulated
// annealer (random-search and greedy hill-climb baselines available),
// scoring each candidate by running a down-scaled proxy campaign and
// combining virtual time with peak payload footprint as cost = t^k * p
// (k = 0 scores pure time). The winner is emitted as a loadable SENSEI
// XML configuration.
//
// Usage:
//   ./vp_tune [options]
//     --budget N     campaign evaluations per search      (default 24)
//     --seed N       search RNG seed (bit-reproducible)   (default 42)
//     --k X          cost exponent in t^k * p             (default 0)
//     --algo A       anneal|random|greedy|all             (default anneal)
//     --analyses N   per-analysis override knobs          (default 0)
//     --nodes N      proxy campaign nodes                 (default 1)
//     --steps N      proxy campaign steps                 (default 2)
//     --bodies N     proxy bodies per node                (default 30000)
//     --systems N    proxy coordinate systems             (default 3)
//     --vars N       proxy variables per system           (default 4)
//     --full         re-score winner vs default config on the full
//                    8-case evaluation campaign
//     --out FILE     write the winning XML (default: stdout)
//     --trace        print the full search trace
//
// Searching the comparison-campaign shape (on the healthy campaign this
// returns the default configuration; configs/tuned_campaign.xml is the
// winner of bench/um_tune's stall-shaded search instead):
//   ./vp_tune --budget 48 --steps 3 --systems 9 --vars 10 --out FILE

#include "cliArgs.h"
#include "senseiProfiler.h"
#include "tuneOnline.h"
#include "tuneSearch.h"

#include <cstdlib>
#include <fstream>
#include <iostream>

namespace
{

void PrintSummary(const tune::SearchResult &r)
{
  std::cout << "  [" << r.Algorithm << "] evaluations " << r.Evaluations
            << ", accepted " << r.Accepted << "\n"
            << "    initial cost " << r.InitialCost << " -> best "
            << r.BestEval.Cost << "  (x"
            << (r.BestEval.Cost > 0.0 ? r.InitialCost / r.BestEval.Cost : 0.0)
            << " better)\n"
            << "    best: " << tune::Describe(r.Best) << "\n"
            << "    t = " << r.BestEval.TotalSeconds << " virtual s, p = "
            << r.BestEval.PeakBytes / (1024.0 * 1024.0) << " MiB\n";
}

void PrintTrace(const tune::SearchResult &r)
{
  for (const tune::TraceEntry &t : r.Trace)
    std::cout << "    eval " << t.Eval << "  cost " << t.Cost << "  best "
              << t.Best << (t.Accepted ? "  accepted  " : "  rejected  ")
              << t.Move << "\n";
}

} // namespace

// a malformed option value is one line and exit 2, like an unknown option
int main(int argc, char **argv)
try
{
  tune::SearchConfig sc;
  sc.Budget = 24;

  tune::EvalConfig ec;
  ec.Campaign.Nodes = 1;
  ec.Campaign.Steps = 2;
  ec.Campaign.BodiesPerNode = 30000;
  ec.Campaign.CoordSystems = 3;
  ec.Campaign.VariablesPerSystem = 4;

  std::string algo = "anneal";
  std::string outFile;
  int analyses = 0;
  bool full = false;
  bool trace = false;

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

    if (arg == "--budget")
      sc.Budget = cli::Number<int>(arg, next());
    else if (arg == "--seed")
      sc.Seed = cli::Number<std::uint64_t>(arg, next());
    else if (arg == "--k")
      ec.K = cli::Number<double>(arg, next());
    else if (arg == "--algo")
      algo = next();
    else if (arg == "--analyses")
      analyses = cli::Number<int>(arg, next());
    else if (arg == "--nodes")
      ec.Campaign.Nodes = cli::Number<int>(arg, next());
    else if (arg == "--steps")
      ec.Campaign.Steps = cli::Number<long>(arg, next());
    else if (arg == "--bodies")
      ec.Campaign.BodiesPerNode = cli::Number<std::size_t>(arg, next());
    else if (arg == "--systems")
      ec.Campaign.CoordSystems = cli::Number<int>(arg, next());
    else if (arg == "--vars")
      ec.Campaign.VariablesPerSystem = cli::Number<int>(arg, next());
    else if (arg == "--full")
      full = true;
    else if (arg == "--out")
      outFile = next();
    else if (arg == "--trace")
      trace = true;
    else
    {
      std::cerr << "unknown option " << arg << " (see header for usage)\n";
      return 2;
    }
  }

  const tune::KnobSpace space = tune::KnobSpace::Campaign(analyses);
  std::cout << "vp_tune: " << space.Knobs().size() << " knobs, ~"
            << space.Size() << " configurations; budget " << sc.Budget
            << " proxy-campaign evaluations (seed " << sc.Seed
            << ", k = " << ec.K << ")\n";

  // each algorithm gets its own evaluator so "equal budget" means equal
  // campaign runs, not shared memoization
  std::vector<tune::SearchResult> results;
  if (algo == "anneal" || algo == "all")
  {
    tune::Evaluator ev(ec);
    results.push_back(tune::Anneal(ev, space, sc));
    PrintSummary(results.back());
    tune::ExportTuneStats(sensei::Profiler::Global(), ev, results.back());
  }
  if (algo == "random" || algo == "all")
  {
    tune::Evaluator ev(ec);
    results.push_back(tune::RandomSearch(ev, space, sc));
    PrintSummary(results.back());
  }
  if (algo == "greedy" || algo == "all")
  {
    tune::Evaluator ev(ec);
    results.push_back(tune::GreedyClimb(ev, space, sc));
    PrintSummary(results.back());
  }
  if (results.empty())
  {
    std::cerr << "unknown --algo " << algo
              << " (anneal|random|greedy|all)\n";
    return 2;
  }
  if (trace)
    for (const tune::SearchResult &r : results)
    {
      std::cout << "  trace [" << r.Algorithm << "]\n";
      PrintTrace(r);
    }

  const tune::SearchResult *win = &results.front();
  for (const tune::SearchResult &r : results)
    if (r.BestEval.Cost < win->BestEval.Cost)
      win = &r;

  if (full)
  {
    std::cout << "re-scoring on the full evaluation campaign...\n";
    tune::EvalConfig fullEc;
    fullEc.K = ec.K;
    tune::Evaluator fullEv(fullEc);
    const tune::EvalResult base = fullEv.Evaluate(tune::ConfigPoint());
    const tune::EvalResult best = fullEv.Evaluate(win->Best);
    std::cout << "  default config: t = " << base.TotalSeconds
              << " s, cost " << base.Cost << "\n"
              << "  tuned config:   t = " << best.TotalSeconds
              << " s, cost " << best.Cost << "  (x"
              << (best.Cost > 0.0 ? base.Cost / best.Cost : 0.0)
              << " better)\n";
  }

  const std::string xml = tune::EmitXml(win->Best);
  if (outFile.empty())
    std::cout << xml;
  else
  {
    std::ofstream out(outFile);
    if (!out)
    {
      std::cerr << "cannot write " << outFile << "\n";
      return 1;
    }
    out << xml;
    std::cout << "winning configuration written to " << outFile << "\n";
  }
  return 0;
}
catch (const cli::BadArgument &e)
{
  std::cerr << "vp_tune: " << e.what() << "\n";
  return 2;
}
