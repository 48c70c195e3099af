// e2e_step: the end-to-end in situ step benchmark. One run measures one
// workload for a fixed wall-clock time as a closed loop, checks its
// outputs, and prints every metric as `workload metric value unit`
// followed by one JSON result line:
//
//   e2e_step --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//            [--trace-dir DIR]
//   e2e_step --selftest
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around every public call on the odd steps (and writes them as Chrome
// trace-event JSON into --trace-dir) and reports the per-layer metrics.
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// a usage error, 3 when the run threw.

#include "e2eWorkloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

extern char **environ;

namespace
{

struct Workload
{
  const char *Name;
  void (*Run)(const e2e::Options &, e2e::Report &);
};

const Workload kWorkloads[] = {
  {"solve", e2e::RunSolve},
  {"campaign_lockstep", e2e::RunCampaignLockstep},
  {"campaign_async", e2e::RunCampaignAsync},
  {"intransit_viz", e2e::RunInTransitViz},
};

/// The workloads are defined by their XML; VP_* overrides (VP_EXEC,
/// VP_GRAPH, VP_SVC_*, ...) would silently change what is measured.
void ClearPlatformEnvironment()
{
  std::vector<std::string> names;
  for (char **e = environ; *e; ++e)
    if (std::strncmp(*e, "VP_", 3) == 0)
      names.emplace_back(*e, std::strcspn(*e, "="));
  for (const std::string &n : names)
    unsetenv(n.c_str());
}

int Usage(const char *why)
{
  std::fprintf(stderr,
               "e2e_step: %s\n"
               "usage: e2e_step --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1] [--trace-dir DIR]\n"
               "       e2e_step --selftest\n"
               "workloads:",
               why);
  for (const Workload &w : kWorkloads)
    std::fprintf(stderr, " %s", w.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Bench loop == Driver::Run, then every workload at tiny sizes, untraced
/// and traced, must pass its checks.
int SelfTest()
{
  bool ok = e2e::LoopMatchesDriver();
  std::printf("selftest: step loop vs newton::Driver::Run %s\n",
              ok ? "bit-identical" : "DIFFER");
  for (const Workload &w : kWorkloads)
    for (const bool trace : {false, true})
    {
      e2e::Options o;
      o.Seed = 3;
      o.Seconds = 0.3;
      o.SetupReps = 2;
      o.Tiny = true;
      o.Trace = trace;
      e2e::Report r;
      w.Run(o, r);
      const bool pass = r.Correct() && r.Failed() == 0;
      std::printf("selftest: %s%s %s\n", w.Name, trace ? " (traced)" : "",
                  pass ? "ok" : "FAILED");
      ok = ok && pass;
    }
  return ok ? 0 : 1;
}

} // namespace

int main(int argc, char **argv)
{
  ClearPlatformEnvironment();

  e2e::Options o;
  const Workload *workload = nullptr;
  bool selftest = false;
  for (int i = 1; i < argc; ++i)
  {
    const std::string arg = argv[i];
    if (arg == "--selftest")
    {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc)
      return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char *end = nullptr;
    if (arg == "--workload")
    {
      for (const Workload &w : kWorkloads)
        if (val == w.Name)
          workload = &w;
      if (!workload)
        return Usage(("unknown workload " + val).c_str());
    }
    else if (arg == "--seed")
      o.Seed = static_cast<unsigned>(std::strtoul(val.c_str(), &end, 10));
    else if (arg == "--seconds")
      o.Seconds = std::strtod(val.c_str(), &end);
    else if (arg == "--trace")
      o.Trace = std::strtol(val.c_str(), &end, 10) != 0;
    else if (arg == "--trace-dir")
      o.TraceDir = val;
    else
      return Usage(("unknown option " + arg).c_str());
    if (end && (end == val.c_str() || *end))
      return Usage(("malformed value for " + arg).c_str());
  }
  if (!(o.Seconds > 0.0))
    return Usage("--seconds must be > 0");

  try
  {
    if (selftest)
      return SelfTest();
    if (!workload)
      return Usage("no workload given");
    e2e::Report r;
    workload->Run(o, r);
    r.Print(workload->Name);
    return r.Correct() && r.Failed() == 0 ? 0 : 1;
  }
  catch (const std::exception &e)
  {
    std::fprintf(stderr, "e2e_step: %s\n", e.what());
    return 3;
  }
}
