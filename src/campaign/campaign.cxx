#include "campaign.h"

#include "execEngine.h"
#include "minimpi.h"
#include "newtonDriver.h"
#include "schedPipeline.h"
#include "senseiConfigurableAnalysis.h"
#include "sxml.h"
#include "vpPlatform.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

namespace campaign
{

const char *PlacementName(Placement p)
{
  switch (p)
  {
    case Placement::Host: return "all on host";
    case Placement::SameDevice: return "on same device";
    case Placement::OneDedicated: return "1 dedicated device";
    case Placement::TwoDedicated: return "2 dedicated devices";
  }
  return "unknown";
}

int RanksPerNode(Placement p)
{
  switch (p)
  {
    case Placement::Host:
    case Placement::SameDevice:
      return 4;
    case Placement::OneDedicated:
      return 3;
    case Placement::TwoDedicated:
      return 2;
  }
  return 4;
}

int SimDevices(Placement p)
{
  switch (p)
  {
    case Placement::Host:
    case Placement::SameDevice:
      return 4;
    case Placement::OneDedicated:
      return 3;
    case Placement::TwoDedicated:
      return 2;
  }
  return 4;
}

CampaignConfig PaperScaleConfig()
{
  CampaignConfig g;
  g.Nodes = 4;
  g.BodiesPerNode = 187500; // 24M / 128
  g.Steps = 10;
  g.Resolution = 256;
  g.TimingOnly = true;
  g.ExecMode = "threads"; // virtual timings are mode independent
  return g;
}

CampaignConfig RealExecutionConfig()
{
  CampaignConfig g;
  g.Nodes = 1;
  g.BodiesPerNode = 512;
  g.Steps = 3;
  g.Resolution = 32;
  g.CoordSystems = 2;
  g.VariablesPerSystem = 3;
  g.TimingOnly = false;
  g.ExecMode = "threads"; // kernels really run: exercise the engine
  return g;
}

std::vector<CaseConfig> AllCases()
{
  std::vector<CaseConfig> cases;
  for (Placement p : {Placement::Host, Placement::SameDevice,
                      Placement::OneDedicated, Placement::TwoDedicated})
    for (bool async : {false, true})
      cases.push_back(CaseConfig{p, async});
  // the paper groups by execution method first (Table 1): reorder so all
  // lockstep rows precede asynchronous rows
  std::stable_sort(cases.begin(), cases.end(),
                   [](const CaseConfig &a, const CaseConfig &b)
                   { return a.Asynchronous < b.Asynchronous; });
  return cases;
}

std::unique_ptr<sxml::Element> BuildDoc(const CaseConfig &c,
                                        const CampaignConfig &g)
{
  // the nine coordinate systems of the evaluation: spatial planes,
  // velocity planes, and position-velocity phase planes
  static const std::array<std::array<const char *, 2>, 9> systems = {{
    {"x", "y"},
    {"x", "z"},
    {"y", "z"},
    {"vx", "vy"},
    {"vx", "vz"},
    {"vy", "vz"},
    {"x", "vx"},
    {"y", "vy"},
    {"z", "vz"},
  }};

  // the ten variables binned in every coordinate system
  static const std::array<const char *, 10> variables = {
    "x", "y", "z", "vx", "vy", "vz", "m", "speed", "ke", "r"};

  std::string device = "auto";
  int devicesToUse = 0;
  int deviceStart = 0;
  switch (c.Place)
  {
    case Placement::Host:
      device = "host";
      break;
    case Placement::SameDevice:
      device = "auto"; // Eq. 1 defaults: d = r mod n_a = the sim device
      break;
    case Placement::OneDedicated:
      devicesToUse = 1;
      deviceStart = 3;
      break;
    case Placement::TwoDedicated:
      devicesToUse = 2;
      deviceStart = 2;
      break;
  }

  const int nsys =
    std::min<int>(g.CoordSystems, static_cast<int>(systems.size()));
  const int nvar =
    std::min<int>(g.VariablesPerSystem, static_cast<int>(variables.size()));

  auto root = std::make_unique<sxml::Element>();
  root->SetName("sensei");

  if (!g.SchedPolicy.empty() || g.QueueDepth >= 0 || !g.Backpressure.empty())
  {
    sxml::Element *se = root->AddChild("sched");
    if (!g.SchedPolicy.empty())
      se->SetAttribute("policy", g.SchedPolicy);
    if (g.QueueDepth >= 0)
      se->SetAttributeInt("queue_depth", g.QueueDepth);
    if (!g.Backpressure.empty())
      se->SetAttribute("backpressure", g.Backpressure);
  }
  if (!g.ExecMode.empty() || g.ExecThreads > 0)
  {
    sxml::Element *xe = root->AddChild("exec");
    if (!g.ExecMode.empty())
      xe->SetAttribute("mode", g.ExecMode);
    if (g.ExecThreads > 0)
      xe->SetAttributeInt("threads", g.ExecThreads);
  }

  for (int s = 0; s < nsys; ++s)
  {
    sxml::Element *el = root->AddChild("analysis");
    el->SetAttribute("type", "data_binning");
    el->SetAttribute("mesh", "bodies");
    el->SetAttribute("axes",
                     std::string(systems[static_cast<std::size_t>(s)][0]) +
                       ',' + systems[static_cast<std::size_t>(s)][1]);
    el->SetAttributeInt("resolution", g.Resolution);
    std::string ops;
    std::string values;
    for (int v = 0; v < nvar; ++v)
    {
      ops += v ? ",sum" : "sum";
      values += (v ? "," : "") + std::string(
        variables[static_cast<std::size_t>(v)]);
    }
    el->SetAttribute("ops", ops);
    el->SetAttribute("values", values);
    el->SetAttribute("device", device);
    if (devicesToUse > 0)
    {
      el->SetAttributeInt("devices_to_use", devicesToUse);
      el->SetAttributeInt("device_start", deviceStart);
    }
    el->SetAttributeBool("async", c.Asynchronous);
  }

  if (g.ConfigMutator)
    g.ConfigMutator(*root);
  return root;
}

std::string BuildXml(const CaseConfig &c, const CampaignConfig &g)
{
  return sxml::Serialize(*BuildDoc(c, g));
}

CaseResult RunCase(const CaseConfig &c, const CampaignConfig &g)
{
  const int rpn = RanksPerNode(c.Place);
  const int ranks = rpn * g.Nodes;

  vp::PlatformConfig plat;
  plat.NumNodes = g.Nodes;
  plat.DevicesPerNode = 4;   // a Perlmutter GPU node
  plat.HostCoresPerNode = 64;
  plat.ExecuteKernels = !g.TimingOnly;
  vp::Platform::Initialize(plat);

  // the scheduler and execution engine configurations are process-wide
  // and sticky; start every case from the defaults (the environment's
  // VP_EXEC included) so an element of a prior case, or a prior caller's
  // Configure, cannot leak into this one, and zero their counters so
  // per-case exports are self-contained
  sensei::ResetConfig({"sched", "exec"});
  sched::ResetAggregateStats();
  vp::exec::ResetStats();

  newton::Config sim;
  sim.TotalBodies = g.BodiesPerNode * static_cast<std::size_t>(g.Nodes);
  sim.Seed = g.Seed;
  sim.CentralMass = 100.0;
  sim.Repartition = false; // disabled during the runs, as in the paper
  sim.SimDevices = SimDevices(c.Place);

  const std::string xml = BuildXml(c, g);
  const long steps = g.Steps;

  std::vector<double> totals(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> solver(static_cast<std::size_t>(ranks), 0.0);
  std::vector<double> insitu(static_cast<std::size_t>(ranks), 0.0);

  minimpi::LaunchOptions opts;
  opts.Ranks = ranks;
  opts.RanksPerNode = rpn;
  opts.Lockstep = g.Lockstep;

  minimpi::Run(opts,
               [&](minimpi::Communicator &comm)
               {
                 sensei::ConfigurableAnalysis *analysis =
                   sensei::ConfigurableAnalysis::New();
                 analysis->InitializeString(xml);

                 newton::Driver driver(&comm, sim, analysis);
                 analysis->UnRegister();

                 driver.Initialize();
                 const double total = driver.Run(steps);

                 const std::size_t r = static_cast<std::size_t>(comm.Rank());
                 totals[r] = total;
                 solver[r] = driver.MeanSolverSeconds();
                 insitu[r] = driver.MeanInSituSeconds();
               });

  CaseResult out;
  out.Place = c.Place;
  out.Asynchronous = c.Asynchronous;
  out.Ranks = ranks;
  out.RanksPerNode = rpn;
  out.TotalSeconds = *std::max_element(totals.begin(), totals.end());
  for (int r = 0; r < ranks; ++r)
  {
    out.MeanSolverSeconds += solver[static_cast<std::size_t>(r)];
    out.MeanInSituSeconds += insitu[static_cast<std::size_t>(r)];
  }
  out.MeanSolverSeconds /= ranks;
  out.MeanInSituSeconds /= ranks;
  return out;
}

} // namespace campaign
