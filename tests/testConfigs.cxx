// Every committed configs/*.xml must stay loadable and runnable: each
// file is pushed through the real consumer (ConfigurableAnalysis, which
// constructs the analysis chain and configures every subsystem element)
// and then scored on a one-step campaign case through the auto-tuner's
// evaluator, so a knob rename, a typo'd analysis type, or an
// out-of-domain attribute in any shipped configuration fails here
// instead of in a user's run.
//
// Each file is also loaded from defaults and its effective configuration
// (every section, every analysis) compared with
// tests/golden/effective_configs.txt, produced by the hand-written parser
// the knob rows replaced; and every config environment variable is
// checked to beat a conflicting attribute.

#include "campaign.h"
#include "effectiveConfig.h"
#include "tuneSearch.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef VP_CONFIG_DIR
#define VP_CONFIG_DIR "configs"
#endif
#ifndef VP_GOLDEN_DIR
#define VP_GOLDEN_DIR "tests/golden"
#endif

namespace
{

std::vector<std::pair<std::string, std::string>> LoadAllConfigs()
{
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto &e : std::filesystem::directory_iterator(VP_CONFIG_DIR))
  {
    if (!e.is_regular_file() || e.path().extension() != ".xml")
      continue;
    std::ifstream is(e.path());
    std::ostringstream ss;
    ss << is.rdbuf();
    out.emplace_back(e.path().filename().string(), ss.str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every environment variable a config row reads.
const char *const kConfigVariables[] = {
  "VP_EXEC", "VP_EXEC_THREADS", "VP_SIMD",
  "VP_CHECK",
  "VP_SVC_MAX_SESSIONS", "VP_SVC_WORKERS", "VP_SVC_QUEUE_DEPTH",
  "VP_SVC_BACKPRESSURE", "VP_SVC_POLICY", "VP_SVC_HEARTBEAT_MS",
  "VP_SVC_CODEC", "VP_VIZ_WIDTH", "VP_VIZ_HEIGHT", "VP_VIZ_COLORMAP",
  "VP_VIZ_LOG", "VP_VIZ_CODEC"};

/// Defaults in every section, with no variable set.
void ResetProcessState()
{
  for (const char *v : kConfigVariables)
    ::unsetenv(v);
  sensei::ResetConfig();
}

void InitializePlatform()
{
  vp::PlatformConfig plat;
  plat.NumNodes = 1;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 8;
  plat.ExecuteKernels = false;
  vp::Platform::Initialize(plat);
}

/// The effective configuration after loading `xml` from defaults.
std::string Effective(const std::string &xml)
{
  sensei::ConfigurableAnalysis *a = sensei::ConfigurableAnalysis::New();
  std::string out;
  try
  {
    a->InitializeString(xml);
    out = effective::Sections() + effective::Analyses(*a);
  }
  catch (...)
  {
    a->UnRegister();
    throw;
  }
  a->UnRegister();
  return out;
}

} // namespace

TEST(Configs, EveryConfigLoadsThroughConfigurableAnalysis)
{
  InitializePlatform();

  const auto files = LoadAllConfigs();
  ASSERT_FALSE(files.empty()) << "no configurations under " << VP_CONFIG_DIR;

  for (const auto &f : files)
  {
    SCOPED_TRACE(f.first);
    ResetProcessState();
    sensei::ConfigurableAnalysis *a = sensei::ConfigurableAnalysis::New();
    EXPECT_NO_THROW(a->InitializeString(f.second));
    a->UnRegister();
  }
  ResetProcessState();
}

TEST(Configs, EveryConfigRunsAOneStepCampaignCase)
{
  tune::EvalConfig ec;
  ec.Campaign.Nodes = 1;
  ec.Campaign.Steps = 1;
  ec.Campaign.BodiesPerNode = 10000;
  ec.Campaign.CoordSystems = 2;
  ec.Campaign.VariablesPerSystem = 2;
  campaign::CaseConfig c;
  c.Place = campaign::Placement::OneDedicated;
  c.Asynchronous = true;
  ec.Cases = {c};
  tune::Evaluator ev(ec);

  for (const auto &f : LoadAllConfigs())
  {
    SCOPED_TRACE(f.first);
    ResetProcessState();
    const tune::EvalResult r = ev.EvaluateXml(f.second);
    EXPECT_TRUE(r.Valid) << r.Error;
    EXPECT_GT(r.TotalSeconds, 0.0);
  }
  ResetProcessState();
}

TEST(Configs, EffectiveConfigMatchesGolden)
{
  InitializePlatform();
  ResetProcessState();
  std::string got = "== defaults\n" + effective::Sections();
  for (const auto &f : LoadAllConfigs())
  {
    ResetProcessState();
    got += "== " + f.first + "\n" + Effective(f.second);
  }
  ResetProcessState();

  std::ifstream is(std::string(VP_GOLDEN_DIR) + "/effective_configs.txt");
  ASSERT_TRUE(is) << "missing golden file under " << VP_GOLDEN_DIR;
  std::ostringstream golden;
  golden << is.rdbuf();
  EXPECT_EQ(got, golden.str());
}

TEST(Configs, EveryVariableBeatsAConflictingAttribute)
{
  // {variable, its value, a document setting the attribute otherwise,
  //  the effective line the variable must produce}
  struct Case
  {
    const char *Var;
    const char *Value;
    const char *Xml;
    const char *Want;
  };
  const Case cases[] = {
    {"VP_EXEC", "threads", "<exec mode=\"serial\"/>", "exec.mode = threads"},
    {"VP_EXEC_THREADS", "3", "<exec threads=\"5\"/>", "exec.threads = 3"},
    {"VP_SIMD", "0", "<layout simd=\"1\"/>", "layout.simd = 0"},
    {"VP_CHECK", "0", "<check enabled=\"1\"/>", "check.enabled = 0"},
    {"VP_SVC_MAX_SESSIONS", "3", "<service max_sessions=\"5\"/>",
     "service.max_sessions = 3"},
    {"VP_SVC_WORKERS", "3", "<service workers=\"1\"/>",
     "service.workers = 3"},
    {"VP_SVC_QUEUE_DEPTH", "9", "<service queue_depth=\"7\"/>",
     "service.queue_depth = 9"},
    {"VP_SVC_BACKPRESSURE", "coalesce",
     "<service backpressure=\"drop-oldest\"/>",
     "service.backpressure = coalesce"},
    {"VP_SVC_POLICY", "cost-model", "<service policy=\"static\"/>",
     "service.policy = cost-model"},
    {"VP_SVC_HEARTBEAT_MS", "20", "<service heartbeat_ms=\"80\"/>",
     "service.heartbeat_ms = 20"},
    {"VP_SVC_CODEC", "delta-varint", "<service codec=\"none\"/>",
     "service.codec_override = 1 delta-varint/e0"},
    {"VP_VIZ_WIDTH", "96", "<viz width=\"128\"/>", "viz.width = 96"},
    {"VP_VIZ_HEIGHT", "48", "<viz height=\"64\"/>", "viz.height = 48"},
    {"VP_VIZ_COLORMAP", "gray", "<viz colormap=\"heat\"/>",
     "viz.colormap = gray"},
    {"VP_VIZ_LOG", "1", "<viz log=\"0\"/>", "viz.log = 1"},
    {"VP_VIZ_CODEC", "shuffle-rle", "<viz codec=\"none\"/>",
     "viz.codec = shuffle-rle/e0"},
  };
  ASSERT_EQ(std::size(cases), std::size(kConfigVariables));

  InitializePlatform();
  for (const Case &c : cases)
  {
    SCOPED_TRACE(c.Var);
    const std::string xml = std::string("<sensei>") + c.Xml + "</sensei>";

    // the attribute alone takes effect...
    ResetProcessState();
    EXPECT_EQ(Effective(xml).find(c.Want), std::string::npos);

    // ...and the variable beats it
    ResetProcessState();
    ::setenv(c.Var, c.Value, 1);
    EXPECT_NE(Effective(xml).find(c.Want), std::string::npos);
  }
  ResetProcessState();
}
