// Tests for the knob rows (vpKnob.h) every configuration section is
// read through: for every row of every section, an unparseable and an
// out-of-range value are rejected with a std::runtime_error naming the
// element and attribute (or the variable), both as an attribute and as
// the row's environment variable; the shared boolean spellings; the
// variables of <service> and <viz> applying without their element;
// <fault> merging onto the current plan; one reset to defaults; and
// four rank threads initializing against the one-time rows at once.

#include "cmpCodec.h"
#include "execEngine.h"
#include "graphCapture.h"
#include "layoutMapping.h"
#include "schedPipeline.h"
#include "senseiConfigurableAnalysis.h"
#include "svcSession.h"
#include "vizConfig.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"
#include "vpMemoryPool.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace
{

/// Initialize a fresh ConfigurableAnalysis from `xml`; rethrows.
void Load(const std::string &xml)
{
  sensei::ConfigurableAnalysis *a = sensei::ConfigurableAnalysis::New();
  try
  {
    a->InitializeString(xml);
  }
  catch (...)
  {
    a->UnRegister();
    throw;
  }
  a->UnRegister();
}

/// The std::runtime_error message `xml` fails with ("" when it loads).
std::string LoadError(const std::string &xml)
{
  try
  {
    Load(xml);
  }
  catch (const std::runtime_error &e)
  {
    return e.what();
  }
  return std::string();
}

/// Visit every section's rows.
template <class F>
void ForEachTable(F &&f)
{
  f(vp::PoolConfigRows());
  f(vp::check::ConfigRows());
  f(sched::ConfigRows());
  f(vp::exec::ConfigRows());
  f(vp::graph::ConfigRows());
  f(vp::layout::ConfigRows());
  f(cmp::ConfigRows());
  f(svc::ConfigRows());
  f(viz::ConfigRows());
  f(vp::fault::ConfigRows());
  f(sensei::AnalysisRows());
}

std::string Number(double v)
{
  return vp::knob::FormatReal(v);
}

/// Texts a row must reject: one that does not parse, then values just
/// outside its range.
template <class Row>
std::vector<std::string> BadValues(const Row &r)
{
  using vp::knob::Type;
  switch (r.Kind)
  {
    case Type::Bool:
      return {"maybe", "2"};
    case Type::Enum:
      return {"no-such-name", "99"};
    case Type::Int:
    {
      std::vector<std::string> out = {"two", "1.5"};
      out.push_back(Number(r.Min - 1));
      out.push_back(r.Max < vp::knob::kMaxInt ? Number(r.Max + 1)
                                              : "99999999999999999999");
      return out;
    }
    case Type::Real:
    {
      std::vector<std::string> out = {"abc", "nan", Number(r.Min - 1)};
      if (r.Max < vp::knob::kInf)
        out.push_back(Number(r.Max + 1));
      return out;
    }
  }
  return {};
}

/// A document whose `element` carries `attribute="text"`.
std::string DocWith(const char *element, const char *attribute,
                    const std::string &text)
{
  const std::string attr = std::string(attribute) + "=\"" + text + "\"";
  if (std::string(element) == "analysis")
    return "<sensei><analysis type=\"histogram\" column=\"x\" " + attr +
           "/></sensei>";
  return std::string("<sensei><") + element + " " + attr + "/></sensei>";
}

class KnobTest : public ::testing::Test
{
protected:
  void SetUp() override { sensei::ResetConfig(); }
  void TearDown() override { sensei::ResetConfig(); }
};

} // namespace

TEST_F(KnobTest, EveryRowRejectsBadAttributesAndVariables)
{
  int rows = 0;
  int envRows = 0;
  ForEachTable(
    [&](const auto &table)
    {
      for (const auto &r : table)
      {
        ++rows;
        for (const std::string &bad : BadValues(r))
        {
          SCOPED_TRACE(r.Name() + "=" + bad);
          const std::string where = std::string("<") + r.Element + " " +
                                    r.Attribute + "=\"" + bad + "\">";
          const std::string err = LoadError(DocWith(r.Element, r.Attribute,
                                                    bad));
          EXPECT_NE(err.find(where), std::string::npos) << err;
          sensei::ResetConfig();

          if (!r.Env)
            continue;
          ::setenv(r.Env, bad.c_str(), 1);
          const std::string envErr = LoadError("<sensei/>");
          ::unsetenv(r.Env);
          EXPECT_NE(envErr.find(std::string(r.Env) + "=\"" + bad + "\""),
                    std::string::npos)
            << envErr;
          sensei::ResetConfig();
        }
        envRows += r.Env ? 1 : 0;
      }
    });
  EXPECT_EQ(rows, 48);
  EXPECT_EQ(envRows, 17);
}

TEST_F(KnobTest, HandPickedBadValuesThrow)
{
  EXPECT_THROW(Load("<sensei><exec threads=\"two\"/></sensei>"),
               std::runtime_error);
  EXPECT_THROW(Load("<sensei><pool max_cached_bytes=\"-1\"/></sensei>"),
               std::runtime_error);
  EXPECT_THROW(Load("<sensei><sched queue_depth=\"-3\"/></sensei>"),
               std::runtime_error);
  EXPECT_THROW(Load("<sensei><compress codec=\"quantize\"/></sensei>"),
               std::runtime_error);

  // an unknown VP_EXEC is an error, not a silent serial fallback
  ::setenv("VP_EXEC", "inline", 1);
  EXPECT_THROW(vp::exec::DefaultConfig(), std::runtime_error);
  EXPECT_THROW(Load("<sensei/>"), std::runtime_error);
  ::unsetenv("VP_EXEC");
}

TEST_F(KnobTest, BooleanSpellingsAreShared)
{
  const char *on[] = {"1", "on", "true", "yes", "ON", "True"};
  const char *off[] = {"0", "off", "false", "no", "OFF", "False"};
  for (const char *t : on)
  {
    SCOPED_TRACE(t);
    Load(std::string("<sensei><layout simd=\"") + t + "\"/></sensei>");
    EXPECT_TRUE(vp::layout::GetConfig().Simd);
    ::setenv("VP_SIMD", t, 1);
    EXPECT_TRUE(vp::layout::DefaultConfig().Simd);
    ::unsetenv("VP_SIMD");
  }
  for (const char *t : off)
  {
    SCOPED_TRACE(t);
    Load(std::string("<sensei><layout simd=\"") + t + "\"/></sensei>");
    EXPECT_FALSE(vp::layout::GetConfig().Simd);
    ::setenv("VP_SIMD", t, 1);
    EXPECT_FALSE(vp::layout::DefaultConfig().Simd);
    ::unsetenv("VP_SIMD");
  }
}

TEST_F(KnobTest, OffSpellingsReadAsOff)
{
  ::setenv("VP_SIMD", "off", 1);
  EXPECT_FALSE(vp::layout::DefaultConfig().Simd);
  ::unsetenv("VP_SIMD");

  for (const char *t : {"off", "false"})
  {
    SCOPED_TRACE(t);
    ::setenv("VP_CHECK", t, 1);
    EXPECT_FALSE(vp::check::ConfigRows().Defaults().Enabled);
    Load("<sensei/>");
    EXPECT_FALSE(vp::check::Enabled());
    ::unsetenv("VP_CHECK");
  }

  ::setenv("VP_VIZ_LOG", "true", 1);
  Load("<sensei/>");
  EXPECT_TRUE(viz::GetConfig().Log);
  ::unsetenv("VP_VIZ_LOG");
}

TEST_F(KnobTest, ServiceAndVizVariablesApplyWithoutTheirElement)
{
  ::setenv("VP_SVC_WORKERS", "3", 1);
  ::setenv("VP_VIZ_WIDTH", "96", 1);
  Load("<sensei/>");
  ::unsetenv("VP_SVC_WORKERS");
  ::unsetenv("VP_VIZ_WIDTH");
  EXPECT_EQ(svc::GetConfig().Workers, 3);
  EXPECT_EQ(viz::GetConfig().Width, 96u);
}

TEST_F(KnobTest, AbsentSectionsAreLeftAlone)
{
  vp::exec::ExecConfig ec;
  ec.ShardGrain = 4096;
  vp::exec::Configure(ec);
  Load("<sensei><pool enabled=\"1\"/></sensei>");
  EXPECT_EQ(vp::exec::GetConfig().ShardGrain, 4096u);
  EXPECT_TRUE(vp::PoolManager::Get().Config().Enabled);
}

TEST_F(KnobTest, FaultMergesOntoTheCurrentPlan)
{
  vp::fault::FaultConfig fc;
  fc.Seed = 5;
  vp::fault::Configure(fc);
  Load("<sensei><fault fail_alloc_nth=\"3\"/></sensei>");
  const vp::fault::FaultConfig got = vp::fault::GetConfig();
  EXPECT_TRUE(got.Enabled);
  EXPECT_EQ(got.Seed, 5u);
  EXPECT_EQ(got.FailAllocNth, 3u);
}

TEST_F(KnobTest, ResetConfigResetsTheNamedSections)
{
  Load("<sensei><sched queue_depth=\"4\"/><pool enabled=\"1\"/></sensei>");
  sensei::ResetConfig({"sched"});
  EXPECT_EQ(sched::GetConfig().QueueDepth, 1);
  EXPECT_TRUE(vp::PoolManager::Get().Config().Enabled);
  sensei::ResetConfig();
  EXPECT_FALSE(vp::PoolManager::Get().Config().Enabled);
  EXPECT_THROW(sensei::ResetConfig({"no-such-section"}),
               std::invalid_argument);
}

TEST_F(KnobTest, RowsRoundTripTheirCanonicalText)
{
  // what the tuner emits parses back to the same value
  ForEachTable(
    [](const auto &table)
    {
      for (const auto &r : table)
      {
        SCOPED_TRACE(r.Name());
        if (r.Kind == vp::knob::Type::Enum)
        {
          for (const vp::knob::Spelling &s : *r.Names)
            EXPECT_EQ(r.Value(r.Text(s.Value)), s.Value);
        }
        else if (r.Kind != vp::knob::Type::Bool)
        {
          EXPECT_EQ(r.Value(r.Text(r.Min)), r.Min);
        }
      }
    });
}

TEST(KnobConcurrency, RankThreadsInitializeAgainstTheOneTimeRows)
{
  // every rank thread parses the same document concurrently, the first
  // of them building the rows
  const std::string xml = R"(<sensei>
    <pool enabled="1" trim_threshold="0.25"/>
    <sched policy="least-loaded" queue_depth="3"/>
    <exec mode="serial" shard_grain="8192"/>
    <graph enabled="1"/>
    <layout simd="1"/>
    <compress codec="delta-varint"/>
    <service workers="3"/>
    <viz width="64" height="32" colormap="heat"/>
    <analysis type="histogram" column="x" policy="cost-model"/>
  </sensei>)";
  std::vector<std::thread> ranks;
  for (int r = 0; r < 4; ++r)
    ranks.emplace_back([&xml]() { Load(xml); });
  for (std::thread &t : ranks)
    t.join();

  EXPECT_TRUE(vp::PoolManager::Get().Config().Enabled);
  EXPECT_EQ(sched::GetConfig().QueueDepth, 3);
  EXPECT_EQ(vp::exec::GetConfig().ShardGrain, 8192u);
  EXPECT_TRUE(vp::graph::GetConfig().Enabled);
  EXPECT_TRUE(vp::layout::GetConfig().Simd);
  EXPECT_EQ(cmp::GetConfig().Default.Codec, cmp::CodecId::DeltaVarint);
  EXPECT_EQ(svc::GetConfig().Workers, 3);
  EXPECT_EQ(viz::GetConfig().Height, 32u);
  sensei::ResetConfig();
}
