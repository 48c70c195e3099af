// Tests for the runtime race/lifetime checker (src/check) and the
// deterministic fault injector: the four violation classes each produce
// exactly one diagnostic naming the offending allocation and timelines,
// clean code produces zero violations (including the full 8-case
// campaign), injected faults surface as checker diagnostics or as
// gracefully degraded runs, and the configuration surfaces (<check>,
// <fault>, Profiler::ToJson) behave as documented.

#include "campaign.h"
#include "hamrBuffer.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiProfiler.h"
#include "vcuda.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"
#include "vpMemoryPool.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace
{

vp::PlatformConfig DefaultConfig()
{
  vp::PlatformConfig cfg;
  cfg.NumNodes = 1;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  return cfg;
}

class CheckTest : public ::testing::Test
{
protected:
  void SetUp() override
  {
    vp::fault::Reset();
    vp::PoolManager::Get().Configure(vp::PoolConfig());
    vp::Platform::Initialize(DefaultConfig());
    vp::check::Reset();
    vp::check::Configure(vp::check::CheckConfig{true, 256, false});
  }

  void TearDown() override
  {
    vp::fault::Reset();
    vp::PoolManager::Get().Configure(vp::PoolConfig());
    vp::check::Enable(false);
  }
};

} // namespace

// --- violation class 4: double free -----------------------------------------

TEST_F(CheckTest, DoubleFreeProducesExactlyOneDiagnostic)
{
  vp::Platform &plat = vp::Platform::Get();
  void *p = plat.Allocate(vp::MemSpace::Host, vp::HostDevice, 512,
                          vp::PmKind::None);
  plat.Free(p);
  plat.Free(p); // erroneous: recorded and swallowed, no throw

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Count(vp::check::ViolationKind::DoubleFree), 1u);
  EXPECT_EQ(r.Total(), 1u);
  ASSERT_EQ(r.Violations.size(), 1u);
  // the diagnostic names the allocation (space and size)
  EXPECT_NE(r.Violations[0].Message.find("host[512B]"), std::string::npos)
    << r.Violations[0].Message;
}

TEST_F(CheckTest, DoubleFreeOfPoolCachedBlockIsCaughtAndSwallowed)
{
  vp::PoolConfig pcfg;
  pcfg.Enabled = true;
  vp::PoolManager::Get().Configure(pcfg);

  vcuda::SetDevice(0);
  vcuda::stream_t s = vcuda::StreamCreate();
  void *p = vcuda::MallocAsync(1024, s);
  ASSERT_TRUE(vp::PoolManager::Get().Owns(p));

  vcuda::Free(p); // block goes back to the pool's free lists
  vcuda::Free(p); // bug: the pool still owns the cached block

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Count(vp::check::ViolationKind::DoubleFree), 1u);
  EXPECT_EQ(r.Total(), 1u);
  ASSERT_EQ(r.Violations.size(), 1u);
  EXPECT_NE(r.Violations[0].Message.find("memory pool"), std::string::npos)
    << r.Violations[0].Message;

  // the swallow kept the cache coherent: the block is still reusable
  void *q = vcuda::MallocAsync(1024, s);
  EXPECT_EQ(q, p);
  vcuda::Free(q);
}

TEST_F(CheckTest, DoubleFreeOfPoolCachedBlockThrowsWhenCheckerOff)
{
  vp::check::Enable(false);
  vp::PoolConfig pcfg;
  pcfg.Enabled = true;
  vp::PoolManager::Get().Configure(pcfg);

  vcuda::SetDevice(0);
  void *p = vp::PoolManager::Get().Allocate(vp::MemSpace::Device, 0, 1024,
                                            vp::PmKind::Cuda);
  vp::PoolManager::Get().Deallocate(p);
  // without the checker the double free surfaces as a clean error instead
  // of silently corrupting the pool's free lists
  EXPECT_THROW(vcuda::Free(p), vp::Error);
}

// --- violation class 1: use after free / premature pooled reuse -------------

TEST_F(CheckTest, HostCopyFromFreedMemoryIsUseAfterFree)
{
  vp::Platform &plat = vp::Platform::Get();
  // the destination exists before the free so malloc cannot recycle the
  // freed range into it (which would legitimately flag the write too)
  std::vector<char> dst(256);
  void *p = plat.Allocate(vp::MemSpace::Host, vp::HostDevice, 256,
                          vp::PmKind::None);
  plat.Free(p);

  plat.Copy(dst.data(), p, 256); // reads through the dangling pointer

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Count(vp::check::ViolationKind::UseAfterFree), 1u);
  EXPECT_EQ(r.Total(), 1u);
  ASSERT_EQ(r.Violations.size(), 1u);
  EXPECT_NE(r.Violations[0].Message.find("freed memory"), std::string::npos)
    << r.Violations[0].Message;
}

TEST_F(CheckTest, InjectedPrematurePoolReuseIsDetected)
{
  vp::PoolConfig pcfg;
  pcfg.Enabled = true;
  vp::PoolManager::Get().Configure(pcfg);

  vcuda::SetDevice(0);
  vcuda::stream_t s = vcuda::StreamCreate();

  // queue work on the stream so its completion is ahead of the thread,
  // then free the block stream-ordered: ReadyAt lands in the future
  void *p = vcuda::MallocAsync(4096, s);
  vcuda::LaunchN(s, 100000, [](std::size_t, std::size_t) {});
  vcuda::FreeAsync(p, s);

  // a healthy pool refuses to hand the block to the un-synchronized
  // thread (miss); with the injected bug it hands it out early and the
  // checker must catch the premature reuse
  vp::fault::FaultConfig fcfg;
  fcfg.Enabled = true;
  fcfg.PrematureReuse = true;
  vp::fault::Configure(fcfg);

  void *q = vp::PoolManager::Get().Allocate(vp::MemSpace::Device, 0, 4096,
                                            vp::PmKind::Cuda);
  EXPECT_EQ(q, p); // the bug really fired: cached block handed out

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Count(vp::check::ViolationKind::UseAfterFree), 1u);
  ASSERT_GE(r.Violations.size(), 1u);
  EXPECT_NE(r.Violations[0].Message.find("premature reuse"),
            std::string::npos)
    << r.Violations[0].Message;
  EXPECT_NE(r.Violations[0].Message.find("stream#"), std::string::npos)
    << r.Violations[0].Message;

  vp::fault::Reset();
  vp::PoolManager::Get().Deallocate(q);
}

TEST_F(CheckTest, HealthyPoolReuseIsClean)
{
  vp::PoolConfig pcfg;
  pcfg.Enabled = true;
  vp::PoolManager::Get().Configure(pcfg);

  vcuda::SetDevice(0);
  vcuda::stream_t s = vcuda::StreamCreate();
  void *p = vcuda::MallocAsync(4096, s);
  vcuda::LaunchN(s, 100000, [](std::size_t, std::size_t) {});
  vcuda::FreeAsync(p, s);

  // same-stream reuse is immediately safe (in-order stream) ...
  void *q = vcuda::MallocAsync(4096, s);
  EXPECT_EQ(q, p);
  vcuda::FreeAsync(q, s);

  // ... and cross-thread reuse after synchronizing is safe too
  vcuda::StreamSynchronize(s);
  void *w = vp::PoolManager::Get().Allocate(vp::MemSpace::Device, 0, 4096,
                                            vp::PmKind::Cuda);
  EXPECT_EQ(w, p);
  vp::PoolManager::Get().Deallocate(w);

  EXPECT_EQ(vp::check::Snapshot().Total(), 0u);
}

// --- violation class 2: unsynchronized host access --------------------------

TEST_F(CheckTest, PrematureHostAccessProducesExactlyOneDiagnostic)
{
  vcuda::SetDevice(0);
  hamr::buffer<double> buf(hamr::allocator::device_async, hamr::stream(),
                           hamr::stream_mode::async, 1000, 3.14);

  // the view's backing temporary is written by an asynchronous
  // stream-ordered move; dereferencing before synchronize() is the bug
  auto view = buf.get_host_accessible();
  vp::check::HostRead(view.get(), 1000 * sizeof(double));

  vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Count(vp::check::ViolationKind::UnsyncedHostAccess), 1u);
  EXPECT_EQ(r.Total(), 1u);
  ASSERT_EQ(r.Violations.size(), 1u);
  EXPECT_NE(r.Violations[0].Message.find("stream#"), std::string::npos)
    << r.Violations[0].Message;
  EXPECT_NE(r.Violations[0].Message.find("thread#"), std::string::npos)
    << r.Violations[0].Message;

  // after synchronizing the same access is clean
  vp::check::Reset();
  buf.synchronize();
  vp::check::HostRead(view.get(), 1000 * sizeof(double));
  EXPECT_EQ(vp::check::Snapshot().Total(), 0u);
}

TEST_F(CheckTest, HostTouchOfDeviceMemoryIsFlagged)
{
  vcuda::SetDevice(0);
  void *p = vcuda::Malloc(512);

  // e.g. a device pointer wrongly adopted as host memory and dereferenced
  vp::check::HostRead(p, 512);

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Count(vp::check::ViolationKind::UnsyncedHostAccess), 1u);
  ASSERT_EQ(r.Violations.size(), 1u);
  EXPECT_NE(r.Violations[0].Message.find("device memory"), std::string::npos)
    << r.Violations[0].Message;
  EXPECT_NE(r.Violations[0].Message.find("device[512B]"), std::string::npos)
    << r.Violations[0].Message;

  vcuda::Free(p);
}

// --- violation class 3: cross-stream race -----------------------------------

TEST_F(CheckTest, CrossStreamWriteWithoutEventIsExactlyOneRace)
{
  vcuda::SetDevice(0);
  vcuda::stream_t s1 = vcuda::StreamCreate();
  vcuda::stream_t s2 = vcuda::StreamCreate();

  void *buf = vcuda::Malloc(1024);
  std::vector<char> src1(1024, 1), src2(1024, 2);

  vcuda::MemcpyAsync(buf, src1.data(), 1024, s1);
  vcuda::MemcpyAsync(buf, src2.data(), 1024, s2); // no event edge: race

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Count(vp::check::ViolationKind::CrossStreamRace), 1u);
  EXPECT_EQ(r.Total(), 1u);
  ASSERT_EQ(r.Violations.size(), 1u);
  // both streams are named in the diagnostic
  EXPECT_NE(r.Violations[0].Message.find("stream#0"), std::string::npos)
    << r.Violations[0].Message;
  EXPECT_NE(r.Violations[0].Message.find("stream#1"), std::string::npos)
    << r.Violations[0].Message;

  vcuda::StreamSynchronize(s1);
  vcuda::StreamSynchronize(s2);
  vcuda::Free(buf);
}

TEST_F(CheckTest, CrossStreamWriteWithEventEdgeIsClean)
{
  vcuda::SetDevice(0);
  vcuda::stream_t s1 = vcuda::StreamCreate();
  vcuda::stream_t s2 = vcuda::StreamCreate();

  void *buf = vcuda::Malloc(1024);
  std::vector<char> src1(1024, 1), src2(1024, 2);

  vcuda::MemcpyAsync(buf, src1.data(), 1024, s1);
  vcuda::event_t ev = vcuda::EventRecord(s1);
  vcuda::StreamWaitEvent(s2, ev); // the cross-stream ordering primitive
  vcuda::MemcpyAsync(buf, src2.data(), 1024, s2);

  EXPECT_EQ(vp::check::Snapshot().Total(), 0u);

  vcuda::StreamSynchronize(s2);
  vcuda::Free(buf);
}

TEST_F(CheckTest, DroppedEventSignalSurfacesAsRace)
{
  // the same well-ordered program as above, but the injector drops the
  // event signal — exactly the failure mode the checker exists to catch
  vp::fault::FaultConfig fcfg;
  fcfg.Enabled = true;
  fcfg.DropEventNth = 1;
  vp::fault::Configure(fcfg);

  vcuda::SetDevice(0);
  vcuda::stream_t s1 = vcuda::StreamCreate();
  vcuda::stream_t s2 = vcuda::StreamCreate();

  void *buf = vcuda::Malloc(1024);
  std::vector<char> src1(1024, 1), src2(1024, 2);

  vcuda::MemcpyAsync(buf, src1.data(), 1024, s1);
  vcuda::event_t ev = vcuda::EventRecord(s1); // signal dropped here
  vcuda::StreamWaitEvent(s2, ev);
  vcuda::MemcpyAsync(buf, src2.data(), 1024, s2);

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Count(vp::check::ViolationKind::CrossStreamRace), 1u);
  EXPECT_EQ(vp::fault::Stats().EventsDropped, 1u);

  vp::fault::Reset();
  vcuda::StreamSynchronize(s1);
  vcuda::StreamSynchronize(s2);
  vcuda::Free(buf);
}

// --- violation class 4b: leaks ----------------------------------------------

TEST_F(CheckTest, LeakIsReportedAtFinalize)
{
  vp::Platform &plat = vp::Platform::Get();
  void *p = plat.Allocate(vp::MemSpace::Host, vp::HostDevice, 4096,
                          vp::PmKind::None);

  const vp::check::Report r = vp::check::Finalize();
  EXPECT_EQ(r.Count(vp::check::ViolationKind::Leak), 1u);
  ASSERT_GE(r.Violations.size(), 1u);
  EXPECT_NE(r.Violations[0].Message.find("host[4096B]"), std::string::npos)
    << r.Violations[0].Message;

  plat.Free(p);
}

TEST_F(CheckTest, BalancedAllocationsReportNoLeak)
{
  vp::Platform &plat = vp::Platform::Get();
  void *p = plat.Allocate(vp::MemSpace::Host, vp::HostDevice, 4096,
                          vp::PmKind::None);
  plat.Free(p);
  EXPECT_EQ(vp::check::Finalize().Total(), 0u);
}

// --- fault injection: graceful degradation ----------------------------------

TEST_F(CheckTest, PoolSurvivesInjectedAllocationFailure)
{
  vp::PoolConfig pcfg;
  pcfg.Enabled = true;
  vp::PoolManager::Get().Configure(pcfg);

  vcuda::SetDevice(0);
  vcuda::stream_t s = vcuda::StreamCreate();

  // populate the cache, then synchronize so everything is reusable
  void *a = vcuda::MallocAsync(2048, s);
  vcuda::FreeAsync(a, s);
  vcuda::StreamSynchronize(s);

  // fail the next platform allocation: the pool must degrade gracefully —
  // release its cache and retry — instead of propagating the error
  vp::fault::FaultConfig fcfg;
  fcfg.Enabled = true;
  fcfg.FailAllocNth = 1;
  vp::fault::Configure(fcfg);

  void *b = nullptr;
  ASSERT_NO_THROW(b = vcuda::MallocAsync(1 << 20, s)); // different class: miss
  ASSERT_NE(b, nullptr);

  EXPECT_EQ(vp::fault::Stats().AllocFailures, 1u);
  EXPECT_EQ(vp::PoolManager::Get().AggregateStats().AllocRetries, 1u);
  EXPECT_EQ(vp::check::Snapshot().Total(), 0u); // degraded run stays clean

  vp::fault::Reset();
  vcuda::Free(b);
}

TEST_F(CheckTest, SeededFaultDecisionsAreDeterministic)
{
  auto run = [](std::uint64_t seed)
  {
    vp::fault::FaultConfig fcfg;
    fcfg.Enabled = true;
    fcfg.Seed = seed;
    fcfg.FailAllocProb = 0.5;
    vp::fault::Configure(fcfg);
    std::vector<bool> decisions;
    for (int i = 0; i < 64; ++i)
      decisions.push_back(vp::fault::ShouldFailAllocation());
    vp::fault::Reset();
    return decisions;
  };
  EXPECT_EQ(run(7), run(7));       // same seed, same decision stream
  EXPECT_NE(run(7), run(8));       // seeds matter
}

TEST_F(CheckTest, InjectedStreamDelayIsDeterministicVirtualTime)
{
  // one recurring device step, four kernels and one readback on one
  // stream, run four times: every submission of every step pays the
  // injected delay, so every step takes the same virtual time and two
  // runs agree to the bit
  constexpr int kSteps = 4;
  constexpr int kSubmissions = 5;
  constexpr double kDelay = 1e-3;
  auto run = [this]()
  {
    this->SetUp();             // fresh platform + checker
    vp::ThisClock().Set(0.0);  // identical virtual start time
    vp::fault::FaultConfig fcfg;
    fcfg.Enabled = true;
    fcfg.StreamDelaySeconds = kDelay;
    fcfg.DelayDevice = 1;
    vp::fault::Configure(fcfg);

    vcuda::SetDevice(1);
    vcuda::stream_t s = vcuda::StreamCreate();
    const std::size_t n = 10000;
    auto *dev = static_cast<double *>(vcuda::Malloc(n * sizeof(double)));
    std::vector<double> host(n);
    std::vector<double> stepSeconds;
    for (int step = 0; step < kSteps; ++step)
    {
      const double begin = vp::ThisClock().Now();
      for (int k = 0; k + 1 < kSubmissions; ++k)
        vcuda::LaunchN(s, n,
                       [dev, k](std::size_t b, std::size_t e)
                       {
                         for (std::size_t i = b; i < e; ++i)
                           dev[i] = static_cast<double>(i + k);
                       });
      vcuda::MemcpyAsync(host.data(), dev, n * sizeof(double), s);
      vcuda::StreamSynchronize(s);
      stepSeconds.push_back(vp::ThisClock().Now() - begin);
    }
    EXPECT_EQ(vp::fault::Stats().DelaysApplied,
              static_cast<std::uint64_t>(kSteps * kSubmissions));
    vcuda::Free(dev);
    vcuda::StreamDestroy(s);
    vp::fault::Reset();
    return stepSeconds;
  };

  const std::vector<double> t1 = run();
  const std::vector<double> t2 = run();
  EXPECT_EQ(t1, t2); // bit-identical virtual times
  ASSERT_EQ(t1.size(), static_cast<std::size_t>(kSteps));
  for (int step = 0; step < kSteps; ++step)
  {
    // the delay really was charged, to every submission of every step
    EXPECT_GT(t1[step], kSubmissions * kDelay) << "step " << step;
    EXPECT_NEAR(t1[step], t1[0], 1e-12) << "step " << step;
  }
  EXPECT_EQ(vp::fault::Stats().DelaysApplied, 0u); // Reset re-armed counters
  EXPECT_EQ(vp::check::Snapshot().Total(), 0u);
}

// --- configuration surfaces -------------------------------------------------

TEST_F(CheckTest, ConfigurableAnalysisParsesCheckAndFaultElements)
{
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(R"(<sensei>
    <check enabled="1" max_reports="7" fail_fast="0"/>
    <fault enabled="1" seed="42" fail_alloc_nth="3" drop_event_nth="2"
           stream_delay="0.5" delay_node="0" delay_device="1"
           premature_reuse="1"/>
  </sensei>)");

  EXPECT_TRUE(vp::check::Enabled());
  const vp::check::CheckConfig ccfg = vp::check::GetConfig();
  EXPECT_EQ(ccfg.MaxReports, 7u);
  EXPECT_FALSE(ccfg.FailFast);

  const vp::fault::FaultConfig fcfg = vp::fault::GetConfig();
  EXPECT_TRUE(fcfg.Enabled);
  EXPECT_EQ(fcfg.Seed, 42u);
  EXPECT_EQ(fcfg.FailAllocNth, 3u);
  EXPECT_EQ(fcfg.DropEventNth, 2u);
  EXPECT_DOUBLE_EQ(fcfg.StreamDelaySeconds, 0.5);
  EXPECT_EQ(fcfg.DelayNode, 0);
  EXPECT_EQ(fcfg.DelayDevice, 1);
  EXPECT_TRUE(fcfg.PrematureReuse);
  ca->UnRegister();
}

TEST_F(CheckTest, FailFastThrowsOnFirstViolation)
{
  vp::check::Configure(vp::check::CheckConfig{true, 256, true});
  vp::Platform &plat = vp::Platform::Get();
  void *p = plat.Allocate(vp::MemSpace::Host, vp::HostDevice, 64,
                          vp::PmKind::None);
  plat.Free(p);
  EXPECT_THROW(plat.Free(p), vp::Error);
  vp::check::Configure(vp::check::CheckConfig{true, 256, false});
}

TEST_F(CheckTest, ReportSummaryAndProfilerExport)
{
  vp::Platform &plat = vp::Platform::Get();
  void *p = plat.Allocate(vp::MemSpace::Host, vp::HostDevice, 64,
                          vp::PmKind::None);
  plat.Free(p);
  plat.Free(p);

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_NE(r.Summary().find("double_free=1"), std::string::npos)
    << r.Summary();

  sensei::Profiler prof;
  sensei::ExportCheckReport(prof, r);
  EXPECT_DOUBLE_EQ(prof.Total("check::violations"), 1.0);
  EXPECT_DOUBLE_EQ(prof.Total("check::double_free"), 1.0);
  EXPECT_DOUBLE_EQ(prof.Total("check::use_after_free"), 0.0);
  EXPECT_DOUBLE_EQ(prof.Total("fault::alloc_failures"), 0.0);
}

// --- Profiler::ToJson determinism -------------------------------------------

TEST(ProfilerJson, EscapesHostileEventNamesAndIsDeterministic)
{
  sensei::Profiler prof;
  prof.Event("b\nnewline", 1.0);
  prof.Event("a\"quote\\slash", 2.0);
  prof.Event(std::string("c\x01" "ctrl\ttab"), 3.0);

  const std::string json = prof.ToJson();
  // hostile names are escaped, never emitted raw
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"quote\\\\slash"), std::string::npos) << json;
  EXPECT_NE(json.find("\\u0001"), std::string::npos) << json;
  EXPECT_NE(json.find("\\t"), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;

  // keys serialize in stable lexicographic order...
  EXPECT_LT(json.find("quote"), json.find("newline"));
  EXPECT_LT(json.find("newline"), json.find("ctrl"));

  // ...and repeated serialization is byte identical
  EXPECT_EQ(json, prof.ToJson());

  sensei::Profiler again;
  again.Event(std::string("c\x01" "ctrl\ttab"), 3.0);
  again.Event("b\nnewline", 1.0);
  again.Event("a\"quote\\slash", 2.0);
  EXPECT_EQ(json, again.ToJson()); // insertion order does not matter
}

// --- the full campaign runs clean under the checker -------------------------

TEST(CheckCampaign, EightCaseCampaignHasZeroViolations)
{
  vp::check::Reset();
  vp::check::Configure(vp::check::CheckConfig{true, 256, false});
  vp::PoolConfig pcfg;
  pcfg.Enabled = true;
  vp::PoolManager::Get().Configure(pcfg);

  campaign::CampaignConfig g;
  g.Nodes = 1;
  g.BodiesPerNode = 2000;
  g.Steps = 2;
  g.Resolution = 32;
  g.CoordSystems = 2;
  g.VariablesPerSystem = 2;
  g.TimingOnly = false; // kernels really execute

  for (const campaign::CaseConfig &c : campaign::AllCases())
  {
    const campaign::CaseResult res = campaign::RunCase(c, g);
    EXPECT_GT(res.TotalSeconds, 0.0);
    const vp::check::Report r = vp::check::Snapshot();
    EXPECT_EQ(r.Total(), 0u) << "violations in case "
                             << campaign::PlacementName(c.Place)
                             << (c.Asynchronous ? " async" : " lockstep")
                             << ":\n"
                             << r.Summary();
  }

  vp::PoolManager::Get().Configure(vp::PoolConfig());
  vp::check::Enable(false);
}
