// Unit tests for the adaptive in situ scheduler (src/sched): placement
// policies (the static policy must reproduce Eq. 1 bit for bit, the
// adaptive policies must route around a saturated device), the bounded
// pipeline's backpressure matrix (memory stays bounded under a slow
// consumer; the inline and the threaded consumer make the same
// decisions, also across a switch between them) and the price of its
// resident consumer (one thread launch, then a submission per task), the
// <sched> XML round trip, and the no-usable-device host fallback
// regression (Eq. 1 must not divide by zero).

#include "execEngine.h"
#include "schedPipeline.h"
#include "schedPolicy.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiHistogram.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpLoadTracker.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace
{

void Reset(int devices = 4)
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = devices;
  vp::Platform::Initialize(cfg); // AtInitialize resets DeviceLoadTracker
  sched::Configure(sched::SchedConfig());
  sched::ResetAggregateStats();
  vp::check::Reset();
  vp::ThisClock().Set(0.0);
}

/// The paper's rule, written independently of the implementation.
int Eq1Reference(int r, int nu, int s, int d0, int na)
{
  const int n = nu > 0 ? nu : na;
  const int stride = s != 0 ? s : 1;
  int d = ((r % n) * stride + d0) % na;
  if (d < 0)
    d += na;
  return d;
}

sched::PlacementRequest MakeRequest(int rank, int na, int nu = 0, int d0 = 0,
                                    int stride = 1)
{
  sched::PlacementRequest req;
  req.Rank = rank;
  req.DevicesPerNode = na;
  req.DevicesToUse = nu;
  req.DeviceStart = d0;
  req.DeviceStride = stride;
  return req;
}

sched::WorkHint BinningHint()
{
  sched::WorkHint h;
  h.Elements = 1 << 20;
  h.OpsPerElement = 8.0;
  h.AtomicFraction = 0.2;
  h.MoveBytes = (1 << 20) * sizeof(double);
  return h;
}

} // namespace

// --- placement policies --------------------------------------------------

TEST(SchedPolicy, StaticMatchesEq1BitForBit)
{
  Reset();
  sched::PlacementPolicy &policy = sched::GetPolicy(sched::PolicyKind::Static);
  for (int na : {1, 2, 3, 4, 8})
    for (int nu : {0, 1, 2, 3, 4})
      for (int s : {1, 2, 3, -1})
        for (int d0 : {0, 1, 3, -2})
          for (int r = 0; r < 9; ++r)
          {
            const sched::PlacementRequest req = MakeRequest(r, na, nu, d0, s);
            const int expected = Eq1Reference(r, nu, s, d0, na);
            EXPECT_EQ(policy.SelectDevice(req), expected)
              << "r=" << r << " nu=" << nu << " s=" << s << " d0=" << d0
              << " na=" << na;
            EXPECT_EQ(sched::Eq1Device(req), expected);
          }
}

TEST(SchedPolicy, StaticMatchesEq1AcrossTable1Campaign)
{
  // the Eq. 1 controls of the paper's 8-case campaign (Table 1; the
  // async flag does not enter the placement decision): same-device
  // placement uses the defaults, one-dedicated pins n_u=1 d_0=3,
  // two-dedicated pairs ranks over n_u=2 d_0=2
  Reset();
  struct CampaignControls
  {
    int Nu, D0, Ranks;
    std::vector<int> Expected; ///< device per rank
  };
  const CampaignControls table1[] = {
    {0, 0, 4, {0, 1, 2, 3}}, // on same device: d = r mod n_a
    {1, 3, 3, {3, 3, 3}},    // 1 dedicated device
    {2, 2, 2, {2, 3}},       // 2 dedicated devices
  };

  sensei::Histogram *h = sensei::Histogram::New();
  for (const CampaignControls &c : table1)
  {
    h->SetDevicesToUse(c.Nu);
    h->SetDeviceStart(c.D0);
    for (int r = 0; r < c.Ranks; ++r)
    {
      EXPECT_EQ(h->GetPlacementDevice(r, 4),
                c.Expected[static_cast<std::size_t>(r)]);
      EXPECT_EQ(h->GetPlacementDevice(r, 4), Eq1Reference(r, c.Nu, 1, c.D0, 4));
    }
  }
  h->Delete();
}

TEST(SchedPolicy, HostPlacementAndExplicitDeviceBypassPolicies)
{
  Reset();
  sensei::Histogram *h = sensei::Histogram::New();
  h->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
  EXPECT_EQ(h->GetPlacementDevice(2, 4), sensei::AnalysisAdaptor::DEVICE_HOST);
  h->SetDeviceId(6); // explicit ids wrap into [0, n_a)
  EXPECT_EQ(h->GetPlacementDevice(2, 4), 2);
  h->Delete();
}

TEST(SchedPolicy, NoUsableDeviceFallsBackToHost)
{
  // regression: n_a = 0 (or a negative n_u) used to feed Eq. 1 a zero
  // modulus; it must return the host sentinel and count the fallback
  Reset();
  sensei::Histogram *h = sensei::Histogram::New();

  const std::size_t before = sched::HostFallbackCount();
  EXPECT_EQ(h->GetPlacementDevice(0, 0), sensei::AnalysisAdaptor::DEVICE_HOST);
  EXPECT_EQ(sched::HostFallbackCount(), before + 1);

  h->SetDevicesToUse(-1);
  EXPECT_EQ(h->GetPlacementDevice(0, 4), sensei::AnalysisAdaptor::DEVICE_HOST);
  EXPECT_EQ(sched::HostFallbackCount(), before + 2);
  h->SetDevicesToUse(0);

  // the adaptive policies fall back the same way
  h->SetPlacementPolicy(sched::PolicyKind::LeastLoaded);
  EXPECT_EQ(h->GetPlacementDevice(3, 0), sensei::AnalysisAdaptor::DEVICE_HOST);
  h->SetPlacementPolicy(sched::PolicyKind::CostModel);
  EXPECT_EQ(h->GetPlacementDevice(3, -1),
            sensei::AnalysisAdaptor::DEVICE_HOST);
  EXPECT_EQ(sched::HostFallbackCount(), before + 4);
  h->Delete();
}

TEST(SchedPolicy, CandidatesStartAtTheEq1Choice)
{
  Reset();
  const sched::PlacementRequest req = MakeRequest(2, 4);
  const std::vector<int> c = sched::CandidateDevices(req);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c.front(), sched::Eq1Device(req));
  EXPECT_TRUE(sched::CandidateDevices(MakeRequest(0, 0)).empty());
}

TEST(SchedPolicy, LeastLoadedAvoidsSaturatedDevice)
{
  Reset();
  // device 0's engine is busy for a long while (a co-tenant's kernels)
  vp::Platform::Get().GetDevice(0, 0).Engine.Claim(0.0, 10.0);

  sched::PlacementPolicy &policy =
    sched::GetPolicy(sched::PolicyKind::LeastLoaded);
  std::vector<int> picked;
  for (int r = 0; r < 4; ++r)
  {
    sched::PlacementRequest req = MakeRequest(r, 4);
    req.Hint = BinningHint(); // a real estimate, so peers see the backlog
    picked.push_back(policy.SelectDevice(req));
  }
  for (int d : picked)
    EXPECT_NE(d, 0) << "placed on the saturated device";
  // the first three ranks spread over the three idle devices
  EXPECT_NE(picked[0], picked[1]);
  EXPECT_NE(picked[1], picked[2]);
  EXPECT_NE(picked[0], picked[2]);

  // with uniform load the policy degenerates to the Eq. 1 spread
  Reset();
  for (int r = 0; r < 4; ++r)
  {
    sched::PlacementRequest req = MakeRequest(r, 4);
    req.Hint = BinningHint();
    EXPECT_EQ(policy.SelectDevice(req), Eq1Reference(r, 0, 1, 0, 4));
  }
}

TEST(SchedPolicy, CostModelPrefersIdleDevice)
{
  Reset();
  vp::Platform::Get().GetDevice(0, 1).Engine.Claim(0.0, 10.0);

  sched::PlacementPolicy &policy =
    sched::GetPolicy(sched::PolicyKind::CostModel);
  sched::PlacementRequest req = MakeRequest(1, 4); // Eq. 1 would say 1
  req.Hint = BinningHint();
  const int d = policy.SelectDevice(req);
  EXPECT_NE(d, 1);
  EXPECT_GE(d, 0);

  // placements and the load horizon are recorded for the chosen device
  EXPECT_EQ(vp::DeviceLoadTracker::Get().Placements(0, d), 1u);
  EXPECT_GT(vp::DeviceLoadTracker::Get().Backlog(0, d, 0.0), 0.0);
}

// --- bounded pipeline / backpressure --------------------------------------

namespace
{

constexpr std::size_t kPayload = 1 << 20; // 1 MiB deep copy per step
constexpr int kTasks = 32;

/// Select where a pipeline's started tasks run: inline (serial) or on
/// its consumer thread (threads).
void UseExec(vp::exec::Mode mode)
{
  vp::exec::ExecConfig cfg;
  cfg.ExecMode = mode;
  cfg.Threads = 2;
  vp::exec::Configure(cfg);
}

/// Producer 10x faster than the consumer: the falling-behind scenario.
sched::PipelineStats DrivePipeline(long depth, sched::Backpressure bp,
                                   double *totalSeconds = nullptr,
                                   int *executions = nullptr,
                                   vp::exec::Mode mode = vp::exec::Mode::Serial)
{
  Reset();
  UseExec(mode);
  sched::PipelineStats out;
  {
    sched::BoundedPipeline pipe;
    pipe.SetDepth(depth);
    pipe.SetBackpressure(bp);
    for (int i = 0; i < kTasks; ++i)
    {
      vp::ThisClock().Advance(1.0e-4);
      pipe.Submit(
        [executions]()
        {
          vp::ThisClock().Advance(1.0e-3);
          if (executions)
            ++*executions;
        },
        kPayload);
    }
    pipe.Drain();
    out = pipe.Stats();
  }
  UseExec(vp::exec::Mode::Serial);
  if (totalSeconds)
    *totalSeconds = vp::ThisClock().Now();
  return out;
}

} // namespace

TEST(SchedPipeline, UnboundedQueueGrowsLinearly)
{
  const sched::PipelineStats s =
    DrivePipeline(0, sched::Backpressure::Block);
  EXPECT_EQ(s.Submitted, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.Executed, s.Submitted);
  EXPECT_EQ(s.Dropped, 0u);
  // nothing bounds the deep copies: nearly every payload is alive at once
  EXPECT_GT(s.PeakQueuedBytes, 8 * kPayload);
  EXPECT_GT(s.QueueDepthHighWater, 8);
  EXPECT_DOUBLE_EQ(s.StallSeconds, 0.0);
}

TEST(SchedPipeline, BlockBoundsMemoryAndStallsTheProducer)
{
  const sched::PipelineStats s =
    DrivePipeline(4, sched::Backpressure::Block);
  EXPECT_EQ(s.Executed, s.Submitted); // no step is lost
  EXPECT_LE(s.PeakQueuedBytes, 4 * kPayload);
  EXPECT_LE(s.QueueDepthHighWater, 4);
  EXPECT_GT(s.StallSeconds, 0.0); // the price: the solver waits
}

TEST(SchedPipeline, DropOldestBoundsMemoryWithoutStalling)
{
  const sched::PipelineStats s =
    DrivePipeline(4, sched::Backpressure::DropOldest);
  EXPECT_LE(s.PeakQueuedBytes, 4 * kPayload);
  EXPECT_LE(s.QueueDepthHighWater, 4);
  EXPECT_GT(s.Dropped, 0u);
  EXPECT_EQ(s.Executed + s.Dropped, s.Submitted);
  EXPECT_DOUBLE_EQ(s.StallSeconds, 0.0);
}

TEST(SchedPipeline, CoalesceKeepsTheFreshestStep)
{
  int executions = 0;
  const sched::PipelineStats s =
    DrivePipeline(4, sched::Backpressure::Coalesce, nullptr, &executions);
  EXPECT_LE(s.PeakQueuedBytes, 4 * kPayload);
  EXPECT_GT(s.Coalesced, 0u);
  EXPECT_EQ(s.Executed + s.Coalesced, s.Submitted);
  EXPECT_EQ(static_cast<std::uint64_t>(executions), s.Executed);
  EXPECT_DOUBLE_EQ(s.StallSeconds, 0.0);
}

TEST(SchedPipeline, DropOldestTimelineIsBitReproducible)
{
  double first = 0.0, second = 0.0;
  const sched::PipelineStats a =
    DrivePipeline(4, sched::Backpressure::DropOldest, &first);
  const sched::PipelineStats b =
    DrivePipeline(4, sched::Backpressure::DropOldest, &second);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(a.Executed, b.Executed);
  EXPECT_EQ(a.Dropped, b.Dropped);
  EXPECT_EQ(a.PeakQueuedBytes, b.PeakQueuedBytes);
}

TEST(SchedPipeline, RealThreadModeExecutesEverything)
{
  Reset();
  UseExec(vp::exec::Mode::Threads);
  std::atomic<int> count{0};
  {
    sched::BoundedPipeline pipe;
    pipe.SetDepth(2);
    pipe.SetBackpressure(sched::Backpressure::Block);
    for (int i = 0; i < 8; ++i)
      pipe.Submit(
        [&count]()
        {
          vp::ThisClock().Advance(1.0e-4);
          ++count;
        },
        kPayload);
    pipe.Drain();
    EXPECT_FALSE(pipe.Busy());
    const sched::PipelineStats s = pipe.Stats();
    EXPECT_EQ(s.Executed, 8u);
    EXPECT_LE(s.PeakQueuedBytes, 2 * kPayload);
  }
  UseExec(vp::exec::Mode::Serial);
  EXPECT_EQ(count.load(), 8);
}

TEST(SchedPipeline, RealThreadBlockStallsAsTheDeterministicModeDoes)
{
  // the consumer thread completes each task long before the producer's
  // clock reaches the task's virtual finish; `block` keeps the slot
  // until then, so the producer stalls as with the inline consumer
  double deterministic = 0.0, real = 0.0;
  const sched::PipelineStats d =
    DrivePipeline(4, sched::Backpressure::Block, &deterministic);
  const sched::PipelineStats r = DrivePipeline(
    4, sched::Backpressure::Block, &real, nullptr, vp::exec::Mode::Threads);
  EXPECT_GT(d.StallSeconds, 0.0);
  EXPECT_NEAR(r.StallSeconds, d.StallSeconds, 1e-12);
  EXPECT_DOUBLE_EQ(real, deterministic);
  EXPECT_EQ(r.QueueDepthHighWater, d.QueueDepthHighWater);
  EXPECT_EQ(r.Executed, d.Executed);
}

TEST(SchedPipeline, ConsumerStartsOnceThenIsWoken)
{
  // the first submission starts the pipeline's consumer and pays the
  // thread launch; every later one hands its task to the parked
  // consumer at the price of a submission, in both modes alike
  constexpr int kSubmits = 6;
  for (bool real : {false, true})
  {
    Reset();
    UseExec(real ? vp::exec::Mode::Threads : vp::exec::Mode::Serial);
    const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
    std::atomic<int> ran{0};
    sched::BoundedPipeline pipe;
    pipe.SetDepth(0);
    const double t0 = vp::ThisClock().Now();
    for (int i = 0; i < kSubmits; ++i)
    {
      pipe.Submit([&ran]() { ++ran; }, kPayload);
      EXPECT_DOUBLE_EQ(vp::ThisClock().Now() - t0,
                       cost.ThreadSpawnCost +
                         i * cost.KernelSubmitOverhead)
        << (real ? "real threads" : "deterministic") << ", submission "
        << i;
    }
    pipe.Drain();
    EXPECT_EQ(ran.load(), kSubmits);
    EXPECT_EQ(pipe.Stats().Executed, static_cast<std::uint64_t>(kSubmits));
  }
  UseExec(vp::exec::Mode::Serial);
}

TEST(SchedPipeline, BothConsumersDecideAlike)
{
  // one decision procedure: whether a started task runs inline or on
  // the consumer thread, every start, drop, coalesce and stall is the
  // same, and so is the end of the timeline
  for (sched::Backpressure bp :
       {sched::Backpressure::Block, sched::Backpressure::DropOldest,
        sched::Backpressure::Coalesce})
    for (long depth : {0L, 1L, 2L, 4L})
    {
      double serialEnd = 0.0, threadsEnd = 0.0;
      const sched::PipelineStats d =
        DrivePipeline(depth, bp, &serialEnd, nullptr, vp::exec::Mode::Serial);
      const sched::PipelineStats r = DrivePipeline(
        depth, bp, &threadsEnd, nullptr, vp::exec::Mode::Threads);
      const std::string what = std::string(sched::BackpressureName(bp)) +
                               ", depth " + std::to_string(depth);
      EXPECT_EQ(r.Submitted, d.Submitted) << what;
      EXPECT_EQ(r.Executed, d.Executed) << what;
      EXPECT_EQ(r.Dropped, d.Dropped) << what;
      EXPECT_EQ(r.Coalesced, d.Coalesced) << what;
      EXPECT_NEAR(r.StallSeconds, d.StallSeconds, 1e-12) << what;
      EXPECT_DOUBLE_EQ(threadsEnd, serialEnd) << what;
      if (depth > 0)
      {
        EXPECT_LE(d.QueueDepthHighWater, depth) << what;
        EXPECT_LE(r.QueueDepthHighWater, depth) << what;
      }
    }
}

TEST(SchedPipeline, AConsumerSwitchKeepsFifoAndOneTaskAtATime)
{
  // a task on the consumer thread, then a switch to serial exec: the
  // next task runs inline, but not before the first one ends, in real
  // or in virtual time
  {
    Reset();
    UseExec(vp::exec::Mode::Threads);
    std::atomic<bool> firstDone{false};
    bool overlapped = true;
    double firstFinish = 0.0, secondStart = 0.0;
    sched::BoundedPipeline pipe;
    pipe.SetDepth(2);
    pipe.Submit(
      [&]()
      {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        vp::ThisClock().Advance(1.0e-3);
        firstFinish = vp::ThisClock().Now();
        firstDone = true;
      });
    UseExec(vp::exec::Mode::Serial);
    pipe.Submit(
      [&]()
      {
        overlapped = !firstDone.load();
        secondStart = vp::ThisClock().Now();
      });
    pipe.Drain();
    EXPECT_FALSE(overlapped);
    EXPECT_GE(secondStart, firstFinish);
    EXPECT_EQ(pipe.Stats().Executed, 2u);
  }

  // drop-oldest defers its tasks: one the serial consumer deferred runs
  // before a later one handed to the thread after a switch to threads
  {
    Reset();
    UseExec(vp::exec::Mode::Serial);
    std::mutex m;
    std::vector<int> order;
    {
      sched::BoundedPipeline pipe;
      pipe.SetDepth(4);
      pipe.SetBackpressure(sched::Backpressure::DropOldest);
      for (int i = 0; i < 3; ++i)
      {
        if (i == 1)
          UseExec(vp::exec::Mode::Threads);
        vp::ThisClock().Advance(1.0e-4);
        pipe.Submit(
          [&m, &order, i]()
          {
            vp::ThisClock().Advance(1.0e-3);
            std::lock_guard<std::mutex> lock(m);
            order.push_back(i);
          });
      }
      pipe.Drain();
      EXPECT_EQ(pipe.Stats().Dropped, 0u);
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  }
  UseExec(vp::exec::Mode::Serial);
}

TEST(SchedPipeline, AggregateStatsFoldInDestroyedPipelines)
{
  Reset();
  {
    sched::BoundedPipeline pipe;
    pipe.Submit([]() {}, 64);
    pipe.Drain();
  }
  const sched::PipelineStats s = sched::AggregateStats();
  EXPECT_EQ(s.Submitted, 1u);
  EXPECT_EQ(s.Executed, 1u);
}

// --- XML round trip -------------------------------------------------------

TEST(SchedXml, ConfiguresPolicyDepthAndBackpressure)
{
  Reset();
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(
    "<sensei>"
    "<sched policy=\"cost-model\" queue_depth=\"4\" "
    "backpressure=\"drop-oldest\"/>"
    "<analysis type=\"histogram\" mesh=\"t\" column=\"a\"/>"
    "<analysis type=\"histogram\" mesh=\"t\" column=\"b\" "
    "policy=\"least-loaded\"/>"
    "</sensei>");

  const sched::SchedConfig cfg = sched::GetConfig();
  EXPECT_EQ(cfg.Policy, sched::PolicyKind::CostModel);
  EXPECT_EQ(cfg.QueueDepth, 4);
  EXPECT_EQ(cfg.Pressure, sched::Backpressure::DropOldest);

  // the <sched> policy is the default; a per-analysis attribute overrides
  ASSERT_EQ(ca->GetNumberOfAnalyses(), 2);
  EXPECT_EQ(ca->GetAnalysis(0)->GetPlacementPolicy(),
            sched::PolicyKind::CostModel);
  EXPECT_EQ(ca->GetAnalysis(1)->GetPlacementPolicy(),
            sched::PolicyKind::LeastLoaded);
  ca->Delete();
}

TEST(SchedXml, RoundTripsThroughNames)
{
  Reset();
  for (sched::PolicyKind k :
       {sched::PolicyKind::Static, sched::PolicyKind::LeastLoaded,
        sched::PolicyKind::CostModel})
    EXPECT_EQ(sched::PolicyKindFromName(sched::PolicyKindName(k)), k);
  for (sched::Backpressure b :
       {sched::Backpressure::Block, sched::Backpressure::DropOldest,
        sched::Backpressure::Coalesce})
    EXPECT_EQ(sched::BackpressureFromName(sched::BackpressureName(b)), b);
  // underscore spellings are accepted
  EXPECT_EQ(sched::PolicyKindFromName("least_loaded"),
            sched::PolicyKind::LeastLoaded);
  EXPECT_EQ(sched::BackpressureFromName("drop_oldest"),
            sched::Backpressure::DropOldest);
}

TEST(SchedXml, RejectsInvalidValues)
{
  Reset();
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(
    ca->InitializeString("<sensei><sched policy=\"bogus\"/></sensei>"),
    std::runtime_error);
  EXPECT_THROW(
    ca->InitializeString("<sensei><sched queue_depth=\"-2\"/></sensei>"),
    std::runtime_error);
  EXPECT_THROW(
    ca->InitializeString("<sensei><sched backpressure=\"yolo\"/></sensei>"),
    std::runtime_error);
  ca->Delete();
  EXPECT_THROW(sched::PolicyKindFromName("bogus"), std::invalid_argument);
}
