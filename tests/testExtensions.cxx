// Tests for the extension features beyond the paper's evaluated system:
// vcuda events (cross-stream ordering), the ColumnStatistics back end,
// real-thread asynchronous execution, and failure injection (device
// memory exhaustion surfacing through the analysis stack).

#include "execEngine.h"
#include "minimpi.h"
#include "schedPipeline.h"
#include "senseiColumnStatistics.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataBinning.h"
#include "svtkAOSDataArray.h"
#include "vcuda.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>

namespace
{
void ResetPlatform()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
}

/// Select where an asynchronous analysis's tasks run: inline (serial)
/// or on its pipeline's consumer thread (threads).
void UseExec(vp::exec::Mode mode)
{
  vp::exec::ExecConfig cfg;
  cfg.ExecMode = mode;
  cfg.Threads = 2;
  vp::exec::Configure(cfg);
}

svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::normal_distribution<double> g(5.0, 2.0);
  svtkTable *t = svtkTable::New();
  for (const char *name : {"a", "b"})
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, n, 1);
    for (std::size_t i = 0; i < n; ++i)
      c->SetVariantValue(i, 0, name[0] == 'a' ? g(gen) : 1.0);
    t->AddColumn(c);
    c->Delete();
  }
  return t;
}
} // namespace

// --- vcuda events -------------------------------------------------------------------

TEST(CudaEvents, CrossStreamOrdering)
{
  ResetPlatform();
  vcuda::SetDevice(0);
  vcuda::stream_t producer = vcuda::StreamCreate();
  vcuda::SetDevice(1);
  vcuda::stream_t consumer = vcuda::StreamCreate();

  // heavy work on the producer stream (device 0)
  vcuda::SetDevice(0);
  vcuda::LaunchN(producer, 1u << 20, nullptr,
                 vcuda::LaunchBounds{100.0, 0.0, "produce"});
  vcuda::event_t ready = vcuda::EventRecord(producer);
  EXPECT_GT(ready.Completion(), 0.0);

  // the consumer (device 1) must not start before the event
  vcuda::StreamWaitEvent(consumer, ready);
  vcuda::SetDevice(1);
  vcuda::LaunchN(consumer, 16, nullptr,
                 vcuda::LaunchBounds{1.0, 0.0, "consume"});
  vcuda::StreamSynchronize(consumer);

  EXPECT_GE(vp::ThisClock().Now(), ready.Completion());
  vcuda::SetDevice(0);
}

TEST(CudaEvents, DefaultEventIsComplete)
{
  ResetPlatform();
  vcuda::event_t ev;
  EXPECT_DOUBLE_EQ(ev.Completion(), 0.0);
  const double now = vp::ThisClock().Now();
  vcuda::EventSynchronize(ev); // no-op
  EXPECT_DOUBLE_EQ(vp::ThisClock().Now(), now);
}

TEST(CudaEvents, EventSynchronizeBlocksHost)
{
  ResetPlatform();
  vcuda::stream_t s = vcuda::StreamCreate();
  vcuda::LaunchN(s, 1u << 20, nullptr, vcuda::LaunchBounds{50.0, 0.0, "w"});
  vcuda::event_t ev = vcuda::EventRecord(s);
  vcuda::EventSynchronize(ev);
  EXPECT_GE(vp::ThisClock().Now(), ev.Completion());
}

// --- ColumnMoments ----------------------------------------------------------------------

TEST(ColumnMoments, MergeMatchesSinglePass)
{
  // property: merging moments of two partitions equals the moments of the
  // concatenation, for random partitions
  std::mt19937_64 gen(3);
  std::normal_distribution<double> g(1.0, 3.0);

  for (int trial = 0; trial < 10; ++trial)
  {
    std::vector<double> data(500);
    for (double &v : data)
      v = g(gen);
    const std::size_t cut = 1 + static_cast<std::size_t>(gen() % 498);

    auto compute = [](const double *p, std::size_t n)
    {
      sensei::ColumnMoments m;
      m.Min = std::numeric_limits<double>::infinity();
      m.Max = -m.Min;
      for (std::size_t i = 0; i < n; ++i)
      {
        const double v = p[i];
        m.Count += 1.0;
        m.Min = std::min(m.Min, v);
        m.Max = std::max(m.Max, v);
        const double d = v - m.Mean;
        m.Mean += d / m.Count;
        m.M2 += d * (v - m.Mean);
      }
      return m;
    };

    sensei::ColumnMoments whole = compute(data.data(), data.size());
    sensei::ColumnMoments left = compute(data.data(), cut);
    sensei::ColumnMoments right =
      compute(data.data() + cut, data.size() - cut);
    left.Merge(right);

    EXPECT_DOUBLE_EQ(left.Count, whole.Count);
    EXPECT_DOUBLE_EQ(left.Min, whole.Min);
    EXPECT_DOUBLE_EQ(left.Max, whole.Max);
    EXPECT_NEAR(left.Mean, whole.Mean, 1e-10);
    EXPECT_NEAR(left.M2, whole.M2, 1e-8);
  }
}

TEST(ColumnMoments, MergeWithEmptyIsIdentity)
{
  sensei::ColumnMoments a;
  a.Count = 3;
  a.Min = -1;
  a.Max = 2;
  a.Mean = 0.5;
  a.M2 = 1.25;

  sensei::ColumnMoments empty;
  sensei::ColumnMoments b = a;
  b.Merge(empty);
  EXPECT_DOUBLE_EQ(b.Count, 3);
  EXPECT_DOUBLE_EQ(b.Mean, 0.5);

  sensei::ColumnMoments c;
  c.Merge(a);
  EXPECT_DOUBLE_EQ(c.Mean, 0.5);
  EXPECT_DOUBLE_EQ(c.M2, 1.25);
}

// --- ColumnStatistics back end -------------------------------------------------------------

TEST(ColumnStatistics, ComputesKnownStatistics)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  svtkTable *t = MakeTable(20000, 11);
  da->SetTable(t);
  t->Delete();

  sensei::ColumnStatistics *s = sensei::ColumnStatistics::New();
  s->SetMeshName("t");
  ASSERT_TRUE(s->Execute(da));

  auto result = s->GetLastResult();
  ASSERT_EQ(result.size(), 2u);

  // column a ~ N(5, 2); column b == 1
  EXPECT_DOUBLE_EQ(result["a"].Count, 20000.0);
  EXPECT_NEAR(result["a"].Mean, 5.0, 0.1);
  EXPECT_NEAR(result["a"].StdDev(), 2.0, 0.1);
  EXPECT_DOUBLE_EQ(result["b"].Mean, 1.0);
  EXPECT_DOUBLE_EQ(result["b"].StdDev(), 0.0);
  EXPECT_DOUBLE_EQ(result["b"].Min, 1.0);
  EXPECT_DOUBLE_EQ(result["b"].Max, 1.0);

  s->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(ColumnStatistics, HostAndDevicePlacementsAgree)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  svtkTable *t = MakeTable(5000, 21);
  da->SetTable(t);
  t->Delete();

  auto runAt = [da](int device)
  {
    sensei::ColumnStatistics *s = sensei::ColumnStatistics::New();
    s->SetMeshName("t");
    s->SetColumns({"a"});
    s->SetDeviceId(device);
    EXPECT_TRUE(s->Execute(da));
    auto r = s->GetLastResult();
    s->Delete();
    return r["a"];
  };

  const sensei::ColumnMoments host =
    runAt(sensei::AnalysisAdaptor::DEVICE_HOST);
  const sensei::ColumnMoments dev = runAt(2);
  EXPECT_DOUBLE_EQ(host.Mean, dev.Mean);
  EXPECT_DOUBLE_EQ(host.M2, dev.M2);
  EXPECT_DOUBLE_EQ(host.Min, dev.Min);

  da->ReleaseData();
  da->Delete();
}

TEST(ColumnStatistics, MultiRankMergeMatchesUnion)
{
  ResetPlatform();
  svtkTable *parts[3] = {MakeTable(1000, 31), MakeTable(1500, 32),
                        MakeTable(500, 33)};

  // serial union reference
  sensei::ColumnMoments ref;
  ref.Min = std::numeric_limits<double>::infinity();
  ref.Max = -ref.Min;
  for (svtkTable *t : parts)
  {
    const auto *a = dynamic_cast<svtkAOSDoubleArray *>(t->GetColumnByName("a"));
    for (double v : a->GetVector())
    {
      ref.Count += 1.0;
      ref.Min = std::min(ref.Min, v);
      ref.Max = std::max(ref.Max, v);
      const double d = v - ref.Mean;
      ref.Mean += d / ref.Count;
      ref.M2 += d * (v - ref.Mean);
    }
  }

  sensei::ColumnMoments got;
  minimpi::Run(3,
               [&](minimpi::Communicator &comm)
               {
                 sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
                 da->SetTable(parts[comm.Rank()]);
                 da->SetCommunicator(&comm);

                 sensei::ColumnStatistics *s = sensei::ColumnStatistics::New();
                 s->SetMeshName("t");
                 s->SetColumns({"a"});
                 EXPECT_TRUE(s->Execute(da));
                 if (comm.Rank() == 0)
                   got = s->GetLastResult()["a"];
                 s->Delete();
                 da->ReleaseData();
                 da->Delete();
               });

  EXPECT_DOUBLE_EQ(got.Count, ref.Count);
  EXPECT_DOUBLE_EQ(got.Min, ref.Min);
  EXPECT_DOUBLE_EQ(got.Max, ref.Max);
  EXPECT_NEAR(got.Mean, ref.Mean, 1e-10);
  EXPECT_NEAR(got.M2, ref.M2, 1e-6);

  for (svtkTable *t : parts)
    t->Delete();
}

TEST(ColumnStatistics, AsyncAndXmlConfigured)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  svtkTable *t = MakeTable(2000, 41);
  da->SetTable(t);
  t->Delete();

  const std::string file = ::testing::TempDir() + "/colstats_test.csv";
  std::remove(file.c_str());

  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(
    "<sensei><analysis type=\"column_statistics\" mesh=\"t\" "
    "columns=\"a\" async=\"1\" device=\"host\" file=\"" +
    file + "\"/></sensei>");
  ASSERT_EQ(ca->GetNumberOfAnalyses(), 1);

  da->SetDataTimeStep(7);
  EXPECT_TRUE(ca->Execute(da));
  ca->Finalize();

  auto *s = dynamic_cast<sensei::ColumnStatistics *>(ca->GetAnalysis(0));
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->GetAsynchronous());
  EXPECT_DOUBLE_EQ(s->GetLastResult()["a"].Count, 2000.0);

  std::ifstream check(file);
  std::string line;
  ASSERT_TRUE(std::getline(check, line));
  EXPECT_EQ(line.substr(0, 4), "7,a,");
  std::remove(file.c_str());

  ca->Delete();
  da->ReleaseData();
  da->Delete();
}

// --- real-thread asynchronous execution ----------------------------------------------------

TEST(AsyncRunner, RealThreadModeProducesSameResults)
{
  ResetPlatform();
  UseExec(vp::exec::Mode::Threads);
  EXPECT_TRUE(vp::exec::ThreadsEnabled());
  {
    sched::BoundedPipeline runner;
    int value = 0;
    runner.Submit([&value]() { value = 42; });
    runner.Drain();
    EXPECT_EQ(value, 42);
    EXPECT_FALSE(runner.Busy());
  }
  UseExec(vp::exec::Mode::Serial);
}

TEST(AsyncRunner, DeterministicModeIsBitReproducible)
{
  ResetPlatform();
  auto run = []() -> double
  {
    vp::Platform::Initialize(vp::PlatformConfig{});
    vp::ClockScope scope(0.0);
    sched::BoundedPipeline runner;
    for (int i = 0; i < 3; ++i)
      runner.Submit(
        []()
        {
          vcuda::stream_t s = vcuda::StreamCreate();
          vcuda::LaunchN(s, 1u << 16, nullptr,
                         vcuda::LaunchBounds{20.0, 0.3, "task"});
          vcuda::StreamSynchronize(s);
        });
    runner.Drain();
    return scope.Now();
  };

  const double first = run();
  const double second = run();
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_GT(first, 0.0);
}

TEST(AsyncRunner, BackpressureWaitsForInFlightTask)
{
  ResetPlatform();
  sched::BoundedPipeline runner;

  // a long task...
  runner.Submit([]() { vp::ThisClock().Advance(1.0); });
  const double beforeSecond = vp::ThisClock().Now();
  // ...makes the next submission wait (the solver stalls)
  runner.Submit([]() {});
  EXPECT_GE(vp::ThisClock().Now() - beforeSecond, 0.9);
}

TEST(AsyncRunner, RealThreadBinningMatchesDeterministic)
{
  // the inline and the threaded consumer must compute identical results
  // (the threaded one also proves the analysis is genuinely thread safe)
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  svtkTable *t = MakeTable(3000, 71);
  da->SetTable(t);
  t->Delete();

  auto run = [da](bool realThreads) -> std::vector<double>
  {
    UseExec(realThreads ? vp::exec::Mode::Threads : vp::exec::Mode::Serial);
    sensei::DataBinning *b = sensei::DataBinning::New();
    b->SetMeshName("t");
    b->SetAxes({"a", "b"});
    b->SetResolution({8});
    b->SetRange(0, 0.0, 10.0);
    b->SetRange(1, 0.0, 2.0);
    b->AddOperation("a", sensei::BinningOp::Sum);
    b->SetAsynchronous(true);
    EXPECT_TRUE(b->Execute(da));
    b->Finalize();
    UseExec(vp::exec::Mode::Serial);

    svtkImageData *img = b->GetLastResult();
    const svtkDataArray *g = img->GetPointData()->GetArray("a_sum");
    std::vector<double> out(g->GetNumberOfTuples());
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = g->GetVariantValue(i, 0);
    img->UnRegister();
    b->Delete();
    return out;
  };

  EXPECT_EQ(run(false), run(true));

  da->ReleaseData();
  da->Delete();
}

// --- failure injection -----------------------------------------------------------------------

TEST(FailureInjection, DeviceOutOfMemorySurfacesThroughAnalysis)
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  cfg.DeviceMemoryLimit = 64 * 1024; // tiny: the binning grids won't fit
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  svtkTable *t = MakeTable(100, 51);
  da->SetTable(t);
  t->Delete();

  sensei::DataBinning *b = sensei::DataBinning::New();
  b->SetMeshName("t");
  b->SetAxes({"a", "b"});
  b->SetResolution({256}); // 256^2 doubles >> 64 KiB per grid
  b->SetDeviceId(1);

  EXPECT_THROW(b->Execute(da), vp::Error);

  // the host path does not touch device memory and still works
  b->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
  EXPECT_TRUE(b->Execute(da));

  b->Delete();
  da->ReleaseData();
  da->Delete();
  ResetPlatform();
}
