// Tests for the real parallel execution engine (src/exec): stream-order
// preservation under concurrency (FIFO per stream, event edges across
// streams, compute/copy queue ordering), serial-vs-threads result
// equality for the nbody, binning, and compression kernels (binning
// grids and virtual time bit-exact on every placement and strategy, and
// a host campaign's virtual timings independent of the pool width), a
// checker-clean 8-case campaign under VP_EXEC=threads, a 1000-seed sweep
// of random stream/event/copy/sharded-kernel DAGs (checker clean, every
// tenth seed byte-equal between serial and threads), a shard-boundary
// property sweep (seeded N/grain/width combinations, every index covered
// exactly once), host-region charging by the lanes actually claimed, and
// the <exec> XML configuration element.

#include "campaign.h"
#include "cmpCodec.h"
#include "execEngine.h"
#include "newtonSolver.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataAdaptor.h"
#include "senseiDataBinning.h"
#include "senseiProfiler.h"
#include "sxml.h"
#include "svtkAOSDataArray.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using sensei::AnalysisAdaptor;
using sensei::BinningOp;
using sensei::DataBinning;

namespace
{

void ResetPlatform(int nodes = 1)
{
  vp::PlatformConfig cfg;
  cfg.NumNodes = nodes;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vomp::SetDefaultDevice(0);
}

void ConfigureThreads(std::size_t grain = 256, int threads = 3)
{
  vp::exec::ExecConfig cfg;
  cfg.ExecMode = vp::exec::Mode::Threads;
  cfg.Threads = threads;
  cfg.ShardGrain = grain;
  vp::exec::Configure(cfg);
}

void ConfigureSerial()
{
  vp::exec::Configure(vp::exec::ExecConfig());
}

class ExecTest : public ::testing::Test
{
protected:
  void SetUp() override
  {
    ResetPlatform();
    ConfigureThreads();
  }

  void TearDown() override { ConfigureSerial(); }
};

/// Rows with known values: x,y uniform in [-1,1], v = x + 2y.
svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);

  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    xs[i] = u(gen);
    ys[i] = u(gen);
  }

  svtkTable *t = svtkTable::New();
  auto add = [t](const char *name, const std::vector<double> &v)
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, v.size(), 1);
    c->GetVector() = v;
    t->AddColumn(c);
    c->Delete();
  };
  add("x", xs);
  add("y", ys);
  std::vector<double> vs(n);
  for (std::size_t i = 0; i < n; ++i)
    vs[i] = xs[i] + 2.0 * ys[i];
  add("v", vs);
  return t;
}

std::vector<double> GridValues(svtkImageData *img, const std::string &name)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  EXPECT_NE(a, nullptr) << name;
  std::vector<double> out(a->GetNumberOfTuples());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->GetVariantValue(i, 0);
  return out;
}

struct BinningGrids
{
  std::vector<double> Count, Sum, Min, Max;
  double Seconds = 0.0; ///< virtual-clock advance of the execute
};

/// One binning run (count + sum/min/max of v) on the given placement
/// and device strategy.
BinningGrids RunBinning(int deviceId,
                        sensei::GpuBinningStrategy strategy =
                          sensei::GpuBinningStrategy::GlobalAtomics)
{
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(5000, 11);
  da->SetTable(t);

  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({16});
  b->SetRange(0, -1.0, 1.0);
  b->SetRange(1, -1.0, 1.0);
  b->AddOperation("v", BinningOp::Sum);
  b->AddOperation("v", BinningOp::Min);
  b->AddOperation("v", BinningOp::Max);
  b->SetDeviceId(deviceId);
  b->SetGpuStrategy(strategy);

  // from the same clock value every run, so the advance rounds alike
  BinningGrids out;
  {
    vp::ClockScope zero(0.0);
    EXPECT_TRUE(b->Execute(da));
    EXPECT_EQ(b->Finalize(), 0);
    out.Seconds = vp::ThisClock().Now();
  }

  svtkImageData *img = b->GetLastResult();
  EXPECT_NE(img, nullptr);

  out.Count = GridValues(img, "count");
  out.Sum = GridValues(img, "v_sum");
  out.Min = GridValues(img, "v_min");
  out.Max = GridValues(img, "v_max");

  img->UnRegister();
  b->Delete();
  t->Delete();
  da->ReleaseData();
  da->Delete();
  return out;
}

/// Sorted (id -> state) map for order-independent comparison.
std::map<double, std::array<double, 6>> StateById(const newton::BodySet &b)
{
  std::map<double, std::array<double, 6>> out;
  for (std::size_t i = 0; i < b.Size(); ++i)
    out[b.Id[i]] = {b.X[i], b.Y[i], b.Z[i], b.VX[i], b.VY[i], b.VZ[i]};
  return out;
}

} // namespace

// --- configuration surface --------------------------------------------------

TEST(ExecConfig, ModeNamesRoundTrip)
{
  EXPECT_EQ(vp::exec::ModeFromName("serial"), vp::exec::Mode::Serial);
  EXPECT_EQ(vp::exec::ModeFromName("threads"), vp::exec::Mode::Threads);
  EXPECT_STREQ(vp::exec::ModeName(vp::exec::Mode::Serial), "serial");
  EXPECT_STREQ(vp::exec::ModeName(vp::exec::Mode::Threads), "threads");
  EXPECT_THROW(vp::exec::ModeFromName("inline"), std::invalid_argument);
}

TEST(ExecConfig, ConfigureValidatesAndSticks)
{
  vp::exec::ExecConfig cfg;
  cfg.ExecMode = vp::exec::Mode::Threads;
  cfg.Threads = 2;
  cfg.ShardGrain = 128;
  vp::exec::Configure(cfg);
  EXPECT_TRUE(vp::exec::ThreadsEnabled());
  EXPECT_EQ(vp::exec::GetConfig().Threads, 2);
  EXPECT_EQ(vp::exec::GetConfig().ShardGrain, 128u);

  cfg.Threads = -1;
  EXPECT_THROW(vp::exec::Configure(cfg), std::invalid_argument);
  cfg.Threads = 2;
  cfg.ShardGrain = 0;
  EXPECT_THROW(vp::exec::Configure(cfg), std::invalid_argument);

  ConfigureSerial();
  EXPECT_FALSE(vp::exec::ThreadsEnabled());
}

// --- stream-order preservation under concurrency ----------------------------

TEST_F(ExecTest, KernelsOnOneStreamRunInSubmissionOrder)
{
  vcuda::stream_t s = vcuda::StreamCreate();

  std::vector<int> order;
  std::mutex m;
  const int n = 64;
  for (int k = 0; k < n; ++k)
    vcuda::LaunchN(s, 1,
                   [&order, &m, k](std::size_t, std::size_t)
                   {
                     std::lock_guard<std::mutex> lock(m);
                     order.push_back(k);
                   },
                   vcuda::LaunchBounds{1.0, 0.0, "fifo_probe", false});
  vcuda::StreamSynchronize(s);

  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k)
    EXPECT_EQ(order[static_cast<std::size_t>(k)], k) << "position " << k;
  vcuda::StreamDestroy(s);
}

TEST_F(ExecTest, EventEdgeOrdersWorkAcrossDevices)
{
  vcuda::SetDevice(0);
  vcuda::stream_t a = vcuda::StreamCreate();
  vcuda::SetDevice(1);
  vcuda::stream_t b = vcuda::StreamCreate();

  std::atomic<int> x{0};
  int y = -1;

  // the producer sleeps so an unordered consumer would observe 0
  vcuda::LaunchN(a, 1,
                 [&x](std::size_t, std::size_t)
                 {
                   std::this_thread::sleep_for(std::chrono::milliseconds(20));
                   x.store(42, std::memory_order_release);
                 },
                 vcuda::LaunchBounds{1.0, 0.0, "producer", false});
  vcuda::event_t ev = vcuda::EventRecord(a);
  vcuda::StreamWaitEvent(b, ev);
  vcuda::LaunchN(b, 1,
                 [&x, &y](std::size_t, std::size_t)
                 { y = x.load(std::memory_order_acquire); },
                 vcuda::LaunchBounds{1.0, 0.0, "consumer", false});
  vcuda::StreamSynchronize(b);

  EXPECT_EQ(y, 42);
  vcuda::StreamSynchronize(a);
  vcuda::StreamDestroy(a);
  vcuda::StreamDestroy(b);
}

TEST_F(ExecTest, ComputeAndCopyQueuesHonourStreamOrder)
{
  vcuda::SetDevice(0);
  vcuda::stream_t s = vcuda::StreamCreate();

  const std::size_t n = 1024;
  double *src = static_cast<double *>(vcuda::MallocManaged(n * sizeof(double)));
  double *dst = static_cast<double *>(vcuda::MallocManaged(n * sizeof(double)));

  // compute -> copy -> compute on one stream crosses the device's two
  // real queues; the frontier edges must serialize them
  vcuda::LaunchN(s, n,
                 [src](std::size_t b, std::size_t e)
                 {
                   for (std::size_t i = b; i < e; ++i)
                     src[i] = static_cast<double>(i);
                 },
                 vcuda::LaunchBounds{1.0, 0.0, "fill", true});
  vcuda::MemcpyAsync(dst, src, n * sizeof(double), s);
  vcuda::LaunchN(s, n,
                 [dst](std::size_t b, std::size_t e)
                 {
                   for (std::size_t i = b; i < e; ++i)
                     dst[i] *= 2.0;
                 },
                 vcuda::LaunchBounds{1.0, 0.0, "scale", true});
  vcuda::StreamSynchronize(s);

  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(dst[i], 2.0 * static_cast<double>(i)) << "index " << i;

  vcuda::Free(src);
  vcuda::Free(dst);
  vcuda::StreamDestroy(s);
}

// --- serial vs threads result equality --------------------------------------

TEST(ExecEquality, NbodyStatesMatchBitExactly)
{
  auto run = [](bool threads)
  {
    ResetPlatform();
    if (threads)
      ConfigureThreads(16);
    else
      ConfigureSerial();

    newton::Config c;
    c.TotalBodies = 96;
    c.Dt = 1e-3;
    c.Softening = 0.05;
    c.CentralMass = 50.0;
    c.VelocityScale = 0.2;

    std::map<double, std::array<double, 6>> state;
    {
      newton::Solver solver(nullptr, c);
      solver.Initialize();
      for (int i = 0; i < 3; ++i)
        solver.Step();
      state = StateById(solver.DownloadBodies());
    }
    ConfigureSerial();
    return state;
  };

  const auto serial = run(false);
  const auto threaded = run(true);
  ASSERT_EQ(serial.size(), threaded.size());
  // per-body force accumulation is independent across bodies, so sharding
  // by body index must be bit-exact
  EXPECT_EQ(serial, threaded);
}

TEST(ExecEquality, BinningGridsMatchOnHostAndDevice)
{
  // 5000 rows, well above two shard grains: VP_EXEC only decides where
  // the body runs, so grids and virtual time match bit for bit
  const std::pair<int, sensei::GpuBinningStrategy> cases[] = {
    {AnalysisAdaptor::DEVICE_HOST, sensei::GpuBinningStrategy::GlobalAtomics},
    {0, sensei::GpuBinningStrategy::GlobalAtomics},
    {0, sensei::GpuBinningStrategy::Privatized}};
  for (const auto &[device, strategy] : cases)
  {
    ResetPlatform();
    ConfigureSerial();
    const BinningGrids serial = RunBinning(device, strategy);

    ResetPlatform();
    ConfigureThreads(256);
    const BinningGrids threaded = RunBinning(device, strategy);
    ConfigureSerial();

    const std::string where = "device " + std::to_string(device) +
                              " strategy " +
                              std::to_string(static_cast<int>(strategy));
    EXPECT_EQ(serial.Count, threaded.Count) << where;
    EXPECT_EQ(serial.Sum, threaded.Sum) << where;
    EXPECT_EQ(serial.Min, threaded.Min) << where;
    EXPECT_EQ(serial.Max, threaded.Max) << where;
    EXPECT_EQ(serial.Seconds, threaded.Seconds) << where;
  }
}

TEST(ExecEquality, HostLockstepCampaignTimingIsPoolWidthIndependent)
{
  // a timing-only Host/lockstep case under the deterministic rank
  // scheduler, 65536 rows per rank (four default shard grains): the
  // virtual timings must not depend on the exec mode or the pool width
  campaign::CampaignConfig g;
  g.Nodes = 1;
  g.BodiesPerNode = 4 * 65536;
  g.Steps = 1;
  g.Resolution = 64;
  g.CoordSystems = 2;
  g.VariablesPerSystem = 2;
  g.TimingOnly = true;
  g.Lockstep = true;
  const campaign::CaseConfig hostLockstep{campaign::Placement::Host, false};

  auto run = [&](const char *mode, int threads)
  {
    // the rank threads start from this thread's clock, so every run
    // starts from the same value
    vp::ClockScope zero(0.0);
    g.ExecMode = mode;
    g.ExecThreads = threads;
    const campaign::CaseResult r = campaign::RunCase(hostLockstep, g);
    ConfigureSerial();
    return r;
  };
  const campaign::CaseResult serial = run("serial", 0);
  EXPECT_GT(serial.MeanInSituSeconds, 0.0);
  for (int threads : {1, 3})
  {
    const campaign::CaseResult threaded = run("threads", threads);
    EXPECT_EQ(serial.TotalSeconds, threaded.TotalSeconds) << threads;
    EXPECT_EQ(serial.MeanInSituSeconds, threaded.MeanInSituSeconds)
      << threads;
  }
}

TEST(ExecEquality, CompressedChunksMatchByteForByte)
{
  ResetPlatform();
  std::vector<double> v(4096);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<double>(i % 97) * 0.5;

  cmp::Params p;
  p.Codec = cmp::CodecId::ShuffleRLE;

  ConfigureSerial();
  std::vector<std::uint8_t> serialBuf;
  cmp::EncodeChunk(v.data(), cmp::DType::F64, v.size(), p, serialBuf);

  ConfigureThreads(256);
  std::vector<std::uint8_t> threadedBuf;
  cmp::EncodeChunk(v.data(), cmp::DType::F64, v.size(), p, threadedBuf);

  std::vector<double> back(v.size(), 0.0);
  cmp::DecodeChunk(threadedBuf.data(), threadedBuf.size(), back.data(),
                   back.size() * sizeof(double));
  ConfigureSerial();

  EXPECT_EQ(serialBuf, threadedBuf);
  EXPECT_EQ(back, v);
}

// --- checker integration ----------------------------------------------------

TEST(ExecChecker, EightCaseCampaignIsCheckerCleanUnderThreads)
{
  ResetPlatform();
  vp::check::Reset();
  vp::check::Configure(vp::check::CheckConfig{true, 256, false});

  campaign::CampaignConfig g;
  g.Nodes = 1;
  g.BodiesPerNode = 1000;
  g.Steps = 2;
  g.Resolution = 32;
  g.CoordSystems = 2;
  g.VariablesPerSystem = 2;
  g.TimingOnly = false; // kernels really execute
  g.ExecMode = "threads";
  g.ExecThreads = 3;
  g.ConfigMutator = [](sxml::Element &root)
  { root.FindOrAddChild("exec")->SetAttributeInt("shard_grain", 256); };

  for (const campaign::CaseConfig &c : campaign::AllCases())
  {
    const campaign::CaseResult res = campaign::RunCase(c, g);
    EXPECT_GT(res.TotalSeconds, 0.0);
    const vp::check::Report r = vp::check::Snapshot();
    EXPECT_EQ(r.Total(), 0u)
      << "violations in case " << campaign::PlacementName(c.Place)
      << (c.Asynchronous ? " async" : " lockstep") << ":\n"
      << r.Summary();
  }

  vp::check::Enable(false);
  ConfigureSerial();
}

TEST(ExecChecker, DanglingEventRecordIsClean)
{
  // an EventRecord whose event is never waited on leaves an unconsumed
  // token behind; that must not turn into a violation at finalize time
  ResetPlatform();
  ConfigureSerial();
  vp::check::Reset();
  vp::check::Configure(vp::check::CheckConfig{true, 64, false});

  vcuda::stream_t s = vcuda::StreamCreate();
  vcuda::LaunchN(s, 32, [](std::size_t, std::size_t) {},
                 vcuda::LaunchBounds{1.0, 0.0, "dangle_work", false});
  (void)vcuda::EventRecord(s); // recorded, never waited
  vcuda::LaunchN(s, 32, [](std::size_t, std::size_t) {},
                 vcuda::LaunchBounds{1.0, 0.0, "dangle_tail", false});
  vcuda::StreamSynchronize(s);
  vcuda::StreamDestroy(s);

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
}

// --- 1000-seed random stream DAGs --------------------------------------------

namespace
{

/// A randomly generated step DAG: up to 3 streams on one device, each
/// with a device buffer and a scratch buffer, driven by a fixed op list
/// of shardable/unshardable kernels, H2D copies from fresh pinned input,
/// same-stream D2D copies, and cross-stream event record/wait edges.
struct DagProgram
{
  struct Op
  {
    enum Kind
    {
      Init = 0, ///< dev[i] = B + i%7 (ignores prior contents)
      Kernel,   ///< dev[i] = dev[i]*A + B + i%7
      H2D,      ///< dev <- this step's pinned host input
      D2D,      ///< scr <- dev (same stream)
      Record,
      Wait
    };
    Kind K = Kernel;
    int Stream = 0;
    double A = 1.0, B = 0.0;
    bool Shardable = false;
    int Ev = -1; ///< Wait: index into the step's recorded events
  };

  int NStreams = 1;
  std::vector<Op> Ops;
  std::vector<char> ScrWritten; ///< per stream: scratch is defined

  static DagProgram Generate(unsigned seed)
  {
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> u(-2.0, 2.0);

    DagProgram p;
    p.NStreams = 1 + static_cast<int>(gen() % 3);
    p.ScrWritten.assign(static_cast<std::size_t>(p.NStreams), 0);

    // every stream's first touch assigns, so later kernels never see
    // uninitialized memory
    for (int s = 0; s < p.NStreams; ++s)
      p.Ops.push_back(Op{Op::Init, s, 0.0, u(gen), (gen() % 2) == 0, -1});

    int numRecords = 0;
    const int extra = 3 + static_cast<int>(gen() % 10);
    for (int k = 0; k < extra; ++k)
    {
      const int s = static_cast<int>(gen() % static_cast<std::size_t>(
                                               p.NStreams));
      switch (gen() % 5)
      {
        case 0:
        case 1:
          p.Ops.push_back(Op{Op::Kernel, s, u(gen), u(gen),
                             (gen() % 2) == 0, -1});
          break;
        case 2:
          p.Ops.push_back(Op{Op::H2D, s, 0.0, 0.0, false, -1});
          break;
        case 3:
          if (numRecords && (gen() % 2))
          {
            p.Ops.push_back(
              Op{Op::Wait, s, 0.0, 0.0, false,
                 static_cast<int>(gen() % static_cast<std::size_t>(
                                            numRecords))});
          }
          else
          {
            p.Ops.push_back(Op{Op::Record, s, 0.0, 0.0, false, -1});
            numRecords++;
          }
          break;
        case 4:
          p.Ops.push_back(Op{Op::D2D, s, 0.0, 0.0, false, -1});
          p.ScrWritten[static_cast<std::size_t>(s)] = 1;
          break;
      }
    }
    return p;
  }
};

/// Run `p` for `steps` steps (fresh streams, buffers and input every
/// step) and return every readback, concatenated in a fixed order. The
/// checker is on for the whole run and must stay clean.
std::vector<std::vector<double>> RunDag(const DagProgram &p, unsigned seed,
                                        bool threads, int steps)
{
  ResetPlatform();
  if (threads)
    ConfigureThreads(64, 3);
  else
    ConfigureSerial();
  vp::check::Reset();
  vp::check::Configure(vp::check::CheckConfig{true, 64, false});

  const std::size_t N = 192;
  vcuda::SetDevice(0);
  std::vector<std::vector<double>> out;

  for (int step = 0; step < steps; ++step)
  {
    const std::size_t ns = static_cast<std::size_t>(p.NStreams);
    std::vector<double *> dev(ns), scr(ns), hin(ns);
    std::vector<vcuda::stream_t> st(ns);
    for (std::size_t s = 0; s < ns; ++s)
    {
      st[s] = vcuda::StreamCreate();
      dev[s] = static_cast<double *>(vcuda::Malloc(N * sizeof(double)));
      scr[s] = static_cast<double *>(vcuda::Malloc(N * sizeof(double)));
      hin[s] = static_cast<double *>(vcuda::MallocHost(N * sizeof(double)));
      std::mt19937_64 fill(seed * 1000u + static_cast<unsigned>(step) * 8u +
                           static_cast<unsigned>(s));
      std::uniform_real_distribution<double> u(-4.0, 4.0);
      for (std::size_t i = 0; i < N; ++i)
        hin[s][i] = u(fill);
    }

    std::vector<vcuda::event_t> recorded;
    for (const DagProgram::Op &op : p.Ops)
    {
      const std::size_t s = static_cast<std::size_t>(op.Stream);
      switch (op.K)
      {
        case DagProgram::Op::Init:
        {
          double *d = dev[s];
          const double b = op.B;
          vcuda::LaunchN(st[s], N,
                         [d, b](std::size_t b0, std::size_t e)
                         {
                           for (std::size_t i = b0; i < e; ++i)
                             d[i] = b + static_cast<double>(i % 7);
                         },
                         vcuda::LaunchBounds{2.0, 0.0, "dag_init",
                                             op.Shardable});
          break;
        }
        case DagProgram::Op::Kernel:
        {
          double *d = dev[s];
          const double a = op.A, b = op.B;
          vcuda::LaunchN(st[s], N,
                         [d, a, b](std::size_t b0, std::size_t e)
                         {
                           for (std::size_t i = b0; i < e; ++i)
                             d[i] = d[i] * a + b + static_cast<double>(i % 7);
                         },
                         vcuda::LaunchBounds{4.0, 0.0, "dag_kernel",
                                             op.Shardable});
          break;
        }
        case DagProgram::Op::H2D:
          vcuda::MemcpyAsync(dev[s], hin[s], N * sizeof(double), st[s]);
          break;
        case DagProgram::Op::D2D:
          vcuda::MemcpyAsync(scr[s], dev[s], N * sizeof(double), st[s]);
          break;
        case DagProgram::Op::Record:
          recorded.push_back(vcuda::EventRecord(st[s]));
          break;
        case DagProgram::Op::Wait:
          vcuda::StreamWaitEvent(st[s],
                                 recorded[static_cast<std::size_t>(op.Ev)]);
          break;
      }
    }

    std::vector<std::vector<double>> devOut(ns), scrOut(ns);
    for (std::size_t s = 0; s < ns; ++s)
    {
      devOut[s].resize(N);
      vcuda::MemcpyAsync(devOut[s].data(), dev[s], N * sizeof(double), st[s]);
      if (p.ScrWritten[s])
      {
        scrOut[s].resize(N);
        vcuda::MemcpyAsync(scrOut[s].data(), scr[s], N * sizeof(double),
                           st[s]);
      }
    }
    for (std::size_t s = 0; s < ns; ++s)
      vcuda::StreamSynchronize(st[s]);

    for (std::size_t s = 0; s < ns; ++s)
    {
      out.push_back(std::move(devOut[s]));
      if (p.ScrWritten[s])
        out.push_back(std::move(scrOut[s]));
      vcuda::Free(dev[s]);
      vcuda::Free(scr[s]);
      vcuda::Free(hin[s]);
      vcuda::StreamDestroy(st[s]);
    }
  }

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << "seed=" << seed
                           << (threads ? " threads" : " serial") << "\n"
                           << r.Summary();
  vp::check::Enable(false);
  ConfigureSerial();
  return out;
}

/// Same readbacks, byte for byte.
bool BytesEqual(const std::vector<std::vector<double>> &a,
                const std::vector<std::vector<double>> &b)
{
  if (a.size() != b.size())
    return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(),
                    a[i].size() * sizeof(double)) != 0)
      return false;
  return true;
}

} // namespace

TEST(ExecProperty, ThousandRandomDagsMatchAcrossExecModesAndCheckerClean)
{
  const int steps = 3;
  for (unsigned seed = 1; seed <= 1000; ++seed)
  {
    const DagProgram p = DagProgram::Generate(seed);
    const auto serial = RunDag(p, seed, false, steps);
    if (::testing::Test::HasFailure())
      FAIL() << "stopping at seed=" << seed;
    // every tenth DAG also runs under the threaded engine
    if (seed % 10 == 0)
    {
      const auto threads = RunDag(p, seed, true, steps);
      ASSERT_TRUE(BytesEqual(serial, threads))
        << "threads diverged from serial: seed=" << seed;
      if (::testing::Test::HasFailure())
        FAIL() << "stopping at seed=" << seed << " (threads)";
    }
  }
}

// --- zero-N launches --------------------------------------------------------

TEST(ExecCharging, ZeroNLaunchChargesSubmitOnlyAndSkipsTheBody)
{
  // regression: a zero-N launch short-circuits (the body never runs) and
  // on real hardware the dispatch is elided too — it must charge only the
  // host-side submit overhead, never the device launch latency, and must
  // not extend the stream
  ResetPlatform();
  ConfigureSerial();
  const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
  vcuda::stream_t s = vcuda::StreamCreate();

  bool ran = false;
  const std::uint64_t launched0 = vp::Platform::Get().Stats().KernelsLaunched;
  const double t0 = vp::ThisClock().Now();
  vcuda::LaunchN(s, 0,
                 [&ran](std::size_t, std::size_t) { ran = true; },
                 vcuda::LaunchBounds{1.0, 0.0, "zero_n", false});
  const double t1 = vp::ThisClock().Now();

  EXPECT_FALSE(ran);
  EXPECT_DOUBLE_EQ(t1, t0 + cost.KernelSubmitOverhead);
  EXPECT_EQ(vp::Platform::Get().Stats().KernelsLaunched, launched0 + 1);

  // the stream was never extended: synchronizing is free
  vcuda::StreamSynchronize(s);
  EXPECT_DOUBLE_EQ(vp::ThisClock().Now(), t1);

  // contrast: a real one-element launch pays the launch latency
  vcuda::LaunchN(s, 1, [](std::size_t, std::size_t) {},
                 vcuda::LaunchBounds{1.0, 0.0, "one_n", false});
  vcuda::StreamSynchronize(s);
  EXPECT_GE(vp::ThisClock().Now() - t1, cost.KernelLaunchLatency);

  vcuda::StreamDestroy(s);
}

// --- shard boundaries -------------------------------------------------------

TEST(ExecSharding, EveryIndexCoveredExactlyOnce)
{
  ResetPlatform();
  std::mt19937_64 gen(2026);

  for (int iter = 0; iter < 1000; ++iter)
  {
    const std::size_t n = 1 + gen() % 6000;
    const std::size_t grain = 1 + gen() % 512;
    const int threads = 1 + static_cast<int>(gen() % 4);
    const int width = static_cast<int>(gen() % 9); // 0 = unlimited
    ConfigureThreads(grain, threads);

    std::vector<unsigned char> hits(n, 0);
    std::atomic<std::size_t> total{0};
    vp::KernelDesc desc{n, 1.0, 0.0, "shard_property", true};
    vp::Platform::Get().HostParallelFor(
      desc,
      [&hits, &total](std::size_t b, std::size_t e)
      {
        for (std::size_t i = b; i < e; ++i)
          hits[i]++;
        total.fetch_add(e - b, std::memory_order_relaxed);
      },
      width);

    ASSERT_EQ(total.load(), n)
      << "n=" << n << " grain=" << grain << " threads=" << threads
      << " width=" << width;
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i], 1u)
        << "index " << i << " n=" << n << " grain=" << grain
        << " threads=" << threads << " width=" << width;
  }
  ConfigureSerial();
}

// --- host-region charging ---------------------------------------------------

TEST(ExecCharging, HostRegionsChargeLanesActuallyClaimed)
{
  ResetPlatform(); // 8 host lanes
  ConfigureSerial();
  vp::Platform &plat = vp::Platform::Get();
  auto noop = [](std::size_t, std::size_t) {};
  const vp::KernelDesc desc{80000, 1.0, 0.0, "charge_probe", false};

  auto duration = [&](int width)
  {
    const double t0 = vp::ThisClock().Now();
    plat.HostParallelFor(desc, noop, width);
    return vp::ThisClock().Now() - t0;
  };

  const double full = duration(0);   // all 8 lanes
  const double two = duration(2);    // 2 of 8 lanes
  const double over = duration(16);  // clamped to the 8 that exist

  // fixed per-lane rate: a 2-lane region takes 4x the full-pool region
  EXPECT_NEAR(two, 4.0 * full, 1e-12 * two);
  // requesting more lanes than the pool has must not undercharge
  EXPECT_DOUBLE_EQ(over, full);
}

// --- XML configuration ------------------------------------------------------

TEST(ExecXml, ElementConfiguresEngine)
{
  ResetPlatform();
  unsetenv("VP_EXEC");

  sensei::ConfigurableAnalysis *a = sensei::ConfigurableAnalysis::New();
  a->InitializeString("<sensei>\n"
                      "  <exec mode=\"threads\" threads=\"2\" "
                      "shard_grain=\"512\"/>\n"
                      "</sensei>\n");
  a->UnRegister();

  const vp::exec::ExecConfig cfg = vp::exec::GetConfig();
  EXPECT_EQ(cfg.ExecMode, vp::exec::Mode::Threads);
  EXPECT_EQ(cfg.Threads, 2);
  EXPECT_EQ(cfg.ShardGrain, 512u);
  ConfigureSerial();
}

TEST(ExecXml, EnvironmentModeWinsOverXml)
{
  ResetPlatform();
  setenv("VP_EXEC", "serial", 1);

  sensei::ConfigurableAnalysis *a = sensei::ConfigurableAnalysis::New();
  a->InitializeString("<sensei><exec mode=\"threads\"/></sensei>");
  a->UnRegister();

  EXPECT_FALSE(vp::exec::ThreadsEnabled());
  unsetenv("VP_EXEC");
  ConfigureSerial();
}

TEST(ExecXml, InvalidConfigurationsThrow)
{
  ResetPlatform();
  unsetenv("VP_EXEC");
  auto parse = [](const std::string &xml)
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
  };

  EXPECT_THROW(parse("<sensei><exec mode=\"inline\"/></sensei>"),
               std::runtime_error);
  EXPECT_THROW(parse("<sensei><exec threads=\"-2\"/></sensei>"),
               std::runtime_error);
  EXPECT_THROW(parse("<sensei><exec shard_grain=\"0\"/></sensei>"),
               std::runtime_error);
  ConfigureSerial();
}

// --- counters and profiler export -------------------------------------------

TEST_F(ExecTest, StatsCountDeferredWorkAndExport)
{
  vp::exec::ResetStats();
  vcuda::stream_t s = vcuda::StreamCreate();

  const std::size_t n = 256;
  double *src = static_cast<double *>(vcuda::MallocManaged(n * sizeof(double)));
  double *dst = static_cast<double *>(vcuda::MallocManaged(n * sizeof(double)));
  vcuda::LaunchN(s, n,
                 [src](std::size_t b, std::size_t e)
                 {
                   for (std::size_t i = b; i < e; ++i)
                     src[i] = 1.0;
                 });
  vcuda::MemcpyAsync(dst, src, n * sizeof(double), s);
  vcuda::StreamSynchronize(s);

  const vp::exec::EngineStats st = vp::exec::Stats();
  EXPECT_GE(st.TasksEnqueued, 1u);
  EXPECT_GE(st.CopiesEnqueued, 1u);
  EXPECT_GE(st.FenceJoins, 1u);

  sensei::Profiler prof;
  sensei::ExportExecStats(prof);
  EXPECT_EQ(prof.Total("exec::mode_threads"), 1.0);
  EXPECT_GE(prof.Total("exec::tasks_enqueued"), 1.0);
  EXPECT_GE(prof.Total("exec::lanes"), 1.0);

  vcuda::Free(src);
  vcuda::Free(dst);
  vcuda::StreamDestroy(s);

  vp::exec::ResetStats();
  EXPECT_EQ(vp::exec::Stats().TasksEnqueued, 0u);
}
