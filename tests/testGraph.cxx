// Tests for captured step-graph execution (src/graph): capture/replay
// bit-exact equality against eager execution for the binning device path
// and full coupled nbody pipelines (serial and threaded engines, lockstep
// and async+compressed cases), graph on/off histogram equality over the
// packed grid init, pointer rebinding across steps with fresh buffers, mid-run DAG-change
// invalidation with eager fallback and recapture, the <graph> XML
// element, and a 1000-seed property sweep of random stream/event/copy
// DAGs that must replay node-for-node identical to eager execution and
// stay race/lifetime checker clean.

#include "campaign.h"
#include "execEngine.h"
#include "graphCapture.h"
#include "minimpi.h"
#include "newtonDriver.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataAdaptor.h"
#include "senseiDataBinning.h"
#include "senseiProfiler.h"
#include "svtkAOSDataArray.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using sensei::AnalysisAdaptor;
using sensei::BinningOp;
using sensei::DataBinning;
using sensei::GpuBinningStrategy;

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

void ConfigureGraph(bool enabled)
{
  vp::graph::GraphConfig cfg;
  cfg.Enabled = enabled;
  vp::graph::Configure(cfg);
}

/// Rows with known values: x,y uniform in [-1,1], v integer valued so
/// per-bin sums are exact in any accumulation order — equality between
/// eager and replayed runs can be asserted bitwise even under threads.
svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);

  std::vector<double> xs(n), ys(n), vs(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    xs[i] = u(gen);
    ys[i] = u(gen);
    vs[i] = std::floor(8.0 * (xs[i] + 2.0 * ys[i]));
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
  add("v", vs);
  return t;
}

std::vector<double> GridValues(svtkImageData *img, const std::string &name)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  EXPECT_NE(a, nullptr) << name;
  std::vector<double> out(a ? a->GetNumberOfTuples() : 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->GetVariantValue(i, 0);
  return out;
}

struct BinningGrids
{
  std::vector<double> Count, Sum, Min, Max;

  bool operator==(const BinningGrids &o) const
  {
    return Count == o.Count && Sum == o.Sum && Min == o.Min && Max == o.Max;
  }
};

/// Drive one DataBinning instance for `steps` steps with a *fresh* table
/// per step (new column buffers every step exercise pointer rebinding on
/// replay) and return each step's grids.
std::vector<BinningGrids> RunBinningSteps(bool graphOn, bool threads,
                                          bool autoRange,
                                          GpuBinningStrategy strat,
                                          int steps = 4)
{
  ResetPlatform();
  if (threads)
    ConfigureThreads();
  else
    ConfigureSerial();
  ConfigureGraph(graphOn);
  vp::graph::ResetStats();
  vp::exec::ResetStats();

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");

  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({16});
  if (!autoRange)
  {
    b->SetRange(0, -1.0, 1.0);
    b->SetRange(1, -1.0, 1.0);
  }
  b->AddOperation("v", BinningOp::Sum);
  b->AddOperation("v", BinningOp::Min);
  b->AddOperation("v", BinningOp::Max);
  b->SetDeviceId(0);
  b->SetGpuStrategy(strat);

  std::vector<BinningGrids> out;
  for (int s = 0; s < steps; ++s)
  {
    svtkTable *t = MakeTable(3000, 40u + static_cast<unsigned>(s));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    da->SetDataTime(0.01 * s);

    EXPECT_TRUE(b->Execute(da));

    svtkImageData *img = b->GetLastResult();
    EXPECT_NE(img, nullptr);
    BinningGrids g;
    if (img)
    {
      g.Count = GridValues(img, "count");
      g.Sum = GridValues(img, "v_sum");
      g.Min = GridValues(img, "v_min");
      g.Max = GridValues(img, "v_max");
      img->UnRegister();
    }
    out.push_back(std::move(g));
  }
  EXPECT_EQ(b->Finalize(), 0);

  b->Delete();
  da->ReleaseData();
  da->Delete();

  ConfigureGraph(false);
  ConfigureSerial();
  return out;
}

} // namespace

// --- configuration surface --------------------------------------------------

TEST(GraphXml, ElementConfiguresAndValidates)
{
  ResetPlatform();
  unsetenv("VP_GRAPH");
  ConfigureGraph(false);

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

  parse("<sensei><graph enabled=\"1\"/></sensei>");
  vp::graph::GraphConfig cfg = vp::graph::GetConfig();
  EXPECT_TRUE(cfg.Enabled);

  EXPECT_THROW(parse("<sensei><graph enabled=\"2\"/></sensei>"),
               std::runtime_error);

  // the environment wins over the XML so command lines can force a mode
  setenv("VP_GRAPH", "0", 1);
  parse("<sensei><graph enabled=\"1\"/></sensei>");
  EXPECT_FALSE(vp::graph::Enabled());
  unsetenv("VP_GRAPH");

  ConfigureGraph(false);
}

// --- capture/replay equality on the binning device path ---------------------

TEST(GraphBinning, CaptureReplayBitExactAcrossStepsSerialAndThreads)
{
  for (bool threads : {false, true})
  {
    const auto eager =
      RunBinningSteps(false, threads, false, GpuBinningStrategy::GlobalAtomics);
    const std::uint64_t eagerTasks = vp::exec::Stats().TasksEnqueued;

    const auto replayed =
      RunBinningSteps(true, threads, false, GpuBinningStrategy::GlobalAtomics);
    const std::uint64_t graphTasks = vp::exec::Stats().TasksEnqueued;
    const vp::graph::GraphStats s = vp::graph::Stats();

    ASSERT_EQ(eager.size(), replayed.size());
    for (std::size_t i = 0; i < eager.size(); ++i)
      EXPECT_TRUE(eager[i] == replayed[i])
        << (threads ? "threads" : "serial") << " step " << i;

    // one capture, every later step replayed, nothing diverged
    EXPECT_EQ(s.Captures, 1u) << (threads ? "threads" : "serial");
    EXPECT_EQ(s.Replays, 3u);
    EXPECT_EQ(s.Invalidations, 0u);
    EXPECT_EQ(s.CaptureAborts, 0u);
    EXPECT_GT(s.NodesCaptured, 0u);
    EXPECT_GT(s.OpsAbsorbed, 0u);
    EXPECT_GT(s.Flushes, 0u);

    // replayed bodies run inline: the threaded engine sees strictly less
    // dispatch work than the eager baseline (the um_graph bench gates the
    // same ratio campaign-wide)
    if (threads)
    {
      EXPECT_LT(graphTasks, eagerTasks);
    }
  }
}

TEST(GraphBinning, AutoRangeKernelCapturesAndReplaysBitExact)
{
  // auto axis bounds add the multi-output range kernel + readback to
  // the captured DAG; bounds differ every step (fresh data) yet replay
  // must stay bit-exact
  for (bool threads : {false, true})
  {
    const auto eager =
      RunBinningSteps(false, threads, true, GpuBinningStrategy::GlobalAtomics);
    const auto replayed =
      RunBinningSteps(true, threads, true, GpuBinningStrategy::GlobalAtomics);
    const vp::graph::GraphStats s = vp::graph::Stats();

    ASSERT_EQ(eager.size(), replayed.size());
    for (std::size_t i = 0; i < eager.size(); ++i)
      EXPECT_TRUE(eager[i] == replayed[i])
        << (threads ? "threads" : "serial") << " step " << i;
    EXPECT_EQ(s.Captures, 1u);
    EXPECT_EQ(s.Replays, 3u);
    EXPECT_EQ(s.Invalidations, 0u);
  }
}

TEST(GraphBinning, PackedInitGraphOnOffHistogramsIdentical)
{
  // one packed init launch fills every grid segment (count, sum, min,
  // max) with its own init value before the first step's scope opens,
  // and compaction resets what each step packed; replaying the steps
  // must match eager runs
  for (GpuBinningStrategy strat : {GpuBinningStrategy::GlobalAtomics,
                                   GpuBinningStrategy::Privatized})
  {
    const auto eager = RunBinningSteps(false, false, false, strat);
    const auto replayed = RunBinningSteps(true, false, false, strat);
    const vp::graph::GraphStats s = vp::graph::Stats();

    ASSERT_EQ(eager.size(), replayed.size());
    for (std::size_t i = 0; i < eager.size(); ++i)
      EXPECT_TRUE(eager[i] == replayed[i])
        << "strategy " << static_cast<int>(strat) << " step " << i;

    // fixed ranges: accumulate, (privatized: merge,) compaction, one
    // readback; the resident record's init runs before the scope opens
    const bool priv = strat == GpuBinningStrategy::Privatized;
    EXPECT_EQ(s.Captures, 1u);
    EXPECT_EQ(s.Replays, 3u);
    EXPECT_EQ(s.NodesCaptured, priv ? 4u : 3u);
    EXPECT_EQ(s.LaunchesFused, 0u);
  }
}

// --- synthetic DAG: invalidation, fallback, recapture ------------------------

namespace
{

/// A two-stream program with an event edge: fill `a` on s1, record, wait
/// on s2, copy a->b, scale b. Variant B appends one more kernel so a
/// replay against variant A's graph diverges after the full prefix.
void RunSynthStep(vp::graph::Session *sess, bool variantB, double base,
                  std::vector<double> &inOut, std::vector<double> &outOut)
{
  const std::size_t n = 256;
  double *a =
    static_cast<double *>(vcuda::MallocManaged(n * sizeof(double)));
  double *b =
    static_cast<double *>(vcuda::MallocManaged(n * sizeof(double)));
  vcuda::stream_t s1 = vcuda::StreamCreate();
  vcuda::stream_t s2 = vcuda::StreamCreate();

  {
    std::optional<vp::graph::StepScope> scope;
    if (sess)
      scope.emplace(*sess);

    vcuda::LaunchN(s1, n,
                   [a, base](std::size_t b0, std::size_t e)
                   {
                     for (std::size_t i = b0; i < e; ++i)
                       a[i] = base + static_cast<double>(i);
                   },
                   vcuda::LaunchBounds{1.0, 0.0, "synth_fill", true});
    vcuda::event_t ev = vcuda::EventRecord(s1);
    vcuda::StreamWaitEvent(s2, ev);
    vcuda::MemcpyAsync(b, a, n * sizeof(double), s2);
    vcuda::LaunchN(s2, n,
                   [b](std::size_t b0, std::size_t e)
                   {
                     for (std::size_t i = b0; i < e; ++i)
                       b[i] *= 2.0;
                   },
                   vcuda::LaunchBounds{1.0, 0.0, "synth_scale", true});
    if (variantB)
      vcuda::LaunchN(s2, n,
                     [b](std::size_t b0, std::size_t e)
                     {
                       for (std::size_t i = b0; i < e; ++i)
                         b[i] += 1.0;
                     },
                     vcuda::LaunchBounds{1.0, 0.0, "synth_bump", true});
    // host wait on the event: a SyncMark during capture, a flush point
    // (BeforeEventSync) during replay
    vcuda::EventSynchronize(ev);
    vcuda::StreamSynchronize(s2);
    vcuda::StreamSynchronize(s1);
  }

  inOut.assign(a, a + n);
  outOut.assign(b, b + n);
  vcuda::Free(a);
  vcuda::Free(b);
  vcuda::StreamDestroy(s1);
  vcuda::StreamDestroy(s2);
}

void ExpectSynthExact(bool variantB, double base,
                      const std::vector<double> &in,
                      const std::vector<double> &out, const char *what)
{
  ASSERT_EQ(in.size(), out.size());
  for (std::size_t i = 0; i < in.size(); ++i)
  {
    const double x = base + static_cast<double>(i);
    ASSERT_EQ(in[i], x) << what << " index " << i;
    ASSERT_EQ(out[i], 2.0 * x + (variantB ? 1.0 : 0.0))
      << what << " index " << i;
  }
}

} // namespace

TEST(GraphSession, DagChangeInvalidatesFallsBackAndRecaptures)
{
  for (bool threads : {false, true})
  {
    ResetPlatform();
    if (threads)
      ConfigureThreads();
    else
      ConfigureSerial();
    ConfigureGraph(true);
    vp::graph::ResetStats();

    vp::graph::Session sess;
    std::vector<double> in, out;

    // step 1: variant A captures
    RunSynthStep(&sess, false, 10.0, in, out);
    ExpectSynthExact(false, 10.0, in, out, "capture");
    EXPECT_EQ(vp::graph::Stats().Captures, 1u);
    EXPECT_TRUE(sess.Armed());

    // step 2: variant A replays bit-exact on fresh buffers (rebinding)
    RunSynthStep(&sess, false, 20.0, in, out);
    ExpectSynthExact(false, 20.0, in, out, "replay");
    EXPECT_EQ(vp::graph::Stats().Replays, 1u);
    EXPECT_EQ(vp::graph::Stats().OpsAbsorbed, 5u);

    // step 3: the DAG changes mid-run -> invalidation, eager fallback,
    // result still exact
    RunSynthStep(&sess, true, 30.0, in, out);
    ExpectSynthExact(true, 30.0, in, out, "invalidate");
    EXPECT_EQ(vp::graph::Stats().Invalidations, 1u);
    EXPECT_EQ(vp::graph::Stats().Replays, 1u);
    EXPECT_FALSE(sess.Armed());
    EXPECT_FALSE(sess.Dead());

    // step 4: the new shape recaptures...
    RunSynthStep(&sess, true, 40.0, in, out);
    ExpectSynthExact(true, 40.0, in, out, "recapture");
    EXPECT_EQ(vp::graph::Stats().Captures, 2u);

    // ...and step 5 replays it
    RunSynthStep(&sess, true, 50.0, in, out);
    ExpectSynthExact(true, 50.0, in, out, "replay2");
    EXPECT_EQ(vp::graph::Stats().Replays, 2u);

    ConfigureGraph(false);
    ConfigureSerial();
  }
}

TEST(GraphSession, DropReleasesArmedGraphForRecapture)
{
  ResetPlatform();
  ConfigureSerial();
  ConfigureGraph(true);
  vp::graph::ResetStats();

  vp::graph::Session sess;
  std::vector<double> in, out;
  RunSynthStep(&sess, false, 1.0, in, out);
  ASSERT_TRUE(sess.Armed());

  // the scheduler decided to move the work: the pinned graph is dropped,
  // the next step captures again instead of replaying
  sess.Drop();
  EXPECT_FALSE(sess.Armed());
  EXPECT_EQ(vp::graph::Stats().Invalidations, 1u);

  RunSynthStep(&sess, false, 2.0, in, out);
  ExpectSynthExact(false, 2.0, in, out, "post-drop");
  EXPECT_EQ(vp::graph::Stats().Captures, 2u);
  EXPECT_EQ(vp::graph::Stats().Replays, 0u);

  ConfigureGraph(false);
}

TEST(GraphSession, ElementCountDriftRebindsWithoutInvalidation)
{
  // a live simulation's per-rank row count drifts step to step (bodies
  // migrate between slabs): the same DAG with a different N must rebind
  // the launch dims and copy bytes like cudaGraphExecKernelNodeSetParams,
  // not fall back to eager execution
  ResetPlatform();
  ConfigureSerial();
  ConfigureGraph(true);
  vp::graph::ResetStats();

  vp::graph::Session sess;
  auto step = [&sess](std::size_t n, double base, std::vector<double> &got)
  {
    double *a =
      static_cast<double *>(vcuda::MallocManaged(n * sizeof(double)));
    double *b =
      static_cast<double *>(vcuda::MallocManaged(n * sizeof(double)));
    vcuda::stream_t s = vcuda::StreamCreate();
    {
      vp::graph::StepScope scope(sess);
      vcuda::LaunchN(s, n,
                     [a, base](std::size_t b0, std::size_t e)
                     {
                       for (std::size_t i = b0; i < e; ++i)
                         a[i] = base + static_cast<double>(i);
                     },
                     vcuda::LaunchBounds{1.0, 0.0, "drift_fill", true});
      vcuda::MemcpyAsync(b, a, n * sizeof(double), s);
      vcuda::LaunchN(s, n,
                     [b](std::size_t b0, std::size_t e)
                     {
                       for (std::size_t i = b0; i < e; ++i)
                         b[i] *= 3.0;
                     },
                     vcuda::LaunchBounds{1.0, 0.0, "drift_scale", true});
      vcuda::StreamSynchronize(s);
    }
    got.assign(b, b + n);
    vcuda::Free(a);
    vcuda::Free(b);
    vcuda::StreamDestroy(s);
  };

  const std::size_t counts[] = {200, 187, 213, 200};
  double base = 5.0;
  for (std::size_t k = 0; k < 4; ++k, base += 7.0)
  {
    std::vector<double> got;
    step(counts[k], base, got);
    ASSERT_EQ(got.size(), counts[k]);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], 3.0 * (base + static_cast<double>(i)))
        << "step " << k << " index " << i;
  }

  EXPECT_EQ(vp::graph::Stats().Captures, 1u);
  EXPECT_EQ(vp::graph::Stats().Replays, 3u);
  EXPECT_EQ(vp::graph::Stats().Invalidations, 0u);

  ConfigureGraph(false);
}

TEST(GraphSession, MidRunParameterChangeOnCapturedAnalysisRecapturesBitExact)
{
  // the steering case: a captured analysis has parameters changed
  // between steps — a coarser bin resolution plus an extra reduction,
  // what a viz Steer command's resolution + variable swap does. The
  // extra reduction adds kernels, so the captured DAG no longer
  // matches: the step must invalidate, fall back to eager execution,
  // recapture the new shape, and stay bit-exact with an eager run of
  // the same schedule — not die on a replay mismatch. (A pure
  // resolution change is absorbed by element-count rebinding and never
  // invalidates — ElementCountDriftRebindsWithoutInvalidation above.)
  auto run = [](bool graphOn)
  {
    ResetPlatform();
    ConfigureSerial();
    ConfigureGraph(graphOn);
    vp::graph::ResetStats();

    sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
    DataBinning *b = DataBinning::New();
    b->SetMeshName("bodies");
    b->SetAxes({"x", "y"});
    b->SetResolution({16});
    b->SetRange(0, -1.0, 1.0);
    b->SetRange(1, -1.0, 1.0);
    b->AddOperation("v", BinningOp::Sum);
    b->SetDeviceId(0);

    std::vector<BinningGrids> out;
    for (int s = 0; s < 6; ++s)
    {
      if (s == 3) // the mid-run steer lands before this step
      {
        b->SetResolution({24});
        b->AddOperation("v", BinningOp::Min);
      }

      svtkTable *t = MakeTable(3000, 70u + static_cast<unsigned>(s));
      da->SetTable(t);
      t->Delete();
      da->SetDataTimeStep(s);
      da->SetDataTime(0.01 * s);

      EXPECT_TRUE(b->Execute(da));

      svtkImageData *img = b->GetLastResult();
      EXPECT_NE(img, nullptr);
      BinningGrids g;
      if (img)
      {
        g.Count = GridValues(img, "count");
        g.Sum = GridValues(img, "v_sum");
        if (s >= 3)
          g.Min = GridValues(img, "v_min");
        img->UnRegister();
      }
      out.push_back(std::move(g));
    }
    EXPECT_EQ(b->Finalize(), 0);
    b->Delete();
    da->ReleaseData();
    da->Delete();

    const vp::graph::GraphStats gs = vp::graph::Stats();
    ConfigureGraph(false);
    return std::make_pair(out, gs);
  };

  const auto eager = run(false);
  const auto graph = run(true);

  ASSERT_EQ(eager.first.size(), graph.first.size());
  for (std::size_t s = 0; s < eager.first.size(); ++s)
  {
    EXPECT_TRUE(eager.first[s] == graph.first[s]) << "step " << s;
    EXPECT_EQ(eager.first[s].Count.size(),
              s < 3 ? std::size_t(16 * 16) : std::size_t(24 * 24));
  }

  // capture -> replay x2 -> invalidate on the changed shape -> eager
  // fallback -> recapture -> replay the new shape
  EXPECT_GE(graph.second.Captures, 2u);
  EXPECT_GE(graph.second.Replays, 3u);
  EXPECT_GE(graph.second.Invalidations, 1u);
}

// --- full coupled pipelines ---------------------------------------------------

namespace
{

/// One coupled nbody + binning pipeline (4 ranks, 4 devices, 4 steps);
/// returns rank 0's final count/min/max grids (exact in any order).
std::map<std::string, std::vector<double>> RunPipeline(bool graphOn,
                                                       bool threads,
                                                       bool asyncCompress)
{
  ResetPlatform();
  ConfigureGraph(graphOn);
  vp::graph::ResetStats();

  newton::Config sim;
  sim.TotalBodies = 512;
  sim.Repartition = false;
  sim.CentralMass = 50.0;

  std::ostringstream xml;
  xml << "<sensei>";
  xml << "<exec mode=\"" << (threads ? "threads" : "serial")
      << "\" threads=\"3\" shard_grain=\"256\"/>";
  if (asyncCompress)
    xml << "<compress enabled=\"1\" codec=\"shuffle-rle\"/>";
  xml << "<analysis type=\"data_binning\" mesh=\"bodies\" "
         "axes=\"x,y\" resolution=\"16\" ops=\"min,max\" values=\"m,m\" "
         "range_0=\"-1.5,1.5\" range_1=\"-1.5,1.5\" "
         "device=\"auto\" async=\""
      << (asyncCompress ? 1 : 0) << "\"/></sensei>";

  std::map<std::string, std::vector<double>> grids;

  minimpi::Run(4,
               [&](minimpi::Communicator &comm)
               {
                 sensei::ConfigurableAnalysis *ca =
                   sensei::ConfigurableAnalysis::New();
                 ca->InitializeString(xml.str());

                 newton::Driver driver(&comm, sim, ca);
                 driver.Initialize();
                 driver.Run(4);

                 if (comm.Rank() == 0)
                 {
                   auto *b =
                     dynamic_cast<DataBinning *>(ca->GetAnalysis(0));
                   ASSERT_NE(b, nullptr);
                   svtkImageData *img = b->GetLastResult();
                   ASSERT_NE(img, nullptr);
                   grids["count"] = GridValues(img, "count");
                   grids["m_min"] = GridValues(img, "m_min");
                   grids["m_max"] = GridValues(img, "m_max");
                   img->UnRegister();
                 }
                 ca->Delete();
               });

  ConfigureGraph(false);
  ConfigureSerial();
  return grids;
}

} // namespace

TEST(GraphPipeline, CoupledNbodyBinningBitExactWithReplay)
{
  unsetenv("VP_GRAPH");
  for (bool threads : {false, true})
  {
    const auto eager = RunPipeline(false, threads, false);
    const auto replayed = RunPipeline(true, threads, false);
    const vp::graph::GraphStats s = vp::graph::Stats();

    ASSERT_FALSE(eager.at("count").empty());
    EXPECT_EQ(eager.at("count"), replayed.at("count"))
      << (threads ? "threads" : "serial");
    EXPECT_EQ(eager.at("m_min"), replayed.at("m_min"));
    EXPECT_EQ(eager.at("m_max"), replayed.at("m_max"));

    // every rank's binning session replayed at least once
    EXPECT_GT(s.Replays, 0u);
    EXPECT_GT(s.Captures, 0u);
  }
}

TEST(GraphPipeline, AsyncCompressedPipelineBitExactWithReplay)
{
  unsetenv("VP_GRAPH");
  const auto eager = RunPipeline(false, true, true);
  const auto replayed = RunPipeline(true, true, true);
  const vp::graph::GraphStats s = vp::graph::Stats();

  ASSERT_FALSE(eager.at("count").empty());
  EXPECT_EQ(eager.at("count"), replayed.at("count"));
  EXPECT_EQ(eager.at("m_min"), replayed.at("m_min"));
  EXPECT_EQ(eager.at("m_max"), replayed.at("m_max"));
  EXPECT_GT(s.Replays, 0u);
}

// --- profiler export ---------------------------------------------------------

TEST(GraphStats, ProfilerExportCarriesCounters)
{
  ResetPlatform();
  ConfigureSerial();
  ConfigureGraph(true);
  vp::graph::ResetStats();

  vp::graph::Session sess;
  std::vector<double> in, out;
  RunSynthStep(&sess, false, 1.0, in, out);
  RunSynthStep(&sess, false, 2.0, in, out);

  sensei::Profiler prof;
  sensei::ExportGraphStats(prof);
  EXPECT_EQ(prof.Total("graph::captures"), 1.0);
  EXPECT_EQ(prof.Total("graph::replays"), 1.0);
  EXPECT_GE(prof.Total("graph::nodes_captured"), 5.0);
  EXPECT_GE(prof.Total("graph::ops_absorbed"), 5.0);
  EXPECT_GE(prof.Total("graph::flushes"), 1.0);

  ConfigureGraph(false);
  vp::graph::ResetStats();
  EXPECT_EQ(vp::graph::Stats().Captures, 0u);
}

// --- 1000-seed property sweep ------------------------------------------------

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

/// Run `p` for `steps` steps (fresh buffers and fresh input every step)
/// and return every readback, concatenated in a fixed order. The checker
/// is on for the whole run and must stay clean.
std::vector<std::vector<double>> RunDag(const DagProgram &p, unsigned seed,
                                        bool useGraph, bool threads,
                                        int steps)
{
  ResetPlatform();
  if (threads)
    ConfigureThreads(64, 3);
  else
    ConfigureSerial();
  ConfigureGraph(useGraph);
  vp::graph::ResetStats();
  vp::check::Reset();
  vp::check::Configure(vp::check::CheckConfig{true, 64, false});

  const std::size_t N = 192;
  vcuda::SetDevice(0);
  vp::graph::Session sess;
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

    std::vector<std::vector<double>> devOut(ns), scrOut(ns);
    {
      vp::graph::StepScope scope(sess);
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
                               d[i] = d[i] * a + b +
                                      static_cast<double>(i % 7);
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
                                   recorded[static_cast<std::size_t>(
                                     op.Ev)]);
            break;
        }
      }
      // readbacks ride the captured pattern too
      for (std::size_t s = 0; s < ns; ++s)
      {
        devOut[s].resize(N);
        vcuda::MemcpyAsync(devOut[s].data(), dev[s], N * sizeof(double),
                           st[s]);
        if (p.ScrWritten[s])
        {
          scrOut[s].resize(N);
          vcuda::MemcpyAsync(scrOut[s].data(), scr[s], N * sizeof(double),
                             st[s]);
        }
      }
      for (std::size_t s = 0; s < ns; ++s)
        vcuda::StreamSynchronize(st[s]);
    }

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
  EXPECT_EQ(r.Total(), 0u)
    << "seed=" << seed << (useGraph ? " graph" : " eager")
    << (threads ? " threads" : " serial") << "\n"
    << r.Summary();
  vp::check::Enable(false);
  ConfigureGraph(false);
  ConfigureSerial();
  return out;
}

void CheckSeed(unsigned seed, bool threads)
{
  const DagProgram p = DagProgram::Generate(seed);
  const int steps = 3;

  const auto eager = RunDag(p, seed, false, threads, steps);
  const auto replayed = RunDag(p, seed, true, threads, steps);
  const vp::graph::GraphStats s = vp::graph::Stats();

  ASSERT_TRUE(eager == replayed)
    << "replay diverged from eager execution: seed=" << seed
    << (threads ? " threads" : " serial");
  ASSERT_EQ(s.Captures, 1u) << "seed=" << seed;
  ASSERT_EQ(s.Replays, static_cast<std::uint64_t>(steps - 1))
    << "seed=" << seed;
  ASSERT_EQ(s.Invalidations, 0u) << "seed=" << seed;
  ASSERT_EQ(s.CaptureAborts, 0u) << "seed=" << seed;
}

} // namespace

TEST(GraphProperty, ThousandRandomDagsReplayBitExactAndCheckerClean)
{
  for (unsigned seed = 1; seed <= 1000; ++seed)
  {
    CheckSeed(seed, false);
    if (::testing::Test::HasFatalFailure())
      FAIL() << "stopping at seed=" << seed;
    // every tenth DAG also runs under the threaded engine
    if (seed % 10 == 0)
    {
      CheckSeed(seed, true);
      if (::testing::Test::HasFatalFailure())
        FAIL() << "stopping at seed=" << seed << " (threads)";
    }
  }
}
