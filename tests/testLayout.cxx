// Tests for the SIMD force switch (src/layout): the codec shuffle
// round trip, XML / environment configuration of <layout simd>, the
// profiler export — and equality of the binning grids and the nbody
// force across serial / threads execution.

#include "cmpCodec.h"
#include "execEngine.h"
#include "layoutMapping.h"
#include "newtonSolver.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataAdaptor.h"
#include "senseiDataBinning.h"
#include "senseiProfiler.h"
#include "svtkAOSDataArray.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

namespace
{

void ResetPlatform()
{
  vp::PlatformConfig cfg;
  cfg.NumNodes = 1;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vomp::SetDefaultDevice(0);
  vp::ThisClock().Set(0.0);
}

class LayoutTest : public ::testing::Test
{
protected:
  void SetUp() override
  {
    unsetenv("VP_SIMD");
    vp::layout::Configure(vp::layout::LayoutConfig());
    vp::exec::Configure(vp::exec::ExecConfig());
    ResetPlatform();
  }

  void TearDown() override
  {
    unsetenv("VP_SIMD");
    vp::layout::Configure(vp::layout::LayoutConfig());
    vp::exec::Configure(vp::exec::ExecConfig());
  }
};

} // namespace

// --- codec shuffle -----------------------------------------------------------

TEST_F(LayoutTest, CodecShuffleRoundTripsEveryDtype)
{
  std::mt19937_64 rng(11);
  cmp::Params p;
  p.Codec = cmp::CodecId::ShuffleRLE;

  for (std::size_t n : {1u, 63u, 4096u, 10001u})
  {
    std::vector<double> vals(n);
    for (auto &v : vals)
      v = std::floor(16.0 * std::sin(static_cast<double>(rng() % 997)));

    std::vector<std::uint8_t> wire;
    cmp::EncodeChunk(vals.data(), cmp::DType::F64,
                     static_cast<std::uint64_t>(n), p, wire);

    std::vector<double> out(n, -1.0);
    cmp::DecodeChunk(wire.data(), wire.size(), out.data(),
                     out.size() * sizeof(double));
    ASSERT_EQ(out, vals) << n;
  }
}

// --- configuration: env, XML, per-analysis ----------------------------------

TEST_F(LayoutTest, DefaultConfigReadsEnvironment)
{
  setenv("VP_SIMD", "1", 1);
  EXPECT_TRUE(vp::layout::DefaultConfig().Simd);
  unsetenv("VP_SIMD");
  EXPECT_FALSE(vp::layout::DefaultConfig().Simd);
}

TEST_F(LayoutTest, ConfigurableAnalysisParsesLayoutElement)
{
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString("<sensei><layout simd=\"1\"/></sensei>");
  EXPECT_TRUE(vp::layout::GetConfig().Simd);
  ca->UnRegister();
}

TEST_F(LayoutTest, EnvironmentWinsOverLayoutElement)
{
  setenv("VP_SIMD", "0", 1);
  vp::layout::Configure(vp::layout::DefaultConfig());
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString("<sensei><layout simd=\"1\"/></sensei>");
  EXPECT_FALSE(vp::layout::GetConfig().Simd);
  ca->UnRegister();
}

TEST_F(LayoutTest, ConfigurableAnalysisRejectsBadLayout)
{
  for (const char *bad : {"maybe", "2"})
  {
    sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
    EXPECT_THROW(ca->InitializeString(std::string("<sensei><layout simd=\"") +
                                      bad + "\"/></sensei>"),
                 std::runtime_error)
      << bad;
    ca->UnRegister();
  }
}

// --- profiler export ---------------------------------------------------------

TEST_F(LayoutTest, ProfilerExportsLayoutCounters)
{
  vp::layout::ResetStats();
  vp::layout::NoteSimdKernel();
  sensei::Profiler prof;
  sensei::ExportLayoutStats(prof);
  const std::string json = prof.ToJson();
  EXPECT_NE(json.find("\"schema\":\"sensei-profiler/3\""),
            std::string::npos);
  EXPECT_NE(json.find("layout::simd_kernels"), std::string::npos);
  EXPECT_NE(json.find("layout::scalar_kernels"), std::string::npos);
  // removed with the AoS/SoA conversions they counted
  EXPECT_EQ(json.find("layout::conversions"), std::string::npos);
  EXPECT_EQ(json.find("layout::bytes_reordered"), std::string::npos);
}

// --- kernel equality: binning across the execution matrix --------------------

namespace
{

svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> xs(n), ys(n), vs(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    xs[i] = u(gen);
    ys[i] = u(gen);
    // not integer valued: a sum taken in another order rounds apart
    vs[i] = xs[i] + 2.0 * ys[i];
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

std::vector<double> GridValues(svtkImageData *img, const char *name)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  std::vector<double> out(a ? a->GetNumberOfTuples() : 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->GetVariantValue(i, 0);
  return out;
}

/// Where and how a matrix binning accumulates.
struct BinningCase
{
  int Device;
  sensei::GpuBinningStrategy Strategy;
};

/// Rows per binning step: above two shard grains of the threaded runs,
/// so a sharded accumulation would split them across the pool.
constexpr std::size_t kMatrixRows = 3000;
constexpr std::size_t kMatrixGrain = 1024;

/// Two direct DataBinning steps under the given execution mode; returns
/// all grids concatenated.
std::vector<std::vector<double>> RunBinning(bool threads,
                                            const BinningCase &c)
{
  ResetPlatform();
  vp::exec::ExecConfig ec;
  ec.ExecMode = threads ? vp::exec::Mode::Threads : vp::exec::Mode::Serial;
  ec.Threads = threads ? 2 : 0;
  ec.ShardGrain = kMatrixGrain;
  vp::exec::Configure(ec);

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  sensei::DataBinning *b = sensei::DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({32});
  b->SetRange(0, -1.0, 1.0);
  b->SetRange(1, -1.0, 1.0);
  b->AddOperation("v", sensei::BinningOp::Sum);
  b->AddOperation("v", sensei::BinningOp::Min);
  b->AddOperation("v", sensei::BinningOp::Max);
  b->SetDeviceId(c.Device);
  b->SetGpuStrategy(c.Strategy);

  std::vector<std::vector<double>> out;
  for (int s = 0; s < 2; ++s)
  {
    svtkTable *t = MakeTable(kMatrixRows, 90u + static_cast<unsigned>(s));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    b->Execute(da);
    svtkImageData *img = b->GetLastResult();
    if (img)
    {
      out.push_back(GridValues(img, "count"));
      out.push_back(GridValues(img, "v_sum"));
      out.push_back(GridValues(img, "v_min"));
      out.push_back(GridValues(img, "v_max"));
      img->UnRegister();
    }
  }
  b->Finalize();
  b->Delete();
  da->ReleaseData();
  da->Delete();
  vp::exec::Configure(vp::exec::ExecConfig());
  return out;
}

} // namespace

TEST_F(LayoutTest, BinningBitExactAcrossExecModes)
{
  // device 0 under both strategies, and the host
  const BinningCase cases[] = {
    {0, sensei::GpuBinningStrategy::GlobalAtomics},
    {0, sensei::GpuBinningStrategy::Privatized},
    {sensei::AnalysisAdaptor::DEVICE_HOST,
     sensei::GpuBinningStrategy::GlobalAtomics}};
  for (const BinningCase &c : cases)
  {
    const auto serial = RunBinning(false, c);
    ASSERT_FALSE(serial.empty());
    const auto threads = RunBinning(true, c);
    ASSERT_EQ(threads.size(), serial.size());
    for (std::size_t g = 0; g < threads.size(); ++g)
      ASSERT_EQ(threads[g], serial[g])
        << "device=" << c.Device
        << " strategy=" << static_cast<int>(c.Strategy) << " grid " << g;
  }
}

// --- kernel equality: nbody force -------------------------------------------

namespace
{

newton::Config NewtonConfig()
{
  newton::Config c;
  c.TotalBodies = 300;
  c.Seed = 17;
  c.Softening = 0.025;
  c.Repartition = false;
  return c;
}

newton::BodySet RunNewton(bool threads, bool simd)
{
  ResetPlatform();
  vp::exec::ExecConfig ec;
  ec.ExecMode = threads ? vp::exec::Mode::Threads : vp::exec::Mode::Serial;
  ec.Threads = threads ? 2 : 0;
  vp::exec::Configure(ec);
  vp::layout::LayoutConfig lc;
  lc.Simd = simd;
  vp::layout::Configure(lc);

  newton::Solver solver(nullptr, NewtonConfig());
  solver.Initialize();
  for (int s = 0; s < 3; ++s)
    solver.Step();
  newton::BodySet bodies = solver.DownloadBodies();

  vp::exec::Configure(vp::exec::ExecConfig());
  vp::layout::Configure(vp::layout::LayoutConfig());
  return bodies;
}

} // namespace

TEST_F(LayoutTest, NewtonScalarForceBitExactSerialVsThreads)
{
  const newton::BodySet a = RunNewton(false, false);
  const newton::BodySet b = RunNewton(true, false);
  ASSERT_EQ(a.Size(), b.Size());
  EXPECT_EQ(a.X, b.X);
  EXPECT_EQ(a.Y, b.Y);
  EXPECT_EQ(a.Z, b.Z);
  EXPECT_EQ(a.VX, b.VX);
  EXPECT_EQ(a.VY, b.VY);
  EXPECT_EQ(a.VZ, b.VZ);
}

TEST_F(LayoutTest, NewtonSimdForceMatchesScalarWithinRounding)
{
  const newton::BodySet a = RunNewton(false, false);
  vp::layout::ResetStats();
  const newton::BodySet b = RunNewton(false, true);
  EXPECT_GT(vp::layout::Stats().SimdKernels, 0u);
  ASSERT_EQ(a.Size(), b.Size());
  // the lane variant reassociates the force sum: near-equal, not
  // bit-equal
  for (std::size_t i = 0; i < a.Size(); ++i)
  {
    EXPECT_NEAR(a.X[i], b.X[i], 1e-9) << i;
    EXPECT_NEAR(a.Y[i], b.Y[i], 1e-9) << i;
    EXPECT_NEAR(a.Z[i], b.Z[i], 1e-9) << i;
    EXPECT_NEAR(a.VX[i], b.VX[i], 1e-6) << i;
    EXPECT_NEAR(a.VY[i], b.VY[i], 1e-6) << i;
    EXPECT_NEAR(a.VZ[i], b.VZ[i], 1e-6) << i;
  }
  // the SIMD lane variant is bit-deterministic with itself
  const newton::BodySet c = RunNewton(true, true);
  EXPECT_EQ(b.X, c.X);
  EXPECT_EQ(b.VX, c.VX);
}
