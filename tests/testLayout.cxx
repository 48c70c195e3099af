// Tests for the layout-polymorphic array engine (src/layout): mapping
// math for AoS / SoA (plane and record strides, one-component
// identity), a 1000-seed property test (random layout x dtype x count x
// reorder range round-trips bit-exact against an AoS reference), the
// hamr::buffer / svtkHAMRDataArray conversion surface, the codec
// shuffle round trip, XML / environment configuration of <layout simd>,
// the profiler export — and equality of the binning grids and the nbody
// force across serial / threads execution and eager / graph replay.

#include "cmpCodec.h"
#include "execEngine.h"
#include "graphCapture.h"
#include "hamrBuffer.h"
#include "layoutMapping.h"
#include "newtonSolver.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataAdaptor.h"
#include "senseiDataBinning.h"
#include "senseiProfiler.h"
#include "svtkAOSDataArray.h"
#include "svtkHAMRDataArray.h"
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

using vp::layout::Kind;
using vp::layout::Mapping;

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
    vp::graph::Configure(vp::graph::GraphConfig());
    ResetPlatform();
  }

  void TearDown() override
  {
    unsetenv("VP_SIMD");
    vp::layout::Configure(vp::layout::LayoutConfig());
    vp::exec::Configure(vp::exec::ExecConfig());
    vp::graph::Configure(vp::graph::GraphConfig());
  }
};

} // namespace

// --- names -------------------------------------------------------------------

TEST(LayoutNames, ParseAndPrint)
{
  EXPECT_EQ(vp::layout::KindFromName("aos"), Kind::AoS);
  EXPECT_EQ(vp::layout::KindFromName("interleaved"), Kind::AoS);
  EXPECT_EQ(vp::layout::KindFromName("soa"), Kind::SoA);
  EXPECT_EQ(vp::layout::KindFromName("planar"), Kind::SoA);

  EXPECT_THROW(vp::layout::KindFromName("bogus"), std::invalid_argument);
  EXPECT_THROW(vp::layout::KindFromName("aosoa"), std::invalid_argument);
  EXPECT_THROW(vp::layout::KindFromName(""), std::invalid_argument);

  EXPECT_STREQ(vp::layout::KindName(Kind::SoA), "soa");
  EXPECT_STREQ(vp::layout::KindName(Kind::AoS), "aos");
}

// --- mapping math ------------------------------------------------------------

TEST(LayoutMapping, AoSOffsetsAndRuns)
{
  const Mapping m = Mapping::AoS(5, 3);
  EXPECT_EQ(m.Slots(), 15u);
  EXPECT_EQ(m.Offset(0, 0), 0u);
  EXPECT_EQ(m.Offset(2, 1), 7u);
  EXPECT_EQ(m.Offset(4, 2), 14u);
  // interleaved: a component's consecutive tuples are one record apart
  EXPECT_EQ(m.Offset(3, 1) - m.Offset(2, 1), 3u);
}

TEST(LayoutMapping, SoAOffsetsAndRuns)
{
  const Mapping m = Mapping::SoA(5, 3);
  EXPECT_EQ(m.Slots(), 15u);
  EXPECT_EQ(m.Offset(0, 0), 0u);
  EXPECT_EQ(m.Offset(2, 1), 7u);  // 1*5 + 2
  EXPECT_EQ(m.Offset(4, 2), 14u); // 2*5 + 4
  // planar: a component's tuples are contiguous to the end of the plane
  for (std::size_t t = 1; t < 5; ++t)
    EXPECT_EQ(m.Offset(t, 2), m.Offset(t - 1, 2) + 1);
}

TEST(LayoutMapping, OneComponentIsLayoutInvariant)
{
  for (Kind k : {Kind::AoS, Kind::SoA})
  {
    const Mapping m = Mapping::Make(k, 7, 1);
    EXPECT_EQ(m.Slots(), 7u) << vp::layout::KindName(k);
    for (std::size_t t = 0; t < 7; ++t)
      EXPECT_EQ(m.Offset(t, 0), t);
  }
}

TEST(LayoutMapping, EqualityComparesLayoutAndShape)
{
  EXPECT_EQ(Mapping::AoS(5, 3), Mapping::AoS(5, 3));
  EXPECT_NE(Mapping::AoS(5, 3), Mapping::SoA(5, 3));
  EXPECT_NE(Mapping::SoA(5, 3), Mapping::SoA(6, 3));
  EXPECT_NE(Mapping::SoA(6, 3), Mapping::SoA(6, 2));
}

// --- the 1000-seed property test --------------------------------------------

namespace
{

// a value that is exact in every tested dtype (small integers)
template <typename T>
T PropValue(std::size_t t, std::size_t c, unsigned seed)
{
  return static_cast<T>((t * 7 + c * 131 + seed) % 251);
}

template <typename T>
void PropertyRoundTrip(unsigned seed)
{
  std::mt19937_64 rng(seed);
  const std::size_t tuples = rng() % 300;
  const std::size_t comps = 1 + rng() % 5;
  const Kind kinds[2] = {Kind::AoS, Kind::SoA};
  const Kind k1 = kinds[rng() % 2];
  const Kind k2 = kinds[rng() % 2];
  const std::size_t split = tuples ? rng() % (tuples + 1) : 0;

  // the AoS reference
  const Mapping ref = Mapping::AoS(tuples, comps);
  std::vector<T> refStore(ref.Slots());
  for (std::size_t t = 0; t < tuples; ++t)
    for (std::size_t c = 0; c < comps; ++c)
      refStore[ref.Offset(t, c)] = PropValue<T>(t, c, seed);

  // AoS -> k1 -> k2 -> AoS, verifying by three access patterns
  const Mapping m1 = Mapping::Make(k1, tuples, comps);
  std::vector<T> s1(m1.Slots(), T(0));
  vp::layout::ReorderRange(refStore.data(), ref, s1.data(), m1, 0, tuples);

  // pattern 1: direct Offset addressing
  for (std::size_t t = 0; t < tuples; ++t)
    for (std::size_t c = 0; c < comps; ++c)
      ASSERT_EQ(s1[m1.Offset(t, c)], PropValue<T>(t, c, seed))
        << "seed " << seed << " t " << t << " c " << c;

  // pattern 2: two tuple ranges split at a random point, as a sharded
  // reorder kernel hands them out
  const Mapping m2 = Mapping::Make(k2, tuples, comps);
  std::vector<T> s2(m2.Slots(), T(0));
  vp::layout::ReorderRange(s1.data(), m1, s2.data(), m2, 0, split);
  vp::layout::ReorderRange(s1.data(), m1, s2.data(), m2, split, tuples);
  for (std::size_t t = 0; t < tuples; ++t)
    for (std::size_t c = 0; c < comps; ++c)
      ASSERT_EQ(s2[m2.Offset(t, c)], PropValue<T>(t, c, seed))
        << "seed " << seed << " t " << t << " c " << c;

  // pattern 3: back to AoS must be bit-identical to the reference
  std::vector<T> back(ref.Slots(), T(0));
  vp::layout::ReorderRange(s2.data(), m2, back.data(), ref, 0, tuples);
  ASSERT_EQ(back, refStore) << "seed " << seed;
}

} // namespace

TEST(LayoutProperty, RandomLayoutDtypeCountAccessRoundTripsBitExact)
{
  // 1000 seeds spread over four dtypes
  for (unsigned seed = 0; seed < 1000; ++seed)
  {
    switch (seed % 4)
    {
      case 0: PropertyRoundTrip<double>(seed); break;
      case 1: PropertyRoundTrip<float>(seed); break;
      case 2: PropertyRoundTrip<int>(seed); break;
      default: PropertyRoundTrip<long long>(seed); break;
    }
  }
}

// --- hamr::buffer::reorder ---------------------------------------------------

TEST_F(LayoutTest, BufferReorderMovesValuesAcrossLayouts)
{
  const std::size_t n = 100, comps = 3;
  const Mapping aos = Mapping::AoS(n, comps);
  hamr::buffer<double> buf(hamr::allocator::malloc_, aos.Slots());
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t c = 0; c < comps; ++c)
      buf.data()[aos.Offset(t, c)] = static_cast<double>(t * 10 + c);

  const Mapping soa = Mapping::SoA(n, comps);
  buf.reorder(aos, soa);
  EXPECT_EQ(buf.size(), soa.Slots());
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t c = 0; c < comps; ++c)
      EXPECT_EQ(buf.data()[soa.Offset(t, c)], static_cast<double>(t * 10 + c));

  buf.reorder(soa, aos);
  EXPECT_EQ(buf.size(), aos.Slots());
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t c = 0; c < comps; ++c)
      EXPECT_EQ(buf.data()[aos.Offset(t, c)], static_cast<double>(t * 10 + c));
}

TEST_F(LayoutTest, BufferReorderRejectsShapeMismatch)
{
  hamr::buffer<double> buf(hamr::allocator::malloc_, 30);
  EXPECT_THROW(buf.reorder(Mapping::AoS(10, 3), Mapping::SoA(10, 2)),
               std::invalid_argument);
  EXPECT_THROW(buf.reorder(Mapping::AoS(20, 3), Mapping::SoA(20, 3)),
               std::invalid_argument); // source mapping larger than storage
}

TEST_F(LayoutTest, BufferReorderOnDeviceStorage)
{
  const std::size_t n = 64, comps = 2;
  const Mapping aos = Mapping::AoS(n, comps);
  hamr::buffer<double> buf(hamr::allocator::device_async, vp::Stream(),
                           hamr::stream_mode::sync, aos.Slots());
  for (std::size_t i = 0; i < aos.Slots(); ++i)
    buf.data()[i] = static_cast<double>(i); // host-heap backed device memory

  const Mapping soa = Mapping::SoA(n, comps);
  buf.reorder(aos, soa);
  buf.synchronize();
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t c = 0; c < comps; ++c)
      EXPECT_EQ(buf.data()[soa.Offset(t, c)],
                static_cast<double>(aos.Offset(t, c)));
}

// --- svtkHAMRDataArray layout surface ----------------------------------------

TEST_F(LayoutTest, HdaDeclaredSoAMapsAccessors)
{
  auto *a = svtkHAMRDoubleArray::New("v", 10, 3, svtkAllocator::malloc_,
                                    Kind::SoA);
  EXPECT_EQ(a->GetLayout(), Kind::SoA);
  EXPECT_EQ(a->GetNumberOfTuples(), 10u);
  for (std::size_t t = 0; t < 10; ++t)
    for (int c = 0; c < 3; ++c)
      a->SetVariantValue(t, c, static_cast<double>(t * 100 + c));

  // the storage really is planar
  const double *d = a->GetData();
  EXPECT_EQ(d[0], 0.0);
  EXPECT_EQ(d[1], 100.0); // (1,0) is adjacent to (0,0) in SoA
  EXPECT_EQ(d[10], 1.0);  // comp 1 plane starts at slot 10

  for (std::size_t t = 0; t < 10; ++t)
    for (int c = 0; c < 3; ++c)
      EXPECT_EQ(a->GetVariantValue(t, c), static_cast<double>(t * 100 + c));
  a->UnRegister();
}

TEST_F(LayoutTest, HdaConvertLayoutRoundTripsBitExact)
{
  auto *a = svtkHAMRDoubleArray::New("v", 33, 3, svtkAllocator::malloc_);
  for (std::size_t t = 0; t < 33; ++t)
    for (int c = 0; c < 3; ++c)
      a->SetVariantValue(t, c, std::sin(static_cast<double>(t * 3 + c)));
  const std::vector<double> ref = a->ToVector();

  for (Kind k : {Kind::SoA, Kind::AoS})
  {
    a->ConvertLayout(k);
    EXPECT_EQ(a->GetLayout(), k);
    EXPECT_EQ(a->GetNumberOfTuples(), 33u);
    std::size_t i = 0;
    for (std::size_t t = 0; t < 33; ++t)
      for (int c = 0; c < 3; ++c, ++i)
        EXPECT_EQ(a->GetVariantValue(t, c), ref[i])
          << vp::layout::KindName(k);
  }
  // back at AoS: storage bit-identical to the original
  EXPECT_EQ(a->ToVector(), ref);
  a->UnRegister();
}

TEST_F(LayoutTest, HdaOneComponentConversionIsFree)
{
  auto *a = svtkHAMRDoubleArray::New("v", 100, 1, svtkAllocator::malloc_);
  const double *before = a->GetData();
  vp::layout::ResetStats();
  a->ConvertLayout(Kind::SoA);
  EXPECT_EQ(a->GetData(), before); // no reallocation, just the label
  EXPECT_EQ(vp::layout::Stats().Conversions, 0u);
  EXPECT_EQ(a->GetNumberOfTuples(), 100u);
  a->UnRegister();
}

TEST_F(LayoutTest, HdaResizePreservesDeclaredLayout)
{
  auto *a = svtkHAMRDoubleArray::New("v", 10, 3, svtkAllocator::malloc_,
                                    Kind::SoA);
  for (std::size_t t = 0; t < 10; ++t)
    for (int c = 0; c < 3; ++c)
      a->SetVariantValue(t, c, static_cast<double>(t + 10 * c));

  a->SetNumberOfTuples(20);
  EXPECT_EQ(a->GetLayout(), Kind::SoA);
  EXPECT_EQ(a->GetNumberOfTuples(), 20u);
  for (std::size_t t = 0; t < 10; ++t)
    for (int c = 0; c < 3; ++c)
      EXPECT_EQ(a->GetVariantValue(t, c), static_cast<double>(t + 10 * c));
  a->UnRegister();
}

TEST_F(LayoutTest, HdaDeepCopyAndNewInstancePropagateLayout)
{
  auto *a = svtkHAMRDoubleArray::New("v", 12, 2, svtkAllocator::malloc_,
                                    Kind::SoA);
  a->SetVariantValue(11, 1, 42.0);

  svtkHAMRDoubleArray *d = a->NewDeepCopy();
  EXPECT_EQ(d->GetLayout(), Kind::SoA);
  EXPECT_EQ(d->GetNumberOfTuples(), 12u);
  EXPECT_EQ(d->GetVariantValue(11, 1), 42.0);
  d->UnRegister();

  auto *i = static_cast<svtkHAMRDoubleArray *>(a->NewInstance());
  EXPECT_EQ(i->GetLayout(), Kind::SoA);
  EXPECT_EQ(i->GetNumberOfTuples(), 0u);
  i->UnRegister();
  a->UnRegister();
}

TEST_F(LayoutTest, CodecShuffleRoundTripsEveryDtype)
{
  std::mt19937_64 rng(11);
  cmp::Params p;
  p.Codec = cmp::CodecId::ShuffleRLE;
  p.Level = 1;

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
  vp::layout::NoteConversion(128);
  vp::layout::NoteSimdKernel();
  sensei::Profiler prof;
  sensei::ExportLayoutStats(prof);
  const std::string json = prof.ToJson();
  EXPECT_NE(json.find("layout::conversions"), std::string::npos);
  EXPECT_NE(json.find("layout::simd_kernels"), std::string::npos);
  EXPECT_NE(json.find("layout::bytes_reordered"), std::string::npos);
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

/// Two direct DataBinning steps under the given execution mode and
/// graph setting; returns all grids concatenated.
std::vector<std::vector<double>> RunBinning(bool threads, bool graphOn,
                                            const BinningCase &c)
{
  ResetPlatform();
  vp::exec::ExecConfig ec;
  ec.ExecMode = threads ? vp::exec::Mode::Threads : vp::exec::Mode::Serial;
  ec.Threads = threads ? 2 : 0;
  ec.ShardGrain = kMatrixGrain;
  vp::exec::Configure(ec);
  vp::graph::GraphConfig gc;
  gc.Enabled = graphOn;
  vp::graph::Configure(gc);

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
  vp::graph::Configure(vp::graph::GraphConfig());
  return out;
}

} // namespace

TEST_F(LayoutTest, BinningBitExactAcrossExecAndGraphMatrix)
{
  // device 0 under both strategies, and the host (where graph capture
  // does not apply, so its graph runs are eager too)
  const BinningCase cases[] = {
    {0, sensei::GpuBinningStrategy::GlobalAtomics},
    {0, sensei::GpuBinningStrategy::Privatized},
    {sensei::AnalysisAdaptor::DEVICE_HOST,
     sensei::GpuBinningStrategy::GlobalAtomics}};
  for (const BinningCase &c : cases)
  {
    const auto baseline = RunBinning(false, false, c);
    ASSERT_FALSE(baseline.empty());
    for (bool threads : {false, true})
      for (bool graphOn : {false, true})
      {
        if (!threads && !graphOn)
          continue;
        const auto got = RunBinning(threads, graphOn, c);
        ASSERT_EQ(got.size(), baseline.size());
        for (std::size_t g = 0; g < got.size(); ++g)
          ASSERT_EQ(got[g], baseline[g])
            << "device=" << c.Device << " strategy="
            << static_cast<int>(c.Strategy) << " threads=" << threads
            << " graph=" << graphOn << " grid " << g;
      }
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
