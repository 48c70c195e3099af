// Tests for the layout-polymorphic array engine (src/layout): mapping
// math for AoS / SoA / AoSoA (padding, runs, one-component identity), a
// 1000-seed property test (random layout x dtype x count x access
// pattern round-trips bit-exact against an AoS reference), the
// hamr::buffer / svtkHAMRDataArray conversion surface, the byte-plane
// transpose behind the codec shuffle, XML / environment configuration,
// the profiler export — and equality of the three
// vectorized hot kernels (binning accumulate, codec shuffle, nbody
// force) across serial / threads execution, eager / graph replay, and
// the three layouts.

#include "cmpCodec.h"
#include "execEngine.h"
#include "graphCapture.h"
#include "hamrBuffer.h"
#include "layoutMapping.h"
#include "layoutView.h"
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
    unsetenv("VP_LAYOUT");
    unsetenv("VP_SIMD");
    vp::layout::Configure(vp::layout::LayoutConfig());
    vp::exec::Configure(vp::exec::ExecConfig());
    vp::graph::Configure(vp::graph::GraphConfig());
    ResetPlatform();
  }

  void TearDown() override
  {
    unsetenv("VP_LAYOUT");
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
  EXPECT_EQ(vp::layout::KindFromName("aosoa"), Kind::AoSoA);

  std::size_t block = 0;
  EXPECT_EQ(vp::layout::KindFromName("aosoa16", &block), Kind::AoSoA);
  EXPECT_EQ(block, 16u);

  EXPECT_THROW(vp::layout::KindFromName("bogus"), std::invalid_argument);
  EXPECT_THROW(vp::layout::KindFromName("aosoa1"), std::invalid_argument);
  EXPECT_THROW(vp::layout::KindFromName("aosoaXY"), std::invalid_argument);
  EXPECT_THROW(vp::layout::KindFromName(""), std::invalid_argument);

  EXPECT_STREQ(vp::layout::KindName(Kind::SoA), "soa");
  EXPECT_EQ(vp::layout::KindName(Kind::AoSoA, 8), "aosoa8");
  EXPECT_EQ(vp::layout::KindName(Kind::AoS, 8), "aos");
}

// --- mapping math ------------------------------------------------------------

TEST(LayoutMapping, AoSOffsetsAndRuns)
{
  const Mapping m = Mapping::AoS(5, 3);
  EXPECT_EQ(m.Slots(), 15u);
  EXPECT_EQ(m.Offset(0, 0), 0u);
  EXPECT_EQ(m.Offset(2, 1), 7u);
  EXPECT_EQ(m.Offset(4, 2), 14u);
  EXPECT_EQ(m.RunAt(2, 1).Count, 1u); // interleaved: single-element runs
}

TEST(LayoutMapping, SoAOffsetsAndRuns)
{
  const Mapping m = Mapping::SoA(5, 3);
  EXPECT_EQ(m.Slots(), 15u);
  EXPECT_EQ(m.Offset(0, 0), 0u);
  EXPECT_EQ(m.Offset(2, 1), 7u);  // 1*5 + 2
  EXPECT_EQ(m.Offset(4, 2), 14u); // 2*5 + 4
  const vp::layout::Run r = m.RunAt(1, 2);
  EXPECT_EQ(r.Offset, 11u);
  EXPECT_EQ(r.Count, 4u); // to the end of the plane
}

TEST(LayoutMapping, AoSoAOffsetsPaddingAndRuns)
{
  const Mapping m = Mapping::AoSoA(10, 2, 4);
  // 3 blocks of 4 tuples x 2 comps, final block padded: 24 slots
  EXPECT_EQ(m.Slots(), 24u);
  EXPECT_EQ(m.Offset(0, 0), 0u);
  EXPECT_EQ(m.Offset(3, 1), 7u);  // block 0, comp 1, row 3
  EXPECT_EQ(m.Offset(4, 0), 8u);  // block 1 starts
  EXPECT_EQ(m.Offset(9, 1), 21u); // block 2, comp 1, row 1

  EXPECT_EQ(m.RunAt(0, 0).Count, 4u); // a full block
  EXPECT_EQ(m.RunAt(6, 0).Count, 2u); // to the end of block 1
  EXPECT_EQ(m.RunAt(8, 1).Count, 2u); // final block clamps to Tuples
}

TEST(LayoutMapping, OneComponentIsLayoutInvariant)
{
  for (Kind k : {Kind::AoS, Kind::SoA, Kind::AoSoA})
  {
    const Mapping m = Mapping::Make(k, 7, 1, 4);
    EXPECT_EQ(m.Slots(), 7u) << vp::layout::KindName(k);
    for (std::size_t t = 0; t < 7; ++t)
      EXPECT_EQ(m.Offset(t, 0), t);
    EXPECT_EQ(m.RunAt(2, 0).Count, 5u); // identity: one run to the end
  }
}

TEST(LayoutMapping, EqualityComparesBlockOnlyForAoSoA)
{
  EXPECT_EQ(Mapping::AoS(5, 3), Mapping::AoS(5, 3));
  EXPECT_NE(Mapping::AoS(5, 3), Mapping::SoA(5, 3));
  EXPECT_NE(Mapping::AoSoA(8, 2, 4), Mapping::AoSoA(8, 2, 8));
  Mapping a = Mapping::AoS(5, 3), b = Mapping::AoS(5, 3);
  a.Block = 4;
  b.Block = 8; // irrelevant for AoS
  EXPECT_EQ(a, b);
}

// --- views -------------------------------------------------------------------

TEST(LayoutView, ForEachRunCoversEveryTupleOnce)
{
  for (Kind k : {Kind::AoS, Kind::SoA, Kind::AoSoA})
  {
    const Mapping m = Mapping::Make(k, 11, 3, 4);
    std::vector<double> store(m.Slots(), 0.0);
    vp::layout::View<double> v(store.data(), m);
    for (std::size_t c = 0; c < 3; ++c)
      v.ForEachRun(c, [&](double *run, std::size_t t0, std::size_t count)
                   {
                     for (std::size_t i = 0; i < count; ++i)
                       run[i] += 1.0 + static_cast<double>(t0 + i);
                   });
    for (std::size_t c = 0; c < 3; ++c)
      for (std::size_t t = 0; t < 11; ++t)
        EXPECT_EQ(v(t, c), 1.0 + static_cast<double>(t));
  }
}

TEST(LayoutView, PartialRangeAndRunPtr)
{
  const Mapping m = Mapping::SoA(10, 2);
  std::vector<int> store(m.Slots(), 0);
  vp::layout::View<int> v(store.data(), m);
  v.ForEachRun(1, 3, 7, [](int *run, std::size_t, std::size_t count)
               {
                 for (std::size_t i = 0; i < count; ++i)
                   run[i] = 9;
               });
  for (std::size_t t = 0; t < 10; ++t)
    EXPECT_EQ(v(t, 1), (t >= 3 && t < 7) ? 9 : 0) << t;

  std::size_t count = 0;
  int *p = v.RunPtr(3, 1, &count);
  EXPECT_EQ(count, 7u); // SoA: to the end of the plane
  EXPECT_EQ(*p, 9);
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
  const std::size_t block = std::size_t(2) << (rng() % 6); // 2..64
  const Kind kinds[3] = {Kind::AoS, Kind::SoA, Kind::AoSoA};
  const Kind k1 = kinds[rng() % 3];
  const Kind k2 = kinds[rng() % 3];

  // the AoS reference
  const Mapping ref = Mapping::AoS(tuples, comps);
  std::vector<T> refStore(ref.Slots());
  for (std::size_t t = 0; t < tuples; ++t)
    for (std::size_t c = 0; c < comps; ++c)
      refStore[ref.Offset(t, c)] = PropValue<T>(t, c, seed);

  // AoS -> k1 -> k2 -> AoS, verifying by three access patterns
  const Mapping m1 = Mapping::Make(k1, tuples, comps, block);
  std::vector<T> s1(m1.Slots(), T(0));
  vp::layout::Reorder(refStore.data(), ref, s1.data(), m1);

  // pattern 1: direct Offset addressing
  for (std::size_t t = 0; t < tuples; ++t)
    for (std::size_t c = 0; c < comps; ++c)
      ASSERT_EQ(s1[m1.Offset(t, c)], PropValue<T>(t, c, seed))
        << "seed " << seed << " t " << t << " c " << c;

  const Mapping m2 = Mapping::Make(k2, tuples, comps, block);
  std::vector<T> s2(m2.Slots(), T(0));
  vp::layout::Reorder(s1.data(), m1, s2.data(), m2);

  // pattern 2: run iteration
  vp::layout::View<const T> v2(s2.data(), m2);
  for (std::size_t c = 0; c < comps; ++c)
    v2.ForEachRun(c, [&](const T *run, std::size_t t0, std::size_t count)
                  {
                    for (std::size_t i = 0; i < count; ++i)
                      ASSERT_EQ(run[i], PropValue<T>(t0 + i, c, seed))
                        << "seed " << seed;
                  });

  // pattern 3: back to AoS must be bit-identical to the reference
  std::vector<T> back(ref.Slots(), T(0));
  vp::layout::Reorder(s2.data(), m2, back.data(), ref);
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

  const Mapping blk = Mapping::AoSoA(n, comps, 8);
  buf.reorder(soa, blk);
  EXPECT_EQ(buf.size(), blk.Slots());
  for (std::size_t t = 0; t < n; ++t)
    for (std::size_t c = 0; c < comps; ++c)
      EXPECT_EQ(buf.data()[blk.Offset(t, c)], static_cast<double>(t * 10 + c));
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

TEST_F(LayoutTest, HdaAoSoAPaddingDoesNotInflateTupleCount)
{
  auto *a = svtkHAMRDoubleArray::New("v", 10, 2, svtkAllocator::malloc_,
                                    Kind::AoSoA, 4);
  EXPECT_EQ(a->GetNumberOfTuples(), 10u); // Slots() is 24, tuples stay 10
  EXPECT_EQ(a->GetBuffer().size(), 24u);
  EXPECT_EQ(a->GetLayoutBlock(), 4u);
  a->UnRegister();
}

TEST_F(LayoutTest, HdaConvertLayoutRoundTripsBitExact)
{
  auto *a = svtkHAMRDoubleArray::New("v", 33, 3, svtkAllocator::malloc_);
  for (std::size_t t = 0; t < 33; ++t)
    for (int c = 0; c < 3; ++c)
      a->SetVariantValue(t, c, std::sin(static_cast<double>(t * 3 + c)));
  const std::vector<double> ref = a->ToVector();

  for (Kind k : {Kind::SoA, Kind::AoSoA, Kind::AoS})
  {
    a->ConvertLayout(k, 8);
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
                                    Kind::AoSoA, 4);
  a->SetVariantValue(11, 1, 42.0);

  svtkHAMRDoubleArray *d = a->NewDeepCopy();
  EXPECT_EQ(d->GetLayout(), Kind::AoSoA);
  EXPECT_EQ(d->GetLayoutBlock(), 4u);
  EXPECT_EQ(d->GetNumberOfTuples(), 12u);
  EXPECT_EQ(d->GetVariantValue(11, 1), 42.0);
  d->UnRegister();

  auto *i = static_cast<svtkHAMRDoubleArray *>(a->NewInstance());
  EXPECT_EQ(i->GetLayout(), Kind::AoSoA);
  EXPECT_EQ(i->GetNumberOfTuples(), 0u);
  i->UnRegister();
  a->UnRegister();
}

TEST_F(LayoutTest, HdaViewIteratesDeclaredLayoutRuns)
{
  auto *a = svtkHAMRDoubleArray::New("v", 9, 2, svtkAllocator::malloc_,
                                    Kind::AoSoA, 4);
  vp::layout::View<double> v = a->GetView();
  std::size_t runs = 0;
  v.ForEachRun(0, [&](double *, std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs, 3u); // 4 + 4 + 1
  a->UnRegister();
}

// --- byte-plane transpose ----------------------------------------------------

TEST(LayoutPlanes, MatchesNaiveShuffleAndRoundTrips)
{
  std::mt19937_64 rng(7);
  for (std::size_t esize : {2u, 4u, 8u})
    for (std::size_t n : {1u, 7u, 255u, 256u, 257u, 5000u})
    {
      std::vector<std::uint8_t> src(esize * n);
      for (auto &b : src)
        b = static_cast<std::uint8_t>(rng());

      std::vector<std::uint8_t> naive(esize * n), blocked(esize * n);
      for (std::size_t b = 0; b < esize; ++b)
        for (std::size_t i = 0; i < n; ++i)
          naive[b * n + i] = src[i * esize + b];
      vp::layout::GatherPlanes(src.data(), esize, n, blocked.data());
      ASSERT_EQ(blocked, naive) << esize << "x" << n;

      std::vector<std::uint8_t> back(esize * n);
      vp::layout::ScatterPlanes(blocked.data(), esize, n, back.data());
      ASSERT_EQ(back, src) << esize << "x" << n;
    }
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
  EXPECT_GT(vp::layout::Stats().PlaneTransposes, 0u);
}

// --- configuration: env, XML, per-analysis ----------------------------------

TEST_F(LayoutTest, DefaultConfigReadsEnvironment)
{
  setenv("VP_LAYOUT", "aosoa16", 1);
  setenv("VP_SIMD", "1", 1);
  const vp::layout::LayoutConfig cfg = vp::layout::DefaultConfig();
  EXPECT_EQ(cfg.Default, Kind::AoSoA);
  EXPECT_EQ(cfg.Block, 16u);
  EXPECT_TRUE(cfg.Simd);
  unsetenv("VP_LAYOUT");
  unsetenv("VP_SIMD");
}

TEST_F(LayoutTest, ConfigureValidatesBlock)
{
  vp::layout::LayoutConfig cfg;
  cfg.Block = 1;
  EXPECT_THROW(vp::layout::Configure(cfg), std::invalid_argument);
  cfg.Block = 1 << 20;
  EXPECT_THROW(vp::layout::Configure(cfg), std::invalid_argument);
}

TEST_F(LayoutTest, ConfigurableAnalysisParsesLayoutElement)
{
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(
    "<sensei><layout default=\"soa\" block=\"8\" simd=\"1\"/></sensei>");
  const vp::layout::LayoutConfig cfg = vp::layout::GetConfig();
  EXPECT_EQ(cfg.Default, Kind::SoA);
  EXPECT_EQ(cfg.Block, 8u);
  EXPECT_TRUE(cfg.Simd);
  ca->UnRegister();
}

TEST_F(LayoutTest, EnvironmentWinsOverLayoutElement)
{
  setenv("VP_LAYOUT", "aos", 1);
  setenv("VP_SIMD", "0", 1);
  vp::layout::Configure(vp::layout::DefaultConfig());
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(
    "<sensei><layout default=\"soa\" simd=\"1\"/></sensei>");
  const vp::layout::LayoutConfig cfg = vp::layout::GetConfig();
  EXPECT_EQ(cfg.Default, Kind::AoS);
  EXPECT_FALSE(cfg.Simd);
  ca->UnRegister();
}

TEST_F(LayoutTest, ConfigurableAnalysisRejectsBadLayout)
{
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(
    ca->InitializeString("<sensei><layout default=\"zigzag\"/></sensei>"),
    std::runtime_error);
  ca->UnRegister();
  ca = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(
    ca->InitializeString(
      "<sensei><layout default=\"soa\" block=\"1\"/></sensei>"),
    std::runtime_error);
  ca->UnRegister();
}

TEST_F(LayoutTest, PerAnalysisLayoutOverride)
{
  sensei::DataBinning *b = sensei::DataBinning::New();
  EXPECT_FALSE(b->GetArrayLayoutSet());
  EXPECT_EQ(b->GetEffectiveLayout(), Kind::AoS); // process default

  vp::layout::LayoutConfig cfg;
  cfg.Default = Kind::SoA;
  vp::layout::Configure(cfg);
  EXPECT_EQ(b->GetEffectiveLayout(), Kind::SoA); // follows the default

  b->SetArrayLayout(Kind::AoSoA, 16);
  EXPECT_TRUE(b->GetArrayLayoutSet());
  EXPECT_EQ(b->GetEffectiveLayout(), Kind::AoSoA);
  EXPECT_EQ(b->GetEffectiveLayoutBlock(), 16u);
  b->Delete();
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
    // integer-valued: sums stay exact under any accumulation order
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

std::vector<double> GridValues(svtkImageData *img, const char *name)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  std::vector<double> out(a ? a->GetNumberOfTuples() : 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->GetVariantValue(i, 0);
  return out;
}

/// Two direct DataBinning steps on device 0 under the given execution
/// mode, graph setting, and layout hint; returns all grids concatenated.
std::vector<std::vector<double>> RunBinning(bool threads, bool graphOn,
                                            Kind layout)
{
  ResetPlatform();
  vp::exec::ExecConfig ec;
  ec.ExecMode = threads ? vp::exec::Mode::Threads : vp::exec::Mode::Serial;
  ec.Threads = threads ? 2 : 0;
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
  b->SetDeviceId(0);
  if (layout != Kind::AoS)
    b->SetArrayLayout(layout, 16);

  std::vector<std::vector<double>> out;
  for (int s = 0; s < 2; ++s)
  {
    svtkTable *t = MakeTable(3000, 90u + static_cast<unsigned>(s));
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

TEST_F(LayoutTest, BinningBitExactAcrossExecGraphAndLayoutMatrix)
{
  const auto baseline = RunBinning(false, false, Kind::AoS);
  ASSERT_FALSE(baseline.empty());
  for (bool threads : {false, true})
    for (bool graphOn : {false, true})
      for (Kind k : {Kind::AoS, Kind::SoA, Kind::AoSoA})
      {
        if (!threads && !graphOn && k == Kind::AoS)
          continue;
        const auto got = RunBinning(threads, graphOn, k);
        ASSERT_EQ(got.size(), baseline.size());
        for (std::size_t g = 0; g < got.size(); ++g)
          ASSERT_EQ(got[g], baseline[g])
            << "threads=" << threads << " graph=" << graphOn << " layout="
            << vp::layout::KindName(k) << " grid " << g;
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
