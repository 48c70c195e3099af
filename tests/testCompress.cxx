// Tests for the array compression subsystem (src/compress) and its
// integrations: per-codec round trips across dtypes and edge shapes,
// the quantizer's error bound (and its lossless fallback on NaN/Inf),
// chunk-header validation against corruption, the compressed table wire
// format (including a handcrafted little-endian stream), the sio blob
// container, the compressed in transit path (binning equality with an
// uncompressed run), async pipeline payload metering, and the
// <compress> XML configuration.

#include "cmpCodec.h"
#include "minimpi.h"
#include "schedPipeline.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataBinning.h"
#include "senseiInTransit.h"
#include "senseiPosthocIO.h"
#include "senseiSerialization.h"
#include "sio.h"
#include "svtkAOSDataArray.h"
#include "vpChecker.h"
#include "vpMemoryPool.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace
{
void ResetAll()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  cmp::Configure(cmp::Config());
  cmp::ResetStats();
  vp::ThisClock().Set(0.0);
}

/// Encode + decode one array; checks the chunk is fully consumed.
template <typename T>
std::vector<T> RoundTrip(const std::vector<T> &in, cmp::DType dt,
                         const cmp::Params &p, cmp::ChunkInfo *info = nullptr)
{
  std::vector<std::uint8_t> buf;
  const cmp::ChunkInfo enc = cmp::EncodeChunk(in.data(), dt, in.size(), p, buf);
  if (info)
    *info = enc;
  EXPECT_EQ(enc.Count, in.size());
  EXPECT_EQ(enc.RawBytes, in.size() * sizeof(T));
  EXPECT_EQ(buf.size(), cmp::kChunkHeaderBytes + enc.EncodedBytes);

  std::vector<T> out(in.size());
  cmp::ChunkInfo dec;
  const std::size_t used =
    cmp::DecodeChunk(buf.data(), buf.size(), out.data(),
                     out.size() * sizeof(T), &dec);
  EXPECT_EQ(used, buf.size());
  EXPECT_EQ(dec.Codec, enc.Codec);
  return out;
}

/// Bit-exact comparison (NaN-safe).
template <typename T>
void ExpectBitEqual(const std::vector<T> &a, const std::vector<T> &b)
{
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty())
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0);
}

template <typename T>
std::vector<T> RandomInts(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_int_distribution<long long> u(-1000000, 1000000);
  std::vector<T> v(n);
  for (auto &x : v)
    x = static_cast<T>(u(gen));
  return v;
}

std::vector<double> RandomDoubles(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto &x : v)
    x = u(gen);
  return v;
}

svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  svtkTable *t = svtkTable::New();
  for (const char *name : {"x", "y", "m"})
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, n, 1);
    for (std::size_t i = 0; i < n; ++i)
      c->SetVariantValue(i, 0, name[0] == 'm' ? 1.0 : u(gen));
    t->AddColumn(c);
    c->Delete();
  }
  return t;
}
} // namespace

// --- lossless codec round trips ---------------------------------------------

TEST(Codec, ShuffleRleRoundTripsEveryDtypeAndShape)
{
  ResetAll();
  cmp::Params p;
  p.Codec = cmp::CodecId::ShuffleRLE;

  for (const std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(7),
                              std::size_t(1024)})
  {
    ExpectBitEqual(RandomDoubles(n, 1),
                   RoundTrip(RandomDoubles(n, 1), cmp::DType::F64, p));
    {
      std::vector<float> f(n);
      for (std::size_t i = 0; i < n; ++i)
        f[i] = static_cast<float>(i) * 0.25f - 3.0f;
      ExpectBitEqual(f, RoundTrip(f, cmp::DType::F32, p));
    }
    ExpectBitEqual(RandomInts<int>(n, 2),
                   RoundTrip(RandomInts<int>(n, 2), cmp::DType::I32, p));
    ExpectBitEqual(RandomInts<long long>(n, 3),
                   RoundTrip(RandomInts<long long>(n, 3), cmp::DType::I64, p));
    {
      std::vector<unsigned char> u(n);
      for (std::size_t i = 0; i < n; ++i)
        u[i] = static_cast<unsigned char>(i * 37);
      ExpectBitEqual(u, RoundTrip(u, cmp::DType::U8, p));
    }
  }
}

TEST(Codec, AllEqualArraysCompressWell)
{
  ResetAll();
  cmp::Params p;
  p.Codec = cmp::CodecId::ShuffleRLE;

  const std::vector<double> same(4096, 42.5);
  cmp::ChunkInfo info;
  ExpectBitEqual(same, RoundTrip(same, cmp::DType::F64, p, &info));
  EXPECT_EQ(info.Codec, cmp::CodecId::ShuffleRLE);
  // 32 KiB of identical doubles must shrink dramatically
  EXPECT_LT(info.EncodedBytes, info.RawBytes / 10);
}

TEST(Codec, ShuffleRleHandlesNanAndInf)
{
  ResetAll();
  cmp::Params p;
  p.Codec = cmp::CodecId::ShuffleRLE;
  std::vector<double> v = {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 1.0e308};
  ExpectBitEqual(v, RoundTrip(v, cmp::DType::F64, p));
}

TEST(Codec, DeltaVarintRoundTripsIntegers)
{
  ResetAll();
  cmp::Params p;
  p.Codec = cmp::CodecId::DeltaVarint;

  for (const std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(513)})
  {
    ExpectBitEqual(RandomInts<int>(n, 4),
                   RoundTrip(RandomInts<int>(n, 4), cmp::DType::I32, p));
    ExpectBitEqual(
      RandomInts<long long>(n, 5),
      RoundTrip(RandomInts<long long>(n, 5), cmp::DType::I64, p));
  }

  // extremes: wrapping deltas must be exact
  std::vector<long long> extremes = {
    std::numeric_limits<long long>::min(),
    std::numeric_limits<long long>::max(), 0, -1, 1,
    std::numeric_limits<long long>::min() + 1};
  ExpectBitEqual(extremes, RoundTrip(extremes, cmp::DType::I64, p));

  // monotone sequences (the index-column case) compress far below raw
  std::vector<long long> mono(8192);
  for (std::size_t i = 0; i < mono.size(); ++i)
    mono[i] = static_cast<long long>(1000000 + 3 * i);
  cmp::ChunkInfo info;
  ExpectBitEqual(mono, RoundTrip(mono, cmp::DType::I64, p, &info));
  EXPECT_EQ(info.Codec, cmp::CodecId::DeltaVarint);
  EXPECT_LT(info.EncodedBytes, info.RawBytes / 4);
}

// --- quantizer ---------------------------------------------------------------

TEST(Codec, QuantizeRespectsErrorBound)
{
  ResetAll();
  cmp::Params p;
  p.Codec = cmp::CodecId::Quantize;
  p.ErrorBound = 1.0e-3;

  const std::vector<double> v = RandomDoubles(4096, 6);
  cmp::ChunkInfo info;
  const std::vector<double> back = RoundTrip(v, cmp::DType::F64, p, &info);
  EXPECT_EQ(info.Codec, cmp::CodecId::Quantize);
  EXPECT_DOUBLE_EQ(info.ErrorBound, 1.0e-3);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_LE(std::fabs(back[i] - v[i]), p.ErrorBound) << "element " << i;
  // smooth data in [-1,1] at eb 1e-3 must beat raw f64 by a wide margin
  EXPECT_LT(info.EncodedBytes, info.RawBytes / 2);

  // float32 too (the decode-side cast is part of the verified bound)
  std::vector<float> f(1024);
  for (std::size_t i = 0; i < f.size(); ++i)
    f[i] = std::sin(static_cast<float>(i) * 0.01f);
  const std::vector<float> fback = RoundTrip(f, cmp::DType::F32, p);
  for (std::size_t i = 0; i < f.size(); ++i)
    EXPECT_LE(std::fabs(static_cast<double>(fback[i]) -
                        static_cast<double>(f[i])),
              p.ErrorBound);
}

TEST(Codec, QuantizeFallsBackLosslesslyOnNanInf)
{
  ResetAll();
  cmp::Params p;
  p.Codec = cmp::CodecId::Quantize;
  p.ErrorBound = 1.0e-3;

  std::vector<double> v = RandomDoubles(256, 7);
  v[17] = std::numeric_limits<double>::quiet_NaN();
  v[99] = std::numeric_limits<double>::infinity();

  cmp::CodecStats before = cmp::Stats();
  cmp::ChunkInfo info;
  const std::vector<double> back = RoundTrip(v, cmp::DType::F64, p, &info);
  EXPECT_NE(info.Codec, cmp::CodecId::Quantize);
  ExpectBitEqual(v, back); // the fallback is bit exact, NaN included
  EXPECT_GT(cmp::Stats().Fallbacks, before.Fallbacks);
}

TEST(Codec, QuantizeFallsBackOnHugeMagnitudes)
{
  ResetAll();
  cmp::Params p;
  p.Codec = cmp::CodecId::Quantize;
  p.ErrorBound = 1.0e-12;
  std::vector<double> v = {1.0e300, -1.0e300, 0.0};
  cmp::ChunkInfo info;
  ExpectBitEqual(v, RoundTrip(v, cmp::DType::F64, p, &info));
  EXPECT_NE(info.Codec, cmp::CodecId::Quantize);
}

// --- negotiation -------------------------------------------------------------

TEST(Codec, NegotiatePicksApplicableCodecs)
{
  ResetAll();
  cmp::Params q;
  q.Codec = cmp::CodecId::Quantize;
  q.ErrorBound = 1.0e-3;

  // quantize on integers degrades to delta-varint
  EXPECT_EQ(cmp::Negotiate(q, cmp::DType::I32).Codec,
            cmp::CodecId::DeltaVarint);
  EXPECT_EQ(cmp::Negotiate(q, cmp::DType::I64).Codec,
            cmp::CodecId::DeltaVarint);
  // quantize on floats is honoured (with a bound)
  EXPECT_EQ(cmp::Negotiate(q, cmp::DType::F64).Codec, cmp::CodecId::Quantize);
  // ...but not without a bound
  q.ErrorBound = 0.0;
  EXPECT_EQ(cmp::Negotiate(q, cmp::DType::F64).Codec,
            cmp::CodecId::ShuffleRLE);

  cmp::Params d;
  d.Codec = cmp::CodecId::DeltaVarint;
  EXPECT_EQ(cmp::Negotiate(d, cmp::DType::F64).Codec,
            cmp::CodecId::ShuffleRLE);
  EXPECT_EQ(cmp::Negotiate(d, cmp::DType::U8).Codec,
            cmp::CodecId::ShuffleRLE);

  cmp::Params none;
  none.Codec = cmp::CodecId::None;
  EXPECT_EQ(cmp::Negotiate(none, cmp::DType::F64).Codec, cmp::CodecId::None);
}

TEST(Codec, NamesRoundTrip)
{
  EXPECT_EQ(cmp::CodecIdFromName("none"), cmp::CodecId::None);
  EXPECT_EQ(cmp::CodecIdFromName("shuffle-rle"), cmp::CodecId::ShuffleRLE);
  EXPECT_EQ(cmp::CodecIdFromName("delta_varint"), cmp::CodecId::DeltaVarint);
  EXPECT_EQ(cmp::CodecIdFromName("quantize"), cmp::CodecId::Quantize);
  for (const cmp::CodecId id :
       {cmp::CodecId::None, cmp::CodecId::ShuffleRLE,
        cmp::CodecId::DeltaVarint, cmp::CodecId::Quantize})
    EXPECT_EQ(cmp::CodecIdFromName(cmp::CodecName(id)), id);
  EXPECT_THROW(cmp::CodecIdFromName("zstd"), std::invalid_argument);
}

// --- chunk validation --------------------------------------------------------

TEST(Chunk, CorruptionIsDetected)
{
  ResetAll();
  cmp::Params p;
  const std::vector<double> v = RandomDoubles(128, 8);
  std::vector<std::uint8_t> buf;
  cmp::EncodeChunk(v.data(), cmp::DType::F64, v.size(), p, buf);

  std::vector<double> out(v.size());
  const std::size_t outBytes = out.size() * sizeof(double);

  // truncated header
  EXPECT_THROW(cmp::PeekHeader(buf.data(), 10), std::runtime_error);
  // bad magic
  {
    auto bad = buf;
    bad[0] = 'X';
    EXPECT_THROW(cmp::DecodeChunk(bad.data(), bad.size(), out.data(),
                                  outBytes),
                 std::runtime_error);
  }
  // payload extends past the buffer
  {
    auto bad = buf;
    bad.resize(bad.size() - 1);
    EXPECT_THROW(cmp::DecodeChunk(bad.data(), bad.size(), out.data(),
                                  outBytes),
                 std::runtime_error);
  }
  // flipped payload byte -> checksum mismatch
  {
    auto bad = buf;
    bad[cmp::kChunkHeaderBytes + 3] ^= 0x40;
    EXPECT_THROW(cmp::DecodeChunk(bad.data(), bad.size(), out.data(),
                                  outBytes),
                 std::runtime_error);
  }
  // destination size mismatch (a caller error, not stream corruption)
  EXPECT_THROW(cmp::DecodeChunk(buf.data(), buf.size(), out.data(),
                                outBytes - 8),
               std::invalid_argument);
}

TEST(Chunk, HeaderRejectsRawSizesThePayloadCannotProduce)
{
  // the most raw bytes each codec decodes from its payload: none exactly
  // the payload, delta-varint and quantize one value per byte, and
  // shuffle-rle 65 bytes per byte (a 2-byte run token yields 130)
  ResetAll();
  auto check = [](const auto &values, cmp::DType dt, const cmp::Params &p,
                  cmp::CodecId expect, std::uint64_t maxCount)
  {
    SCOPED_TRACE(cmp::CodecName(expect));
    std::vector<std::uint8_t> buf;
    const cmp::ChunkInfo info =
      cmp::EncodeChunk(values.data(), dt, values.size(), p, buf);
    ASSERT_EQ(info.Codec, expect);
    const std::uint64_t most = maxCount ? maxCount : info.EncodedBytes;
    for (const std::uint64_t count : {most, most + 1})
    {
      cmp::StoreLE64(buf.data() + 8, count);
      cmp::StoreLE64(buf.data() + 16, count * cmp::DTypeSize(dt));
      if (count == most)
        EXPECT_NO_THROW(cmp::PeekHeader(buf.data(), buf.size()));
      else
        EXPECT_THROW(cmp::PeekHeader(buf.data(), buf.size()),
                     std::runtime_error);
    }
  };

  const std::vector<double> doubles = RandomDoubles(64, 3);
  check(doubles, cmp::DType::F64, {cmp::CodecId::None}, cmp::CodecId::None,
        doubles.size());
  check(doubles, cmp::DType::F64, {cmp::CodecId::Quantize, 1e-3},
        cmp::CodecId::Quantize, 0);
  check(std::vector<std::int64_t>(64, 1000), cmp::DType::I64,
        {cmp::CodecId::DeltaVarint}, cmp::CodecId::DeltaVarint, 0);
  // 1000 zero bytes: seven 130-byte runs and one of 90, 16 payload bytes
  check(std::vector<std::uint8_t>(1000, 0), cmp::DType::U8,
        {cmp::CodecId::ShuffleRLE}, cmp::CodecId::ShuffleRLE, 65 * 16);
}

TEST(Chunk, OneHostAllocationPerEncodeWithThePoolOff)
{
  // the scratch is sized once from the chunk's raw bytes: from an empty
  // pool a 64 Ki-value chunk takes one host allocation per encode, where
  // growing from 256 B by doubling took about ten
  ResetAll();
  vp::PoolManager::Get().Configure(vp::PoolConfig{});
  const std::vector<double> reals = RandomDoubles(65536, 21u);
  const std::vector<std::int64_t> ints = RandomInts<std::int64_t>(65536, 22u);
  cmp::Params quantize;
  quantize.Codec = cmp::CodecId::Quantize;
  quantize.ErrorBound = 1e-3;
  cmp::Params varint;
  varint.Codec = cmp::CodecId::DeltaVarint;
  cmp::Params raw;
  raw.Codec = cmp::CodecId::None;
  const struct
  {
    const void *Data;
    cmp::DType Type;
    cmp::Params Codec;
  } cases[] = {{reals.data(), cmp::DType::F64, quantize},
               {ints.data(), cmp::DType::I64, varint},
               {reals.data(), cmp::DType::F64, raw}};
  for (const auto &c : cases)
  {
    vp::PoolManager::Get().ReleaseAll();
    vp::Platform::Get().Stats().Reset();
    std::vector<std::uint8_t> out;
    const cmp::ChunkInfo info =
      cmp::EncodeChunk(c.Data, c.Type, 65536, c.Codec, out);
    EXPECT_EQ(info.Codec, c.Codec.Codec);
    EXPECT_LE(vp::Platform::Get().Stats().Allocations(vp::MemSpace::Host), 1u)
      << cmp::CodecName(c.Codec.Codec);
  }
  vp::PoolManager::Get().ReleaseAll();
}

TEST(Chunk, NoneStoresTheValuesInOnePass)
{
  // codec none writes every dtype's values straight after the chunk
  // header, byte for byte the stream spelled out here (appended to what
  // `out` already holds), allocates no scratch, and is priced as one
  // pass over the raw bytes
  ResetAll();
  vp::PoolManager::Get().Configure(vp::PoolConfig{});
  const std::vector<double> f64 = RandomDoubles(1001, 31u);
  const std::vector<float> f32(f64.begin(), f64.end());
  const std::vector<std::int64_t> i64 = RandomInts<std::int64_t>(1001, 32u);
  const std::vector<std::int32_t> i32 = RandomInts<std::int32_t>(1001, 33u);
  std::vector<std::uint8_t> u8(1001);
  for (std::size_t i = 0; i < u8.size(); ++i)
    u8[i] = static_cast<std::uint8_t>(i * 7);
  const struct
  {
    const void *Data;
    cmp::DType Type;
  } cases[] = {{u8.data(), cmp::DType::U8},
               {i32.data(), cmp::DType::I32},
               {i64.data(), cmp::DType::I64},
               {f32.data(), cmp::DType::F32},
               {f64.data(), cmp::DType::F64}};
  const double h2h = vp::Platform::Get().Config().Cost.H2HBandwidth;
  for (const auto &c : cases)
  {
    const std::size_t raw = 1001 * cmp::DTypeSize(c.Type);
    const auto *bytes = static_cast<const std::uint8_t *>(c.Data);
    std::vector<std::uint8_t> want = {0xAB, 0xCD};
    for (std::uint8_t b : {'S', 'C', 'M', 'P'})
      want.push_back(b);
    want.push_back(1);
    want.push_back(static_cast<std::uint8_t>(cmp::CodecId::None));
    want.push_back(static_cast<std::uint8_t>(c.Type));
    want.push_back(0);
    cmp::PutLE64(want, 1001);
    cmp::PutLE64(want, raw);
    cmp::PutLE64(want, raw);
    cmp::PutLE64(want, cmp::Fnv1a(bytes, raw));
    cmp::PutLE64(want, 0);
    want.insert(want.end(), bytes, bytes + raw);

    vp::Platform::Get().Stats().Reset();
    const double before = cmp::Stats().EncodeSeconds;
    std::vector<std::uint8_t> out = {0xAB, 0xCD};
    cmp::EncodeChunk(c.Data, c.Type, 1001, {cmp::CodecId::None}, out);
    EXPECT_EQ(out, want) << "dtype " << static_cast<int>(c.Type);
    EXPECT_EQ(vp::Platform::Get().Stats().Allocations(vp::MemSpace::Host), 0u)
      << "dtype " << static_cast<int>(c.Type);
    EXPECT_DOUBLE_EQ(cmp::Stats().EncodeSeconds - before,
                     static_cast<double>(raw) / h2h)
      << "dtype " << static_cast<int>(c.Type);
  }
}

TEST(Chunk, StatsAccumulate)
{
  ResetAll();
  cmp::Params p;
  const std::vector<double> v = RandomDoubles(512, 9);
  std::vector<std::uint8_t> buf;
  cmp::EncodeChunk(v.data(), cmp::DType::F64, v.size(), p, buf);
  std::vector<double> out(v.size());
  cmp::DecodeChunk(buf.data(), buf.size(), out.data(),
                   out.size() * sizeof(double));

  const cmp::CodecStats s = cmp::Stats();
  EXPECT_EQ(s.EncodedChunks, 1u);
  EXPECT_EQ(s.DecodedChunks, 1u);
  EXPECT_EQ(s.BytesRaw, v.size() * sizeof(double));
  EXPECT_GT(s.BytesEncoded, 0u);
  EXPECT_GT(s.EncodeSeconds, 0.0);
  EXPECT_GT(s.DecodeSeconds, 0.0);
  EXPECT_GT(s.Ratio(), 0.0);
}

TEST(Chunk, CleanUnderChecker)
{
  ResetAll();
  vp::check::CheckConfig cc;
  cc.Enabled = true;
  vp::check::Configure(cc);
  vp::check::Reset();
  {
    cmp::Params p;
    p.Codec = cmp::CodecId::Quantize;
    p.ErrorBound = 1.0e-4;
    const std::vector<double> v = RandomDoubles(2048, 10);
    std::vector<std::uint8_t> buf;
    cmp::EncodeChunk(v.data(), cmp::DType::F64, v.size(), p, buf);
    std::vector<double> out(v.size());
    cmp::DecodeChunk(buf.data(), buf.size(), out.data(),
                     out.size() * sizeof(double));
  }
  const vp::check::Report report = vp::check::Finalize();
  EXPECT_EQ(report.Total(), 0u) << report.Summary();
  cc.Enabled = false;
  vp::check::Configure(cc);
  vp::check::Reset();
}

// --- compressed table wire format -------------------------------------------

TEST(TableWire, CompressedRoundTripPreservesTypes)
{
  ResetAll();
  svtkTable *t = svtkTable::New();
  {
    svtkAOSDoubleArray *d = svtkAOSDoubleArray::New("pos", 64, 3);
    for (std::size_t i = 0; i < 64; ++i)
      for (int j = 0; j < 3; ++j)
        d->SetVariantValue(i, j, 0.5 * static_cast<double>(i) + j);
    t->AddColumn(d);
    d->Delete();
    svtkAOSLongArray *id = svtkAOSLongArray::New("id", 64, 1);
    for (std::size_t i = 0; i < 64; ++i)
      id->SetVariantValue(i, 0, static_cast<double>(1000 + i));
    t->AddColumn(id);
    id->Delete();
  }

  cmp::Params p; // lossless default
  const std::vector<std::uint8_t> wire =
    sensei::SerializeTableCompressed(t, p);
  svtkTable *back = sensei::DeserializeTableCompressed(wire);

  ASSERT_EQ(back->GetNumberOfColumns(), 2);
  EXPECT_EQ(back->GetColumn(0)->GetScalarType(), svtkScalarType::Float64);
  EXPECT_EQ(back->GetColumn(1)->GetScalarType(), svtkScalarType::Int64);
  EXPECT_EQ(back->GetColumn(0)->GetNumberOfComponents(), 3);
  for (std::size_t i = 0; i < 64; ++i)
  {
    for (int j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(back->GetColumn(0)->GetVariantValue(i, j),
                       t->GetColumn(0)->GetVariantValue(i, j));
    EXPECT_DOUBLE_EQ(back->GetColumn(1)->GetVariantValue(i, 0),
                     t->GetColumn(1)->GetVariantValue(i, 0));
  }
  back->UnRegister();
  t->Delete();
}

TEST(TableWire, CompressedShrinksBinningPayload)
{
  ResetAll();
  svtkTable *t = MakeTable(20000, 11);
  const std::size_t rawWire =
    sensei::SerializeTableCompressed(t, {cmp::CodecId::None}).size();

  cmp::Params p;
  p.Codec = cmp::CodecId::Quantize;
  p.ErrorBound = 1.0e-4;
  const std::size_t cmpWire = sensei::SerializeTableCompressed(t, p).size();
  EXPECT_LT(cmpWire * 2, rawWire) << "expected >= 2x payload reduction";
  t->Delete();
}

TEST(TableWire, MalformedCompressedStreamThrows)
{
  ResetAll();
  svtkTable *t = MakeTable(50, 12);
  cmp::Params p;
  std::vector<std::uint8_t> wire = sensei::SerializeTableCompressed(t, p);
  t->Delete();

  {
    auto bad = wire;
    bad[0] = 'Z';
    EXPECT_THROW(sensei::DeserializeTableCompressed(bad),
                 std::runtime_error);
  }
  {
    auto bad = wire;
    bad.resize(bad.size() / 2);
    EXPECT_THROW(sensei::DeserializeTableCompressed(bad),
                 std::runtime_error);
  }
  {
    auto bad = wire;
    bad[bad.size() - 5] ^= 0x10; // corrupt last chunk's payload
    EXPECT_THROW(sensei::DeserializeTableCompressed(bad),
                 std::runtime_error);
  }
}

TEST(TableWire, HandcraftedLittleEndianStreamDecodes)
{
  // an uncompressed stream (codec none) built field by field, the way a
  // writer with 32-bit size_t on a little-endian machine would produce
  // it; decoding must not depend on this host's widths
  ResetAll();
  std::vector<std::uint8_t> values;
  for (const double v : {1.5, -2.25})
  {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    cmp::PutLE64(values, bits);
  }
  std::vector<std::uint8_t> wire = {'S', 'T', 'B', 'C', 1, 0, 0, 0};
  cmp::PutLE64(wire, 1); // one column
  cmp::PutLE64(wire, 3); // name length
  wire.insert(wire.end(), {'a', 'b', 'c'});
  cmp::PutLE64(wire, 2); // tuples
  cmp::PutLE64(wire, 1); // components
  wire.insert(wire.end(), {'S', 'C', 'M', 'P', 1,
                           static_cast<std::uint8_t>(cmp::CodecId::None),
                           static_cast<std::uint8_t>(cmp::DType::F64), 0});
  cmp::PutLE64(wire, 2);             // element count
  cmp::PutLE64(wire, values.size()); // raw bytes
  cmp::PutLE64(wire, values.size()); // encoded bytes
  cmp::PutLE64(wire, cmp::Fnv1a(values.data(), values.size()));
  cmp::PutLE64(wire, 0); // error bound
  wire.insert(wire.end(), values.begin(), values.end());

  svtkTable *back = sensei::DeserializeTableCompressed(wire);
  ASSERT_EQ(back->GetNumberOfColumns(), 1);
  EXPECT_EQ(back->GetColumn(0)->GetName(), "abc");
  EXPECT_EQ(back->GetColumn(0)->GetScalarType(), svtkScalarType::Float64);
  EXPECT_DOUBLE_EQ(back->GetColumn(0)->GetVariantValue(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(back->GetColumn(0)->GetVariantValue(1, 0), -2.25);

  // and this host's writer produces exactly these bytes
  EXPECT_EQ(sensei::SerializeTableCompressed(back, {cmp::CodecId::None}),
            wire);
  back->UnRegister();
}

TEST(TableWire, HostileChunkCountsAreRejectedBeforeAllocating)
{
  // 91-byte streams whose one column claims 2^27 doubles (1 GiB) or 2^40
  // (8 TiB) behind a 2-byte shuffle-rle payload with a valid checksum:
  // the chunk header check rejects both before any column is allocated
  ResetAll();
  for (const int log2Count : {27, 40})
  {
    SCOPED_TRACE(log2Count);
    const std::uint64_t count = std::uint64_t(1) << log2Count;
    const std::uint8_t payload[2] = {0xFF, 0}; // a run of 130 zeros
    std::vector<std::uint8_t> wire = {'S', 'T', 'B', 'C', 1, 0, 0, 0};
    cmp::PutLE64(wire, 1); // columns
    cmp::PutLE64(wire, 1); // name length
    wire.push_back('x');
    cmp::PutLE64(wire, count); // tuples
    cmp::PutLE64(wire, 1);     // components
    wire.insert(wire.end(),
                {'S', 'C', 'M', 'P', 1,
                 static_cast<std::uint8_t>(cmp::CodecId::ShuffleRLE),
                 static_cast<std::uint8_t>(cmp::DType::F64), 1});
    cmp::PutLE64(wire, count);
    cmp::PutLE64(wire, count * sizeof(double));
    cmp::PutLE64(wire, sizeof(payload));
    cmp::PutLE64(wire, cmp::Fnv1a(payload, sizeof(payload)));
    cmp::PutLE64(wire, 0); // error bound
    wire.insert(wire.end(), payload, payload + sizeof(payload));
    ASSERT_EQ(wire.size(), 91u);

    try
    {
      sensei::DeserializeTableCompressed(wire)->UnRegister();
      ADD_FAILURE() << "a hostile stream decoded";
    }
    catch (const std::runtime_error &e)
    {
      EXPECT_NE(std::string(e.what()).find("exceeds what its payload"),
                std::string::npos)
        << e.what();
    }
  }
}

// --- quantized binning -------------------------------------------------------

TEST(QuantizedBinning, HistogramMatchesWhenBoundBelowHalfBinWidth)
{
  ResetAll();
  // 16 bins over [-1,1]: width 0.125. Values sit near bin centers
  // (jitter 0.04), so every value is >= 0.0225 from any edge; with
  // eb = 0.01 < width/2 the quantized value cannot cross a bin edge and
  // the histogram must match the unquantized one exactly.
  const double eb = 0.01;
  std::mt19937_64 gen(13);
  std::uniform_int_distribution<int> bin(0, 15);
  std::uniform_real_distribution<double> jit(-0.04, 0.04);

  svtkTable *t = svtkTable::New();
  for (const char *name : {"x", "y", "m"})
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, 3000, 1);
    for (std::size_t i = 0; i < 3000; ++i)
    {
      const double center = -1.0 + (bin(gen) + 0.5) * 0.125;
      c->SetVariantValue(i, 0, name[0] == 'm' ? 1.0 : center + jit(gen));
    }
    t->AddColumn(c);
    c->Delete();
  }

  auto binIt = [](svtkTable *table)
  {
    sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
    da->SetTable(table);
    sensei::DataBinning *b = sensei::DataBinning::New();
    b->SetMeshName("bodies");
    b->SetAxes({"x", "y"});
    b->SetResolution({16});
    b->SetRange(0, -1, 1);
    b->SetRange(1, -1, 1);
    b->AddOperation("m", sensei::BinningOp::Sum);
    b->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
    EXPECT_TRUE(b->Execute(da));
    svtkImageData *img = b->GetLastResult();
    const svtkDataArray *g = img->GetPointData()->GetArray("m_sum");
    std::vector<double> out(g->GetNumberOfTuples());
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = g->GetVariantValue(i, 0);
    img->UnRegister();
    b->Delete();
    da->ReleaseData();
    da->Delete();
    return out;
  };

  const std::vector<double> reference = binIt(t);

  cmp::Params p;
  p.Codec = cmp::CodecId::Quantize;
  p.ErrorBound = eb;
  svtkTable *quantized =
    sensei::DeserializeTableCompressed(sensei::SerializeTableCompressed(t, p));
  const std::vector<double> got = binIt(quantized);
  quantized->UnRegister();
  t->Delete();

  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_DOUBLE_EQ(got[i], reference[i]) << "bin " << i;
}

// --- sio blob container ------------------------------------------------------

TEST(Blob, RoundTripAndCorruptionChecks)
{
  ResetAll();
  const std::string path = testing::TempDir() + "/cmp_blob_test.sbin";
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  sio::WriteBlob(path, payload);
  EXPECT_EQ(sio::ReadBlob(path), payload);

  // empty payload
  sio::WriteBlob(path, std::vector<std::uint8_t>{});
  EXPECT_TRUE(sio::ReadBlob(path).empty());

  // truncation: declared length no longer matches the file size
  sio::WriteBlob(path, payload);
  {
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
#ifdef _WIN32
    ASSERT_EQ(_chsize(_fileno(f), 24 + 5), 0);
#else
    ASSERT_EQ(ftruncate(fileno(f), 24 + 5), 0);
#endif
    std::fclose(f);
  }
  EXPECT_THROW(sio::ReadBlob(path), std::runtime_error);

  // corruption: flip one payload byte, length still right
  sio::WriteBlob(path, payload);
  {
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 24 + 2, SEEK_SET);
    const char x = 0x7f;
    std::fwrite(&x, 1, 1, f);
    std::fclose(f);
  }
  EXPECT_THROW(sio::ReadBlob(path), std::runtime_error);

  // not a blob at all
  sio::WriteSeries(path, {"a"}, {{1.0}});
  EXPECT_THROW(sio::ReadBlob(path), std::runtime_error);
  std::remove(path.c_str());
}

// --- posthoc SBIN ------------------------------------------------------------

TEST(PosthocSBIN, WritesReadableCompressedSnapshots)
{
  ResetAll();
  svtkTable *t = MakeTable(400, 14);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("table");
  da->SetTable(t);

  sensei::PosthocIO *io = sensei::PosthocIO::New();
  io->SetOutputDir(testing::TempDir());
  io->SetPrefix("cmp_sbin");
  io->SetFormat(sensei::PosthocIO::Format::SBIN);
  cmp::Config on;
  on.Enabled = true;
  on.Default.Codec = cmp::CodecId::Quantize;
  on.Default.ErrorBound = 1.0e-5;
  cmp::Configure(on);
  io->SetAsynchronous(true);

  da->SetDataTimeStep(0);
  EXPECT_TRUE(io->Execute(da));
  EXPECT_EQ(io->Finalize(), 0);
  EXPECT_EQ(io->GetWriteCount(), 1);
  io->Delete();

  const std::string path = testing::TempDir() + "/cmp_sbin_r0_s0.sbin";
  svtkTable *back = sensei::DeserializeTableCompressed(sio::ReadBlob(path));
  ASSERT_EQ(back->GetNumberOfColumns(), 3);
  ASSERT_EQ(back->GetNumberOfRows(), 400u);
  for (std::size_t i = 0; i < 400; ++i)
    EXPECT_NEAR(back->GetColumn(0)->GetVariantValue(i, 0),
                t->GetColumn(0)->GetVariantValue(i, 0), 1.0e-5);
  back->UnRegister();
  std::remove(path.c_str());
  cmp::Configure(cmp::Config());

  t->Delete();
  da->ReleaseData();
  da->Delete();
}

// --- pipeline metering -------------------------------------------------------

TEST(PipelineMetering, RecordsRawAndEncodedPayloadBytes)
{
  ResetAll();
  sched::Configure(sched::SchedConfig());
  sched::BoundedPipeline pipe;
  pipe.Submit([] {}, 100, 800); // compressed payload: 800 raw -> 100 queued
  pipe.Submit([] {}, 50);       // uncompressed: raw == encoded
  pipe.Drain();

  const sched::PipelineStats s = pipe.Stats();
  EXPECT_EQ(s.PayloadEncodedBytes, 150u);
  EXPECT_EQ(s.PayloadRawBytes, 850u);
  EXPECT_EQ(s.Executed, 2u);
}

// --- in transit --------------------------------------------------------------

TEST(InTransitCompressed, BinningMatchesUncompressedRun)
{
  ResetAll();
  const int senders = 2;
  const int endpoints = 1;
  const std::size_t rows = 800;

  auto run = [&](bool compressed)
  {
    std::vector<double> got;
    minimpi::Run(senders + endpoints,
                 [&](minimpi::Communicator &world)
                 {
                   const sensei::InTransitLayout layout(world.Size(),
                                                        endpoints);
                   const bool isEp = layout.IsEndpoint(world.Rank());
                   minimpi::Communicator group = world.Split(isEp ? 1 : 0);

                   if (!isEp)
                   {
                     sensei::InTransitSender sender(&world, layout, "bodies");
                     if (compressed)
                     {
                       cmp::Params p;
                       p.Codec = cmp::CodecId::ShuffleRLE; // lossless
                       sender.SetCompression(p);
                     }
                     sensei::TableAdaptor *da =
                       sensei::TableAdaptor::New("bodies");
                     svtkTable *mine = MakeTable(rows, 40 + world.Rank());
                     da->SetTable(mine);
                     mine->Delete();
                     da->SetDataTimeStep(0);
                     EXPECT_TRUE(sender.Send(da));
                     sender.Close();
                     da->ReleaseData();
                     da->Delete();
                     return;
                   }

                   sensei::DataBinning *b = sensei::DataBinning::New();
                   b->SetMeshName("bodies");
                   b->SetAxes({"x", "y"});
                   b->SetResolution({16});
                   b->SetRange(0, -1, 1);
                   b->SetRange(1, -1, 1);
                   b->AddOperation("m", sensei::BinningOp::Sum);
                   b->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);

                   sensei::InTransitEndpoint ep(&world, &group, layout,
                                                "bodies");
                   EXPECT_EQ(ep.Run(b), 1);

                   svtkImageData *img = b->GetLastResult();
                   const svtkDataArray *g =
                     img->GetPointData()->GetArray("m_sum");
                   got.resize(g->GetNumberOfTuples());
                   for (std::size_t i = 0; i < got.size(); ++i)
                     got[i] = g->GetVariantValue(i, 0);
                   img->UnRegister();
                   b->Delete();
                 });
    return got;
  };

  const std::vector<double> plain = run(false);
  const std::vector<double> packed = run(true);
  ASSERT_EQ(plain.size(), packed.size());
  ASSERT_FALSE(plain.empty());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_DOUBLE_EQ(packed[i], plain[i]) << "bin " << i;
}

TEST(InTransitCompressed, ChunkedFramesSurviveSmallMessageLimit)
{
  ResetAll();
  // force many chunks per frame: every table frame here is ~19 KiB, so
  // a 512-byte limit splits each into dozens of chunks on one tag
  const std::size_t oldLimit = minimpi::Communicator::GetMaxMessageBytes();
  minimpi::Communicator::SetMaxMessageBytes(512);

  long steps = -1;
  minimpi::Run(2,
               [&](minimpi::Communicator &world)
               {
                 const sensei::InTransitLayout layout(2, 1);
                 const bool isEp = layout.IsEndpoint(world.Rank());
                 minimpi::Communicator group = world.Split(isEp ? 1 : 0);
                 if (!isEp)
                 {
                   sensei::InTransitSender sender(&world, layout, "bodies");
                   sensei::TableAdaptor *da =
                     sensei::TableAdaptor::New("bodies");
                   svtkTable *mine = MakeTable(800, 77);
                   da->SetTable(mine);
                   mine->Delete();
                   for (long s = 0; s < 2; ++s)
                   {
                     da->SetDataTimeStep(s);
                     EXPECT_TRUE(sender.Send(da));
                   }
                   sender.Close();
                   da->ReleaseData();
                   da->Delete();
                   return;
                 }

                 sensei::DataBinning *b = sensei::DataBinning::New();
                 b->SetMeshName("bodies");
                 b->SetAxes({"x", "y"});
                 b->SetResolution({16});
                 b->SetRange(0, -1, 1);
                 b->SetRange(1, -1, 1);
                 b->AddOperation("m", sensei::BinningOp::Sum);
                 b->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
                 sensei::InTransitEndpoint ep(&world, &group, layout,
                                              "bodies");
                 steps = ep.Run(b);
                 b->Delete();
               });

  minimpi::Communicator::SetMaxMessageBytes(oldLimit);
  EXPECT_EQ(steps, 2);
}

// --- XML configuration -------------------------------------------------------

TEST(CompressXml, GlobalElementConfiguresDefaults)
{
  ResetAll();
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(
    "<sensei>"
    "  <compress codec=\"quantize\" error_bound=\"0.001\"/>"
    "  <analysis type=\"histogram\" column=\"x\" bins=\"8\"/>"
    "</sensei>");

  const cmp::Config cfg = cmp::GetConfig();
  EXPECT_TRUE(cfg.Enabled);
  EXPECT_EQ(cfg.Default.Codec, cmp::CodecId::Quantize);
  EXPECT_DOUBLE_EQ(cfg.Default.ErrorBound, 0.001);

  // the integrated paths request the global default
  EXPECT_EQ(cmp::DefaultRequest().Codec, cmp::CodecId::Quantize);
  EXPECT_DOUBLE_EQ(cmp::DefaultRequest().ErrorBound, 0.001);
  ca->UnRegister();

  // and `none` while compression is off
  cmp::Configure(cmp::Config());
  EXPECT_EQ(cmp::DefaultRequest().Codec, cmp::CodecId::None);
}

TEST(CompressXml, InvalidConfigurationsThrow)
{
  ResetAll();
  sensei::ConfigurableAnalysis *a = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(a->InitializeString("<sensei><compress codec=\"zstd\"/>"
                                   "</sensei>"),
               std::runtime_error);
  a->UnRegister();
  sensei::ConfigurableAnalysis *b = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(
    b->InitializeString("<sensei><compress codec=\"quantize\"/></sensei>"),
    std::runtime_error);
  b->UnRegister();
  sensei::ConfigurableAnalysis *c = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(
    c->InitializeString("<sensei><service codec=\"quantize\"/></sensei>"),
    std::runtime_error);
  c->UnRegister();
  sensei::ResetConfig({"service"});
  cmp::Configure(cmp::Config());
}

TEST(CompressXml, PosthocSbinFormatParses)
{
  ResetAll();
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(
    "<sensei>"
    "  <analysis type=\"posthoc_io\" format=\"sbin\" dir=\".\"/>"
    "</sensei>");
  EXPECT_NE(dynamic_cast<sensei::PosthocIO *>(ca->GetAnalysis(0)), nullptr);
  ca->UnRegister();
}
