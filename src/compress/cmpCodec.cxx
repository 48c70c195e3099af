#include "cmpCodec.h"

#include "vpChecker.h"
#include "vpMemoryPool.h"
#include "vpPlatform.h"
#include "vpTypes.h"

#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace cmp
{

// --- names and sizes --------------------------------------------------------

std::size_t DTypeSize(DType t)
{
  switch (t)
  {
    case DType::U8:
      return 1;
    case DType::I32:
      return 4;
    case DType::I64:
      return 8;
    case DType::F32:
      return 4;
    case DType::F64:
      return 8;
  }
  throw std::invalid_argument("cmp::DTypeSize: unknown dtype");
}

const vp::knob::Spellings &CodecNames()
{
  static const vp::knob::Spellings names = {
    {"none", 0},         {"off", 0},          {"raw", 0},
    {"shuffle-rle", 1},  {"shuffle_rle", 1},  {"shuffle", 1},
    {"rle", 1},          {"delta-varint", 2}, {"delta_varint", 2},
    {"delta", 2},        {"quantize", 3},     {"quantizer", 3}};
  return names;
}

const char *CodecName(CodecId id)
{
  return vp::knob::NameOf(CodecNames(), static_cast<int>(id));
}

CodecId CodecIdFromName(const std::string &name)
{
  return vp::knob::FromName<CodecId>(CodecNames(), name, "cmp: unknown codec");
}

// --- process-wide configuration and stats -----------------------------------

namespace
{
std::mutex &StateMutex()
{
  static std::mutex m;
  return m;
}

Config &GlobalConfig()
{
  static Config cfg;
  return cfg;
}

CodecStats &GlobalStats()
{
  static CodecStats s;
  return s;
}

/// Relative host cost of one codec in units of a plain memcpy pass.
double CodecCostFactor(CodecId id)
{
  switch (id)
  {
    case CodecId::None:
      return 1.0;
    case CodecId::ShuffleRLE:
      return 2.0;
    case CodecId::DeltaVarint:
      return 1.5;
    case CodecId::Quantize:
      return 2.5;
  }
  return 1.0;
}
} // namespace

const vp::knob::Table<Config> &ConfigRows()
{
  using namespace vp::knob;
  static const Table<Config> rows({
    Bool<&Config::Enabled>("compress", "enabled").Implies("1"),
    Enum<&Config::Default, &Params::Codec>("compress", "codec", CodecNames()),
    Real<&Config::Default, &Params::ErrorBound>("compress", "error_bound", 0,
                                                kInf),
  });
  return rows;
}

void Configure(const Config &cfg)
{
  if (cfg.Default.Codec == CodecId::Quantize && !(cfg.Default.ErrorBound > 0.0))
    throw std::invalid_argument(
      "cmp::Configure: a quantize default requires error_bound > 0");
  std::lock_guard<std::mutex> lock(StateMutex());
  GlobalConfig() = cfg;
}

Config GetConfig()
{
  std::lock_guard<std::mutex> lock(StateMutex());
  return GlobalConfig();
}

Params DefaultRequest()
{
  const Config cfg = GetConfig();
  return cfg.Enabled ? cfg.Default : Params{CodecId::None};
}

CodecStats &CodecStats::operator+=(const CodecStats &o)
{
  this->EncodedChunks += o.EncodedChunks;
  this->DecodedChunks += o.DecodedChunks;
  this->Fallbacks += o.Fallbacks;
  this->BytesRaw += o.BytesRaw;
  this->BytesEncoded += o.BytesEncoded;
  this->DecodedRawBytes += o.DecodedRawBytes;
  this->EncodeSeconds += o.EncodeSeconds;
  this->DecodeSeconds += o.DecodeSeconds;
  return *this;
}

CodecStats Stats()
{
  std::lock_guard<std::mutex> lock(StateMutex());
  return GlobalStats();
}

void ResetStats()
{
  std::lock_guard<std::mutex> lock(StateMutex());
  GlobalStats() = CodecStats();
}

std::uint64_t Fnv1a(const void *data, std::size_t bytes) noexcept
{
  const auto *p = static_cast<const std::uint8_t *>(data);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < bytes; ++i)
  {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// --- negotiation -------------------------------------------------------------

Params Negotiate(const Params &requested, DType t)
{
  Params p = requested;
  if (p.Codec == CodecId::None)
    return p;
  switch (t)
  {
    case DType::I32:
    case DType::I64:
      if (p.Codec == CodecId::Quantize)
        p.Codec = CodecId::DeltaVarint;
      break;
    case DType::F32:
    case DType::F64:
      if (p.Codec == CodecId::DeltaVarint ||
          (p.Codec == CodecId::Quantize && !(p.ErrorBound > 0.0)))
        p.Codec = CodecId::ShuffleRLE;
      break;
    case DType::U8:
      p.Codec = CodecId::ShuffleRLE;
      break;
  }
  return p;
}

// --- pool-backed scratch -----------------------------------------------------

Scratch::Scratch(vp::Stream stream) : Stream_(std::move(stream))
{
}

Scratch::~Scratch()
{
  if (!this->Data_)
    return;
  try
  {
    vp::PoolManager::Get().Deallocate(this->Data_, this->Stream_);
  }
  catch (...)
  {
    // scratch release must not throw out of a destructor
  }
}

void Scratch::Reserve(std::size_t n)
{
  if (n <= this->Cap_)
    return;
  std::size_t cap = this->Cap_ ? this->Cap_ : 256;
  while (cap < n)
    cap *= 2;

  vp::PoolManager &pm = vp::PoolManager::Get();
  auto *grown = static_cast<std::uint8_t *>(pm.Allocate(
    vp::MemSpace::Host, vp::HostDevice, cap, vp::PmKind::None, this->Stream_));
  if (this->Size_)
    std::memcpy(grown, this->Data_, this->Size_);
  if (this->Data_)
    pm.Deallocate(this->Data_, this->Stream_);
  this->Data_ = grown;
  this->Cap_ = cap;
}

void Scratch::Resize(std::size_t n)
{
  this->Reserve(n);
  this->Size_ = n;
}

void Scratch::Append(const void *p, std::size_t n)
{
  if (!n)
    return;
  this->Reserve(this->Size_ + n);
  std::memcpy(this->Data_ + this->Size_, p, n);
  this->Size_ += n;
}

// --- shared coding primitives ------------------------------------------------

namespace
{
inline std::uint64_t ZigZagEncode(std::uint64_t u) noexcept
{
  return (u << 1) ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(u) >>
                                               63);
}

inline std::uint64_t ZigZagDecode(std::uint64_t z) noexcept
{
  return (z >> 1) ^ (0u - (z & 1u));
}

void PutVarint(Scratch &dst, std::uint64_t v)
{
  while (v >= 0x80)
  {
    dst.PushByte(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  dst.PushByte(static_cast<std::uint8_t>(v));
}

std::uint64_t GetVarint(const std::uint8_t *p, std::size_t size,
                        std::size_t &pos)
{
  std::uint64_t v = 0;
  int shift = 0;
  for (;;)
  {
    if (pos >= size)
      throw std::runtime_error("cmp: truncated varint stream");
    const std::uint8_t b = p[pos++];
    if (shift == 63 && (b & 0xFEu))
      throw std::runtime_error("cmp: varint overflows 64 bits");
    v |= std::uint64_t(b & 0x7Fu) << shift;
    if (!(b & 0x80u))
      return v;
    shift += 7;
  }
}

/// PackBits-style RLE: control c in [0,127] = c+1 literal bytes follow;
/// c in [128,255] = the next byte repeated (c-128)+3 times.
void RleEncode(const std::uint8_t *src, std::size_t n, Scratch &dst)
{
  std::size_t i = 0;
  while (i < n)
  {
    std::size_t run = 1;
    while (i + run < n && run < 130 && src[i + run] == src[i])
      ++run;
    if (run >= 3)
    {
      dst.PushByte(static_cast<std::uint8_t>(0x80u | (run - 3)));
      dst.PushByte(src[i]);
      i += run;
      continue;
    }
    std::size_t j = i;
    while (j < n && j - i < 128)
    {
      if (j + 2 < n && src[j] == src[j + 1] && src[j] == src[j + 2])
        break;
      ++j;
    }
    dst.PushByte(static_cast<std::uint8_t>(j - i - 1));
    dst.Append(src + i, j - i);
    i = j;
  }
}

/// Decode exactly `outBytes` bytes of one RLE segment, advancing `pos`.
void RleDecodeSegment(const std::uint8_t *p, std::size_t size,
                      std::size_t &pos, std::uint8_t *out,
                      std::size_t outBytes)
{
  std::size_t o = 0;
  while (o < outBytes)
  {
    if (pos >= size)
      throw std::runtime_error("cmp: truncated RLE stream");
    const std::uint8_t c = p[pos++];
    if (c & 0x80u)
    {
      const std::size_t run = std::size_t(c & 0x7Fu) + 3;
      if (pos >= size || o + run > outBytes)
        throw std::runtime_error("cmp: corrupt RLE stream");
      std::memset(out + o, p[pos++], run);
      o += run;
    }
    else
    {
      const std::size_t lit = std::size_t(c) + 1;
      if (lit > size - pos || o + lit > outBytes)
        throw std::runtime_error("cmp: corrupt RLE stream");
      std::memcpy(out + o, p + pos, lit);
      pos += lit;
      o += lit;
    }
  }
}

template <typename T>
void DeltaVarintEncodeT(const T *v, std::uint64_t count, Scratch &dst)
{
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i)
  {
    const std::uint64_t x =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(v[i]));
    PutVarint(dst, ZigZagEncode(x - prev));
    prev = x;
  }
}

template <typename T>
void DeltaVarintDecodeT(const std::uint8_t *p, std::size_t size,
                        std::uint64_t count, T *out)
{
  std::size_t pos = 0;
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i)
  {
    prev += ZigZagDecode(GetVarint(p, size, pos));
    out[i] = static_cast<T>(static_cast<std::int64_t>(prev));
  }
  if (pos != size)
    throw std::runtime_error("cmp: trailing bytes in varint stream");
}

// --- the codecs --------------------------------------------------------------

class NoneCodec : public Codec
{
public:
  CodecId Id() const override { return CodecId::None; }

  /// Nothing to encode: EncodeChunk stores the values itself, straight
  /// into the stream.
  bool Encode(const void *, DType, std::uint64_t, const Params &, Scratch &,
              std::uint8_t &flags) const override
  {
    flags = 0;
    return false;
  }

  void Decode(const std::uint8_t *payload, const ChunkInfo &info,
              void *dst) const override
  {
    if (info.RawBytes)
      std::memcpy(dst, payload, static_cast<std::size_t>(info.RawBytes));
  }
};

class ShuffleRleCodec : public Codec
{
public:
  CodecId Id() const override { return CodecId::ShuffleRLE; }

  bool Encode(const void *src, DType t, std::uint64_t count, const Params &,
              Scratch &dst, std::uint8_t &flags) const override
  {
    const std::size_t esize = DTypeSize(t);
    const std::size_t n = static_cast<std::size_t>(count);
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    dst.Clear();

    const bool shuffle = esize > 1 && n > 1;
    flags = shuffle ? 1 : 0;
    if (!shuffle)
    {
      RleEncode(bytes, n * esize, dst);
      return true;
    }

    Scratch plane; // pooled temporary for one gathered byte plane
    plane.Resize(n);
    for (std::size_t b = 0; b < esize; ++b)
    {
      std::uint8_t *pl = plane.Data();
      for (std::size_t i = 0; i < n; ++i)
        pl[i] = bytes[i * esize + b];
      RleEncode(pl, n, dst);
    }
    return true;
  }

  void Decode(const std::uint8_t *payload, const ChunkInfo &info,
              void *dstv) const override
  {
    auto *dst = static_cast<std::uint8_t *>(dstv);
    const std::size_t esize = DTypeSize(info.Type);
    const std::size_t n = static_cast<std::size_t>(info.Count);
    const std::size_t size = static_cast<std::size_t>(info.EncodedBytes);
    std::size_t pos = 0;

    if (!(info.Flags & 1u))
    {
      RleDecodeSegment(payload, size, pos, dst,
                       static_cast<std::size_t>(info.RawBytes));
    }
    else
    {
      Scratch plane;
      plane.Resize(n);
      for (std::size_t b = 0; b < esize; ++b)
      {
        RleDecodeSegment(payload, size, pos, plane.Data(), n);
        const std::uint8_t *pl = plane.Data();
        for (std::size_t i = 0; i < n; ++i)
          dst[i * esize + b] = pl[i];
      }
    }
    if (pos != size)
      throw std::runtime_error("cmp: trailing bytes in RLE stream");
  }
};

class DeltaVarintCodec : public Codec
{
public:
  CodecId Id() const override { return CodecId::DeltaVarint; }

  bool Encode(const void *src, DType t, std::uint64_t count, const Params &,
              Scratch &dst, std::uint8_t &flags) const override
  {
    flags = 0;
    if (t != DType::I32 && t != DType::I64)
      return false;
    dst.Clear();
    if (t == DType::I32)
      DeltaVarintEncodeT(static_cast<const std::int32_t *>(src), count, dst);
    else
      DeltaVarintEncodeT(static_cast<const std::int64_t *>(src), count, dst);
    return true;
  }

  void Decode(const std::uint8_t *payload, const ChunkInfo &info,
              void *dst) const override
  {
    const std::size_t size = static_cast<std::size_t>(info.EncodedBytes);
    if (info.Type == DType::I32)
      DeltaVarintDecodeT(payload, size, info.Count,
                         static_cast<std::int32_t *>(dst));
    else if (info.Type == DType::I64)
      DeltaVarintDecodeT(payload, size, info.Count,
                         static_cast<std::int64_t *>(dst));
    else
      throw std::runtime_error("cmp: delta-varint chunk with non-integer dtype");
  }
};

class QuantizeCodec : public Codec
{
public:
  CodecId Id() const override { return CodecId::Quantize; }

  bool Encode(const void *src, DType t, std::uint64_t count, const Params &p,
              Scratch &dst, std::uint8_t &flags) const override
  {
    flags = 0;
    if (!(p.ErrorBound > 0.0))
      return false;
    if (t == DType::F32)
      return EncodeT(static_cast<const float *>(src), count, p.ErrorBound,
                     dst);
    if (t == DType::F64)
      return EncodeT(static_cast<const double *>(src), count, p.ErrorBound,
                     dst);
    return false;
  }

  void Decode(const std::uint8_t *payload, const ChunkInfo &info,
              void *dst) const override
  {
    const double step = 2.0 * info.ErrorBound;
    if (!(step > 0.0) || !std::isfinite(step))
      throw std::runtime_error("cmp: quantize chunk without an error bound");
    if (info.Type == DType::F32)
      DecodeT(payload, info, static_cast<float *>(dst), step);
    else if (info.Type == DType::F64)
      DecodeT(payload, info, static_cast<double *>(dst), step);
    else
      throw std::runtime_error("cmp: quantize chunk with non-float dtype");
  }

private:
  template <typename T>
  static bool EncodeT(const T *v, std::uint64_t count, double eb, Scratch &dst)
  {
    dst.Clear();
    const double step = 2.0 * eb;
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < count; ++i)
    {
      const double x = static_cast<double>(v[i]);
      if (!std::isfinite(x))
        return false;
      const double scaled = x / step;
      if (!(std::fabs(scaled) < 4.0e18)) // llround domain guard
        return false;
      const std::int64_t q = std::llround(scaled);
      // verify the bound exactly as the decoder reconstructs, including
      // the cast back to the array's element type
      const double recon = static_cast<double>(
        static_cast<T>(static_cast<double>(q) * step));
      if (!(std::fabs(recon - x) <= eb))
        return false;
      const std::uint64_t u = static_cast<std::uint64_t>(q);
      PutVarint(dst, ZigZagEncode(u - prev));
      prev = u;
    }
    return true;
  }

  template <typename T>
  static void DecodeT(const std::uint8_t *p, const ChunkInfo &info, T *out,
                      double step)
  {
    const std::size_t size = static_cast<std::size_t>(info.EncodedBytes);
    std::size_t pos = 0;
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < info.Count; ++i)
    {
      prev += ZigZagDecode(GetVarint(p, size, pos));
      out[i] = static_cast<T>(
        static_cast<double>(static_cast<std::int64_t>(prev)) * step);
    }
    if (pos != size)
      throw std::runtime_error("cmp: trailing bytes in quantize stream");
  }
};
} // namespace

const Codec &FindCodec(CodecId id)
{
  static const NoneCodec none;
  static const ShuffleRleCodec shuffleRle;
  static const DeltaVarintCodec deltaVarint;
  static const QuantizeCodec quantize;
  switch (id)
  {
    case CodecId::None:
      return none;
    case CodecId::ShuffleRLE:
      return shuffleRle;
    case CodecId::DeltaVarint:
      return deltaVarint;
    case CodecId::Quantize:
      return quantize;
  }
  throw std::invalid_argument("cmp::FindCodec: unknown codec id");
}

// --- chunk encode / decode ---------------------------------------------------

ChunkInfo EncodeChunk(const void *data, DType t, std::uint64_t count,
                      const Params &p, std::vector<std::uint8_t> &out)
{
  const std::size_t esize = DTypeSize(t);
  const std::uint64_t rawBytes = count * esize;
  if (count && !data)
    throw std::invalid_argument("cmp::EncodeChunk: null data");
  if (count)
    vp::check::HostRead(data, static_cast<std::size_t>(rawBytes),
                        "cmp encode source");

  const Params negotiated = Negotiate(p, t);
  // sized once from the raw bytes: an encoding worth keeping is smaller,
  // and an encoding that outgrows the data is dropped, so a chunk takes
  // one host allocation instead of a doubling ladder from 256 B
  Scratch scratch;
  std::uint8_t flags = 0;
  CodecId used = negotiated.Codec;
  bool ok = false;
  if (used != CodecId::None)
  {
    if (rawBytes)
      scratch.Reserve(static_cast<std::size_t>(rawBytes));
    ok = FindCodec(used).Encode(data, t, count, negotiated, scratch, flags);
    if (ok && rawBytes && scratch.Size() >= rawBytes)
      ok = false; // the codec applied but did not shrink the data
    if (!ok && used != CodecId::ShuffleRLE)
    {
      used = CodecId::ShuffleRLE;
      ok = FindCodec(used).Encode(data, t, count, negotiated, scratch, flags);
      if (ok && rawBytes && scratch.Size() >= rawBytes)
        ok = false;
    }
  }
  if (!ok)
  {
    used = CodecId::None;
    flags = 0;
  }

  ChunkInfo info;
  info.Codec = used;
  info.Type = t;
  info.Flags = flags;
  info.Count = count;
  info.RawBytes = rawBytes;
  info.EncodedBytes = ok ? scratch.Size() : rawBytes;
  info.ErrorBound =
    used == CodecId::Quantize ? negotiated.ErrorBound : 0.0;

  const std::size_t at = out.size();
  out.resize(at + kChunkHeaderBytes +
             static_cast<std::size_t>(info.EncodedBytes));
  // codec none stores the values straight into the stream
  std::uint8_t *payload = out.data() + at + kChunkHeaderBytes;
  const std::size_t payloadBytes = static_cast<std::size_t>(info.EncodedBytes);
  if (payloadBytes)
    std::memcpy(payload, ok ? scratch.Data() : data, payloadBytes);
  info.Checksum = Fnv1a(payload, payloadBytes);

  std::uint8_t *h = out.data() + at;
  h[0] = 'S';
  h[1] = 'C';
  h[2] = 'M';
  h[3] = 'P';
  h[4] = 1;
  h[5] = static_cast<std::uint8_t>(used);
  h[6] = static_cast<std::uint8_t>(t);
  h[7] = info.Flags;
  StoreLE64(h + 8, info.Count);
  StoreLE64(h + 16, info.RawBytes);
  StoreLE64(h + 24, info.EncodedBytes);
  StoreLE64(h + 32, info.Checksum);
  std::uint64_t ebBits = 0;
  std::memcpy(&ebBits, &info.ErrorBound, sizeof(ebBits));
  StoreLE64(h + 40, ebBits);

  // a stored chunk is one pass over the raw bytes; an encoded one reads
  // them and writes its encoding
  vp::Platform &plat = vp::Platform::Get();
  const double seconds =
    static_cast<double>(ok ? rawBytes + info.EncodedBytes : rawBytes) /
    plat.Config().Cost.H2HBandwidth * CodecCostFactor(used);
  plat.HostCompute(seconds);

  {
    std::lock_guard<std::mutex> lock(StateMutex());
    CodecStats &s = GlobalStats();
    s.EncodedChunks += 1;
    if (used != p.Codec)
      s.Fallbacks += 1;
    s.BytesRaw += rawBytes;
    s.BytesEncoded += info.EncodedBytes;
    s.EncodeSeconds += seconds;
  }
  return info;
}

ChunkInfo PeekHeader(const std::uint8_t *bytes, std::size_t size)
{
  if (!bytes || size < kChunkHeaderBytes)
    throw std::runtime_error("cmp: truncated chunk header");
  if (bytes[0] != 'S' || bytes[1] != 'C' || bytes[2] != 'M' ||
      bytes[3] != 'P')
    throw std::runtime_error("cmp: bad chunk magic");
  if (bytes[4] != 1)
    throw std::runtime_error("cmp: unsupported chunk version");
  if (bytes[5] > static_cast<std::uint8_t>(CodecId::Quantize))
    throw std::runtime_error("cmp: unknown codec id");
  if (bytes[6] > static_cast<std::uint8_t>(DType::F64))
    throw std::runtime_error("cmp: unknown dtype");

  ChunkInfo info;
  info.Codec = static_cast<CodecId>(bytes[5]);
  info.Type = static_cast<DType>(bytes[6]);
  info.Flags = bytes[7];
  info.Count = LoadLE64(bytes + 8);
  info.RawBytes = LoadLE64(bytes + 16);
  info.EncodedBytes = LoadLE64(bytes + 24);
  info.Checksum = LoadLE64(bytes + 32);
  const std::uint64_t ebBits = LoadLE64(bytes + 40);
  std::memcpy(&info.ErrorBound, &ebBits, sizeof(info.ErrorBound));

  if (info.Count > (std::uint64_t(1) << 56))
    throw std::runtime_error("cmp: implausible chunk element count");
  if (info.RawBytes != info.Count * DTypeSize(info.Type))
    throw std::runtime_error("cmp: chunk raw size does not match its count");
  if (info.EncodedBytes > size - kChunkHeaderBytes)
    throw std::runtime_error("cmp: chunk payload extends past the buffer");
  // the most raw bytes the payload can decode to, so a decoder may size
  // its destination from the header (RawBytes < 2^59, no overflow)
  const bool producible =
    info.Codec == CodecId::None         ? info.RawBytes == info.EncodedBytes
    : info.Codec == CodecId::ShuffleRLE ? (info.RawBytes + 64) / 65 <=
                                            info.EncodedBytes
                                        : info.Count <= info.EncodedBytes;
  if (!producible)
    throw std::runtime_error(
      "cmp: chunk raw size exceeds what its payload can decode to");
  return info;
}

std::size_t DecodeChunk(const std::uint8_t *bytes, std::size_t size,
                        void *dst, std::size_t dstBytes, ChunkInfo *infoOut)
{
  const ChunkInfo info = PeekHeader(bytes, size);
  if (dstBytes != info.RawBytes)
    throw std::invalid_argument(
      "cmp::DecodeChunk: destination size does not match the chunk");
  if (info.RawBytes && !dst)
    throw std::invalid_argument("cmp::DecodeChunk: null destination");

  const std::uint8_t *payload = bytes + kChunkHeaderBytes;
  if (Fnv1a(payload, static_cast<std::size_t>(info.EncodedBytes)) !=
      info.Checksum)
    throw std::runtime_error("cmp: chunk checksum mismatch");

  FindCodec(info.Codec).Decode(payload, info, dst);
  if (info.RawBytes)
    vp::check::HostWrite(dst, static_cast<std::size_t>(info.RawBytes),
                         "cmp decode destination");

  vp::Platform &plat = vp::Platform::Get();
  const double seconds =
    static_cast<double>(info.RawBytes + info.EncodedBytes) /
    plat.Config().Cost.H2HBandwidth * CodecCostFactor(info.Codec);
  plat.HostCompute(seconds);

  {
    std::lock_guard<std::mutex> lock(StateMutex());
    CodecStats &s = GlobalStats();
    s.DecodedChunks += 1;
    s.DecodedRawBytes += info.RawBytes;
    s.DecodeSeconds += seconds;
  }

  if (infoOut)
    *infoOut = info;
  return kChunkHeaderBytes + static_cast<std::size_t>(info.EncodedBytes);
}

} // namespace cmp
