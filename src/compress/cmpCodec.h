#ifndef cmpCodec_h
#define cmpCodec_h

/// @file cmpCodec.h
/// Stream-ordered array compression for the in situ data paths. At 24M
/// bodies x 90 binnings per step, bytes moved — off node (in transit),
/// across threads (asynchronous deep copies), and to disk (PosthocIO) —
/// is the dominant cost the scheduler can only route around, not shrink.
/// This subsystem shrinks it: a pluggable cmp::Codec interface encoding
/// typed arrays into pool-backed, stream-ordered scratch buffers, three
/// codecs chosen per array dtype, and a self-describing chunk format so
/// any consumer (wire, file, queue) can decode a chunk in isolation.
///
/// Codecs:
///  * `shuffle-rle`   — byte-plane shuffle + PackBits-style RLE. Lossless,
///                      applicable to every dtype; the general fallback.
///  * `delta-varint`  — per-element delta, zigzag, LEB128 varint. Lossless,
///                      integer arrays only (index/coordinate columns).
///  * `quantize`      — error-bounded uniform scalar quantizer for floats:
///                      q = round(v / (2*eb)), reconstruct v' = q * 2*eb,
///                      so |v - v'| <= eb. The quantized integers are
///                      delta+zigzag+varint coded. Safe for binning when
///                      eb is below half the bin width. The encoder
///                      verifies the bound on every value (including the
///                      float32 cast on the decode side) and falls back
///                      to a lossless codec when it cannot hold (NaN/Inf,
///                      overflow, pathological rounding).
///  * `none`          — raw bytes behind the chunk header (the identity
///                      codec every fallback chain terminates in).
///
/// Chunk format (all fields little endian, independent of host width):
///
///   off  0  u8[4]  magic "SCMP"
///   off  4  u8     version (1)
///   off  5  u8     codec id actually used (CodecId)
///   off  6  u8     dtype (DType)
///   off  7  u8     flags (bit 0: byte-shuffle applied)
///   off  8  u64    element count
///   off 16  u64    raw bytes (count * element size)
///   off 24  u64    encoded payload bytes that follow the header
///   off 32  u64    FNV-1a 64 checksum of the encoded payload
///   off 40  f64    error bound (0 for lossless codecs)
///
/// EncodeChunk negotiates: the requested codec is tried first; if it is
/// inapplicable to the dtype, cannot hold its bound, or does not shrink
/// the data, it falls back shuffle-rle -> none and the header records
/// what was actually used, so DecodeChunk never needs the request.
/// Encode/decode charge virtual host-compute time and register their
/// buffer touches with the race/lifetime checker (VP_CHECK=1).

#include "vpKnob.h"
#include "vpStream.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cmp
{

/// Codec identifiers as stored in the chunk header.
enum class CodecId : std::uint8_t
{
  None = 0,       ///< raw bytes behind the header
  ShuffleRLE = 1, ///< byte-plane shuffle + run-length encoding
  DeltaVarint = 2, ///< delta + zigzag + LEB128 varint (integers)
  Quantize = 3    ///< error-bounded uniform quantizer (floats)
};

/// Element types as stored in the chunk header.
enum class DType : std::uint8_t
{
  U8 = 0,
  I32 = 1,
  I64 = 2,
  F32 = 3,
  F64 = 4
};

/// Size in bytes of one element of `t`.
std::size_t DTypeSize(DType t);

/// Stable lower-case codec name ("none", "shuffle-rle", ...).
const char *CodecName(CodecId id);

/// The spellings of CodecId.
const vp::knob::Spellings &CodecNames();

/// Parse a codec name ("none"/"off", "shuffle-rle"/"shuffle_rle"/"rle",
/// "delta-varint"/"delta_varint", "quantize"). Throws
/// std::invalid_argument on unknown names.
CodecId CodecIdFromName(const std::string &name);

/// Per-chunk encoding request.
struct Params
{
  CodecId Codec = CodecId::ShuffleRLE;
  double ErrorBound = 0.0; ///< quantize: max absolute reconstruction error
};

/// Process-wide compression configuration (the `<compress>` XML element).
struct Config
{
  bool Enabled = false; ///< compress the integrated data paths by default
  Params Default;       ///< codec the integrated paths request when enabled
};

/// The `<compress>` rows (a bare element means enabled; no variables).
const vp::knob::Table<Config> &ConfigRows();

/// Replace the process-wide configuration (validated: a `quantize`
/// default requires ErrorBound > 0).
void Configure(const Config &cfg);

/// The active configuration.
Config GetConfig();

/// The codec the integrated paths (posthoc sbin snapshots, in transit
/// frames) request: the configured default when compression is enabled,
/// otherwise `none`.
Params DefaultRequest();

/// Pick the codec actually attempted for an array of dtype `t`: the
/// request when applicable, otherwise the nearest applicable codec
/// (quantize on integers -> delta-varint; delta-varint or an unbounded
/// quantize on floats -> shuffle-rle; anything but none on u8 ->
/// shuffle-rle). `none` is always honoured.
Params Negotiate(const Params &requested, DType t);

/// Decoded view of one chunk header.
struct ChunkInfo
{
  CodecId Codec = CodecId::None;
  DType Type = DType::U8;
  std::uint8_t Flags = 0;
  std::uint64_t Count = 0;
  std::uint64_t RawBytes = 0;
  std::uint64_t EncodedBytes = 0;
  std::uint64_t Checksum = 0;
  double ErrorBound = 0.0;
};

/// Fixed size of the self-describing chunk header.
constexpr std::size_t kChunkHeaderBytes = 48;

/// Growable byte buffer backed by the stream-ordered memory pool: codec
/// working storage lives in pooled host blocks (recycled across chunks,
/// visible to the race/lifetime checker) rather than transient heap
/// allocations. Not thread safe; one Scratch per encoding thread.
class Scratch
{
public:
  explicit Scratch(vp::Stream stream = vp::Stream());
  ~Scratch();

  Scratch(const Scratch &) = delete;
  Scratch &operator=(const Scratch &) = delete;

  std::uint8_t *Data() noexcept { return this->Data_; }
  const std::uint8_t *Data() const noexcept { return this->Data_; }
  std::size_t Size() const noexcept { return this->Size_; }
  std::size_t Capacity() const noexcept { return this->Cap_; }

  /// Forget the contents, keep the capacity.
  void Clear() noexcept { this->Size_ = 0; }

  /// Grow/shrink the in-use size; growth beyond capacity reallocates
  /// (doubling) and preserves the prefix.
  void Resize(std::size_t n);

  /// Ensure capacity without changing the size.
  void Reserve(std::size_t n);

  void PushByte(std::uint8_t b)
  {
    if (this->Size_ == this->Cap_)
      this->Reserve(this->Size_ + 1);
    this->Data_[this->Size_++] = b;
  }

  void Append(const void *p, std::size_t n);

private:
  vp::Stream Stream_;
  std::uint8_t *Data_ = nullptr;
  std::size_t Size_ = 0;
  std::size_t Cap_ = 0;
};

/// One compression algorithm. Implementations are stateless singletons;
/// obtain them through FindCodec.
class Codec
{
public:
  virtual ~Codec() = default;

  virtual CodecId Id() const = 0;

  /// Encode `count` elements of dtype `t` from `src` into `dst`
  /// (replacing its contents). Returns false when the codec is
  /// inapplicable to this data (wrong dtype, unsatisfiable error bound);
  /// the caller then falls back. `flags` receives the header flag bits.
  virtual bool Encode(const void *src, DType t, std::uint64_t count,
                      const Params &p, Scratch &dst,
                      std::uint8_t &flags) const = 0;

  /// Decode `info.EncodedBytes` payload bytes at `payload` into `dst`
  /// (exactly info.RawBytes bytes), for a header PeekHeader accepted.
  /// Throws std::runtime_error on corrupt streams.
  virtual void Decode(const std::uint8_t *payload, const ChunkInfo &info,
                      void *dst) const = 0;
};

/// The codec registered under `id`. Throws std::invalid_argument for ids
/// not in CodecId.
const Codec &FindCodec(CodecId id);

/// Encode one array as a self-describing chunk appended to `out`,
/// negotiating codec fallbacks (see file comment). Returns the header of
/// the chunk as written. Charges virtual host-compute time and updates
/// the global CodecStats.
ChunkInfo EncodeChunk(const void *data, DType t, std::uint64_t count,
                      const Params &p, std::vector<std::uint8_t> &out);

/// Validate and read a chunk header at `bytes` without decoding. Throws
/// std::runtime_error on truncated or malformed headers (bad magic,
/// unknown codec/dtype, size mismatches, payload past `size`), and on a
/// raw size the codec cannot produce from the payload (`none`: raw ==
/// encoded; delta-varint and quantize: count <= encoded, a value takes
/// at least one varint byte; shuffle-rle: raw <= 65 x encoded, a 2-byte
/// run token yields at most 130 bytes), so a decoder may size its
/// destination from an accepted header.
ChunkInfo PeekHeader(const std::uint8_t *bytes, std::size_t size);

/// Decode the chunk at `bytes` into `dst` (which must hold exactly the
/// chunk's RawBytes — pass `dstBytes` for validation). Verifies the
/// checksum. Returns the total bytes consumed (header + payload); the
/// header is also returned through `info` when non-null. Throws
/// std::runtime_error on any corruption.
std::size_t DecodeChunk(const std::uint8_t *bytes, std::size_t size,
                        void *dst, std::size_t dstBytes,
                        ChunkInfo *info = nullptr);

/// Process-wide codec counters (thread safe).
struct CodecStats
{
  std::uint64_t EncodedChunks = 0; ///< chunks produced by EncodeChunk
  std::uint64_t DecodedChunks = 0; ///< chunks consumed by DecodeChunk
  std::uint64_t Fallbacks = 0; ///< encodes that fell back from the request
  std::uint64_t BytesRaw = 0;      ///< raw bytes in to the encoder
  std::uint64_t BytesEncoded = 0;  ///< encoded payload bytes out (no headers)
  std::uint64_t DecodedRawBytes = 0; ///< raw bytes produced by the decoder
  double EncodeSeconds = 0.0; ///< virtual host seconds spent encoding
  double DecodeSeconds = 0.0; ///< virtual host seconds spent decoding

  /// Raw / encoded (0 when nothing was encoded).
  double Ratio() const
  {
    return this->BytesEncoded ? static_cast<double>(this->BytesRaw) /
                                  static_cast<double>(this->BytesEncoded)
                              : 0.0;
  }

  CodecStats &operator+=(const CodecStats &o);
};

/// Snapshot of the process-wide counters.
CodecStats Stats();

/// Zero the process-wide counters.
void ResetStats();

/// FNV-1a 64-bit hash of `bytes` — the chunk and file checksum.
std::uint64_t Fnv1a(const void *data, std::size_t bytes) noexcept;

// --- little-endian field helpers -------------------------------------------
// Exported for the consumers of the chunk format (wire serialization,
// file containers) so every on-the-wire integer is explicit-width and
// explicit-endian regardless of the host.

inline void StoreLE16(std::uint8_t *p, std::uint16_t v) noexcept
{
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void StoreLE32(std::uint8_t *p, std::uint32_t v) noexcept
{
  for (int i = 0; i < 4; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void StoreLE64(std::uint8_t *p, std::uint64_t v) noexcept
{
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint16_t LoadLE16(const std::uint8_t *p) noexcept
{
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t(p[1]) << 8));
}

inline std::uint32_t LoadLE32(const std::uint8_t *p) noexcept
{
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t LoadLE64(const std::uint8_t *p) noexcept
{
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

inline void PutLE64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
  const std::size_t at = out.size();
  out.resize(at + 8);
  StoreLE64(out.data() + at, v);
}

} // namespace cmp

#endif
