#ifndef svcWire_h
#define svcWire_h

/// @file svcWire.h
/// The service wire protocol. Every logical message on a service
/// connection is a *frame* — a fixed 48-byte header followed by a
/// payload — shipped across the ring boundary in minimpi's chunked
/// format (16-byte chunk header + chunks), so the same reassembly rules
/// and the same failure modes (short read = missing chunks) apply on
/// both transports.
///
/// Frame header, little endian:
///
///     off  0  u8[4]  magic "SVCF"
///     off  4  u8     protocol version (1)
///     off  5  u8     frame kind (FrameKind)
///     off  6  u16    reserved (0)
///     off  8  u32    session id (0 until a Welcome assigns one)
///     off 12  u32    flags (bit 0: payload is cmp-compressed)
///     off 16  u64    simulation step
///     off 24  f64    sender's real-time send stamp (seconds)
///     off 32  u64    payload bytes
///     off 40  u64    raw (pre-compression) payload bytes
///
/// Control payloads (Hello/Welcome) are themselves little-endian
/// structs defined here; Data payloads are opaque to the service (the
/// sensei glue puts serialized tables in them).
///
/// Welcome payload, little endian:
///
///     off  0  u32    session id
///     off  4  u8     codec id (cmp::CodecId)
///     off  5  u8     use compression (0/1)
///     off  6  u8     backpressure (sched::Backpressure)
///     off  7  u8[5]  reserved (0)
///     off 12  f64    codec error bound
///     off 20  u64    queue depth
///     off 28  u32    heartbeat interval (ms)
///     off 32  u32    granted column count, then per column a u32
///                    length and the name bytes (optional)
///
/// A Welcome that ends at byte 32 grants every column.

#include "cmpCodec.h"
#include "schedPipeline.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace svc
{

constexpr std::uint8_t kProtocolVersion = 1;
constexpr std::size_t kFrameHeaderBytes = 48;
constexpr std::uint32_t kFrameFlagCompressed = 1u << 0;

/// What a frame means.
enum class FrameKind : std::uint8_t
{
  Hello = 0,     ///< client -> server: open a session (HelloInfo payload)
  Welcome = 1,   ///< server -> client: session granted (WelcomeInfo payload)
  Reject = 2,    ///< server -> client: session refused (reason string)
  Data = 3,      ///< client -> server: one analysis frame
  Heartbeat = 4, ///< client -> server: liveness while idle
  Goodbye = 5,   ///< client -> server: graceful leave
  Steer = 6,     ///< client -> server: steering command (control plane)
  Push = 7,      ///< server -> client: pushed data (e.g. a rendered frame)
  HeartbeatAck = 8 ///< server -> client: heartbeat echo (RTT measurement)
};

/// Stable name for a frame kind (diagnostics).
const char *FrameKindName(FrameKind k);

/// Decoded frame header.
struct FrameHeader
{
  FrameKind Kind = FrameKind::Data;
  std::uint32_t Session = 0;
  std::uint32_t Flags = 0;
  std::uint64_t Step = 0;
  double SendTime = 0.0; ///< real-clock seconds at the sender
  std::uint64_t PayloadBytes = 0;
  std::uint64_t RawBytes = 0; ///< pre-compression size of the payload

  /// Server-side annotation, never on the wire: the mesh name the
  /// session negotiated in its Hello, attached by the dispatcher when
  /// the frame is queued. Frames of a session that has since closed
  /// still carry the right name when a worker finally executes them.
  std::string Mesh;
};

/// Append the 48-byte encoding of `h` to `out`.
void EncodeFrameHeader(const FrameHeader &h, std::vector<std::uint8_t> &out);

/// Decode a header from `bytes` (throws std::runtime_error on bad
/// magic/version/size).
FrameHeader DecodeFrameHeader(const std::uint8_t *bytes, std::size_t size);

/// Hello payload: what the client wants.
struct HelloInfo
{
  std::uint8_t Protocol = kProtocolVersion;
  cmp::Params Codec;    ///< requested frame codec
  bool WantCompression = false;
  std::string MeshName; ///< mesh the frames carry
};

/// Welcome payload: what the server granted.
struct WelcomeInfo
{
  std::uint32_t Session = 0;
  cmp::Params Codec; ///< codec the session must use
  bool UseCompression = false;
  long QueueDepth = 0;
  sched::Backpressure Pressure = sched::Backpressure::Block;
  int HeartbeatMs = 0; ///< interval the client should beat at
  /// The columns of the Hello's mesh the service reads, the only ones a
  /// data frame needs to carry; std::nullopt grants every column.
  std::optional<std::vector<std::string>> Columns;
};

/// The decoders throw std::runtime_error on a truncated payload, an
/// out-of-range codec id or backpressure value, or a column count the
/// remaining bytes cannot hold (checked before anything is reserved).
std::vector<std::uint8_t> EncodeHello(const HelloInfo &h);
HelloInfo DecodeHello(const std::uint8_t *bytes, std::size_t size);

std::vector<std::uint8_t> EncodeWelcome(const WelcomeInfo &w);
WelcomeInfo DecodeWelcome(const std::uint8_t *bytes, std::size_t size);

/// One complete frame off the wire.
struct Frame
{
  FrameHeader Header;
  std::vector<std::uint8_t> Payload;
};

/// Build the full wire image of a frame (header + payload) ready for
/// Port::SendChunked.
std::vector<std::uint8_t> EncodeFrame(const FrameHeader &h,
                                      const void *payload,
                                      std::size_t payloadBytes);

/// Parse a reassembled wire image back into a Frame (throws
/// std::runtime_error when the header and body disagree).
Frame DecodeFrame(std::vector<std::uint8_t> &&wire);

/// Incremental reassembly of the chunked stream: the dispatcher feeds
/// ring messages one at a time and gets complete frame images out, so a
/// slow client mid-frame never blocks the poll loop. A stream that ends
/// (ring dead) while MidMessage() is true is a short read.
class FrameAssembler
{
public:
  /// Feed one ring message. Returns true when `out` now holds a
  /// complete frame image. Throws std::runtime_error on a malformed
  /// stream (bad chunk header, chunk overrun). A chunk header whose
  /// chunk count exceeds its total, or whose total exceeds chunks x
  /// GetConfig().MaxChunkBytes, is rejected before any allocation, and
  /// the buffer grows with the chunks that arrive.
  bool Feed(std::vector<std::uint8_t> &&msg, std::vector<std::uint8_t> &out);

  /// True while chunks of an announced transfer are still outstanding.
  bool MidMessage() const { return this->ChunksLeft_ != 0; }

  /// Drop any partial state (used when a session is reclaimed).
  void Reset();

private:
  std::vector<std::uint8_t> Buffer_;
  std::uint64_t TotalBytes_ = 0;
  std::uint64_t ChunksLeft_ = 0;
};

} // namespace svc

#endif
