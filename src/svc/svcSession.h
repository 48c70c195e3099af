#ifndef svcSession_h
#define svcSession_h

/// @file svcSession.h
/// Process-wide service configuration (the `<service>` XML element),
/// the svc::* counters exported through the profiler, and the
/// per-session bounded frame queue that applies the
/// sched::Backpressure semantics per tenant:
///
///  * `block`       — the dispatcher stops draining the session's ring
///                    while its queue is full; the ring fills and the
///                    client's Send blocks (end-to-end backpressure).
///  * `drop-oldest` — the oldest queued frame is discarded to admit the
///                    new one; the client never stalls.
///  * `coalesce`    — the newest queued frame is replaced, so the queue
///                    holds the freshest `depth` frames.

#include "cmpCodec.h"
#include "schedPipeline.h"
#include "schedPolicy.h"
#include "svcWire.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>

namespace svc
{

/// Process-wide service plan (defaults match a small on-node pool).
struct ServiceConfig
{
  int MaxSessions = 8;    ///< concurrent tenants the server admits
  int Workers = 2;        ///< analysis worker threads in the pool
  long QueueDepth = 4;    ///< frames buffered per session (0 = unbounded)
  sched::Backpressure Pressure = sched::Backpressure::Block;
  sched::PolicyKind Policy = sched::PolicyKind::LeastLoaded;
  int HeartbeatMs = 50;        ///< advertised client heartbeat interval
  int MissedHeartbeats = 5;    ///< silent intervals before a reap
  std::size_t RingBytes = 1u << 20;  ///< per-direction ring byte budget
  std::size_t RingMessages = 64;     ///< per-direction descriptor budget
  std::size_t MaxChunkBytes = 64u * 1024; ///< chunk size on the rings
  long PushDepth = 2; ///< server->client frames buffered per session
  bool HaveCodecOverride = false; ///< server forces the frame codec
  cmp::Params CodecOverride;      ///< the forced codec when overridden
};

/// The `<service>` rows, VP_SVC_* variables included, plus the viewer
/// push depth, which `<viz push_depth>` sets. A codec (attribute or
/// VP_SVC_CODEC) turns the server-side codec override on. The initial
/// configuration is the defaults with the variables applied.
const vp::knob::Table<ServiceConfig> &ConfigRows();

/// Replace the process-wide configuration (validated; throws
/// std::invalid_argument on nonsense).
void Configure(const ServiceConfig &cfg);

/// The active configuration.
ServiceConfig GetConfig();

/// Counters of everything the service plane did (process-wide, summed
/// over servers and clients; exported as profiler events).
struct ServiceStats
{
  std::uint64_t SessionsOpened = 0;  ///< Welcomes sent
  std::uint64_t SessionsRejected = 0;///< Hellos refused (pool full, bad proto)
  std::uint64_t SessionsClosed = 0;  ///< graceful Goodbyes completed
  std::uint64_t SessionsReaped = 0;  ///< dead tenants reclaimed
  std::uint64_t FramesSent = 0;      ///< client-side data frames shipped
  std::uint64_t FramesAccepted = 0;  ///< data frames queued for analysis
  std::uint64_t FramesDropped = 0;   ///< discarded by drop-oldest
  std::uint64_t FramesCoalesced = 0; ///< replaced by coalesce
  std::uint64_t FramesRejected = 0;  ///< malformed / wrong-session frames
  std::uint64_t FramesExecuted = 0;  ///< frames a worker finished
  std::uint64_t Heartbeats = 0;      ///< heartbeat frames seen
  std::uint64_t BytesRaw = 0;        ///< pre-compression payload bytes
  std::uint64_t BytesWire = 0;       ///< frame bytes as shipped
  std::uint64_t QueueHighWater = 0;  ///< max per-session queue depth seen
  std::uint64_t ShortReads = 0;      ///< sessions killed mid-frame
  std::uint64_t FramesPushed = 0;    ///< server->client frames published
  std::uint64_t PushDrops = 0;       ///< pushed frames discarded (drop-oldest)
  std::uint64_t Steers = 0;          ///< steer control frames dispatched
  std::uint64_t HeartbeatAcks = 0;   ///< heartbeat echoes the server returned
  std::uint64_t RttCount = 0;        ///< heartbeat RTT samples reported
  std::uint64_t RttSumUs = 0;        ///< sum of reported RTTs, microseconds
  std::uint64_t RttMaxUs = 0;        ///< max reported RTT, microseconds
};

/// Counters since the last ResetStats().
ServiceStats Stats();

/// Zero the counters (configuration is untouched).
void ResetStats();

/// Internal: mutate the counter block under its lock (one counter path
/// shared by the server, the client, and the tests).
void UpdateStats(const std::function<void(ServiceStats &)> &fn);

/// How a frame was admitted to (or refused by) a session queue.
enum class Admit : int
{
  Queued = 0,   ///< appended
  DroppedOldest,///< appended after discarding the oldest
  Coalesced,    ///< replaced the newest
  WouldBlock    ///< full under `block` — caller must not consume input
};

/// Bounded per-session frame queue (dispatcher-thread only; no locking).
class FrameQueue
{
public:
  /// Admit under the session's policy. `depth` <= 0 means unbounded.
  Admit Push(Frame &&f, long depth, sched::Backpressure pressure);

  /// True when Push would return WouldBlock.
  bool Full(long depth, sched::Backpressure pressure) const;

  bool Empty() const { return this->Q_.empty(); }
  std::size_t Size() const { return this->Q_.size(); }
  std::size_t HighWater() const { return this->HighWater_; }

  /// Oldest frame out; false when empty.
  bool Pop(Frame &out);

  /// Put a popped frame back at the head (dispatch retreated because
  /// the chosen worker's inbox was full).
  void Requeue(Frame &&f) { this->Q_.emplace_front(std::move(f)); }

  void Clear() { this->Q_.clear(); }

private:
  std::deque<Frame> Q_;
  std::size_t HighWater_ = 0;
};

} // namespace svc

#endif
