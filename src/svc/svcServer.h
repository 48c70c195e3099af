#ifndef svcServer_h
#define svcServer_h

/// @file svcServer.h
/// The multi-tenant analysis server. One dispatcher thread owns every
/// session: it admits connections (Hello -> Welcome/Reject under the
/// MaxSessions cap), polls each tenant's ring through a per-session
/// FrameAssembler (so a slow sender mid-frame never blocks the loop),
/// applies the session's backpressure policy at its bounded frame
/// queue, and hands complete frames to a pool of worker threads. The
/// worker for each frame is chosen by the configured sched placement
/// policy — workers are presented to the policy as the devices of a
/// dedicated "service plane" node, and each dispatch records its load
/// into vp::DeviceLoadTracker so least-loaded/cost-model decisions see
/// the pool's real backlog.
///
/// Liveness: a session with no traffic (no frames, no heartbeats,
/// nothing buffered in its ring) for MissedHeartbeats advertised
/// intervals is declared dead; its queued frames are still drained to
/// the workers, its half-assembled frame (if any) is discarded as a
/// short read, and its slot is reclaimed — other tenants never stall.

#include "svcRing.h"
#include "svcSession.h"
#include "svcWire.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace svc
{

/// The DeviceLoadTracker node id the worker pool reports under. Real
/// nodes are >= 0; the service plane uses a negative id so pool load
/// never aliases a simulated accelerator's.
constexpr int kServicePlaneNode = -2;

/// Why a session ended.
enum class SessionEnd : int
{
  Closed = 0, ///< graceful Goodbye
  Reaped,     ///< heartbeat timeout
  ShortRead,  ///< connection died mid-frame
  Error       ///< malformed traffic
};

const char *SessionEndName(SessionEnd e);

/// A multi-tenant frame server over ring transports.
class Server
{
public:
  /// Called on a worker thread for every executed frame. `worker` is
  /// the worker index in [0, Workers); the payload is the frame body
  /// (already reassembled, still in the session's negotiated wire
  /// encoding).
  using FrameHandler = std::function<void(
    int worker, const FrameHeader &header, std::vector<std::uint8_t> &&payload)>;

  /// Called on the dispatcher thread when a session opens (after the
  /// Welcome) or ends. Optional.
  using OpenHandler = std::function<void(std::uint32_t session,
                                         const HelloInfo &hello)>;
  using CloseHandler = std::function<void(std::uint32_t session,
                                          SessionEnd why)>;

  /// Called on the dispatcher thread the moment a Steer control frame
  /// arrives — steering bypasses the data queue entirely (that is the
  /// viz dispatch priority), so the handler must be cheap and must not
  /// block (typically: stash the command under a mutex for the next
  /// step boundary).
  using SteerHandler = std::function<void(
    std::uint32_t session, const FrameHeader &header,
    std::vector<std::uint8_t> &&payload)>;

  /// Called on the dispatcher thread for each admitted Hello: the
  /// columns of the Hello's mesh the frame handler reads, std::nullopt
  /// for every column. The Welcome carries the answer; a server without
  /// one grants every column.
  using ColumnGrant = std::function<std::optional<std::vector<std::string>>(
    const std::string &mesh)>;

  explicit Server(FrameHandler handler, ServiceConfig cfg = GetConfig());
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Install session lifecycle callbacks (before Start).
  void SetSessionCallbacks(OpenHandler onOpen, CloseHandler onClose);

  /// Install the steering callback (before Start).
  void SetSteerHandler(SteerHandler onSteer);

  /// Install the column grant (before Start).
  void SetColumnGrant(ColumnGrant grant);

  /// Queue one server->client Push frame for `session`. Thread-safe and
  /// never blocking: the frame lands in the session's bounded outbox
  /// (ServiceConfig::PushDepth) under drop-oldest, and the dispatcher
  /// ships it when the return ring has room — a slow viewer loses old
  /// frames instead of stalling the publisher. Returns false when the
  /// session is unknown (already ended).
  bool Publish(std::uint32_t session, std::uint64_t step,
               const void *payload, std::size_t bytes, std::size_t rawBytes,
               bool compressed);

  /// Last heartbeat round-trip time the session reported, microseconds
  /// (0 until the client's second beat carries a measurement).
  std::uint64_t SessionRttUs(std::uint32_t session) const;

  /// Spin up the dispatcher and the worker pool.
  void Start();

  /// Drain queued frames, stop every thread, finalize. Idempotent.
  void Stop();

  /// A new connection's client-side port. Thread-safe; callable before
  /// or after Start (the dispatcher admits pending connections as
  /// session slots allow).
  std::shared_ptr<Port> Connect();

  /// Sessions currently open.
  int ActiveSessions() const;

  /// Sessions ended so far, by cause.
  std::uint64_t Ended(SessionEnd why) const;

  /// Per-frame real-time latencies (send stamp -> handler completion)
  /// recorded by the workers, in seconds. Snapshot.
  std::vector<double> Latencies() const;

  /// The configuration this server runs under.
  const ServiceConfig &Config() const { return this->Config_; }

private:
  /// The shared server->client side of a session: the bounded push
  /// outbox (filled by Publish from any thread, drained by the
  /// dispatcher) and the last heartbeat RTT the client reported.
  struct Remote
  {
    std::mutex Mutex;
    std::deque<std::vector<std::uint8_t>> Out; ///< encoded wire images
    std::atomic<std::uint64_t> RttUs{0};
  };

  struct Session
  {
    std::uint32_t Id = 0;
    std::shared_ptr<Channel> Link;
    std::unique_ptr<Port> Io; ///< server-side port
    FrameAssembler Assembler;
    FrameQueue Queue;
    HelloInfo Hello;
    std::shared_ptr<Remote> Out; ///< set once Welcomed
    bool Welcomed = false;
    bool Draining = false; ///< Goodbye seen: drain the queue, then close
    double LastHeard = 0.0; ///< real-clock seconds of last traffic
    SessionEnd Why = SessionEnd::Closed;
  };

  struct Worker
  {
    std::thread Thread;
    std::uint64_t SpawnToken = 0;
    std::uint64_t EndToken = 0;
    std::mutex Mutex;
    std::condition_variable Cv;
    std::deque<Frame> Inbox;
    std::atomic<std::size_t> InboxSize{0};
  };

  void DispatchLoop();
  void WorkerLoop(int index);

  /// Poll one session's ring; returns true when anything moved.
  bool PollSession(Session &s);

  /// Route queued frames to workers; returns true when anything moved.
  bool DrainSession(Session &s);

  /// Ship queued push frames into the session's return ring; returns
  /// true when anything moved.
  bool PushSession(Session &s);

  /// Handle one complete frame image from a session's assembler.
  void HandleWire(Session &s, std::vector<std::uint8_t> &&wire);

  /// Admit pending connections while slots remain.
  bool AdmitPending();

  /// End a session (dispatcher thread only).
  void EndSession(Session &s, SessionEnd why);

  int PlaceFrame(const Session &s, const Frame &f);

  ServiceConfig Config_;
  FrameHandler Handler_;
  OpenHandler OnOpen_;
  CloseHandler OnClose_;
  SteerHandler OnSteer_;
  ColumnGrant Grant_;

  mutable std::mutex RemoteMutex_;
  std::map<std::uint32_t, std::shared_ptr<Remote>> Remotes_;

  mutable std::mutex PendingMutex_;
  std::vector<std::shared_ptr<Channel>> Pending_; ///< unadmitted connects

  std::vector<std::unique_ptr<Session>> Sessions_; ///< dispatcher-owned
  std::uint32_t NextSession_ = 1;

  std::vector<std::unique_ptr<Worker>> Workers_;
  std::thread Dispatcher_;
  std::uint64_t DispatcherSpawnToken_ = 0;
  std::uint64_t DispatcherEndToken_ = 0;
  std::atomic<bool> Running_{false};
  std::atomic<bool> StopRequested_{false};
  std::atomic<bool> WorkersStop_{false};

  std::atomic<int> Active_{0};
  std::atomic<std::uint64_t> EndCounts_[4] = {};

  mutable std::mutex LatencyMutex_;
  std::vector<double> Latencies_;
};

} // namespace svc

#endif
