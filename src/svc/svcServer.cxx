#include "svcServer.h"

#include "vpChecker.h"
#include "vpLoadTracker.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace svc
{

namespace
{
double RealNow()
{
  return std::chrono::duration<double>(
           std::chrono::steady_clock::now().time_since_epoch())
    .count();
}

/// Interactive viewer sessions announce themselves with a "viz:" mesh
/// prefix in their Hello; the dispatcher serves them first each round
/// and places their frames with the Interactive latency class.
bool IsVizMesh(const std::string &mesh)
{
  return mesh.rfind("viz:", 0) == 0;
}
} // namespace

const char *SessionEndName(SessionEnd e)
{
  switch (e)
  {
    case SessionEnd::Closed: return "closed";
    case SessionEnd::Reaped: return "reaped";
    case SessionEnd::ShortRead: return "short-read";
    case SessionEnd::Error: return "error";
  }
  return "unknown";
}

Server::Server(FrameHandler handler, ServiceConfig cfg)
  : Config_(cfg), Handler_(std::move(handler))
{
  if (!this->Handler_)
    throw std::invalid_argument("svc::Server: null frame handler");
}

Server::~Server()
{
  this->Stop();
}

void Server::SetSessionCallbacks(OpenHandler onOpen, CloseHandler onClose)
{
  this->OnOpen_ = std::move(onOpen);
  this->OnClose_ = std::move(onClose);
}

void Server::SetSteerHandler(SteerHandler onSteer)
{
  this->OnSteer_ = std::move(onSteer);
}

void Server::SetColumnGrant(ColumnGrant grant)
{
  this->Grant_ = std::move(grant);
}

bool Server::Publish(std::uint32_t session, std::uint64_t step,
                     const void *payload, std::size_t bytes,
                     std::size_t rawBytes, bool compressed)
{
  std::shared_ptr<Remote> r;
  {
    std::lock_guard<std::mutex> lock(this->RemoteMutex_);
    auto it = this->Remotes_.find(session);
    if (it == this->Remotes_.end())
      return false;
    r = it->second;
  }

  FrameHeader h;
  h.Kind = FrameKind::Push;
  h.Session = session;
  h.Flags = compressed ? kFrameFlagCompressed : 0;
  h.Step = step;
  h.SendTime = RealNow();
  h.RawBytes = rawBytes;
  std::vector<std::uint8_t> img = EncodeFrame(h, payload, bytes);

  std::uint64_t drops = 0;
  {
    std::lock_guard<std::mutex> lock(r->Mutex);
    r->Out.emplace_back(std::move(img));
    const auto depth =
      static_cast<std::size_t>(std::max<long>(1, this->Config_.PushDepth));
    while (r->Out.size() > depth)
    {
      r->Out.pop_front(); // a slow viewer loses old frames, never stalls us
      ++drops;
    }
  }
  UpdateStats(
    [&](ServiceStats &st)
    {
      ++st.FramesPushed;
      st.PushDrops += drops;
    });
  return true;
}

std::uint64_t Server::SessionRttUs(std::uint32_t session) const
{
  std::lock_guard<std::mutex> lock(this->RemoteMutex_);
  auto it = this->Remotes_.find(session);
  return it == this->Remotes_.end() ? 0 : it->second->RttUs.load();
}

void Server::Start()
{
  if (this->Running_.exchange(true))
    return;
  this->StopRequested_.store(false);
  this->WorkersStop_.store(false);

  // populate the pool fully before spawning any thread: WorkerLoop
  // indexes Workers_, which must not reallocate under a running worker
  for (int w = 0; w < this->Config_.Workers; ++w)
  {
    auto worker = std::make_unique<Worker>();
    worker->SpawnToken = vp::check::OnThreadSpawn();
    this->Workers_.emplace_back(std::move(worker));
  }
  for (int w = 0; w < this->Config_.Workers; ++w)
    this->Workers_[static_cast<std::size_t>(w)]->Thread =
      std::thread([this, w] { this->WorkerLoop(w); });

  this->DispatcherSpawnToken_ = vp::check::OnThreadSpawn();
  this->Dispatcher_ = std::thread([this] { this->DispatchLoop(); });
}

void Server::Stop()
{
  if (!this->Running_.load())
    return;
  this->StopRequested_.store(true);

  if (this->Dispatcher_.joinable())
  {
    this->Dispatcher_.join();
    vp::check::OnThreadJoin(this->DispatcherEndToken_);
  }

  this->WorkersStop_.store(true);
  for (auto &w : this->Workers_)
    w->Cv.notify_all();
  for (auto &w : this->Workers_)
  {
    if (w->Thread.joinable())
    {
      w->Thread.join();
      vp::check::OnThreadJoin(w->EndToken);
    }
  }
  this->Workers_.clear();
  this->Running_.store(false);
}

std::shared_ptr<Port> Server::Connect()
{
  auto link = std::make_shared<Channel>(this->Config_.RingBytes,
                                        this->Config_.RingMessages);
  {
    std::lock_guard<std::mutex> lock(this->PendingMutex_);
    this->Pending_.push_back(link);
  }
  return std::make_shared<Port>(link, /*clientSide=*/true);
}

int Server::ActiveSessions() const
{
  return this->Active_.load();
}

std::uint64_t Server::Ended(SessionEnd why) const
{
  return this->EndCounts_[static_cast<int>(why)].load();
}

std::vector<double> Server::Latencies() const
{
  std::lock_guard<std::mutex> lock(this->LatencyMutex_);
  return this->Latencies_;
}

bool Server::AdmitPending()
{
  std::vector<std::shared_ptr<Channel>> fresh;
  {
    std::lock_guard<std::mutex> lock(this->PendingMutex_);
    fresh.swap(this->Pending_);
  }
  for (auto &link : fresh)
  {
    auto s = std::make_unique<Session>();
    s->Link = link;
    s->Io = std::make_unique<Port>(link, /*clientSide=*/false);
    s->LastHeard = RealNow();
    this->Sessions_.emplace_back(std::move(s));
  }
  return !fresh.empty();
}

int Server::PlaceFrame(const Session &s, const Frame &f)
{
  sched::PlacementRequest req;
  req.Rank = static_cast<int>(s.Id);
  req.DevicesPerNode = this->Config_.Workers;
  req.Node = kServicePlaneNode;
  // size the hint from the frame so cost-model placement has something
  // real to predict with: raw elements moved and touched once
  req.Hint.Elements = static_cast<std::size_t>(f.Header.RawBytes / 8);
  req.Hint.MoveBytes = static_cast<std::size_t>(f.Header.PayloadBytes);
  req.Hint.Latency = IsVizMesh(s.Hello.MeshName)
                       ? sched::LatencyClass::Interactive
                       : sched::LatencyClass::Throughput;
  const int d = sched::GetPolicy(this->Config_.Policy).SelectDevice(req);
  if (d < 0 || d >= this->Config_.Workers)
    return static_cast<int>(s.Id) % this->Config_.Workers;
  return d;
}

void Server::HandleWire(Session &s, std::vector<std::uint8_t> &&wire)
{
  Frame f = DecodeFrame(std::move(wire));

  switch (f.Header.Kind)
  {
    case FrameKind::Hello:
    {
      if (s.Welcomed)
        throw std::runtime_error("svc: duplicate hello on session " +
                                 std::to_string(s.Id));
      const HelloInfo hello = DecodeHello(f.Payload.data(), f.Payload.size());
      const bool slotFree = this->Active_.load() < this->Config_.MaxSessions;
      if (hello.Protocol != kProtocolVersion || !slotFree)
      {
        const std::string why = !slotFree ? "session pool full"
                                          : "unsupported protocol";
        FrameHeader rh;
        rh.Kind = FrameKind::Reject;
        const std::vector<std::uint8_t> img =
          EncodeFrame(rh, why.data(), why.size());
        // count before the send: the client treats the Reject frame as
        // the synchronization point and may read Stats() immediately
        UpdateStats([](ServiceStats &st) { ++st.SessionsRejected; });
        s.Io->SendChunked(img.data(), img.size(),
                          this->Config_.MaxChunkBytes, /*timeout=*/1.0);
        s.Draining = true;
        s.Why = SessionEnd::Closed;
        return;
      }

      // asked before the session opens: a grant that throws ends the
      // connection like any other malformed Hello
      WelcomeInfo w;
      if (this->Grant_)
        w.Columns = this->Grant_(hello.MeshName);

      s.Hello = hello;
      s.Id = this->NextSession_++;
      s.Welcomed = true;
      this->Active_.fetch_add(1);

      w.Session = s.Id;
      if (this->Config_.HaveCodecOverride)
      {
        w.Codec = this->Config_.CodecOverride;
        w.UseCompression = w.Codec.Codec != cmp::CodecId::None;
      }
      else
      {
        w.Codec = hello.Codec;
        w.UseCompression = hello.WantCompression;
      }
      w.QueueDepth = this->Config_.QueueDepth;
      w.Pressure = this->Config_.Pressure;
      w.HeartbeatMs = this->Config_.HeartbeatMs;

      s.Out = std::make_shared<Remote>();
      {
        std::lock_guard<std::mutex> lock(this->RemoteMutex_);
        this->Remotes_[s.Id] = s.Out;
      }

      FrameHeader wh;
      wh.Kind = FrameKind::Welcome;
      wh.Session = s.Id;
      const std::vector<std::uint8_t> body = EncodeWelcome(w);
      const std::vector<std::uint8_t> img =
        EncodeFrame(wh, body.data(), body.size());
      UpdateStats([](ServiceStats &st) { ++st.SessionsOpened; });
      s.Io->SendChunked(img.data(), img.size(), this->Config_.MaxChunkBytes,
                        /*timeout=*/1.0);
      if (this->OnOpen_)
        this->OnOpen_(s.Id, s.Hello);
      return;
    }

    case FrameKind::Heartbeat:
    {
      // the beat optionally carries the client's last measured RTT as a
      // u64 LE microsecond count (old zero-payload beats stay valid)
      std::uint64_t rtt = 0;
      if (f.Payload.size() >= 8)
        rtt = cmp::LoadLE64(f.Payload.data());
      UpdateStats(
        [&](ServiceStats &st)
        {
          ++st.Heartbeats;
          if (rtt)
          {
            ++st.RttCount;
            st.RttSumUs += rtt;
            st.RttMaxUs = std::max(st.RttMaxUs, rtt);
          }
        });
      if (s.Out && rtt)
        s.Out->RttUs.store(rtt);
      if (s.Welcomed)
      {
        // echo the beat's send stamp so the client can measure RTT;
        // best effort — a full return ring just skips this ack
        FrameHeader ah;
        ah.Kind = FrameKind::HeartbeatAck;
        ah.Session = s.Id;
        ah.SendTime = f.Header.SendTime;
        const std::vector<std::uint8_t> img = EncodeFrame(ah, nullptr, 0);
        if (s.Io->SendChunkedAtomic(img.data(), img.size(),
                                    this->Config_.MaxChunkBytes,
                                    /*timeout=*/0.0) == IoStatus::Ok)
          UpdateStats([](ServiceStats &st) { ++st.HeartbeatAcks; });
      }
      return;
    }

    case FrameKind::Goodbye:
      s.Draining = true;
      s.Why = SessionEnd::Closed;
      return;

    case FrameKind::Data:
    {
      if (!s.Welcomed || f.Header.Session != s.Id)
      {
        UpdateStats([](ServiceStats &st) { ++st.FramesRejected; });
        return;
      }
      // resolve the mesh name now: by the time a worker executes this
      // frame the session may already be closed and reclaimed
      f.Header.Mesh = s.Hello.MeshName;
      const std::uint64_t raw = f.Header.RawBytes;
      const std::uint64_t wireBytes = kFrameHeaderBytes + f.Header.PayloadBytes;
      const Admit a = s.Queue.Push(std::move(f), this->Config_.QueueDepth,
                                   this->Config_.Pressure);
      const std::uint64_t hw = s.Queue.HighWater();
      UpdateStats(
        [&](ServiceStats &st)
        {
          st.BytesRaw += raw;
          st.BytesWire += wireBytes;
          st.QueueHighWater = std::max<std::uint64_t>(st.QueueHighWater, hw);
          switch (a)
          {
            case Admit::Queued: ++st.FramesAccepted; break;
            case Admit::DroppedOldest:
              ++st.FramesAccepted;
              ++st.FramesDropped;
              break;
            case Admit::Coalesced:
              ++st.FramesAccepted;
              ++st.FramesCoalesced;
              break;
            case Admit::WouldBlock: ++st.FramesRejected; break;
          }
        });
      return;
    }

    case FrameKind::Steer:
    {
      if (!s.Welcomed || f.Header.Session != s.Id)
      {
        UpdateStats([](ServiceStats &st) { ++st.FramesRejected; });
        return;
      }
      // steering is control plane: dispatched here, ahead of every
      // queued data frame, so a command is never stuck behind bulk work
      UpdateStats([](ServiceStats &st) { ++st.Steers; });
      if (this->OnSteer_)
        this->OnSteer_(s.Id, f.Header, std::move(f.Payload));
      return;
    }

    case FrameKind::Welcome:
    case FrameKind::Reject:
    case FrameKind::Push:
    case FrameKind::HeartbeatAck:
      // server-bound streams must not carry server-to-client kinds
      throw std::runtime_error("svc: unexpected frame kind on session " +
                               std::to_string(s.Id));
  }
}

bool Server::PollSession(Session &s)
{
  bool moved = false;
  // bound the per-session work per round so one chatty tenant cannot
  // starve the others
  for (int i = 0; i < 8; ++i)
  {
    if (s.Draining ||
        s.Queue.Full(this->Config_.QueueDepth, this->Config_.Pressure))
      break; // `block`: leave traffic in the ring, the client stalls

    std::vector<std::uint8_t> msg;
    const IoStatus st = s.Io->TryRecv(msg);
    if (st == IoStatus::Timeout)
      break; // nothing buffered
    if (st == IoStatus::Closed || st == IoStatus::Dead)
    {
      if (s.Assembler.MidMessage())
      {
        s.Why = SessionEnd::ShortRead;
        UpdateStats([](ServiceStats &stt) { ++stt.ShortReads; });
      }
      else
      {
        s.Why = st == IoStatus::Closed ? SessionEnd::Closed
                                       : SessionEnd::Reaped;
      }
      s.Draining = true;
      moved = true;
      break;
    }

    s.LastHeard = RealNow();
    moved = true;
    try
    {
      std::vector<std::uint8_t> wire;
      if (s.Assembler.Feed(std::move(msg), wire))
        this->HandleWire(s, std::move(wire));
    }
    catch (const std::exception &)
    {
      UpdateStats([](ServiceStats &stt) { ++stt.FramesRejected; });
      s.Why = SessionEnd::Error;
      s.Draining = true;
      break;
    }
  }

  // liveness: a silent, empty connection past its heartbeat budget is a
  // dead client; one with buffered traffic or a blocked queue is not
  if (!s.Draining)
  {
    const double budget = 1e-3 * this->Config_.HeartbeatMs *
                          this->Config_.MissedHeartbeats;
    if (s.Io->RxPending() == 0 && RealNow() - s.LastHeard > budget &&
        !s.Queue.Full(this->Config_.QueueDepth, this->Config_.Pressure))
    {
      s.Why = s.Assembler.MidMessage() ? SessionEnd::ShortRead
                                       : SessionEnd::Reaped;
      if (s.Assembler.MidMessage())
        UpdateStats([](ServiceStats &stt) { ++stt.ShortReads; });
      s.Draining = true;
      moved = true;
    }
  }
  return moved;
}

bool Server::PushSession(Session &s)
{
  if (!s.Out || s.Draining)
    return false;
  bool moved = false;
  while (true)
  {
    std::vector<std::uint8_t> img;
    {
      std::lock_guard<std::mutex> lock(s.Out->Mutex);
      if (s.Out->Out.empty())
        break;
      img = std::move(s.Out->Out.front());
      s.Out->Out.pop_front();
    }
    // all-or-nothing with no wait: a full return ring keeps the frame
    // for the next round instead of blocking the dispatcher
    const IoStatus st = s.Io->SendChunkedAtomic(
      img.data(), img.size(), this->Config_.MaxChunkBytes, /*timeout=*/0.0);
    if (st == IoStatus::Ok)
    {
      moved = true;
      continue;
    }
    if (st == IoStatus::Closed || st == IoStatus::Dead)
    {
      s.Draining = true; // the viewer is gone
      return true;
    }
    std::lock_guard<std::mutex> lock(s.Out->Mutex);
    s.Out->Out.emplace_front(std::move(img));
    break;
  }
  return moved;
}

bool Server::DrainSession(Session &s)
{
  bool moved = false;
  Frame f;
  while (s.Queue.Pop(f))
  {
    const int w = this->PlaceFrame(s, f);
    Worker &wk = *this->Workers_[static_cast<std::size_t>(w)];
    if (wk.InboxSize.load() >= 2)
    {
      // the pool is saturated here: keep the frame at the head and let
      // the next round retry (the retry re-consults the policy, whose
      // recorded backlog now steers it elsewhere)
      s.Queue.Requeue(std::move(f));
      break;
    }
    {
      std::lock_guard<std::mutex> lock(wk.Mutex);
      wk.Inbox.emplace_back(std::move(f));
    }
    wk.InboxSize.fetch_add(1);
    wk.Cv.notify_one();
    moved = true;
  }
  return moved;
}

void Server::DispatchLoop()
{
  vp::check::OnThreadStart(this->DispatcherSpawnToken_);

  while (true)
  {
    const bool stopping = this->StopRequested_.load();
    bool progress = this->AdmitPending();

    // viz-aware dispatch priority: interactive viewer sessions are
    // polled (steers dispatch inside the poll), pushed, and drained
    // before the throughput tenants each round
    for (int pass = 0; pass < 2; ++pass)
      for (auto &sp : this->Sessions_)
      {
        Session &s = *sp;
        if ((pass == 0) != IsVizMesh(s.Hello.MeshName))
          continue;
        progress |= this->PollSession(s);
        progress |= this->PushSession(s);
        progress |= this->DrainSession(s);
      }

    // finalize drained sessions
    for (std::size_t i = 0; i < this->Sessions_.size();)
    {
      Session &s = *this->Sessions_[i];
      if (s.Draining && s.Queue.Empty())
      {
        this->EndSession(s, s.Why);
        this->Sessions_.erase(this->Sessions_.begin() +
                              static_cast<std::ptrdiff_t>(i));
        progress = true;
      }
      else
      {
        ++i;
      }
    }

    if (stopping)
    {
      // final pass: push everything still queued to the workers
      // (ignoring the inbox bound), then leave
      for (auto &sp : this->Sessions_)
      {
        Session &s = *sp;
        Frame f;
        while (s.Queue.Pop(f))
        {
          const int w = this->PlaceFrame(s, f);
          Worker &wk = *this->Workers_[static_cast<std::size_t>(w)];
          {
            std::lock_guard<std::mutex> lock(wk.Mutex);
            wk.Inbox.emplace_back(std::move(f));
          }
          wk.InboxSize.fetch_add(1);
          wk.Cv.notify_one();
        }
        // a session caught mid-drain keeps its already-determined cause
        this->EndSession(s, s.Draining ? s.Why : SessionEnd::Closed);
      }
      this->Sessions_.clear();
      break;
    }

    if (!progress)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  this->DispatcherEndToken_ = vp::check::OnThreadEnd();
}

void Server::EndSession(Session &s, SessionEnd why)
{
  if (s.Welcomed)
    this->Active_.fetch_sub(1);
  this->EndCounts_[static_cast<int>(why)].fetch_add(1);
  UpdateStats(
    [&](ServiceStats &st)
    {
      switch (why)
      {
        case SessionEnd::Closed: ++st.SessionsClosed; break;
        case SessionEnd::Reaped:
        case SessionEnd::ShortRead:
        case SessionEnd::Error: ++st.SessionsReaped; break;
      }
    });
  s.Assembler.Reset();
  {
    std::lock_guard<std::mutex> lock(this->RemoteMutex_);
    this->Remotes_.erase(s.Id);
  }
  // wake a client blocked in Send (its ring will not drain again) and
  // tell one blocked in Recv that the server is done with it
  s.Link->ToServer.Close();
  s.Link->ToClient.Close();
  if (this->OnClose_ && s.Welcomed)
    this->OnClose_(s.Id, why);
}

void Server::WorkerLoop(int index)
{
  Worker &me = *this->Workers_[static_cast<std::size_t>(index)];
  vp::check::OnThreadStart(me.SpawnToken);

  while (true)
  {
    Frame f;
    {
      std::unique_lock<std::mutex> lock(me.Mutex);
      me.Cv.wait(lock,
                 [&]
                 { return !me.Inbox.empty() || this->WorkersStop_.load(); });
      if (me.Inbox.empty())
        break; // stop requested and fully drained
      f = std::move(me.Inbox.front());
      me.Inbox.pop_front();
    }
    me.InboxSize.fetch_sub(1);

    try
    {
      this->Handler_(index, f.Header, std::move(f.Payload));
    }
    catch (...)
    {
      // framing validates header/length consistency, not payload
      // content; a garbled payload (the handler throwing) must cost
      // only this frame, not the whole multi-tenant process
      UpdateStats([](ServiceStats &st) { ++st.FramesRejected; });
      continue;
    }

    const double latency = RealNow() - f.Header.SendTime;
    {
      std::lock_guard<std::mutex> lock(this->LatencyMutex_);
      this->Latencies_.push_back(latency);
    }
    UpdateStats([](ServiceStats &st) { ++st.FramesExecuted; });
  }

  me.EndToken = vp::check::OnThreadEnd();
}

} // namespace svc
