#include "graphCapture.h"

#include "execEngine.h"
#include "vpChecker.h"
#include "vpMemory.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vp
{
namespace graph
{

// ---------------------------------------------------------------------------
// configuration and stats
// ---------------------------------------------------------------------------
namespace
{

std::mutex &ConfigMutex()
{
  static std::mutex m;
  return m;
}

GraphConfig &ConfigStorage()
{
  static GraphConfig cfg = DefaultConfig();
  return cfg;
}

struct AtomicStats
{
  std::atomic<std::uint64_t> Captures{0};
  std::atomic<std::uint64_t> CaptureAborts{0};
  std::atomic<std::uint64_t> Replays{0};
  std::atomic<std::uint64_t> Invalidations{0};
  std::atomic<std::uint64_t> NodesCaptured{0};
  std::atomic<std::uint64_t> Flushes{0};
  std::atomic<std::uint64_t> OpsAbsorbed{0};
};

AtomicStats &TheStats()
{
  static AtomicStats s;
  return s;
}

/// Mirror of the platform's (private) copy bandwidth selection so captured
/// copies carry the same classified cost the eager path would charge.
double ReplayCopyBandwidth(const CostModel &cost, CopyKind kind,
                           const AllocInfo &dst, const AllocInfo &src)
{
  double bw = cost.H2HBandwidth;
  switch (kind)
  {
    case CopyKind::HostToDevice: bw = cost.H2DBandwidth; break;
    case CopyKind::DeviceToHost: bw = cost.D2HBandwidth; break;
    case CopyKind::DeviceToDevice: bw = cost.D2DBandwidth; break;
    case CopyKind::OnDevice: bw = cost.D2DBandwidth; break;
    case CopyKind::HostToHost: bw = cost.H2HBandwidth; break;
  }
  const bool pinned = dst.Space == MemSpace::HostPinned ||
                      src.Space == MemSpace::HostPinned;
  if (pinned &&
      (kind == CopyKind::HostToDevice || kind == CopyKind::DeviceToHost))
    bw *= cost.PinnedBandwidthScale;
  return bw;
}

} // namespace

const vp::knob::Table<GraphConfig> &ConfigRows()
{
  using namespace vp::knob;
  static const Table<GraphConfig> rows({
    Bool<&GraphConfig::Enabled>("graph", "enabled", "VP_GRAPH").Implies("1"),
  });
  return rows;
}

GraphConfig DefaultConfig()
{
  return ConfigRows().Defaults();
}

void Configure(const GraphConfig &cfg)
{
  std::lock_guard<std::mutex> lock(ConfigMutex());
  ConfigStorage() = cfg;
}

GraphConfig GetConfig()
{
  std::lock_guard<std::mutex> lock(ConfigMutex());
  return ConfigStorage();
}

bool Enabled()
{
  return GetConfig().Enabled;
}

GraphStats Stats()
{
  const AtomicStats &a = TheStats();
  GraphStats s;
  s.Captures = a.Captures.load();
  s.CaptureAborts = a.CaptureAborts.load();
  s.Replays = a.Replays.load();
  s.Invalidations = a.Invalidations.load();
  s.NodesCaptured = a.NodesCaptured.load();
  s.Flushes = a.Flushes.load();
  s.OpsAbsorbed = a.OpsAbsorbed.load();
  return s;
}

void ResetStats()
{
  AtomicStats &a = TheStats();
  a.Captures = 0;
  a.CaptureAborts = 0;
  a.Replays = 0;
  a.Invalidations = 0;
  a.NodesCaptured = 0;
  a.Flushes = 0;
  a.OpsAbsorbed = 0;
}

// ---------------------------------------------------------------------------
// Session — state machine
// ---------------------------------------------------------------------------

bool Session::Armed() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  return this->State_ == State::Armed;
}

void Session::Drop()
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  if (this->State_ != State::Armed)
    return;
  this->State_ = State::Idle;
  this->Nodes_.clear();
  this->Streams_.clear();
  this->StreamIxOf_.clear();
  TheStats().Invalidations++;
}

bool Session::Dead() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  return this->Dead_;
}

void Session::BeginStep()
{
  this->Cursor_ = 0;
  this->PendingBegin_ = 0;
  this->EventIx_.clear();
  switch (this->State_)
  {
    case State::Idle:
      this->Nodes_.clear();
      this->Streams_.clear();
      this->StreamIxOf_.clear();
      this->NextEventIx_ = 0;
      this->State_ = State::Capturing;
      break;
    case State::Armed:
      for (StreamSlot &slot : this->Streams_)
        slot.Bound = Stream();
      this->EventTime_.assign(this->NumEvents_, 0.0);
      this->EventSet_.assign(this->NumEvents_, 0);
      this->State_ = State::Replaying;
      break;
    default:
      // Capturing/Replaying/Bypass at step begin means the previous scope
      // was abandoned — drop everything and recapture cleanly.
      this->Nodes_.clear();
      this->Streams_.clear();
      this->StreamIxOf_.clear();
      this->NextEventIx_ = 0;
      this->State_ = State::Capturing;
      break;
  }
}

void Session::EndStep()
{
  switch (this->State_)
  {
    case State::Capturing:
      if (this->Nodes_.empty())
      {
        // a step with no device work has nothing to replay — and a
        // pattern that produced none once will likely produce none again
        this->Dead_ = true;
        this->State_ = State::Idle;
        break;
      }
      this->NumEvents_ = this->NextEventIx_;
      this->StreamIxOf_.clear();
      for (StreamSlot &slot : this->Streams_)
        slot.Bound = Stream(); // release the step's stream handles
      this->State_ = State::Armed;
      TheStats().Captures++;
      TheStats().NodesCaptured += this->Nodes_.size();
      break;

    case State::Replaying:
      this->Flush();
      if (this->Cursor_ != this->Nodes_.size())
      {
        // the step ended with recorded work unmatched: the DAG shrank
        this->State_ = State::Idle;
        this->Nodes_.clear();
        this->Streams_.clear();
        TheStats().Invalidations++;
      }
      else
      {
        for (StreamSlot &slot : this->Streams_)
          slot.Bound = Stream();
        this->State_ = State::Armed;
        TheStats().Replays++;
      }
      break;

    case State::Bypass:
      // mismatch (recapture next step) or a dead session
      this->State_ = State::Idle;
      this->Nodes_.clear();
      this->Streams_.clear();
      this->StreamIxOf_.clear();
      break;

    default:
      this->State_ = State::Idle;
      break;
  }
}

void Session::AbortCapture()
{
  this->Dead_ = true;
  this->State_ = State::Bypass;
  this->Nodes_.clear();
  this->Streams_.clear();
  this->StreamIxOf_.clear();
  TheStats().CaptureAborts++;
}

int Session::CaptureStreamIx(const Stream &stream)
{
  const StreamState *s = stream.Get();
  auto it = this->StreamIxOf_.find(s);
  if (it != this->StreamIxOf_.end())
    return it->second;
  StreamSlot slot;
  slot.Node = s->Node;
  slot.Device = s->Device;
  slot.Bound = stream;
  const int ix = static_cast<int>(this->Streams_.size());
  this->Streams_.push_back(slot);
  this->StreamIxOf_.emplace(s, ix);
  return ix;
}

bool Session::BindStreamIx(const Stream &stream, int wantIx)
{
  StreamSlot &slot = this->Streams_[wantIx];
  if (slot.Bound)
    return slot.Bound == stream;
  const StreamState *s = stream.Get();
  if (s->Node != slot.Node || s->Device != slot.Device)
    return false;
  // one concrete stream must not stand in for two recorded roles — the
  // recorded inter-stream concurrency would be lost
  for (const StreamSlot &other : this->Streams_)
    if (other.Bound == stream)
      return false;
  slot.Bound = stream;
  return true;
}

// ---------------------------------------------------------------------------
// Session — capture/replay handlers (called with the step lock held, on
// the step's thread, via the thread-local CaptureSink)
// ---------------------------------------------------------------------------

bool Session::OnKernel(const Stream &stream, const KernelDesc &desc,
                       const KernelFn &fn, bool synchronous)
{
  switch (this->State_)
  {
    case State::Capturing:
    {
      // zero-N launches never reach the device engine on the eager path
      // either; they stay uncaptured in both phases
      if (!desc.N)
        return false;
      if (this->Nodes_.size() >= kMaxNodes)
      {
        this->AbortCapture();
        return false;
      }
      const CostModel &cost = Platform::Get().Config().Cost;
      GraphNode n;
      n.Kind = NodeKind::Kernel;
      n.StreamIx = this->CaptureStreamIx(stream);
      n.Desc = desc;
      n.Fn = fn;
      n.Synchronous = synchronous;
      n.WorkSeconds = cost.KernelSeconds(desc.N, desc.OpsPerElement,
                                         /*onDevice=*/true,
                                         desc.AtomicFraction) -
                      cost.KernelLaunchLatency;
      this->Nodes_.push_back(std::move(n));
      return false; // run eagerly too: the checker validates this step
    }

    case State::Replaying:
    {
      if (!desc.N)
        return false;
      if (this->Cursor_ >= this->Nodes_.size())
      {
        this->Invalidate();
        return false;
      }
      GraphNode &n = this->Nodes_[this->Cursor_];
      const char *a = n.Desc.Name ? n.Desc.Name : "";
      const char *b = desc.Name ? desc.Name : "";
      if (n.Kind != NodeKind::Kernel ||
          n.Desc.OpsPerElement != desc.OpsPerElement ||
          n.Desc.AtomicFraction != desc.AtomicFraction ||
          n.Desc.Shardable != desc.Shardable ||
          n.Synchronous != synchronous || std::strcmp(a, b) != 0 ||
          !this->BindStreamIx(stream, n.StreamIx))
      {
        this->Invalidate();
        return false;
      }
      n.Fn = fn; // rebind the body to this step's buffers
      if (n.Desc.N != desc.N)
      {
        // same DAG, different element count (bodies migrated between
        // ranks, a filter passed fewer rows): the launch dims rebind like
        // cudaGraphExecKernelNodeSetParams and the cost is repriced
        const CostModel &cost = Platform::Get().Config().Cost;
        n.Desc.N = desc.N;
        n.WorkSeconds = cost.KernelSeconds(desc.N, desc.OpsPerElement,
                                           /*onDevice=*/true,
                                           desc.AtomicFraction) -
                        cost.KernelLaunchLatency;
      }
      this->Cursor_++;
      TheStats().OpsAbsorbed++;
      if (n.Synchronous)
      {
        // eager semantics: the calling thread waits the kernel out
        this->Flush();
        ThisClock().AdvanceTo(
          this->Streams_[n.StreamIx].Bound.Get()->Completion());
      }
      return true;
    }

    default:
      return false; // Idle/Armed/Bypass: eager
  }
}

bool Session::OnCopy(const Stream &stream, void *dst, const void *src,
                     std::size_t bytes)
{
  Platform &plat = Platform::Get();
  const CostModel &cost = plat.Config().Cost;

  auto classify = [&](GraphNode &n)
  {
    AllocInfo di, si;
    if (!plat.Query(n.Dst, di))
      di = AllocInfo{};
    if (!plat.Query(n.Src, si))
      si = AllocInfo{};
    const CopyKind kind = ClassifyCopy(di, si);
    n.CopyKindIx = static_cast<int>(kind);
    n.CopySeconds =
      cost.CopySeconds(n.Bytes, ReplayCopyBandwidth(cost, kind, di, si));
  };

  switch (this->State_)
  {
    case State::Capturing:
    {
      if (this->Nodes_.size() >= kMaxNodes)
      {
        this->AbortCapture();
        return false;
      }
      GraphNode n;
      n.Kind = NodeKind::Copy;
      n.StreamIx = this->CaptureStreamIx(stream);
      n.Dst = dst;
      n.Src = src;
      n.Bytes = bytes;
      classify(n);
      this->Nodes_.push_back(std::move(n));
      return false;
    }

    case State::Replaying:
    {
      if (this->Cursor_ >= this->Nodes_.size())
      {
        this->Invalidate();
        return false;
      }
      GraphNode &n = this->Nodes_[this->Cursor_];
      if (n.Kind != NodeKind::Copy ||
          !this->BindStreamIx(stream, n.StreamIx))
      {
        this->Invalidate();
        return false;
      }
      n.Dst = dst;
      n.Src = src;
      n.Bytes = bytes; // payload size may track the element count
      classify(n);     // fresh buffers may change pinnedness / kind
      this->Cursor_++;
      TheStats().OpsAbsorbed++;
      return true;
    }

    default:
      return false;
  }
}

bool Session::OnEventRecord(const Stream &stream, std::uint64_t captureId)
{
  switch (this->State_)
  {
    case State::Capturing:
    {
      if (this->Nodes_.size() >= kMaxNodes)
      {
        this->AbortCapture();
        return false;
      }
      GraphNode n;
      n.Kind = NodeKind::EventRecord;
      n.StreamIx = this->CaptureStreamIx(stream);
      n.EventIx = this->NextEventIx_++;
      this->EventIx_.emplace(captureId, n.EventIx);
      this->Nodes_.push_back(std::move(n));
      return false; // the eager record also runs: checker sees the edge
    }

    case State::Replaying:
    {
      if (this->Cursor_ >= this->Nodes_.size())
      {
        this->Invalidate();
        return false;
      }
      GraphNode &n = this->Nodes_[this->Cursor_];
      if (n.Kind != NodeKind::EventRecord ||
          !this->BindStreamIx(stream, n.StreamIx))
      {
        this->Invalidate();
        return false;
      }
      this->EventIx_.emplace(captureId, n.EventIx);
      this->Cursor_++;
      TheStats().OpsAbsorbed++;
      return true;
    }

    default:
      return false;
  }
}

bool Session::OnStreamWaitEvent(const Stream &stream, std::uint64_t captureId)
{
  auto it = this->EventIx_.find(captureId);
  switch (this->State_)
  {
    case State::Capturing:
    {
      if (it == this->EventIx_.end())
      {
        // the event was recorded outside this step (a cross-step edge):
        // the pattern is not a self-contained step graph
        this->AbortCapture();
        return false;
      }
      if (this->Nodes_.size() >= kMaxNodes)
      {
        this->AbortCapture();
        return false;
      }
      GraphNode n;
      n.Kind = NodeKind::EventWait;
      n.StreamIx = this->CaptureStreamIx(stream);
      n.EventIx = it->second;
      this->Nodes_.push_back(std::move(n));
      return false;
    }

    case State::Replaying:
    {
      if (it == this->EventIx_.end() || this->Cursor_ >= this->Nodes_.size())
      {
        this->Invalidate();
        return false;
      }
      GraphNode &n = this->Nodes_[this->Cursor_];
      if (n.Kind != NodeKind::EventWait || n.EventIx != it->second ||
          !this->BindStreamIx(stream, n.StreamIx))
      {
        this->Invalidate();
        return false;
      }
      this->Cursor_++;
      TheStats().OpsAbsorbed++;
      return true;
    }

    case State::Bypass:
    {
      // an event absorbed before a mid-step invalidation has no eager
      // time/fence state — realize its ordering edge from the replayed
      // timeline (the prefix flush settled it)
      if (it == this->EventIx_.end())
        return false;
      const int ix = it->second;
      if (ix < 0 || ix >= static_cast<int>(this->EventSet_.size()) ||
          !this->EventSet_[ix])
        return false;
      StreamState *s = stream.Get();
      {
        std::lock_guard<std::mutex> lock(s->Mutex);
        s->Last = std::max(s->Last, this->EventTime_[ix]);
      }
      return true;
    }

    default:
      return false;
  }
}

void Session::BeforeStreamSync(const Stream &)
{
  if (this->State_ == State::Replaying)
    this->Flush();
}

void Session::BeforeDeviceSync(int, DeviceId)
{
  if (this->State_ == State::Replaying)
    this->Flush();
}

void Session::BeforeEventSync(std::uint64_t captureId)
{
  if (this->State_ != State::Replaying && this->State_ != State::Bypass)
    return;
  auto it = this->EventIx_.find(captureId);
  if (it == this->EventIx_.end())
    return;
  if (this->State_ == State::Replaying)
    this->Flush();
  const int ix = it->second;
  if (ix >= 0 && ix < static_cast<int>(this->EventSet_.size()) &&
      this->EventSet_[ix])
    ThisClock().AdvanceTo(this->EventTime_[ix]);
}

// ---------------------------------------------------------------------------
// Session — replay flush and invalidation
// ---------------------------------------------------------------------------

void Session::Flush()
{
  if (this->PendingBegin_ >= this->Cursor_)
    return;

  Platform &plat = Platform::Get();
  const CostModel &cost = plat.Config().Cost;
  const bool execute = plat.Config().ExecuteKernels;

  // the whole pending prefix submits under one amortized charge — this is
  // the cudaGraphLaunch analogue replacing per-call submit overhead
  ThisClock().Advance(cost.GraphReplayLatency);
  TheStats().Flushes++;
  const double now = ThisClock().Now();

  const std::size_t nStreams = this->Streams_.size();
  std::vector<char> touched(nStreams, 0);
  std::vector<double> sLast(nStreams, 0.0);

  // first touch per stream: a submit edge for the checker, then settle
  // any real-execution frontier so inline bodies below see final data,
  // then pick up the stream's current virtual completion
  auto touch = [&](int ix) -> StreamState *
  {
    StreamState *s = this->Streams_[ix].Bound.Get();
    if (!touched[ix])
    {
      touched[ix] = 1;
      check::OnSubmit(s);
      std::vector<std::shared_ptr<exec::Fence>> fences;
      {
        std::lock_guard<std::mutex> lock(s->Mutex);
        fences = s->RealFrontier;
      }
      for (const auto &f : fences)
        if (f)
          f->Wait();
      sLast[ix] = s->Completion();
    }
    return s;
  };

  std::size_t i = this->PendingBegin_;
  while (i < this->Cursor_)
  {
    GraphNode &n = this->Nodes_[i];
    switch (n.Kind)
    {
      case NodeKind::Kernel:
      {
        StreamState *s = touch(n.StreamIx);
        Device &dev = plat.GetDevice(s->Node, s->Device);
        const double complete =
          dev.Engine.Claim(std::max(now, sLast[n.StreamIx]),
                           cost.KernelLaunchLatency + n.WorkSeconds);
        sLast[n.StreamIx] = complete;
        plat.Stats().KernelsLaunched++;
        if (execute)
        {
          exec::NoteInlineTask();
          if (n.Fn)
            n.Fn(0, n.Desc.N);
        }
        break;
      }

      case NodeKind::Copy:
      {
        StreamState *s = touch(n.StreamIx);
        Device &dev = plat.GetDevice(s->Node, s->Device);
        const double complete = dev.CopyEngine.Claim(
          std::max(now, sLast[n.StreamIx]), n.CopySeconds);
        sLast[n.StreamIx] = complete;
        plat.Stats().CopyCount[n.CopyKindIx]++;
        plat.Stats().CopyBytes[n.CopyKindIx] += n.Bytes;
        if (execute)
          std::memmove(n.Dst, n.Src, n.Bytes);
        break;
      }

      case NodeKind::EventRecord:
        touch(n.StreamIx);
        this->EventTime_[n.EventIx] = sLast[n.StreamIx];
        this->EventSet_[n.EventIx] = 1;
        break;

      case NodeKind::EventWait:
        touch(n.StreamIx);
        if (this->EventSet_[n.EventIx])
          sLast[n.StreamIx] =
            std::max(sLast[n.StreamIx], this->EventTime_[n.EventIx]);
        break;
    }
    ++i;
  }

  // publish the new stream completions and give the checker one summary
  // happens-before edge per participating stream (the validate-once
  // contract: per-op hooks were paid during the capture step)
  for (std::size_t ix = 0; ix < nStreams; ++ix)
    if (touched[ix])
    {
      StreamState *s = this->Streams_[ix].Bound.Get();
      s->Extend(sLast[ix]);
      check::OnStreamSync(s);
    }

  this->PendingBegin_ = this->Cursor_;
}

void Session::Invalidate()
{
  if (std::getenv("VP_GRAPH_DEBUG"))
  {
    const GraphNode *n = this->Cursor_ < this->Nodes_.size()
                           ? &this->Nodes_[this->Cursor_] : nullptr;
    std::fprintf(stderr,
                 "graph invalidate: cursor=%zu/%zu expected kind=%d name=%s "
                 "N=%zu bytes=%zu\n",
                 this->Cursor_, this->Nodes_.size(),
                 n ? static_cast<int>(n->Kind) : -1,
                 n && n->Desc.Name ? n->Desc.Name : "",
                 n ? n->Desc.N : 0, n ? n->Bytes : 0);
  }
  this->Flush();
  this->State_ = State::Bypass;
  TheStats().Invalidations++;
}

// ---------------------------------------------------------------------------
// StepScope
// ---------------------------------------------------------------------------

StepScope::StepScope(Session &session)
{
  if (!Enabled())
    return;
  session.Mutex_.lock();
  if (session.Dead_)
  {
    session.Mutex_.unlock();
    return;
  }
  this->Session_ = &session;
  this->Active_ = true;
  session.BeginStep();
  this->Prev_ = SetCaptureSink(&session);
}

StepScope::~StepScope()
{
  if (!this->Active_)
    return;
  SetCaptureSink(this->Prev_);
  this->Session_->EndStep();
  this->Session_->Mutex_.unlock();
}

} // namespace graph
} // namespace vp
