#include "svcSession.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

namespace svc
{

const vp::knob::Table<ServiceConfig> &ConfigRows()
{
  using namespace vp::knob;
  using S = ServiceConfig;
  using P = cmp::Params;
  static const Table<ServiceConfig> rows({
    Int<&S::MaxSessions>("service", "max_sessions", 1, 1024,
                         "VP_SVC_MAX_SESSIONS"),
    Int<&S::Workers>("service", "workers", 1, 1024, "VP_SVC_WORKERS"),
    Int<&S::QueueDepth>("service", "queue_depth", 0, kMaxInt,
                        "VP_SVC_QUEUE_DEPTH"),
    Enum<&S::Pressure>("service", "backpressure", sched::BackpressureNames(),
                       "VP_SVC_BACKPRESSURE"),
    Enum<&S::Policy>("service", "policy", sched::PolicyNames(),
                     "VP_SVC_POLICY"),
    Int<&S::HeartbeatMs>("service", "heartbeat_ms", 1, kMaxInt32,
                         "VP_SVC_HEARTBEAT_MS"),
    Int<&S::MissedHeartbeats>("service", "missed_heartbeats", 1, kMaxInt32),
    Int<&S::RingBytes>("service", "ring_bytes", 1, 1 << 30),
    Int<&S::MaxChunkBytes>("service", "max_chunk_bytes", 1, 1 << 30),
    Enum<&S::CodecOverride, &P::Codec>("service", "codec", cmp::CodecNames(),
                                       "VP_SVC_CODEC")
      .Parses([](S &c, const std::string &text)
              {
                c.CodecOverride.Codec = cmp::CodecIdFromName(text);
                c.HaveCodecOverride = true;
              }),
    Real<&S::CodecOverride, &P::ErrorBound>("service", "codec_error_bound", 0,
                                            kInf),
    Int<&S::PushDepth>("viz", "push_depth", 1, kMaxInt),
  });
  return rows;
}

namespace
{
struct Global
{
  std::mutex Mutex;
  ServiceConfig Config = ConfigRows().Defaults();
  ServiceStats Counts;
};

Global &Self()
{
  static Global g;
  return g;
}
} // namespace

void Configure(const ServiceConfig &cfg)
{
  ConfigRows().Validate(cfg);
  if (cfg.HaveCodecOverride &&
      cfg.CodecOverride.Codec == cmp::CodecId::Quantize &&
      cfg.CodecOverride.ErrorBound <= 0.0)
    throw std::invalid_argument(
      "svc: a quantize codec override requires error_bound > 0");

  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  g.Config = cfg;
}

ServiceConfig GetConfig()
{
  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  return g.Config;
}

ServiceStats Stats()
{
  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  return g.Counts;
}

void ResetStats()
{
  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  g.Counts = ServiceStats{};
}

void UpdateStats(const std::function<void(ServiceStats &)> &fn)
{
  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  fn(g.Counts);
}

Admit FrameQueue::Push(Frame &&f, long depth, sched::Backpressure pressure)
{
  const bool bounded = depth > 0;
  if (!bounded || this->Q_.size() < static_cast<std::size_t>(depth))
  {
    this->Q_.emplace_back(std::move(f));
    this->HighWater_ = std::max(this->HighWater_, this->Q_.size());
    return Admit::Queued;
  }

  switch (pressure)
  {
    case sched::Backpressure::Block:
      return Admit::WouldBlock;
    case sched::Backpressure::DropOldest:
      this->Q_.pop_front();
      this->Q_.emplace_back(std::move(f));
      return Admit::DroppedOldest;
    case sched::Backpressure::Coalesce:
      this->Q_.back() = std::move(f);
      return Admit::Coalesced;
  }
  return Admit::WouldBlock;
}

bool FrameQueue::Full(long depth, sched::Backpressure pressure) const
{
  return pressure == sched::Backpressure::Block && depth > 0 &&
         this->Q_.size() >= static_cast<std::size_t>(depth);
}

bool FrameQueue::Pop(Frame &out)
{
  if (this->Q_.empty())
    return false;
  out = std::move(this->Q_.front());
  this->Q_.pop_front();
  return true;
}

} // namespace svc
