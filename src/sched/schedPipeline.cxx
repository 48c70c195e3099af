#include "schedPipeline.h"

#include "execEngine.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

namespace sched
{

// --- configuration ----------------------------------------------------------

namespace
{

std::mutex &ConfigMutex()
{
  static std::mutex m;
  return m;
}

SchedConfig &ConfigStorage()
{
  static SchedConfig cfg;
  return cfg;
}

} // namespace

void Configure(const SchedConfig &cfg)
{
  ConfigRows().Validate(cfg);
  std::lock_guard<std::mutex> lock(ConfigMutex());
  ConfigStorage() = cfg;
}

SchedConfig GetConfig()
{
  std::lock_guard<std::mutex> lock(ConfigMutex());
  return ConfigStorage();
}

const vp::knob::Spellings &BackpressureNames()
{
  static const vp::knob::Spellings names = {
    {"block", 0}, {"drop-oldest", 1}, {"drop_oldest", 1}, {"coalesce", 2}};
  return names;
}

Backpressure BackpressureFromName(const std::string &name)
{
  return vp::knob::FromName<Backpressure>(BackpressureNames(), name,
                                          "unknown backpressure policy");
}

const char *BackpressureName(Backpressure b)
{
  return vp::knob::NameOf(BackpressureNames(), static_cast<int>(b));
}

const vp::knob::Table<SchedConfig> &ConfigRows()
{
  using namespace vp::knob;
  static const Table<SchedConfig> rows({
    Enum<&SchedConfig::Policy>("sched", "policy", PolicyNames()),
    Int<&SchedConfig::QueueDepth>("sched", "queue_depth", 0, kMaxInt),
    Enum<&SchedConfig::Pressure>("sched", "backpressure",
                                 BackpressureNames()),
  });
  return rows;
}

// --- stats ------------------------------------------------------------------

PipelineStats &PipelineStats::operator+=(const PipelineStats &o)
{
  this->Submitted += o.Submitted;
  this->Executed += o.Executed;
  this->Dropped += o.Dropped;
  this->Coalesced += o.Coalesced;
  this->QueueDepthHighWater =
    std::max(this->QueueDepthHighWater, o.QueueDepthHighWater);
  this->QueuedBytes += o.QueuedBytes;
  this->PeakQueuedBytes = std::max(this->PeakQueuedBytes, o.PeakQueuedBytes);
  this->StallSeconds += o.StallSeconds;
  this->PayloadRawBytes += o.PayloadRawBytes;
  this->PayloadEncodedBytes += o.PayloadEncodedBytes;
  return *this;
}

// --- aggregate registry -----------------------------------------------------

namespace
{

struct Registry
{
  std::mutex Mutex;
  std::set<BoundedPipeline *> Live;
  PipelineStats Retired; ///< folded in by ~BoundedPipeline
};

Registry &TheRegistry()
{
  static Registry r;
  return r;
}

void RegisterPipeline(BoundedPipeline *p)
{
  Registry &r = TheRegistry();
  std::lock_guard<std::mutex> lock(r.Mutex);
  r.Live.insert(p);
}

void UnregisterPipeline(BoundedPipeline *p, const PipelineStats &final)
{
  Registry &r = TheRegistry();
  std::lock_guard<std::mutex> lock(r.Mutex);
  r.Live.erase(p);
  r.Retired += final;
}

} // namespace

PipelineStats AggregateStats()
{
  Registry &r = TheRegistry();
  std::vector<BoundedPipeline *> live;
  PipelineStats agg;
  {
    std::lock_guard<std::mutex> lock(r.Mutex);
    agg = r.Retired;
    live.assign(r.Live.begin(), r.Live.end());
  }
  for (BoundedPipeline *p : live)
    agg += p->Stats();
  return agg;
}

// --- BoundedPipeline --------------------------------------------------------

namespace
{

/// A start bound every submitted task meets: start it now.
constexpr double kAlways = std::numeric_limits<double>::infinity();

} // namespace

BoundedPipeline::BoundedPipeline()
{
  RegisterPipeline(this);
}

BoundedPipeline::~BoundedPipeline()
{
  this->Drain();
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    this->Stop_ = true;
  }
  this->Work_.notify_all();
  if (this->Consumer_.joinable())
    this->Consumer_.join();
  UnregisterPipeline(this, this->Stats());
}

void BoundedPipeline::SetDepth(long depth)
{
  if (depth < 0)
    throw std::invalid_argument("sched: queue depth must be >= 0");
  std::lock_guard<std::mutex> lock(this->Mutex_);
  this->DepthOverride_ = depth;
}

void BoundedPipeline::SetBackpressure(Backpressure b)
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  this->PressureOverride_ = static_cast<int>(b);
}

long BoundedPipeline::EffectiveDepth() const
{
  return this->DepthOverride_ >= 0 ? this->DepthOverride_
                                   : GetConfig().QueueDepth;
}

Backpressure BoundedPipeline::EffectivePressure() const
{
  return this->PressureOverride_ >= 0
           ? static_cast<Backpressure>(this->PressureOverride_)
           : GetConfig().Pressure;
}

void BoundedPipeline::NoteOccupancyLocked(std::size_t bytesDelta)
{
  this->Stats_.QueuedBytes += bytesDelta;
  this->Stats_.QueueDepthHighWater =
    std::max(this->Stats_.QueueDepthHighWater,
             static_cast<long>(this->Queue_.size()));
  this->Stats_.PeakQueuedBytes =
    std::max(this->Stats_.PeakQueuedBytes, this->Stats_.QueuedBytes);
}

void BoundedPipeline::RunInlineLocked(Task &t)
{
  // the consumer reaches this task once it is both submitted and the
  // previous task is done
  const double start = std::max(t.SubmitTime, this->WorkerAvail_);

  // run under a detached clock; the task must not disturb the
  // submitting thread's PM device bindings
  const int cudaDev = vcuda::GetDevice();
  const int ompDev = vomp::GetDefaultDevice();
  {
    vp::ClockScope scope(start);
    t.Fn();
    t.Finish = scope.Now();
  }
  vcuda::SetDevice(cudaDev);
  vomp::SetDefaultDevice(ompDev);

  t.Fn = nullptr; // the payload's real memory is released at start time
  t.Started = t.Done = true;
  this->WorkerAvail_ = t.Finish;
  this->Stats_.Executed++;
}

void BoundedPipeline::StartDueLocked(std::unique_lock<std::mutex> &lock,
                                     double by)
{
  // the queue is a started prefix followed by a deferred suffix
  // (drop-oldest removes the first deferred task, coalesce the last, so
  // the invariant survives); start deferred tasks in order while the
  // consumer would have started them by `by`. Only this submitter
  // changes the queue (Decide_), so waiting keeps `it` valid.
  auto it = std::find_if(this->Queue_.begin(), this->Queue_.end(),
                         [](const Task &t) { return !t.Started; });
  for (; it != this->Queue_.end() && it->SubmitTime <= by; ++it)
  {
    const bool threads = vp::exec::ThreadsEnabled();
    // deciding the start, or running the task inline, needs the finish
    // of the task the thread is still running
    if (this->OnThread_ > 0 && (by < kAlways || !threads))
      this->Finished_.wait(lock, [this] { return this->OnThread_ == 0; });
    if (std::max(it->SubmitTime, this->WorkerAvail_) > by)
      return;

    // order the task after every task the thread finished
    this->JoinFinishedLocked();
    if (!threads)
    {
      this->RunInlineLocked(*it);
      continue;
    }
    it->Started = true;
    it->Node = vp::Platform::GetThisNode();
    it->SpawnToken = vp::check::OnThreadSpawn();
    ++this->OnThread_;
    if (!this->Consumer_.joinable())
      this->Consumer_ = std::thread([this] { this->Consume(); });
    this->Work_.notify_one();
  }
}

void BoundedPipeline::Consume()
{
  // each task sees a fresh thread's PM device bindings
  const int cudaDev0 = vcuda::GetDevice();
  const int ompDev0 = vomp::GetDefaultDevice();
  // the oldest task handed over and not done; every task before it is
  // done, and the submitters neither drop nor retire it
  auto next = [this]
  {
    return std::find_if(this->Queue_.begin(), this->Queue_.end(),
                        [](const Task &t) { return t.Started && !t.Done; });
  };

  std::unique_lock<std::mutex> lock(this->Mutex_);
  for (;;)
  {
    this->Work_.wait(lock,
                     [this] { return this->Stop_ || this->OnThread_ > 0; });
    if (this->OnThread_ == 0)
      return; // Stop with nothing handed over (Drain ran first)

    Task &t = *next();
    const double start = std::max(t.SubmitTime, this->WorkerAvail_);
    std::function<void()> fn = std::move(t.Fn);
    const int node = t.Node;
    const std::uint64_t spawnToken = t.SpawnToken;
    lock.unlock();

    vcuda::SetDevice(cudaDev0);
    vomp::SetDefaultDevice(ompDev0);
    vp::Platform::SetThisNode(node);
    vp::check::OnThreadStart(spawnToken);
    vp::ThisClock().Set(start);
    fn();
    fn = nullptr; // release the payload before taking the lock
    const double finish = vp::ThisClock().Now();
    const std::uint64_t endToken = vp::check::OnThreadEnd();

    lock.lock();
    Task &done = *next();
    done.Finish = finish;
    done.Done = true;
    this->WorkerAvail_ = finish;
    --this->OnThread_;
    this->EndTokens_.push_back(endToken);
    this->Stats_.Executed++;
    this->Finished_.notify_all();
  }
}

void BoundedPipeline::RetireLocked(double now)
{
  while (!this->Queue_.empty() && this->Queue_.front().Done &&
         this->Queue_.front().Finish <= now)
  {
    this->Stats_.QueuedBytes -=
      std::min(this->Stats_.QueuedBytes, this->Queue_.front().Bytes);
    this->Queue_.pop_front();
  }
}

void BoundedPipeline::JoinFinishedLocked()
{
  // the checker edges of the tasks the thread finished: waiting for
  // them, or taking the lock after them, ordered us after them
  for (std::uint64_t tok : this->EndTokens_)
    vp::check::OnThreadJoin(tok);
  this->EndTokens_.clear();
}

void BoundedPipeline::Submit(std::function<void()> fn, std::size_t payloadBytes,
                             std::size_t rawBytes)
{
  std::lock_guard<std::mutex> decide(this->Decide_);
  std::unique_lock<std::mutex> lock(this->Mutex_);
  const long depth = this->EffectiveDepth();
  const Backpressure pressure = this->EffectivePressure();

  // the consumer is started once, by the first submission, and parked
  // between tasks: starting it costs a thread launch, and every later
  // submission only hands it a task, as a submission to a resident exec
  // worker does
  const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
  const double handoff =
    this->Launched_ ? cost.KernelSubmitOverhead : cost.ThreadSpawnCost;
  this->Launched_ = true;

  const double now = vp::ThisClock().Now();
  this->StartDueLocked(lock, now);
  this->RetireLocked(now);

  // a full queue's decision needs to know whether the front task is
  // still running at `now`; when the thread has not finished it yet,
  // wait for it
  const auto full = [this, depth]()
  {
    return depth > 0 &&
           this->Queue_.size() >= static_cast<std::size_t>(depth);
  };
  while (full() && this->Queue_.front().Started && !this->Queue_.front().Done)
  {
    const Task &front = this->Queue_.front();
    this->Finished_.wait(lock, [&front] { return front.Done; });
    this->RetireLocked(now);
  }

  if (full())
  {
    switch (pressure)
    {
      case Backpressure::DropOldest:
      {
        // drop the oldest task the consumer has not started
        auto it = std::find_if(this->Queue_.begin(), this->Queue_.end(),
                               [](const Task &t) { return !t.Started; });
        if (it != this->Queue_.end())
        {
          this->Stats_.QueuedBytes -=
            std::min(this->Stats_.QueuedBytes, it->Bytes);
          this->Queue_.erase(it);
          this->Stats_.Dropped++;
          break;
        }
        goto block; // everything queued is in flight: wait
      }
      case Backpressure::Coalesce:
      {
        // replace the newest not-yet-started task with the incoming one
        if (!this->Queue_.back().Started)
        {
          this->Stats_.QueuedBytes -=
            std::min(this->Stats_.QueuedBytes, this->Queue_.back().Bytes);
          this->Queue_.pop_back();
          this->Stats_.Coalesced++;
          break;
        }
        goto block;
      }
      case Backpressure::Block:
      block:
        while (full())
        {
          Task &front = this->Queue_.front();
          if (!front.Started)
            this->StartDueLocked(lock, kAlways);
          this->Finished_.wait(lock, [&front] { return front.Done; });
          this->Stats_.StallSeconds +=
            std::max(0.0, front.Finish - vp::ThisClock().Now());
          vp::ThisClock().AdvanceTo(front.Finish);
          this->RetireLocked(vp::ThisClock().Now());
        }
        break;
    }
  }

  vp::ThisClock().Advance(handoff);
  Task t;
  t.SubmitTime = vp::ThisClock().Now();
  t.Bytes = payloadBytes;
  t.Fn = std::move(fn);
  this->Queue_.push_back(std::move(t));
  this->Stats_.Submitted++;
  this->Stats_.PayloadEncodedBytes += payloadBytes;
  this->Stats_.PayloadRawBytes += rawBytes ? rawBytes : payloadBytes;
  this->NoteOccupancyLocked(payloadBytes);

  // block / unbounded start eagerly (deferring would reorder resource
  // claims against the solver and change the timeline); the dropping
  // modes defer so a queued task can still be discarded or replaced
  if (pressure == Backpressure::Block || depth == 0)
    this->StartDueLocked(lock, kAlways);
  this->JoinFinishedLocked();
}

void BoundedPipeline::Drain()
{
  std::lock_guard<std::mutex> decide(this->Decide_);
  std::unique_lock<std::mutex> lock(this->Mutex_);
  this->StartDueLocked(lock, kAlways);
  this->Finished_.wait(lock, [this] { return this->OnThread_ == 0; });
  this->JoinFinishedLocked();
  if (this->Queue_.empty())
    return;
  vp::ThisClock().AdvanceTo(this->Queue_.back().Finish);
  this->Stats_.QueuedBytes = 0;
  this->Queue_.clear();
}

bool BoundedPipeline::Busy() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  return !this->Queue_.empty();
}

PipelineStats BoundedPipeline::Stats() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  return this->Stats_;
}

void ResetAggregateStats()
{
  Registry &r = TheRegistry();
  std::vector<BoundedPipeline *> live;
  {
    std::lock_guard<std::mutex> lock(r.Mutex);
    r.Retired = PipelineStats();
    live.assign(r.Live.begin(), r.Live.end());
  }
  // live pipelines keep only their current occupancy so later retirement
  // cannot underflow the byte accounting
  for (BoundedPipeline *p : live)
  {
    std::lock_guard<std::mutex> lock(p->Mutex_);
    std::size_t bytes = 0;
    for (const BoundedPipeline::Task &t : p->Queue_)
      bytes += t.Bytes;
    p->Stats_ = PipelineStats();
    p->Stats_.QueuedBytes = bytes;
    p->Stats_.PeakQueuedBytes = bytes;
    p->Stats_.QueueDepthHighWater = static_cast<long>(p->Queue_.size());
  }
}

} // namespace sched
