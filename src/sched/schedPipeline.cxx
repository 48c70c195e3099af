#include "schedPipeline.h"

#include "execEngine.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
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

// --- real-thread consumer ---------------------------------------------------

/// Persistent consumer thread state. All fields are guarded by M; the
/// pipeline's own Mutex_ is never held while M is (the real-thread path
/// keeps its counters here to rule out lock-order inversions between the
/// submitters and the worker).
struct BoundedPipeline::RealWorker
{
  struct RTask
  {
    std::function<void()> Fn;
    double SubmitTime = 0.0;
    std::size_t Bytes = 0;
    int Node = 0;
    std::uint64_t SpawnToken = 0; ///< checker fork edge from the submitter
  };

  std::mutex M;
  std::condition_variable CvWork;  ///< worker waits for tasks
  std::condition_variable CvSpace; ///< blocked submitters wait for a slot
  std::condition_variable CvIdle;  ///< drainers wait for empty + idle
  std::deque<RTask> Pending;
  bool InFlight = false;
  std::size_t InFlightBytes = 0;
  bool Stop = false;
  double RetiredFinish = 0.0; ///< max virtual finish of completed tasks
  /// virtual finishes, in order, of completed tasks no submission has
  /// yet seen finish: the consumer runs ahead of its virtual clock in
  /// real time, so a completed task can still be running virtually
  std::deque<double> Finishes;
  std::vector<std::uint64_t> EndTokens; ///< finished, not yet joined
  PipelineStats Stats;
  std::thread Thread;

  ~RealWorker()
  {
    {
      std::lock_guard<std::mutex> lock(this->M);
      this->Stop = true;
    }
    this->CvWork.notify_all();
    if (this->Thread.joinable())
      this->Thread.join();
  }

  std::size_t OccupancyLocked() const
  {
    return this->Pending.size() + (this->InFlight ? 1u : 0u);
  }

  /// Forget the completed tasks that finish by `now`.
  void RetireLocked(double now)
  {
    while (!this->Finishes.empty() && this->Finishes.front() <= now)
      this->Finishes.pop_front();
  }

  void NoteOccupancyLocked(std::size_t held)
  {
    this->Stats.QueueDepthHighWater =
      std::max(this->Stats.QueueDepthHighWater, static_cast<long>(held));
    this->Stats.PeakQueuedBytes =
      std::max(this->Stats.PeakQueuedBytes, this->Stats.QueuedBytes);
  }

  void Run()
  {
    // each task must see a fresh thread's PM device bindings, like the
    // thread-per-task runner it replaces
    const int cudaDev0 = vcuda::GetDevice();
    const int ompDev0 = vomp::GetDefaultDevice();

    std::unique_lock<std::mutex> lock(this->M);
    for (;;)
    {
      this->CvWork.wait(lock,
                        [this] { return this->Stop || !this->Pending.empty(); });
      if (this->Pending.empty())
        return; // Stop with nothing queued (Drain ran first)

      RTask t = std::move(this->Pending.front());
      this->Pending.pop_front();
      this->InFlight = true;
      this->InFlightBytes = t.Bytes;
      lock.unlock();

      vcuda::SetDevice(cudaDev0);
      vomp::SetDefaultDevice(ompDev0);
      vp::Platform::SetThisNode(t.Node);
      vp::check::OnThreadStart(t.SpawnToken);
      // single consumer: this task starts when both it was submitted and
      // the previous task is done (the worker's own clock carries that)
      vp::ThisClock().AdvanceTo(t.SubmitTime);
      t.Fn();
      t.Fn = nullptr; // release the payload before taking the lock
      const double finish = vp::ThisClock().Now();
      const std::uint64_t endToken = vp::check::OnThreadEnd();

      lock.lock();
      this->InFlight = false;
      this->InFlightBytes = 0;
      this->RetiredFinish = std::max(this->RetiredFinish, finish);
      this->Finishes.push_back(finish);
      this->EndTokens.push_back(endToken);
      this->Stats.Executed++;
      this->Stats.QueuedBytes -= std::min(this->Stats.QueuedBytes, t.Bytes);
      this->CvSpace.notify_all();
      if (this->Pending.empty())
        this->CvIdle.notify_all();
    }
  }
};

// --- BoundedPipeline --------------------------------------------------------

BoundedPipeline::BoundedPipeline()
{
  RegisterPipeline(this);
}

BoundedPipeline::~BoundedPipeline()
{
  this->Drain();
  PipelineStats final = this->Stats();
  this->Worker_.reset(); // stops the consumer thread
  UnregisterPipeline(this, final);
}

void BoundedPipeline::SetUseRealThreads(bool on)
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  this->RealThreads_ = on;
}

bool BoundedPipeline::GetUseRealThreads() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  return this->RealThreads_;
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

void BoundedPipeline::ExecuteDetachedLocked(Task &t)
{
  // the consumer reaches this task once it is both submitted and the
  // previous task is done
  const double start = std::max(t.SubmitTime, this->WorkerAvail_);

  // run inline under a detached clock; the task must not disturb the
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
  t.Executed = true;
  this->WorkerAvail_ = t.Finish;
  this->Stats_.Executed++;
}

void BoundedPipeline::AdvanceConsumerLocked(double now)
{
  // the queue is an executed prefix followed by an unexecuted suffix
  // (drop-oldest removes the first unexecuted, coalesce the last, so the
  // invariant survives); run every deferred task the consumer would have
  // started by `now`
  for (Task &t : this->Queue_)
  {
    if (t.Executed)
      continue;
    if (std::max(t.SubmitTime, this->WorkerAvail_) > now)
      break;
    this->ExecuteDetachedLocked(t);
  }
}

void BoundedPipeline::RetireLocked(double now)
{
  while (!this->Queue_.empty() && this->Queue_.front().Executed &&
         this->Queue_.front().Finish <= now)
  {
    this->Stats_.QueuedBytes -=
      std::min(this->Stats_.QueuedBytes, this->Queue_.front().Bytes);
    this->Queue_.pop_front();
  }
}

void BoundedPipeline::Submit(std::function<void()> fn, std::size_t payloadBytes,
                             std::size_t rawBytes)
{
  // the consumer is started once, by the first submission, and parked
  // between tasks: starting it costs a thread launch, and every later
  // submission only hands it a task, as a submission to a resident exec
  // worker does
  const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
  double handoff = cost.KernelSubmitOverhead;

  long depth = 0;
  Backpressure pressure = Backpressure::Block;
  bool realThreads = false;
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    depth = this->EffectiveDepth();
    pressure = this->EffectivePressure();
    // real consumer threads: per-pipeline opt-in or the exec engine's
    // threads mode (the bounded pipeline rides the same wall-clock
    // concurrency the engine provides)
    realThreads = this->RealThreads_ || vp::exec::ThreadsEnabled();
    if (realThreads && !this->Worker_)
    {
      this->Worker_ = std::make_unique<RealWorker>();
      RealWorker *w = this->Worker_.get();
      w->Thread = std::thread([w]() { w->Run(); });
      handoff = cost.ThreadSpawnCost;
    }
    if (!realThreads && !this->Started_)
    {
      this->Started_ = true;
      handoff = cost.ThreadSpawnCost;
    }
  }

  if (realThreads)
  {
    RealWorker *w = this->Worker_.get();
    std::unique_lock<std::mutex> lock(w->M);

    // `block` counts its slots in virtual time, as the deterministic
    // mode does: a task the consumer has completed keeps its slot until
    // the submitter's clock reaches the task's virtual finish. The
    // dropping policies count only the tasks not yet run, the ones they
    // can discard.
    const bool virtualSlots = pressure == Backpressure::Block;
    w->RetireLocked(virtualSlots ? vp::ThisClock().Now()
                                 : std::numeric_limits<double>::infinity());
    auto held = [w, virtualSlots]()
    {
      return w->OccupancyLocked() + (virtualSlots ? w->Finishes.size() : 0u);
    };

    if (depth > 0 && held() >= static_cast<std::size_t>(depth))
    {
      switch (pressure)
      {
        case Backpressure::DropOldest:
          if (!w->Pending.empty())
          {
            w->Stats.QueuedBytes -=
              std::min(w->Stats.QueuedBytes, w->Pending.front().Bytes);
            w->Pending.pop_front();
            w->Stats.Dropped++;
            break;
          }
          goto block_real; // only the in-flight task remains: wait
        case Backpressure::Coalesce:
          if (!w->Pending.empty())
          {
            w->Stats.QueuedBytes -=
              std::min(w->Stats.QueuedBytes, w->Pending.back().Bytes);
            w->Pending.pop_back();
            w->Stats.Coalesced++;
            break;
          }
          goto block_real;
        case Backpressure::Block:
        block_real:
        {
          // wait out the oldest tasks' virtual finishes, each after its
          // real completion, until a slot is free: the stall
          const double before = vp::ThisClock().Now();
          while (held() >= static_cast<std::size_t>(depth))
          {
            w->CvSpace.wait(lock, [w] { return !w->Finishes.empty(); });
            vp::ThisClock().AdvanceTo(w->Finishes.front());
            w->RetireLocked(vp::ThisClock().Now());
          }
          w->Stats.StallSeconds +=
            std::max(0.0, vp::ThisClock().Now() - before);
          break;
        }
      }
    }

    // harvest checker edges of work that already finished (the real wait
    // above, or plain temporal luck, ordered us after it)
    std::vector<std::uint64_t> done;
    done.swap(w->EndTokens);

    vp::ThisClock().Advance(handoff);
    RealWorker::RTask t;
    t.SubmitTime = vp::ThisClock().Now();
    t.Bytes = payloadBytes;
    t.Node = vp::Platform::GetThisNode();
    t.SpawnToken = vp::check::OnThreadSpawn();
    t.Fn = std::move(fn);
    w->Pending.push_back(std::move(t));
    w->Stats.Submitted++;
    w->Stats.QueuedBytes += payloadBytes;
    w->Stats.PayloadEncodedBytes += payloadBytes;
    w->Stats.PayloadRawBytes += rawBytes ? rawBytes : payloadBytes;
    w->NoteOccupancyLocked(held());
    lock.unlock();
    w->CvWork.notify_one();

    for (std::uint64_t tok : done)
      vp::check::OnThreadJoin(tok);
    return;
  }

  // deterministic mode: inline accounting under the pipeline lock
  std::lock_guard<std::mutex> lock(this->Mutex_);
  double now = vp::ThisClock().Now();
  this->AdvanceConsumerLocked(now);
  this->RetireLocked(now);

  if (depth > 0 && this->Queue_.size() >= static_cast<std::size_t>(depth))
  {
    switch (pressure)
    {
      case Backpressure::DropOldest:
      {
        // drop the oldest task the consumer has not started
        auto it = std::find_if(this->Queue_.begin(), this->Queue_.end(),
                               [](const Task &t) { return !t.Executed; });
        if (it != this->Queue_.end())
        {
          this->Stats_.QueuedBytes -=
            std::min(this->Stats_.QueuedBytes, it->Bytes);
          this->Queue_.erase(it);
          this->Stats_.Dropped++;
          break;
        }
        goto block_det; // everything queued is in flight: wait
      }
      case Backpressure::Coalesce:
      {
        // replace the newest not-yet-started task with the incoming one
        if (!this->Queue_.empty() && !this->Queue_.back().Executed)
        {
          this->Stats_.QueuedBytes -=
            std::min(this->Stats_.QueuedBytes, this->Queue_.back().Bytes);
          this->Queue_.pop_back();
          this->Stats_.Coalesced++;
          break;
        }
        goto block_det;
      }
      case Backpressure::Block:
      block_det:
        while (this->Queue_.size() >= static_cast<std::size_t>(depth))
        {
          Task &front = this->Queue_.front();
          if (!front.Executed)
            this->ExecuteDetachedLocked(front);
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

  // block / unbounded run eagerly (deferring would reorder resource
  // claims against the solver and change the timeline); the dropping
  // modes defer so a queued task can still be discarded or replaced
  if (pressure == Backpressure::Block || depth == 0)
    this->ExecuteDetachedLocked(this->Queue_.back());
}

void BoundedPipeline::Drain()
{
  RealWorker *w = nullptr;
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    w = this->Worker_.get();
  }

  if (w)
  {
    std::vector<std::uint64_t> done;
    {
      std::unique_lock<std::mutex> lock(w->M);
      w->CvIdle.wait(lock,
                     [&] { return w->Pending.empty() && !w->InFlight; });
      vp::ThisClock().AdvanceTo(w->RetiredFinish);
      w->Finishes.clear();
      done.swap(w->EndTokens);
    }
    for (std::uint64_t tok : done)
      vp::check::OnThreadJoin(tok);
    // fall through: the deterministic queue is drained too (a pipeline
    // switched between modes owes both)
  }

  std::lock_guard<std::mutex> lock(this->Mutex_);
  if (this->Queue_.empty())
    return;
  for (Task &t : this->Queue_)
    if (!t.Executed)
      this->ExecuteDetachedLocked(t);
  vp::ThisClock().AdvanceTo(this->Queue_.back().Finish);
  this->Stats_.QueuedBytes = 0;
  this->Queue_.clear();
}

bool BoundedPipeline::Busy() const
{
  RealWorker *w = nullptr;
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    if (!this->Queue_.empty())
      return true;
    w = this->Worker_.get();
  }
  if (w)
  {
    std::lock_guard<std::mutex> lock(w->M);
    if (!w->Pending.empty() || w->InFlight)
      return true;
  }
  return false;
}

PipelineStats BoundedPipeline::Stats() const
{
  PipelineStats s;
  RealWorker *w = nullptr;
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    s = this->Stats_;
    w = this->Worker_.get();
  }
  if (w)
  {
    std::lock_guard<std::mutex> lock(w->M);
    s += w->Stats;
  }
  return s;
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
    if (BoundedPipeline::RealWorker *w = p->Worker_.get())
    {
      std::lock_guard<std::mutex> wl(w->M);
      const std::size_t wb = w->Stats.QueuedBytes;
      w->Stats = PipelineStats();
      w->Stats.QueuedBytes = wb;
      w->Stats.PeakQueuedBytes = wb;
      w->Stats.QueueDepthHighWater =
        static_cast<long>(w->OccupancyLocked());
    }
  }
}

} // namespace sched
