#include "execEngine.h"

#include "vpChecker.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace vp
{
namespace exec
{

// --- configuration -------------------------------------------------------

const vp::knob::Spellings &ModeNames()
{
  static const vp::knob::Spellings names = {{"serial", 0}, {"threads", 1}};
  return names;
}

Mode ModeFromName(const std::string &name)
{
  return vp::knob::FromName<Mode>(ModeNames(), name, "unknown exec mode");
}

const char *ModeName(Mode m)
{
  return vp::knob::NameOf(ModeNames(), static_cast<int>(m));
}

const vp::knob::Table<ExecConfig> &ConfigRows()
{
  using namespace vp::knob;
  static const Table<ExecConfig> rows({
    Enum<&ExecConfig::ExecMode>("exec", "mode", ModeNames(), "VP_EXEC"),
    Int<&ExecConfig::Threads>("exec", "threads", 0, 1024, "VP_EXEC_THREADS"),
    Int<&ExecConfig::ShardGrain>("exec", "shard_grain", 1, kMaxInt),
  });
  return rows;
}

ExecConfig DefaultConfig()
{
  return ConfigRows().Defaults();
}

namespace
{

thread_local int tlShardIndex = 0;
thread_local int tlShardCount = 1;

std::mutex &CfgMutex()
{
  static std::mutex m;
  return m;
}

ExecConfig &Cfg()
{
  static ExecConfig c = DefaultConfig();
  return c;
}

// mode mirror readable without the config mutex; LaunchKernel checks it
// on every submission
std::atomic<int> &ModeAtomic()
{
  static std::atomic<int> m{static_cast<int>(Cfg().ExecMode)};
  return m;
}

struct AtomicStats
{
  std::atomic<std::uint64_t> TasksEnqueued{0};
  std::atomic<std::uint64_t> CopiesEnqueued{0};
  std::atomic<std::uint64_t> TasksInline{0};
  std::atomic<std::uint64_t> ShardedRegions{0};
  std::atomic<std::uint64_t> ShardsExecuted{0};
  std::atomic<std::uint64_t> FenceJoins{0};
};

AtomicStats &StatsRef()
{
  static AtomicStats s;
  return s;
}

int AutoPoolThreads()
{
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // the submitting thread participates in every sharded region, so an
  // auto-sized pool leaves one lane for it
  return static_cast<int>(hw > 1 ? hw - 1 : 1);
}

} // namespace

void Configure(const ExecConfig &cfg)
{
  ConfigRows().Validate(cfg);

  {
    std::lock_guard<std::mutex> lock(CfgMutex());
    if (Cfg() == cfg)
      return;
  }
  // drain in-flight work under the old configuration before switching;
  // done outside the config lock because quiescing joins threads
  Engine::Get().Quiesce();
  std::lock_guard<std::mutex> lock(CfgMutex());
  Cfg() = cfg;
  ModeAtomic().store(static_cast<int>(cfg.ExecMode),
                     std::memory_order_relaxed);
}

ExecConfig GetConfig()
{
  std::lock_guard<std::mutex> lock(CfgMutex());
  return Cfg();
}

bool ThreadsEnabled()
{
  return ModeAtomic().load(std::memory_order_relaxed) ==
         static_cast<int>(Mode::Threads);
}

EngineStats Stats()
{
  const AtomicStats &a = StatsRef();
  EngineStats s;
  s.TasksEnqueued = a.TasksEnqueued.load();
  s.CopiesEnqueued = a.CopiesEnqueued.load();
  s.TasksInline = a.TasksInline.load();
  s.ShardedRegions = a.ShardedRegions.load();
  s.ShardsExecuted = a.ShardsExecuted.load();
  s.FenceJoins = a.FenceJoins.load();
  return s;
}

void ResetStats()
{
  AtomicStats &a = StatsRef();
  a.TasksEnqueued = 0;
  a.CopiesEnqueued = 0;
  a.TasksInline = 0;
  a.ShardedRegions = 0;
  a.ShardsExecuted = 0;
  a.FenceJoins = 0;
}

void NoteInlineTask()
{
  StatsRef().TasksInline.fetch_add(1, std::memory_order_relaxed);
}

int ShardIndex()
{
  return tlShardIndex;
}

int ShardCount()
{
  return tlShardCount;
}

// --- Fence ---------------------------------------------------------------

void Fence::WaitRaw()
{
  std::unique_lock<std::mutex> lock(this->Mutex_);
  this->Cv_.wait(lock, [this] { return this->Done_; });
}

void Fence::Wait()
{
  // a fence waited out once is done for every later waiter: no lock,
  // no join to count
  if (this->Joined_.load(std::memory_order_acquire))
    return;
  this->WaitRaw();
  StatsRef().FenceJoins.fetch_add(1, std::memory_order_relaxed);
  // only the first waiter closes the happens-before edge; the checker
  // erases the token on join, so hand it out exactly once
  const std::uint64_t tok = this->EndToken_.exchange(0);
  if (tok)
    check::OnTaskJoin(tok);
  this->Joined_.store(true, std::memory_order_release);
}

bool Fence::Done() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  return this->Done_;
}

void Fence::MarkDone(std::uint64_t endToken)
{
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    this->EndToken_.store(endToken);
    this->Done_ = true;
  }
  this->Cv_.notify_all();
}

// --- WorkerPool ----------------------------------------------------------

struct WorkerPool::Job
{
  RangeFn Fn;
  std::size_t N = 0;
  int Shards = 0;
  std::atomic<int> Next{0};      ///< next unclaimed shard
  std::atomic<int> Remaining{0}; ///< shards not yet finished
  int Active = 0;                ///< workers mid-participation (pool mutex)
  std::vector<char> Started;     ///< per worker, joined job (pool mutex)
  std::vector<std::uint64_t> SpawnTokens; ///< per worker, set by caller
  std::vector<std::uint64_t> EndTokens;   ///< per worker, set by worker
};

WorkerPool::WorkerPool(int threads)
{
  threads = std::max(1, threads);
  this->Threads_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    this->Threads_.emplace_back([this, t] { this->Loop(t); });
}

WorkerPool::~WorkerPool()
{
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    this->Stop_ = true;
  }
  this->Cv_.notify_all();
  for (std::thread &t : this->Threads_)
    t.join();
}

void WorkerPool::RunShardsOf(Job &job)
{
  const std::size_t base = job.N / static_cast<std::size_t>(job.Shards);
  const std::size_t rem = job.N % static_cast<std::size_t>(job.Shards);
  for (;;)
  {
    const int s = job.Next.fetch_add(1, std::memory_order_relaxed);
    if (s >= job.Shards)
      break;
    const std::size_t su = static_cast<std::size_t>(s);
    const std::size_t begin =
      su * base + std::min<std::size_t>(su, rem);
    const std::size_t end = begin + base + (su < rem ? 1 : 0);
    // the shard index identifies the chunk, not the thread: privatized
    // kernels keyed on it produce slab contents that depend only on the
    // chunk boundaries, never on which lane claimed the chunk
    tlShardIndex = s;
    tlShardCount = job.Shards;
    if (end > begin)
      job.Fn(begin, end);
    tlShardIndex = 0;
    tlShardCount = 1;
    StatsRef().ShardsExecuted.fetch_add(1, std::memory_order_relaxed);
    job.Remaining.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void WorkerPool::Loop(int lane)
{
  std::unique_lock<std::mutex> lock(this->Mutex_);
  for (;;)
  {
    this->Cv_.wait(lock, [this, lane]
    {
      if (this->Stop_)
        return true;
      const Job *j = this->Current_.get();
      return j && !j->Started[static_cast<std::size_t>(lane)] &&
             j->Next.load(std::memory_order_relaxed) < j->Shards;
    });
    if (this->Stop_)
      return;
    std::shared_ptr<Job> job = this->Current_;
    job->Started[static_cast<std::size_t>(lane)] = 1;
    ++job->Active;
    lock.unlock();

    check::OnTaskStart(job->SpawnTokens[static_cast<std::size_t>(lane)]);
    RunShardsOf(*job);
    job->EndTokens[static_cast<std::size_t>(lane)] = check::OnTaskEnd();

    lock.lock();
    --job->Active;
    this->Cv_.notify_all();
  }
}

void WorkerPool::Run(std::size_t n, int shards, const RangeFn &fn)
{
  if (shards <= 1 || n == 0)
  {
    if (fn && n)
      fn(0, n);
    return;
  }

  auto job = std::make_shared<Job>();
  job->Fn = fn;
  job->N = n;
  job->Shards = shards;
  job->Remaining.store(shards, std::memory_order_relaxed);
  const std::size_t lanes = this->Threads_.size();
  job->Started.assign(lanes, 0);
  job->SpawnTokens.assign(lanes, 0);
  job->EndTokens.assign(lanes, 0);
  for (std::size_t t = 0; t < lanes; ++t)
    job->SpawnTokens[t] = check::OnTaskSpawn();

  std::unique_lock<std::mutex> lock(this->Mutex_);
  // one region at a time; concurrent submitters queue here
  this->Cv_.wait(lock, [this] { return !this->Current_; });
  this->Current_ = job;
  this->Cv_.notify_all();
  lock.unlock();

  // the caller is a lane too
  RunShardsOf(*job);

  lock.lock();
  this->Cv_.wait(lock, [&job]
  {
    return job->Remaining.load(std::memory_order_acquire) == 0 &&
           job->Active == 0;
  });
  this->Current_.reset();
  this->Cv_.notify_all();
  lock.unlock();

  // close the happens-before edges: join every participant's end token,
  // and consume the spawn tokens of workers that never woke for this job
  for (std::size_t t = 0; t < lanes; ++t)
  {
    if (job->Started[t])
      check::OnTaskJoin(job->EndTokens[t]);
    else
      check::OnTaskJoin(job->SpawnTokens[t]);
  }
}

// --- Engine --------------------------------------------------------------

Engine &Engine::Get()
{
  static Engine e;
  return e;
}

Engine::~Engine()
{
  this->Quiesce();
}

void Engine::ResetTopology(int numNodes, int devicesPerNode)
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  this->QuiesceLocked();
  this->NumNodes_ = std::max(0, numNodes);
  this->DevicesPerNode_ = std::max(0, devicesPerNode);
  const std::size_t nq = static_cast<std::size_t>(this->NumNodes_) *
                         static_cast<std::size_t>(this->DevicesPerNode_) * 2;
  this->Queues_.clear();
  this->Queues_.reserve(nq);
  for (std::size_t i = 0; i < nq; ++i)
    this->Queues_.emplace_back(new DeviceQueue);
  this->Pools_.clear();
  this->Pools_.resize(static_cast<std::size_t>(this->NumNodes_));
}

Engine::DeviceQueue *Engine::Queue(int node, int device, int queue)
{
  if (node < 0 || node >= this->NumNodes_ || device < 0 ||
      device >= this->DevicesPerNode_ || queue < 0 || queue > 1)
    return nullptr;
  const std::size_t i =
    (static_cast<std::size_t>(node) *
       static_cast<std::size_t>(this->DevicesPerNode_) +
     static_cast<std::size_t>(device)) *
      2 +
    static_cast<std::size_t>(queue);
  return this->Queues_[i].get();
}

void Engine::EnsureWorkerLocked(DeviceQueue &q)
{
  if (!q.Worker.joinable())
  {
    q.Stop = false;
    q.Worker = std::thread(&Engine::WorkerLoop, &q);
  }
}

void Engine::WorkerLoop(DeviceQueue *q)
{
  for (;;)
  {
    Task task;
    {
      std::unique_lock<std::mutex> lock(q->Mutex);
      q->Cv.wait(lock, [q] { return q->Stop || !q->Queue.empty(); });
      if (q->Queue.empty())
        return; // Stop with nothing left to drain
      task = std::move(q->Queue.front());
      q->Queue.pop_front();
    }
    // cross-queue ordering: same-queue dependencies are already done
    // (FIFO), so these waits only ever block on other queues' fences
    for (const FencePtr &dep : task.Deps)
      if (dep)
        dep->WaitRaw();
    check::OnTaskStart(task.SpawnToken);
    if (task.Body)
      task.Body();
    const std::uint64_t end = check::OnTaskEnd();
    task.Done->MarkDone(end);
  }
}

FencePtr Engine::Enqueue(int node, int device, int queue,
                         std::vector<FencePtr> deps,
                         std::function<void()> body)
{
  auto fence = std::make_shared<Fence>();
  AtomicStats &s = StatsRef();
  (queue == CopyQueue ? s.CopiesEnqueued : s.TasksEnqueued)
    .fetch_add(1, std::memory_order_relaxed);

  Task task;
  task.Body = std::move(body);
  task.Deps = std::move(deps);
  task.Done = fence;
  task.SpawnToken = check::OnTaskSpawn();

  DeviceQueue *q = nullptr;
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    q = this->Queue(node, device, queue);
    if (q)
    {
      std::lock_guard<std::mutex> qlock(q->Mutex);
      q->Queue.push_back(std::move(task));
      q->Tail = fence;
      this->EnsureWorkerLocked(*q);
      q->Cv.notify_one();
    }
  }
  if (!q)
  {
    // no topology for this target (e.g. platform not built yet): run
    // inline so callers still get a completed fence
    for (const FencePtr &dep : task.Deps)
      if (dep)
        dep->WaitRaw();
    check::OnTaskStart(task.SpawnToken);
    if (task.Body)
      task.Body();
    fence->MarkDone(check::OnTaskEnd());
  }
  return fence;
}

int Engine::Lanes() const
{
  const ExecConfig cfg = GetConfig();
  const int threads = cfg.Threads > 0 ? cfg.Threads : AutoPoolThreads();
  return threads + 1;
}

int Engine::PlanShards(std::size_t n, int width) const
{
  if (!ThreadsEnabled() || n == 0)
    return 1;
  const ExecConfig cfg = GetConfig();
  std::size_t lanes = static_cast<std::size_t>(this->Lanes());
  if (width > 0)
    lanes = std::min<std::size_t>(lanes, static_cast<std::size_t>(width));
  const std::size_t grain = std::max<std::size_t>(1, cfg.ShardGrain);
  const std::size_t byGrain = (n + grain - 1) / grain;
  const std::size_t shards = std::min(lanes, byGrain);
  return shards < 2 ? 1 : static_cast<int>(shards);
}

void Engine::RunSharded(int node, std::size_t n, int shards,
                        const RangeFn &fn)
{
  if (shards <= 1 || n == 0)
  {
    if (fn && n)
      fn(0, n);
    return;
  }

  WorkerPool *pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(this->PoolMutex_);
    if (node >= 0 && node < static_cast<int>(this->Pools_.size()))
    {
      auto &slot = this->Pools_[static_cast<std::size_t>(node)];
      if (!slot)
      {
        const ExecConfig cfg = GetConfig();
        const int threads =
          cfg.Threads > 0 ? cfg.Threads : AutoPoolThreads();
        slot.reset(new WorkerPool(threads));
      }
      pool = slot.get();
    }
  }
  if (!pool)
  {
    if (fn)
      fn(0, n);
    return;
  }
  StatsRef().ShardedRegions.fetch_add(1, std::memory_order_relaxed);
  pool->Run(n, shards, fn);
}

void Engine::WaitDeviceTails(int node, int device)
{
  FencePtr tails[2];
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    for (int queue = 0; queue < 2; ++queue)
    {
      if (DeviceQueue *q = this->Queue(node, device, queue))
      {
        std::lock_guard<std::mutex> qlock(q->Mutex);
        tails[queue] = q->Tail;
      }
    }
  }
  for (FencePtr &f : tails)
    if (f)
      f->Wait();
}

void Engine::WaitAll()
{
  std::vector<FencePtr> tails;
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    tails.reserve(this->Queues_.size());
    for (const auto &q : this->Queues_)
    {
      std::lock_guard<std::mutex> qlock(q->Mutex);
      if (q->Tail)
        tails.push_back(q->Tail);
    }
  }
  for (FencePtr &f : tails)
    if (f)
      f->Wait();
}

void Engine::Quiesce()
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  this->QuiesceLocked();
}

void Engine::QuiesceLocked()
{
  // stop-and-drain: workers exit only once their queue is empty, so all
  // enqueued bodies (and their checker end tokens) are published. Device
  // workers never take Engine::Mutex_, and sharded bodies go through
  // PoolMutex_, so joining under Mutex_ cannot deadlock.
  for (const auto &q : this->Queues_)
  {
    {
      std::lock_guard<std::mutex> qlock(q->Mutex);
      q->Stop = true;
    }
    q->Cv.notify_all();
  }
  for (const auto &q : this->Queues_)
  {
    if (q->Worker.joinable())
      q->Worker.join();
    std::lock_guard<std::mutex> qlock(q->Mutex);
    q->Stop = false;
    q->Tail.reset();
  }
  std::lock_guard<std::mutex> plock(this->PoolMutex_);
  for (auto &p : this->Pools_)
    p.reset(); // ~WorkerPool joins its threads
}

} // namespace exec
} // namespace vp
