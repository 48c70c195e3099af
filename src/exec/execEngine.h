#ifndef execEngine_h
#define execEngine_h

/// @file execEngine.h
/// Real parallel execution engine behind the virtual platform. The
/// platform charges every operation to the discrete-event virtual
/// timeline at submission, exactly as before; this engine decides where
/// and when the *real* kernel bodies run:
///
///  * `Mode::Serial` (the default) — bodies run eagerly on the
///    submitting thread, bit-identical to the historical behaviour.
///    Deterministic tests and the reproduction campaigns rely on this.
///  * `Mode::Threads` — every virtual device engine (one compute and
///    one copy queue per device) gets a dedicated worker thread that
///    drains a FIFO task queue, so bodies submitted to different
///    devices/queues really run concurrently. Stream order is preserved
///    with completion fences: each stream keeps a frontier of the
///    fences its queued work must honour, event record/wait edges copy
///    fences across streams, and Stream/Device synchronization becomes
///    a real join. Host parallel regions and kernels marked
///    `Shardable` are split into per-lane chunks over a per-node
///    `WorkerPool` (grain-size heuristic, sequential fallback for
///    small N).
///
/// Selection: `VP_EXEC=serial|threads` in the environment (read once),
/// the `<exec mode threads shard_grain>` SENSEI XML element, or
/// exec::Configure. Virtual timelines do not depend on the mode; only
/// wall-clock execution does. The vpChecker stays sound under Threads
/// because every task carries a happens-before fork token taken at
/// submission and publishes a join token consumed by whoever waits out
/// its fence.

#include "vpKnob.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vp
{
namespace exec
{

/// A range body invoked as fn(begin, end); mirrors vp::KernelFn without
/// depending on vpPlatform.h (the platform depends on this header).
using RangeFn = std::function<void(std::size_t, std::size_t)>;

/// Where kernel bodies really execute.
enum class Mode : int
{
  Serial = 0, ///< inline on the submitting thread (bit-exact legacy path)
  Threads     ///< per-device worker queues + sharded host regions
};

/// The spellings of Mode ("serial", "threads").
const vp::knob::Spellings &ModeNames();

/// Parse "serial" / "threads"; throws std::invalid_argument otherwise.
Mode ModeFromName(const std::string &name);

/// Stable lower-case name.
const char *ModeName(Mode m);

/// Process-wide engine configuration (the `<exec>` XML element).
struct ExecConfig
{
  Mode ExecMode = Mode::Serial;
  int Threads = 0;               ///< worker-pool lanes per node; 0 = auto
  std::size_t ShardGrain = 16384; ///< min elements per shard

  bool operator==(const ExecConfig &o) const
  {
    return ExecMode == o.ExecMode && Threads == o.Threads &&
           ShardGrain == o.ShardGrain;
  }
};

/// The `<exec>` rows: mode (VP_EXEC), threads (VP_EXEC_THREADS) and
/// shard_grain.
const vp::knob::Table<ExecConfig> &ConfigRows();

/// The defaults with the environment applied (serial unless VP_EXEC
/// says threads); throws std::runtime_error on a malformed variable.
ExecConfig DefaultConfig();

/// Replace the process-wide configuration. Quiesces in-flight work
/// first; validated against the rows' ranges. A no-op when the
/// configuration is unchanged, so concurrent identical calls (e.g. the
/// same XML parsed on every rank) are cheap and safe.
void Configure(const ExecConfig &cfg);

/// The active configuration.
ExecConfig GetConfig();

/// True when the active mode is Mode::Threads.
bool ThreadsEnabled();

/// Aggregate engine counters (process-wide, reset with ResetStats).
struct EngineStats
{
  std::uint64_t TasksEnqueued = 0;   ///< bodies deferred to device queues
  std::uint64_t CopiesEnqueued = 0;  ///< memmoves deferred to copy queues
  std::uint64_t TasksInline = 0;     ///< bodies run eagerly (serial mode)
  std::uint64_t ShardedRegions = 0;  ///< regions split across the pool
  std::uint64_t ShardsExecuted = 0;  ///< individual shards run
  std::uint64_t FenceJoins = 0;      ///< synchronizations that waited a fence
};

EngineStats Stats();
void ResetStats();

/// Count one body the platform ran eagerly on the submitting thread
/// (serial mode, or a timing-only platform that skips bodies entirely).
void NoteInlineTask();

/// Shard coordinates of the calling thread, valid inside a body the
/// WorkerPool is running: lane index in [0, ShardCount()). Outside a
/// sharded region they read 0 and 1, so privatized kernels degenerate
/// to the shared path naturally.
int ShardIndex();
int ShardCount();

/// Completion state of one deferred task. Handed out by Engine::Enqueue
/// and stored in stream frontiers / events.
class Fence
{
public:
  /// Block until the task completed. The first waiter also consumes the
  /// task's checker join token, closing the happens-before edge, and
  /// counts the join; a later Wait returns at once.
  void Wait();

  /// Non-blocking completion test.
  bool Done() const;

private:
  friend class Engine;

  /// Wait without touching checker state (worker dependency edges).
  void WaitRaw();
  void MarkDone(std::uint64_t endToken);

  mutable std::mutex Mutex_;
  std::condition_variable Cv_;
  bool Done_ = false;
  std::atomic<std::uint64_t> EndToken_{0};
  std::atomic<bool> Joined_{false}; ///< a Wait joined the task
};

using FencePtr = std::shared_ptr<Fence>;

/// A pool of host worker threads executing sharded range bodies. One
/// instance per virtual node (lazily created); the calling thread
/// participates, so a pool of T threads yields T+1 lanes.
class WorkerPool
{
public:
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  int Threads() const noexcept { return static_cast<int>(this->Threads_.size()); }

  /// Run fn over [0, n) split into `shards` balanced contiguous chunks,
  /// dynamically claimed by the pool plus the calling thread. Blocking;
  /// concurrent callers queue for the pool one region at a time.
  void Run(std::size_t n, int shards, const RangeFn &fn);

private:
  struct Job;
  void Loop(int lane);
  static void RunShardsOf(Job &job);

  std::mutex Mutex_;
  std::condition_variable Cv_;
  std::shared_ptr<Job> Current_;
  bool Stop_ = false;
  std::vector<std::thread> Threads_;
};

/// The process-wide execution engine: per-device task queues plus
/// per-node worker pools. Thread safe.
class Engine
{
public:
  static constexpr int ComputeQueue = 0;
  static constexpr int CopyQueue = 1;

  static Engine &Get();

  /// Rebuild the queue topology for a platform of `numNodes` x
  /// `devicesPerNode`. Quiesces first. vp::Platform::Build calls this.
  void ResetTopology(int numNodes, int devicesPerNode);

  /// Defer `body` to the given device queue, ordered after `deps`.
  /// Takes the checker fork token at the call site. Returns the task's
  /// completion fence.
  FencePtr Enqueue(int node, int device, int queue,
                   std::vector<FencePtr> deps, std::function<void()> body);

  /// Number of shards the engine would split an N-element region into
  /// (1 = run sequentially). Honours the mode, the grain heuristic and,
  /// when `width` > 0, the caller's lane limit.
  int PlanShards(std::size_t n, int width) const;

  /// Execute fn over [0, n) as `shards` chunks on `node`'s pool
  /// (blocking). shards <= 1 degenerates to fn(0, n).
  void RunSharded(int node, std::size_t n, int shards, const RangeFn &fn);

  /// Lanes RunSharded can occupy on a node (pool threads + caller).
  int Lanes() const;

  /// Wait out the newest task of both queues of one device (and hence,
  /// FIFO, every earlier task). Used before freeing device memory and
  /// by DeviceSynchronize.
  void WaitDeviceTails(int node, int device);

  /// Wait out every queue of every device.
  void WaitAll();

  /// Drain all queues and join every worker thread and pool. Called on
  /// reconfiguration and platform rebuild.
  void Quiesce();

private:
  Engine() = default;
  ~Engine();

  struct Task
  {
    std::function<void()> Body;
    std::vector<FencePtr> Deps;
    FencePtr Done;
    std::uint64_t SpawnToken = 0;
  };

  struct DeviceQueue
  {
    std::mutex Mutex;
    std::condition_variable Cv;
    std::deque<Task> Queue;
    bool Stop = false;
    FencePtr Tail; ///< newest enqueued fence (guarded by Mutex)
    std::thread Worker;
  };

  DeviceQueue *Queue(int node, int device, int queue);
  void EnsureWorkerLocked(DeviceQueue &q);
  static void WorkerLoop(DeviceQueue *q);
  void QuiesceLocked();

  mutable std::mutex Mutex_;     ///< guards topology (Queues_)
  mutable std::mutex PoolMutex_; ///< guards Pools_; never held over joins
  int NumNodes_ = 0;
  int DevicesPerNode_ = 0;
  std::vector<std::unique_ptr<DeviceQueue>> Queues_;
  std::vector<std::unique_ptr<WorkerPool>> Pools_; ///< per node
};

} // namespace exec
} // namespace vp

#endif
