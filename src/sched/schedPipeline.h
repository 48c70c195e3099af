#ifndef schedPipeline_h
#define schedPipeline_h

/// @file schedPipeline.h
/// Bounded asynchronous in situ pipeline with backpressure. The paper's
/// asynchronous execution method deep-copies what the analysis needs and
/// runs it in a thread; unbounded, that pattern lets queued deep copies
/// grow without limit whenever the analysis falls behind the solver —
/// the classic in situ OOM. sched::BoundedPipeline is the bounded MPSC
/// work queue each asynchronous analysis adaptor runs its tasks on:
/// one consumer drains submitted analysis tasks in FIFO order, at most
/// `queue_depth` task payloads are alive at once, and when the queue is
/// full one of three backpressure policies applies:
///
///  * `block`        — the submitter (the solver) waits for a slot; no
///                     step is lost (total accuracy, bounded memory,
///                     solver stalls). Depth 1 (the default) keeps one
///                     task in flight: a new submission first waits
///                     out the previous one.
///  * `drop-oldest`  — the oldest not-yet-started step is discarded; the
///                     solver never stalls and memory stays bounded, at
///                     the cost of temporal gaps in the analysis.
///  * `coalesce`     — the newest queued step is replaced by the
///                     incoming one, collapsing consecutive steps: the
///                     analysis always sees the freshest data, skipping
///                     intermediates under pressure.
///
/// A depth of 0 means unbounded (the degenerate baseline the benchmarks
/// compare against). The `<sched>` XML element (or sched::Configure)
/// sets the depth and the policy for every pipeline in the process.
///
/// Two accounting modes are provided:
///
///  * **deterministic** (the default) — the task body runs inline under a
///    detached virtual clock seeded at the consumer's start time. Its
///    resource claims (device engines, host pool, collectives) land
///    exactly as a perfectly-fair concurrent thread's would, and the
///    submitter's clock advances only by the thread-spawn cost, so
///    virtual timelines are bit-identical run to run;
///  * **real-thread** — tasks run on one persistent consumer std::thread
///    with checker-visible fork/join edges per task. The virtual
///    semantics are the same, but claim interleaving follows the host OS
///    scheduler, so timelines vary run to run. Useful to demonstrate
///    that the code is genuinely thread safe (the unit tests exercise
///    both modes).
///
/// Dropped or coalesced tasks are destroyed without running; their deep
/// copies (pool-backed when the memory pool is enabled) are released at
/// that moment, which is what bounds memory. PipelineStats counts
/// submissions, executions, drops, coalesces, stall time, and queue
/// depth / payload-byte high-water marks; sched::AggregateStats() sums
/// them across all pipelines (live and destroyed) and
/// sensei::ExportSchedStats publishes them through the profiler.

#include "schedPolicy.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace sched
{

/// What happens to a submission when the queue is full.
enum class Backpressure : int
{
  Block = 0,  ///< the submitter waits for a slot
  DropOldest, ///< the oldest queued (not yet started) task is discarded
  Coalesce    ///< the newest queued task is replaced by the incoming one
};

/// The spellings of Backpressure.
const vp::knob::Spellings &BackpressureNames();

/// Parse a backpressure name ("block", "drop-oldest"/"drop_oldest",
/// "coalesce"). Throws std::invalid_argument on unknown names.
Backpressure BackpressureFromName(const std::string &name);

/// Stable lower-case name.
const char *BackpressureName(Backpressure b);

/// Process-wide scheduler configuration (the `<sched>` XML element).
struct SchedConfig
{
  PolicyKind Policy = PolicyKind::Static; ///< default placement policy
  long QueueDepth = 1;                    ///< payloads in flight; 0 = unbounded
  Backpressure Pressure = Backpressure::Block;
};

/// The `<sched>` rows (no variables). The policy is also the default of
/// every analysis's policy= attribute.
const vp::knob::Table<SchedConfig> &ConfigRows();

/// Replace the process-wide configuration (validated against the rows).
void Configure(const SchedConfig &cfg);

/// The active configuration.
SchedConfig GetConfig();

/// Counter block for one pipeline (or an aggregate over pipelines).
struct PipelineStats
{
  std::uint64_t Submitted = 0; ///< tasks handed to Submit
  std::uint64_t Executed = 0;  ///< tasks that actually ran
  std::uint64_t Dropped = 0;   ///< tasks discarded by drop-oldest
  std::uint64_t Coalesced = 0; ///< tasks replaced by coalesce
  long QueueDepthHighWater = 0;     ///< most payloads alive at once
  std::size_t QueuedBytes = 0;      ///< payload bytes currently alive
  std::size_t PeakQueuedBytes = 0;  ///< high-water mark of QueuedBytes
  double StallSeconds = 0.0; ///< virtual seconds submitters spent blocked

  /// Payload volume accounting for compressed submissions: RawBytes is
  /// the pre-compression size of every submitted payload, EncodedBytes
  /// the size actually queued (they are equal when a submission carries
  /// no raw size, i.e. is uncompressed).
  std::uint64_t PayloadRawBytes = 0;
  std::uint64_t PayloadEncodedBytes = 0;

  PipelineStats &operator+=(const PipelineStats &o);
};

/// One bounded in situ work queue (typically one per analysis adaptor).
/// Thread safe.
class BoundedPipeline
{
public:
  BoundedPipeline();
  ~BoundedPipeline(); ///< drains, then folds stats into the aggregate

  BoundedPipeline(const BoundedPipeline &) = delete;
  BoundedPipeline &operator=(const BoundedPipeline &) = delete;

  /// Run the consumer on a real std::thread instead of the deterministic
  /// inline accounting. Must be chosen before the first Submit.
  void SetUseRealThreads(bool on);
  bool GetUseRealThreads() const;

  /// Override the process-wide queue depth / backpressure for this
  /// pipeline (by default both follow sched::GetConfig() per submission).
  void SetDepth(long depth);
  void SetBackpressure(Backpressure b);

  /// Submit a task. `payloadBytes` is the size of the deep-copied data
  /// the closure owns; it is what the queue-depth bound meters — for a
  /// compressed payload that is the encoded size, so compression widens
  /// the effective queue. `rawBytes`, when nonzero, records the payload's
  /// pre-compression size in the stats (PayloadRawBytes). Applies the
  /// configured backpressure when the queue is full; charges the
  /// submitting thread the thread-spawn cost.
  void Submit(std::function<void()> fn, std::size_t payloadBytes = 0,
              std::size_t rawBytes = 0);

  /// Run/await every queued task and advance the calling thread's clock
  /// to the completion of the last one.
  void Drain();

  /// True when any task is queued or in flight.
  bool Busy() const;

  /// Snapshot of this pipeline's counters.
  PipelineStats Stats() const;

private:
  struct Task
  {
    std::function<void()> Fn;
    double SubmitTime = 0.0;
    std::size_t Bytes = 0;
    bool Executed = false;
    double Finish = 0.0;
  };
  struct RealWorker;

  /// Effective depth/pressure for this submission.
  long EffectiveDepth() const;
  Backpressure EffectivePressure() const;

  // deterministic mode (requires Mutex_ held)
  void ExecuteDetachedLocked(Task &t);
  void AdvanceConsumerLocked(double now);
  void RetireLocked(double now);

  void NoteOccupancyLocked(std::size_t bytesDelta);

  mutable std::mutex Mutex_;
  std::deque<Task> Queue_;
  double WorkerAvail_ = 0.0; ///< deterministic consumer availability
  bool RealThreads_ = false;
  std::unique_ptr<RealWorker> Worker_;

  long DepthOverride_ = -1; ///< -1 = follow GetConfig()
  int PressureOverride_ = -1;
  PipelineStats Stats_;

  friend void ResetAggregateStats();
};

/// Counters summed over every pipeline, live and already destroyed.
PipelineStats AggregateStats();

/// Zero the aggregate (and every live pipeline's counters).
void ResetAggregateStats();

} // namespace sched

#endif
