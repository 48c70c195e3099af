#ifndef vpChecker_h
#define vpChecker_h

/// @file vpChecker.h
/// Runtime race / lifetime checker for the virtual platform. The paper's
/// core claims — zero-copy adoption with coordinated life-cycle
/// management, accessor methods that insert synchronization only when
/// needed, and stream-ordered asynchronous execution — are exactly the
/// behaviors that fail silently when they are wrong. This checker makes
/// them machine checkable: lightweight hooks (compiled in always, cheap
/// no-ops until enabled) instrument the platform front ends, the memory
/// pool, the PM back ends, and the HAMR access paths, and maintain
///
///  * a vector clock per *timeline* (each executing thread and each
///    stream), advanced on submission, joined on synchronization
///    (StreamSynchronize / DeviceSynchronize / events / thread join), so
///    "happened before" is a real partial order — not the scalar virtual
///    time, under which two unsynchronized streams can appear ordered;
///  * a per-allocation state machine (live → pool-cached → freed) with
///    the last write epoch and the reads since it.
///
/// Detected violation classes:
///  1. use-after-free, and premature reuse of pooled blocks handed out
///     before the requester passes the recorded stream-ordered free point;
///  2. host access to device memory, and host reads of data whose last
///     write is an un-synchronized stream operation;
///  3. cross-stream writes to the same allocation with no event edge
///     between the streams;
///  4. double frees (reported and swallowed so the run can continue), and
///     leaks reported at Finalize.
///
/// Enabling: the `VP_CHECK` environment variable (any value but "0"), the
/// `<check>` element of a SENSEI XML configuration, or Enable(true).
/// Reports are exported through the profiler (sensei::ExportCheckReport)
/// so campaigns can assert "0 violations" as a first-class metric.

#include "vpKnob.h"
#include "vpMemory.h"
#include "vpTypes.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vp
{

struct StreamState;

namespace check
{

/// The violation classes the checker distinguishes.
enum class ViolationKind : int
{
  UseAfterFree = 0,   ///< access to freed memory / premature pooled reuse
  UnsyncedHostAccess, ///< host touch of device memory or of un-synced data
  CrossStreamRace,    ///< unordered same-allocation writes on two streams
  DoubleFree,         ///< pointer freed twice
  Leak                ///< allocation still live at Finalize
};

/// Stable lower-case identifier ("use_after_free", ...), used for
/// profiler event names and JSON keys.
const char *ToString(ViolationKind k);

/// One recorded diagnostic. The message names the offending allocation
/// (space, size, address) and every timeline involved ("stream#2(node0
/// dev1)", "thread#0").
struct Violation
{
  ViolationKind Kind = ViolationKind::UseAfterFree;
  std::string Message;
  const void *Ptr = nullptr; ///< base pointer of the allocation involved
};

/// Snapshot of everything recorded since the last Reset.
struct Report
{
  std::vector<Violation> Violations; ///< capped at CheckConfig::MaxReports
  std::uint64_t Counts[5] = {};      ///< per ViolationKind, never capped

  std::uint64_t Count(ViolationKind k) const
  {
    return this->Counts[static_cast<int>(k)];
  }

  std::uint64_t Total() const
  {
    std::uint64_t n = 0;
    for (std::uint64_t c : this->Counts)
      n += c;
    return n;
  }

  /// Human readable multi-line summary (one line per violation).
  std::string Summary() const;
};

/// Behaviour knobs (see also the `<check>` XML element).
struct CheckConfig
{
  bool Enabled = false;         ///< master switch
  std::size_t MaxReports = 256; ///< cap on retained Violation records
  bool FailFast = false;        ///< throw vp::Error at the first violation
};

// --- control ----------------------------------------------------------------

/// The `<check>` rows: enabled (VP_CHECK; a bare element means enabled),
/// max_reports and fail_fast.
const vp::knob::Table<CheckConfig> &ConfigRows();

/// Replace the configuration (implies Enable(cfg.Enabled)).
void Configure(const CheckConfig &cfg);

/// The active configuration.
CheckConfig GetConfig();

/// Turn checking on or off, overriding the VP_CHECK environment variable.
void Enable(bool on);

/// True when checking is on. The first call consults the rows' defaults
/// (VP_CHECK) unless Configure/Enable ran earlier.
bool Enabled();

/// Drop all per-allocation state, timelines, and recorded violations.
void Reset();

/// Copy of the current report.
Report Snapshot();

/// Scan for leaks (allocations still live, pool-cached blocks excluded),
/// record them, and return the final report.
Report Finalize();

// --- hooks (no-ops while disabled) ------------------------------------------

/// A platform allocation completed; `s` is the ordering stream (null for
/// synchronous allocations).
void OnAlloc(void *p, const AllocInfo &info, const StreamState *s);

/// A platform free of a live allocation is about to happen.
void OnFree(void *p);

/// Offer the freed block's backing storage to the checker's quarantine
/// (called by Platform::Free after OnFree, instead of releasing the
/// memory). Returns true when the checker took ownership — it std::frees
/// the storage when the tombstone is evicted, so the allocator cannot
/// recycle a tombstoned range into an untracked allocation (which would
/// turn stale tombstones into false use-after-free reports). Returns
/// false (caller frees) when disabled or the pointer is untracked.
bool QuarantineFree(void *p);

/// Called by Platform::Free before any other work: returns true when the
/// free is erroneous (double free of an already-freed pointer or of a
/// pool-cached block); the violation is recorded and the caller must
/// swallow the free so the run can continue.
bool InterceptFree(void *p);

/// A pooled block was returned to the free lists, reusable (elsewhere) at
/// scalar virtual time `readyAt`, freed on `s` (may be null).
void OnPoolFree(void *p, const StreamState *s, double readyAt);

/// A cached block is being handed out again. `requesterNow` is the
/// requester's scalar position (max of its clock and the stream's
/// completion) — the checker independently re-validates the pool's
/// stream-ordered reuse rule against the recorded free point.
void OnPoolReuse(void *p, const StreamState *s, double requesterNow);

/// The pool is legitimately releasing a cached block back to the platform
/// (trimming); the following Platform::Free must not be flagged.
void OnPoolRelease(void *p);

/// A stream-ordered copy: read of `src`, write of `dst`, on `s`.
void OnCopy(const StreamState *s, void *dst, const void *src,
            std::size_t bytes);

/// A synchronous host-to-host copy on the calling thread.
void OnHostCopy(void *dst, const void *src, std::size_t bytes);

/// Work was submitted to `s` by the calling thread (kernel launch):
/// creates the thread-to-stream ordering edge.
void OnSubmit(const StreamState *s);

/// The calling thread synchronized with `s` (acquires its clock).
void OnStreamSync(const StreamState *s);

/// The calling thread synchronized with every stream of (node, device).
void OnDeviceSync(int node, DeviceId device);

/// An event was recorded on `s`; returns an opaque token capturing the
/// stream's clock (0 while disabled).
std::uint64_t OnEventRecord(const StreamState *s);

/// Future work on `s` waits for the event behind `token`.
void OnStreamWaitEvent(const StreamState *s, std::uint64_t token);

/// The calling thread waited for the event behind `token`.
void OnEventSync(std::uint64_t token);

/// Thread fork/join edges (vp::ScopedThread).
std::uint64_t OnThreadSpawn();           ///< parent, before the thread starts
void OnThreadStart(std::uint64_t token); ///< child, first thing it does
std::uint64_t OnThreadEnd();             ///< child, last thing it does
void OnThreadJoin(std::uint64_t token);  ///< parent, after join

/// Per-task clock forks for the exec engine (vp::exec). Each deferred
/// kernel body or pool shard forks the submitter's vector clock at
/// submission (OnTaskSpawn, on the submitting thread), joins it into the
/// worker that runs the body (OnTaskStart), snapshots the worker's clock
/// when the body finishes (OnTaskEnd), and joins that snapshot into
/// whichever thread waits out the task's fence (OnTaskJoin). The tokens
/// are single use: the checker erases them on Start/Join, so a fence
/// hands its end token to exactly one waiter. All four are no-ops while
/// the checker is disabled (token 0).
std::uint64_t OnTaskSpawn();           ///< submitter, at enqueue
void OnTaskStart(std::uint64_t token); ///< worker, before the body
std::uint64_t OnTaskEnd();             ///< worker, after the body
void OnTaskJoin(std::uint64_t token);  ///< waiter, after the fence

/// Instrumented host access: flags device memory touched from the host
/// and host reads of data with an un-synchronized stream write. Called by
/// the HAMR host fast paths; also a public assertion point for
/// application code.
void HostRead(const void *p, std::size_t bytes,
              const char *what = "host read");
void HostWrite(void *p, std::size_t bytes, const char *what = "host write");

} // namespace check
} // namespace vp

#endif
