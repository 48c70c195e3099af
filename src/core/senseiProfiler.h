#ifndef senseiProfiler_h
#define senseiProfiler_h

/// @file senseiProfiler.h
/// Virtual-time profiler used by the evaluation harness: records named
/// spans of virtual seconds per rank and reports totals and per-event
/// means. This is how the benchmark reproduces Figure 3's "average time
/// per iteration of the solver and in situ processing".

#include "vpChecker.h"
#include "vpClock.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sensei
{

/// Thread-safe collection of named timing events (virtual seconds).
///
/// Counter-key naming contract (consumed by src/tune and any external
/// parser of ToJson output): every exported counter is named
/// `<subsystem>::<counter>` in lower_snake_case (`sched::stall_seconds`,
/// `pool::hit_rate`, `exec::tasks_enqueued`, ...); per-device counters
/// append the device index (`sched::placements_dev0`). Names are stable:
/// new counters may appear in any release, but renaming or removing one
/// bumps the schema version below.
class Profiler
{
public:
  /// Version tag written by ToJson as the top-level "schema" member, so
  /// consumers can detect incompatible exports. Bumped only when an
  /// existing key is renamed/removed or the JSON shape changes; counter
  /// additions do not bump it.
  static constexpr const char *SchemaVersion = "sensei-profiler/1";

  /// One counter's accumulated state, as captured by Snapshot().
  struct Counter
  {
    double Total = 0.0;
    long Count = 0;
    double Max = 0.0;
  };

  /// A point-in-time copy of every counter, for rate computation.
  using CounterSnapshot = std::map<std::string, Counter>;

  /// Record a completed span.
  void Event(const std::string &name, double seconds)
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    auto &s = this->Series_[name];
    s.Total += seconds;
    s.Count += 1;
    s.Max = seconds > s.Max ? seconds : s.Max;
  }

  /// Sum of all spans with this name.
  double Total(const std::string &name) const
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    auto it = this->Series_.find(name);
    return it == this->Series_.end() ? 0.0 : it->second.Total;
  }

  /// Number of spans recorded under this name.
  long Count(const std::string &name) const
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    auto it = this->Series_.find(name);
    return it == this->Series_.end() ? 0 : it->second.Count;
  }

  /// Mean span length, 0 when none recorded.
  double Mean(const std::string &name) const
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    auto it = this->Series_.find(name);
    return it == this->Series_.end() || !it->second.Count
             ? 0.0
             : it->second.Total / static_cast<double>(it->second.Count);
  }

  /// Longest single span.
  double Max(const std::string &name) const
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    auto it = this->Series_.find(name);
    return it == this->Series_.end() ? 0.0 : it->second.Max;
  }

  /// All event names seen.
  std::vector<std::string> Names() const
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    std::vector<std::string> out;
    out.reserve(this->Series_.size());
    for (const auto &kv : this->Series_)
      out.push_back(kv.first);
    return out;
  }

  /// Forget everything.
  void Clear()
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    this->Series_.clear();
  }

  /// Copy every counter's current state. Together with Delta this is how
  /// per-step consumers (the online tuner, dashboards) read rates instead
  /// of run-cumulative totals.
  CounterSnapshot Snapshot() const;

  /// Per-interval rates: `newer - older`, member-wise over Total and
  /// Count (a counter absent from `older` is treated as zero). Max is not
  /// differentiable, so the delta carries `newer`'s cumulative Max.
  /// Deltas compose: Delta(s0,s1) + Delta(s1,s2) sums to Delta(s0,s2)
  /// in Total and Count.
  static CounterSnapshot Delta(const CounterSnapshot &newer,
                               const CounterSnapshot &older);

  /// Serialize every event as JSON:
  /// {"schema":"sensei-profiler/1",
  ///  "events":{"name":{"count":N,"total":T,"mean":M,"max":X},...}}
  std::string ToJson() const;

  /// The process-wide profiler instance.
  static Profiler &Global();

private:
  struct Stats
  {
    double Total = 0.0;
    long Count = 0;
    double Max = 0.0;
  };

  mutable std::mutex Mutex_;
  std::map<std::string, Stats> Series_;
};

/// RAII span: measures virtual time between construction and destruction
/// and records it in a profiler.
class ScopedEvent
{
public:
  ScopedEvent(Profiler &prof, std::string name)
    : Prof_(prof), Name_(std::move(name)), Begin_(vp::ThisClock().Now())
  {
  }

  /// Record into Profiler::Global().
  explicit ScopedEvent(std::string name)
    : ScopedEvent(Profiler::Global(), std::move(name))
  {
  }

  ~ScopedEvent()
  {
    this->Prof_.Event(this->Name_, vp::ThisClock().Now() - this->Begin_);
  }

  ScopedEvent(const ScopedEvent &) = delete;
  ScopedEvent &operator=(const ScopedEvent &) = delete;

private:
  Profiler &Prof_;
  std::string Name_;
  double Begin_;
};

/// Record the memory-pool counters (vp::PoolManager::AggregateStats) as
/// profiler events: pool::hits, pool::misses, pool::frees, pool::trims,
/// pool::hit_rate, pool::bytes_cached, pool::peak_bytes_cached,
/// pool::fragmentation. Counts are recorded as event totals so they ride
/// along in ToJson() next to the timing data.
void ExportPoolStats(Profiler &prof);

/// Record a checker report and the fault-injection counters as profiler
/// events: check::violations plus one check::<kind> event per violation
/// class, and fault::alloc_failures / fault::events_dropped /
/// fault::delays_applied — so campaigns can assert "0 violations" out of
/// the same JSON as the timing data.
void ExportCheckReport(Profiler &prof, const vp::check::Report &report);

/// Record the scheduler counters as profiler events: the bounded
/// pipeline's aggregate (sched::submitted, sched::executed,
/// sched::dropped, sched::coalesced, sched::queue_depth_high_water,
/// sched::peak_queued_bytes, sched::stall_seconds, sched::host_fallbacks)
/// and the per-device placement counts from vp::DeviceLoadTracker
/// (sched::placements_host, sched::placements_dev<N>). Call after
/// draining so in-flight work is settled.
void ExportSchedStats(Profiler &prof);

/// Record the compression counters (cmp::Stats) as profiler events:
/// cmp::encoded_chunks, cmp::decoded_chunks, cmp::fallbacks,
/// cmp::bytes_raw, cmp::bytes_encoded, cmp::ratio, cmp::encode_seconds,
/// cmp::decode_seconds — plus the pipelines' payload volume accounting
/// (cmp::payload_raw_bytes, cmp::payload_encoded_bytes) so compressed
/// async queues can be audited from the same JSON.
void ExportCompressStats(Profiler &prof);

/// Record the execution-engine counters (vp::exec::Stats) as profiler
/// events: exec::mode_threads (1 when VP_EXEC=threads), exec::lanes,
/// exec::tasks_enqueued, exec::copies_enqueued, exec::tasks_inline,
/// exec::sharded_regions, exec::shards_executed, exec::fence_joins — so
/// campaigns can audit how much real concurrency the run actually had.
void ExportExecStats(Profiler &prof);

/// Record the captured step-graph counters (vp::graph::Stats) as
/// profiler events: graph::captures, graph::capture_aborts,
/// graph::replays, graph::invalidations, graph::nodes_captured,
/// graph::launches_fused, graph::flushes, graph::ops_absorbed — how much
/// of the campaign's submission work the replay path absorbed.
void ExportGraphStats(Profiler &prof);

/// Record the layout-engine counters (vp::layout::Stats) as profiler
/// events: layout::conversions, layout::bytes_reordered,
/// layout::simd_kernels, layout::scalar_kernels — how often arrays were
/// re-laid-out and which kernel variants (vectorized vs scalar) ran.
void ExportLayoutStats(Profiler &prof);

/// Record the in-transit service counters (svc::Stats) as profiler
/// events: svc::sessions_opened / _rejected / _closed / _reaped,
/// svc::frames_sent / _accepted / _dropped / _coalesced / _rejected /
/// _executed, svc::heartbeats, svc::bytes_raw, svc::bytes_wire,
/// svc::queue_depth_high_water, svc::short_reads — the multi-tenant
/// service's health in the same JSON as the timing data — plus the
/// server->client push path (svc::frames_pushed, svc::push_drops), the
/// steering control plane (svc::steers, svc::heartbeat_acks), and the
/// per-session heartbeat round trip (svc::heartbeat_rtt_us mean,
/// svc::heartbeat_rtt_max_us).
void ExportServiceStats(Profiler &prof);

/// Record the visualization endpoint counters (viz::Stats) as profiler
/// events: viz::frames_rendered / _published, viz::steers_applied /
/// _stale, viz::recaptures, and the frame-age distribution
/// (viz::frame_age_count / _p99_us / _max_us) — how fresh the frames
/// the viewers saw actually were.
void ExportVizStats(Profiler &prof);

} // namespace sensei

#endif
