#ifndef tuneOnline_h
#define tuneOnline_h

/// @file tuneOnline.h
/// Online knob adaptation from profiler counters. Offline search picks a
/// configuration for the workload it measured; a live run drifts — device
/// contention appears, payloads grow, another tenant lands on the in situ
/// GPU. The OnlineTuner closes the loop at run time: installed as the
/// driver's step hook, it snapshots the global profiler between
/// simulation steps, folds WindowSteps steps into one measurement window,
/// and hill-climbs the *bounded-risk* knobs — the `<sched>` queue depth,
/// backpressure mode and placement policy — by trial: apply one change,
/// measure one window, keep it only when the window's virtual time
/// improves by at least the hysteresis margin, revert (with a cooldown on
/// that move) otherwise. The window metric is virtual time, so knobs that
/// only act on the wall clock (the `<exec>` worker-pool width) are not
/// moved.
///
/// Two guards keep it from thrashing state that is expensive to rebuild:
/// the hysteresis margin means a kept change must earn its keep, and
/// placement-policy moves are frozen while captured step-graph sessions
/// are actively replaying (a policy flip would repin every armed graph).

#include "senseiProfiler.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace newton
{
class Driver;
}

namespace tune
{

/// Controller knobs.
struct OnlineConfig
{
  /// Simulation steps per measurement window.
  int WindowSteps = 2;

  /// Relative improvement a trial window must show over the baseline
  /// window for its change to be kept.
  double Hysteresis = 0.02;

  /// Queue-depth ceiling for deepening moves (0 = unbounded is reached
  /// by deepening past this ceiling).
  long MaxQueueDepth = 8;

  /// Propose placement-policy changes (still frozen while graph
  /// sessions replay).
  bool AdaptPolicy = true;

  /// Windows a reverted move sits out before being proposed again.
  int CooldownWindows = 4;
};

/// Decision counters.
struct OnlineStats
{
  long Windows = 0;      ///< measurement windows completed
  long Trials = 0;       ///< changes applied on trial
  long Kept = 0;         ///< trials that beat the hysteresis margin
  long Reverted = 0;     ///< trials rolled back
  long PolicyFrozen = 0; ///< policy proposals skipped (graph replaying)
};

/// Between-steps hill climber over the live scheduler configuration.
/// Single-rank: attach one instance to one driver (the knobs it moves are
/// process wide).
class OnlineTuner
{
public:
  explicit OnlineTuner(OnlineConfig cfg = OnlineConfig());

  /// Install this tuner as `driver`'s step hook.
  void Attach(newton::Driver &driver);

  /// The step hook body; may also be called directly by a custom loop
  /// with a monotonically increasing 0-based step index.
  void OnStep(long step);

  const OnlineStats &GetStats() const { return this->Stats_; }

  /// Human-readable decision log, one line per window action.
  const std::vector<std::string> &Decisions() const
  {
    return this->Decisions_;
  }

  /// Record the decision counters as profiler events
  /// (tune::online_windows, tune::online_kept, tune::online_reverted,
  /// tune::online_policy_frozen, tune::online_trials).
  void ExportStats(sensei::Profiler &prof) const;

private:
  struct Move;

  double CloseWindow();            ///< delta the window, return its metric
  bool ProposeNext(double metric); ///< apply the next eligible move
  void DecideTrial(double metric);

  OnlineConfig Cfg_;
  OnlineStats Stats_;
  std::vector<std::string> Decisions_;

  sensei::Profiler::CounterSnapshot LastSnap_;
  bool HaveSnap_ = false;
  std::uint64_t LastReplays_ = 0;
  bool GraphActive_ = false; ///< replays observed in the last window

  int StepsInWindow_ = 0;
  enum class Phase
  {
    Baseline,
    Trial
  };
  Phase Phase_ = Phase::Baseline;
  double Baseline_ = 0.0;
  bool HaveBaseline_ = false;

  // trial bookkeeping
  std::string TrialName_;
  std::function<void()> TrialRevert_;
  int TrialKind_ = -1;

  std::size_t NextKind_ = 0;       ///< round-robin cursor over move kinds
  std::vector<int> Cooldown_;      ///< per-kind windows to sit out
};

} // namespace tune

#endif
