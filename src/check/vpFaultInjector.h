#ifndef vpFaultInjector_h
#define vpFaultInjector_h

/// @file vpFaultInjector.h
/// Seeded, deterministic fault injection for the virtual platform. The
/// graceful-degradation paths of the memory pool, the asynchronous
/// execution method, and the data binning pipeline are unreachable under
/// a healthy run; the injector makes them testable by failing the Nth
/// allocation, probabilistically failing allocations from a seeded PRNG,
/// dropping the Nth recorded event signal, delaying the streams of a
/// chosen device, or handing pooled blocks out before their recorded free
/// point (so the checker itself is validated against a real bug).
///
/// Determinism: every decision derives from the configured seed and
/// monotonic per-site counters — two runs with the same configuration and
/// workload take identical fault decisions at identical points.
///
/// Enabling: the `<fault>` element of a SENSEI XML configuration or
/// Configure(). All queries are cheap no-ops while disabled.

#include "vpKnob.h"
#include "vpTypes.h"

#include <cstddef>
#include <cstdint>

namespace vp
{
namespace fault
{

/// Fault plan. Zero-valued knobs are inert.
struct FaultConfig
{
  bool Enabled = false;          ///< master switch
  std::uint64_t Seed = 1;        ///< PRNG seed for probabilistic faults
  std::uint64_t FailAllocNth = 0;   ///< fail the Nth pool-routed allocation
  double FailAllocProb = 0.0;       ///< iid pool allocation failure prob.
  std::uint64_t DropEventNth = 0;   ///< drop the Nth recorded event (1-based)
  double StreamDelaySeconds = 0.0;  ///< extra virtual latency per submission
  int DelayNode = -1;               ///< node filter for the delay (-1 = all)
  DeviceId DelayDevice = -1;        ///< device filter (-1 = all devices)
  bool PrematureReuse = false;      ///< pool skips its stream-ready check
  std::uint64_t DropFrameNth = 0;   ///< Nth service data frame lost in transit
  std::uint64_t CrashSendNth = 0;   ///< Nth frame send dies mid-frame
  double FrameDelaySeconds = 0.0;   ///< extra real+virtual delay per frame
};

/// Counters of the faults actually fired.
struct FaultStats
{
  std::uint64_t AllocFailures = 0;
  std::uint64_t EventsDropped = 0;
  std::uint64_t DelaysApplied = 0;
  std::uint64_t FramesDropped = 0; ///< service frames lost in transit
  std::uint64_t SendCrashes = 0;   ///< mid-frame client deaths fired
};

/// The `<fault>` rows (a bare element means enabled; no variables).
const vp::knob::Table<FaultConfig> &ConfigRows();

/// Install a fault plan and re-arm all counters.
void Configure(const FaultConfig &cfg);

/// The active plan.
FaultConfig GetConfig();

/// True when injection is on.
bool Enabled();

/// Disarm and clear: equivalent to Configure({}).
void Reset();

/// Counters of faults fired since the last Configure/Reset.
FaultStats Stats();

// --- decision points (queried by the instrumented subsystems) ---------------

/// Should the current pool-routed allocation fail? Advances the allocation
/// counter and the PRNG; records the failure when it fires. Queried only by
/// the memory pool's miss path — the one allocation site with a
/// graceful-degradation contract (release the cache, retry) — so an
/// injected failure degrades the run instead of unwinding a rank thread.
bool ShouldFailAllocation();

/// Should the current event record be dropped (no signal delivered)?
bool ShouldDropEvent();

/// Extra virtual seconds to charge to a submission on (node, device);
/// 0 when the site is not selected by the plan.
double StreamDelay(int node, DeviceId device);

/// True when the pool must skip its stream-ordered ready check and hand
/// cached blocks out immediately (a deliberately injected lifetime bug).
bool PrematureReuseEnabled();

/// Should the current service data frame be silently lost in transit?
/// Advances the frame counter; queried by svc::Client before each send.
bool ShouldDropFrame();

/// Should the current service frame send turn into a mid-frame client
/// death (partial chunk stream, then the connection drops)? Keeps its
/// own monotonic counter, advanced once per frame that reaches the
/// wire.
bool ShouldCrashSend();

/// Extra seconds to stall the current frame send (0 when unconfigured).
double FrameDelay();

} // namespace fault
} // namespace vp

#endif
