#ifndef schedPolicy_h
#define schedPolicy_h

/// @file schedPolicy.h
/// Pluggable in situ placement policies. The paper's placement control is
/// the static rule
///
///     d = ((r mod n_u) * s + d_0) mod n_a                     (Eq. 1)
///
/// which is oblivious to what the devices are actually doing. The policy
/// interface keeps Eq. 1 as the default (`static`, bit-for-bit identical
/// to the original rule) and adds two adaptive policies that consult the
/// virtual platform's load state per decision:
///
///  * `least-loaded` — among the devices Eq. 1 may use (the candidate
///    set spanned by n_u / s / d_0), pick the one with the smallest
///    outstanding-work backlog (engine availability plus promised work
///    from vp::DeviceLoadTracker). Candidates are scanned starting at
///    the Eq. 1 choice, so with uniform load the policy degenerates to
///    Eq. 1 exactly and ranks stay spread.
///  * `cost-model` — pick the candidate with the earliest predicted
///    completion: backlog plus a vpCostModel estimate of the analysis
///    kernel (from the WorkHint) plus the host-to-device movement cost
///    of the payload.
///
/// All policies are stateless singletons; shared mutable state lives in
/// vp::DeviceLoadTracker, which every decision updates so that
/// concurrent ranks see each other's assignments within a step.

#include "vpKnob.h"

#include <cstddef>
#include <string>
#include <vector>

namespace sched
{

/// Which placement rule an analysis uses when its device is "auto".
enum class PolicyKind : int
{
  Static = 0,  ///< Eq. 1, the paper's rule
  LeastLoaded, ///< smallest backlog among the Eq. 1 candidate set
  CostModel    ///< earliest predicted completion via vpCostModel
};

/// The spellings of PolicyKind.
const vp::knob::Spellings &PolicyNames();

/// Parse a policy name ("static", "least-loaded"/"least_loaded",
/// "cost-model"/"cost_model"). Throws std::invalid_argument on unknown
/// names.
PolicyKind PolicyKindFromName(const std::string &name);

/// Stable lower-case name ("static", "least-loaded", "cost-model").
const char *PolicyKindName(PolicyKind k);

/// Scheduling class of the work being placed. Interactive requests (a
/// steerable viz render, a viewer-facing frame) win their device on
/// backlog alone and mark it the node's interactive device; subsequent
/// throughput requests pay a small score bias to land there, so close
/// calls move bulk work off the interactive path while a hugely loaded
/// alternative still loses. The `static` policy ignores the class —
/// Eq. 1 is oblivious by design.
enum class LatencyClass : int
{
  Throughput = 0, ///< bulk analysis: minimize completion time
  Interactive     ///< viewer-facing: minimize queueing delay
};

/// Optional per-step description of the work being placed, used by the
/// cost-model policy. A default-constructed hint (no elements) makes
/// cost-model fall back to backlog comparison (= least-loaded).
struct WorkHint
{
  std::size_t Elements = 0;    ///< elements the analysis kernel touches
  double OpsPerElement = 1.0;  ///< elementary operations per element
  double AtomicFraction = 0.0; ///< fraction of atomic-bound work
  std::size_t MoveBytes = 0;   ///< payload bytes that must reach the device
  LatencyClass Latency = LatencyClass::Throughput;
};

/// Score penalty (virtual seconds) a throughput placement pays for the
/// node's interactive device: large enough to break exact ties and
/// near-ties away from it, small enough that real load imbalance
/// dominates.
constexpr double kInteractiveBias = 1.0e-4;

/// Everything a policy needs for one decision.
struct PlacementRequest
{
  int Rank = 0;           ///< r in Eq. 1
  int DevicesPerNode = 0; ///< n_a (a system query)
  int DevicesToUse = 0;   ///< n_u; 0 = all n_a devices
  int DeviceStart = 0;    ///< d_0
  int DeviceStride = 1;   ///< s
  int Node = 0;           ///< the deciding thread's node
  WorkHint Hint;          ///< cost-model inputs (may be empty)
};

/// A placement rule. Implementations record their decision (placement
/// count and, for adaptive policies, the estimated device seconds) in
/// vp::DeviceLoadTracker.
class PlacementPolicy
{
public:
  virtual ~PlacementPolicy() = default;

  /// The policy's stable name.
  virtual const char *Name() const = 0;

  /// Resolve the device for one analysis execution: an id in
  /// [0, DevicesPerNode) or -1 for the host (no usable devices).
  virtual int SelectDevice(const PlacementRequest &req) = 0;
};

/// The shared instance for a kind (stateless; safe from any thread).
PlacementPolicy &GetPolicy(PolicyKind k);

/// Eq. 1 evaluated with the original quirks preserved (n_u <= 0 means
/// n_a, stride 0 means 1, negative results wrapped). Returns -1 with a
/// one-time process warning when no device is usable (n_a <= 0, or a
/// negative n_u was configured).
int Eq1Device(const PlacementRequest &req);

/// The device set Eq. 1 can reach under the request's controls:
/// { ((k * s + d_0) mod n_a : k in [0, n_u) }, deduplicated, ordered
/// starting at the request's own Eq. 1 choice (k0 = r mod n_u) so that
/// tie-breaking preserves the static spread. Empty when no device is
/// usable.
std::vector<int> CandidateDevices(const PlacementRequest &req);

/// Number of times a placement fell back to the host because no device
/// was usable (the "one-time warning" counter; the warning itself prints
/// on the first fallback only).
std::size_t HostFallbackCount();

/// Would the policy rather not keep running on `device`? Used by captured
/// step-graph replay (src/graph), which pins the placement decided at
/// capture: Static diverges when Eq. 1 names a different device; the
/// adaptive policies diverge when the pinned device left the candidate
/// set or its backlog exceeds the best candidate's by more than
/// `threshold` virtual seconds at time `now`. A diverged pin is the cue
/// to drop the armed graph and re-decide placement.
bool PlacementDiverged(PolicyKind k, const PlacementRequest &req, int device,
                       double threshold, double now);

} // namespace sched

#endif
