#include "schedPolicy.h"

#include "vpClock.h"
#include "vpLoadTracker.h"
#include "vpPlatform.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace sched
{

namespace
{

std::atomic<std::size_t> HostFallbacks{0};

/// Count a no-usable-device fallback; print the diagnostic only once per
/// process (the condition is configuration-wide, repeating it every step
/// would drown the log).
int HostFallback(const PlacementRequest &req)
{
  if (HostFallbacks.fetch_add(1) == 0)
    std::fprintf(stderr,
                 "sched: no usable accelerator for automatic placement "
                 "(n_a = %d, n_u = %d); running on the host. This warning "
                 "prints once.\n",
                 req.DevicesPerNode, req.DevicesToUse);
  return -1;
}

/// Eq. 1 core, valid only when na > 0 and nu > 0.
int Eq1Raw(int rank, int nu, int s, int d0, int na)
{
  const int r = rank >= 0 ? rank : 0;
  int d = ((r % nu) * s + d0) % na;
  if (d < 0)
    d += na;
  return d;
}

/// Resolve the effective (n_u, s) pair; returns false when no device is
/// usable (n_a <= 0 or an explicitly negative n_u).
bool EffectiveControls(const PlacementRequest &req, int &nu, int &s)
{
  if (req.DevicesPerNode < 1 || req.DevicesToUse < 0)
    return false;
  nu = req.DevicesToUse > 0 ? req.DevicesToUse : req.DevicesPerNode;
  s = req.DeviceStride != 0 ? req.DeviceStride : 1;
  return true;
}

class StaticPolicy : public PlacementPolicy
{
public:
  const char *Name() const override { return "static"; }

  int SelectDevice(const PlacementRequest &req) override
  {
    const int d = Eq1Device(req);
    vp::DeviceLoadTracker::Get().RecordPlacement(req.Node, d);
    return d;
  }
};

/// Shared scan for the adaptive policies: walk the candidate set in the
/// Eq. 1-rotated order and keep the device minimizing `score`.
template <typename ScoreFn>
int PickByScore(const PlacementRequest &req, ScoreFn score)
{
  const std::vector<int> candidates = CandidateDevices(req);
  if (candidates.empty())
  {
    const int d = HostFallback(req);
    vp::DeviceLoadTracker::Get().RecordPlacement(req.Node, d);
    return d;
  }

  int best = candidates.front();
  double bestScore = std::numeric_limits<double>::infinity();
  for (int d : candidates)
  {
    const double s = score(d);
    if (s < bestScore)
    {
      bestScore = s;
      best = d;
    }
  }
  return best;
}

class LeastLoadedPolicy : public PlacementPolicy
{
public:
  const char *Name() const override { return "least-loaded"; }

  int SelectDevice(const PlacementRequest &req) override
  {
    vp::DeviceLoadTracker &tracker = vp::DeviceLoadTracker::Get();
    const double now = vp::ThisClock().Now();
    const bool interactive = req.Hint.Latency == LatencyClass::Interactive;
    const int avoid =
      interactive ? -1 : tracker.InteractiveDevice(req.Node);
    const int d = PickByScore(req,
                              [&](int dev)
                              {
                                return tracker.Backlog(req.Node, dev, now) +
                                       (dev == avoid ? kInteractiveBias : 0.0);
                              });
    if (d >= 0)
    {
      tracker.RecordPlacement(req.Node, d);
      tracker.RecordAssignment(req.Node, d, EstimateSeconds(req.Hint), now);
      if (interactive)
        tracker.NoteInteractive(req.Node, d);
    }
    return d;
  }

private:
  /// Kernel-only estimate so peers making decisions in the same step see
  /// this assignment as backlog.
  static double EstimateSeconds(const WorkHint &h)
  {
    if (!h.Elements)
      return 0.0;
    return vp::Platform::Get().Config().Cost.KernelSeconds(
      h.Elements, h.OpsPerElement, /*onDevice=*/true, h.AtomicFraction);
  }
};

class CostModelPolicy : public PlacementPolicy
{
public:
  const char *Name() const override { return "cost-model"; }

  int SelectDevice(const PlacementRequest &req) override
  {
    vp::DeviceLoadTracker &tracker = vp::DeviceLoadTracker::Get();
    const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
    const double now = vp::ThisClock().Now();

    double kernelSeconds = 0.0;
    double moveSeconds = 0.0;
    if (req.Hint.Elements)
      kernelSeconds = cost.KernelSeconds(req.Hint.Elements,
                                         req.Hint.OpsPerElement,
                                         /*onDevice=*/true,
                                         req.Hint.AtomicFraction);
    if (req.Hint.MoveBytes)
      moveSeconds = cost.CopySeconds(req.Hint.MoveBytes, cost.H2DBandwidth);

    // predicted completion: wait out the backlog, move the payload, run.
    // backlog differs per device; kernel and movement do not, but keeping
    // them in the score documents what is being predicted.
    const bool interactive = req.Hint.Latency == LatencyClass::Interactive;
    const int avoid =
      interactive ? -1 : tracker.InteractiveDevice(req.Node);
    const int d = PickByScore(req,
                              [&](int dev)
                              {
                                return tracker.Backlog(req.Node, dev, now) +
                                       moveSeconds + kernelSeconds +
                                       (dev == avoid ? kInteractiveBias : 0.0);
                              });
    if (d >= 0)
    {
      tracker.RecordPlacement(req.Node, d);
      tracker.RecordAssignment(req.Node, d, kernelSeconds + moveSeconds, now);
      if (interactive)
        tracker.NoteInteractive(req.Node, d);
    }
    return d;
  }
};

} // namespace

const vp::knob::Spellings &PolicyNames()
{
  static const vp::knob::Spellings names = {
    {"static", 0},     {"least-loaded", 1}, {"least_loaded", 1},
    {"cost-model", 2}, {"cost_model", 2}};
  return names;
}

PolicyKind PolicyKindFromName(const std::string &name)
{
  return vp::knob::FromName<PolicyKind>(PolicyNames(), name,
                                        "unknown placement policy");
}

const char *PolicyKindName(PolicyKind k)
{
  return vp::knob::NameOf(PolicyNames(), static_cast<int>(k));
}

PlacementPolicy &GetPolicy(PolicyKind k)
{
  static StaticPolicy staticPolicy;
  static LeastLoadedPolicy leastLoaded;
  static CostModelPolicy costModel;
  switch (k)
  {
    case PolicyKind::LeastLoaded: return leastLoaded;
    case PolicyKind::CostModel: return costModel;
    case PolicyKind::Static: break;
  }
  return staticPolicy;
}

int Eq1Device(const PlacementRequest &req)
{
  int nu = 0, s = 1;
  if (!EffectiveControls(req, nu, s))
    return HostFallback(req);
  return Eq1Raw(req.Rank, nu, s, req.DeviceStart, req.DevicesPerNode);
}

std::vector<int> CandidateDevices(const PlacementRequest &req)
{
  int nu = 0, s = 1;
  if (!EffectiveControls(req, nu, s))
    return {};

  const int na = req.DevicesPerNode;
  const int r = req.Rank >= 0 ? req.Rank : 0;
  const int k0 = r % nu;

  std::vector<int> out;
  std::vector<bool> seen(static_cast<std::size_t>(na), false);
  for (int i = 0; i < nu; ++i)
  {
    const int k = (k0 + i) % nu;
    const int d = Eq1Raw(k, nu, s, req.DeviceStart, na);
    if (!seen[static_cast<std::size_t>(d)])
    {
      seen[static_cast<std::size_t>(d)] = true;
      out.push_back(d);
    }
  }
  return out;
}

std::size_t HostFallbackCount()
{
  return HostFallbacks.load();
}

} // namespace sched
