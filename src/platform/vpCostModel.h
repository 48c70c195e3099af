#ifndef vpCostModel_h
#define vpCostModel_h

/// @file vpCostModel.h
/// Analytic timing model for the virtual platform. All rates are calibrated
/// loosely to a Perlmutter-like node (AMD EPYC host + A100-class devices) so
/// that the *shape* of the paper's results is reproduced: devices are much
/// faster than the host core pool for streaming FLOP work, host<->device
/// transfers are bandwidth limited, kernel launches carry a fixed latency,
/// and atomic-heavy device kernels pay a contention penalty (the paper notes
/// data binning "is not an ideal algorithm for GPUs since it requires the
/// use of atomic memory updates").

#include <cstddef>

namespace vp
{

/// Per-operation virtual-time costs. Durations in seconds, rates in
/// operations (or bytes) per second.
struct CostModel
{
  // --- kernel execution -------------------------------------------------
  double KernelLaunchLatency = 5.0e-6;  ///< fixed cost per device launch
  double KernelSubmitOverhead = 1.5e-6; ///< host-side cost of an async submit
  double DeviceOpRate = 4.0e11;         ///< device elementary ops / second
  double HostOpRate = 2.0e10;           ///< host core-pool ops / second
  double DeviceAtomicPenalty = 12.0;    ///< slowdown for atomic-bound kernels
  double HostAtomicPenalty = 1.5;       ///< host pays far less for atomics

  // --- memory movement ---------------------------------------------------
  double H2DBandwidth = 2.4e10;       ///< pageable host -> device, bytes/s
  double D2HBandwidth = 2.4e10;       ///< device -> pageable host, bytes/s
  double PinnedBandwidthScale = 2.0;  ///< pinned transfers are this much faster
  double D2DBandwidth = 8.0e10;       ///< peer device -> device, bytes/s
  double H2HBandwidth = 5.0e10;       ///< host memcpy, bytes/s
  double CopyLatency = 8.0e-6;        ///< fixed latency per transfer
  double AllocLatency = 2.0e-6;       ///< device allocation bookkeeping
  double AsyncAllocLatency = 0.4e-6;  ///< stream-ordered allocation

  // --- captured step-graph replay ----------------------------------------
  /// One amortized host-side charge per replay flush of a captured step
  /// graph (src/graph), replacing the per-call KernelSubmitOverhead of
  /// every absorbed operation — the cudaGraphLaunch analogue.
  double GraphReplayLatency = 2.0e-6;

  // --- threading and messaging -------------------------------------------
  /// std::thread launch: paid once per asynchronous analysis, when its
  /// bounded pipeline starts the resident consumer (later tasks are
  /// handed to it at KernelSubmitOverhead), and per ScopedThread.
  double ThreadSpawnCost = 2.0e-5;
  double MessageLatency = 2.0e-6;   ///< per message fixed cost (on-node MPI)
  double MessageBandwidth = 1.2e10; ///< bytes/s between ranks

  /// Virtual duration of a kernel over n elements at opsPerElement cost.
  /// atomicFraction in [0,1] scales between streaming and atomic-bound rate.
  double KernelSeconds(std::size_t n, double opsPerElement, bool onDevice,
                       double atomicFraction = 0.0) const
  {
    const double rate = onDevice ? this->DeviceOpRate : this->HostOpRate;
    const double penalty =
      onDevice ? this->DeviceAtomicPenalty : this->HostAtomicPenalty;
    const double eff =
      rate / (1.0 + atomicFraction * (penalty - 1.0));
    const double work = static_cast<double>(n) * opsPerElement;
    return (onDevice ? this->KernelLaunchLatency : 0.0) + work / eff;
  }

  /// Virtual duration of a transfer of nBytes classified by kind; pinned
  /// host endpoints raise the effective bandwidth.
  double CopySeconds(std::size_t nBytes, double bandwidth) const
  {
    return this->CopyLatency + static_cast<double>(nBytes) / bandwidth;
  }
};

} // namespace vp

#endif
