#ifndef vpPlatform_h
#define vpPlatform_h

/// @file vpPlatform.h
/// The virtual heterogeneous platform: a configurable set of compute nodes,
/// each with a host core pool and several accelerator devices. This is the
/// substrate standing in for the CUDA / OpenMP-offload runtimes and the
/// Perlmutter GPU nodes used in the paper. Kernel durations are charged
/// to a discrete-event virtual timeline that models launch latency,
/// bandwidths, device/host throughput, contention between streams
/// sharing an engine, and the atomic-update penalty. The real kernel
/// bodies (results are genuine) run under the vp::exec engine: inline on
/// the calling thread by default (VP_EXEC=serial, bit-exact), or
/// genuinely concurrently on per-device worker queues with sharded
/// bodies when VP_EXEC=threads. Virtual time is identical in both modes.

#include "vpClock.h"
#include "vpCostModel.h"
#include "vpMemory.h"
#include "vpStream.h"
#include "vpTypes.h"

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace vp
{

/// Error type thrown by platform front ends on invalid use (bad device id,
/// freeing an unknown pointer, exceeding a device memory limit, ...).
class Error : public std::runtime_error
{
public:
  explicit Error(const std::string &what) : std::runtime_error(what) {}
};

/// Static description of the simulated machine.
struct PlatformConfig
{
  int NumNodes = 1;          ///< independent nodes (each with its own devices)
  int DevicesPerNode = 4;    ///< accelerators per node (Perlmutter: 4 A100)
  int HostCoresPerNode = 64; ///< host CPU cores per node (Perlmutter: 64)
  CostModel Cost;            ///< timing model
  bool ExecuteKernels = true; ///< false = timing-only mode for paper-scale runs
  std::size_t DeviceMemoryLimit = 0; ///< bytes per device; 0 = unlimited
};

/// Work description used by the cost model for one kernel launch.
struct KernelDesc
{
  std::size_t N = 0;            ///< number of elements / iterations
  double OpsPerElement = 1.0;   ///< elementary operations per element
  double AtomicFraction = 0.0;  ///< fraction of work that is atomic-bound
  const char *Name = "kernel";  ///< label for diagnostics
  bool Shardable = false;       ///< body may run as concurrent [b,e) chunks
};

/// A range kernel body: invoked as fn(begin, end) over [0, N).
using KernelFn = std::function<void(std::size_t, std::size_t)>;

/// One simulated accelerator: a compute engine and a copy engine, each an
/// exclusive resource with its own availability timeline.
struct Device
{
  ResourceTimeline Engine;     ///< kernel execution
  ResourceTimeline CopyEngine; ///< DMA transfers
  std::atomic<std::size_t> BytesAllocated{0};
  Stream DefaultStream;        ///< the device's null-stream
};

/// One simulated node: devices plus a host core pool.
struct Node
{
  std::vector<std::unique_ptr<Device>> Devices;
  std::unique_ptr<PoolTimeline> HostPool;
};

/// Aggregate operation counters, useful for asserting zero-copy behaviour.
struct PlatformStats
{
  std::atomic<std::uint64_t> KernelsLaunched{0};
  std::atomic<std::uint64_t> HostRegions{0};
  std::atomic<std::uint64_t> CopyCount[5] = {};  ///< indexed by CopyKind
  std::atomic<std::uint64_t> CopyBytes[5] = {};  ///< indexed by CopyKind
  std::atomic<std::uint64_t> AllocCount[4] = {}; ///< indexed by MemSpace

  std::uint64_t Copies(CopyKind k) const
  {
    return this->CopyCount[static_cast<int>(k)].load();
  }
  std::uint64_t Bytes(CopyKind k) const
  {
    return this->CopyBytes[static_cast<int>(k)].load();
  }
  /// Platform allocations in `s` (a pool hit allocates nothing here).
  std::uint64_t Allocations(MemSpace s) const
  {
    return this->AllocCount[static_cast<int>(s)].load();
  }
  void Reset()
  {
    this->KernelsLaunched = 0;
    this->HostRegions = 0;
    for (auto &c : this->CopyCount) c = 0;
    for (auto &b : this->CopyBytes) b = 0;
    for (auto &a : this->AllocCount) a = 0;
  }
};

/// The machine. A process-wide singleton that tests and benchmarks may
/// re-Initialize between scenarios (all tracked allocations must be freed
/// first; Initialize verifies this).
class Platform
{
public:
  /// Access the singleton, creating it with a default config on first use.
  static Platform &Get();

  /// Recreate the machine with a new configuration. Registered
  /// AtInitialize hooks run first (so caching layers such as the memory
  /// pool can release platform memory they hold); then throws vp::Error
  /// if tracked allocations are still live.
  static void Initialize(const PlatformConfig &config);

  /// Register a hook invoked at the start of every Initialize, before the
  /// live-allocation check. Subsystems that cache platform allocations
  /// (e.g. vp::PoolManager) release them here. Hooks persist for the
  /// process lifetime.
  static void AtInitialize(std::function<void()> hook);

  /// The active configuration.
  const PlatformConfig &Config() const noexcept { return this->Config_; }

  /// Devices per node.
  int NumDevices() const noexcept { return this->Config_.DevicesPerNode; }

  /// Number of nodes.
  int NumNodes() const noexcept { return this->Config_.NumNodes; }

  /// Node accessor; throws on out-of-range ids.
  Node &GetNode(int node);

  /// Device accessor; throws on out-of-range ids.
  Device &GetDevice(int node, DeviceId dev);

  /// Bind the calling thread to a node (ranks call this at startup).
  static void SetThisNode(int node);

  /// Node the calling thread is bound to (default 0).
  static int GetThisNode();

  // --- memory -------------------------------------------------------------

  /// Allocate `bytes` in `space`. For MemSpace::Device, `device` names the
  /// owning accelerator on the calling thread's node. Charges allocation
  /// latency to the calling thread (or the stream for async allocations).
  /// Memory is zero initialized. Throws vp::Error when a device memory
  /// limit is configured and would be exceeded.
  void *Allocate(MemSpace space, DeviceId device, std::size_t bytes,
                 PmKind pm, const Stream &stream = Stream());

  /// Free memory obtained from Allocate. Throws vp::Error on unknown
  /// pointers; freeing nullptr is a no-op.
  void Free(void *p);

  /// Free memory a transfer queued on `stream` may still be writing (a
  /// copy left in flight): as Free, once the work queued on `stream` so
  /// far has really run. Joins real time only (VP_EXEC=threads); the
  /// virtual clock is charged as by Free.
  void Free(void *p, const Stream &stream);

  /// Block the calling thread until the work queued on `stream` so far
  /// has really run (VP_EXEC=threads; at once in serial mode). Real time
  /// only: the virtual clock does not move. What a holder of memory that
  /// work may still write calls before it lets the memory go.
  void JoinReal(const Stream &stream);

  /// Look up allocation metadata; false for untracked (raw host) pointers.
  bool Query(const void *p, AllocInfo &info) const
  {
    return this->Registry_.Query(p, info);
  }

  /// The allocation registry (read-mostly introspection).
  const MemoryRegistry &Registry() const noexcept { return this->Registry_; }

  /// Mark/unmark a tracked allocation as managed by a vp::MemoryPool so
  /// that copy classification and frees can recognize pooled blocks.
  bool TagPooled(void *p, bool pooled)
  {
    return this->Registry_.SetPooled(p, pooled);
  }

  // --- execution ----------------------------------------------------------

  /// The default stream of a device on the calling thread's node.
  Stream DefaultStream(DeviceId device);

  /// Launch a kernel on a device stream. The virtual duration is charged
  /// to the stream and the device's compute engine at submission. The
  /// body runs eagerly in serial exec mode, or is deferred to the
  /// device's compute queue (stream-ordered; sharded when
  /// desc.Shardable) under VP_EXEC=threads; timing-only mode skips it.
  /// When `synchronous` the calling thread's clock advances to the
  /// completion time (and, in threads mode, the body is really waited
  /// out), otherwise only by the submit overhead.
  void LaunchKernel(const Stream &stream, const KernelDesc &desc,
                    const KernelFn &fn, bool synchronous = false);

  /// Run a parallel region on the calling thread's node host core pool,
  /// occupying `width` cores (0 = all); the virtual cost is priced
  /// against the lanes actually claimed. Synchronous: the thread clock
  /// advances to completion. The body runs on the calling thread, or —
  /// when desc.Shardable and VP_EXEC=threads — split into per-lane
  /// [begin, end) chunks across the node's worker pool (honouring
  /// `width` as the concurrency bound).
  void HostParallelFor(const KernelDesc &desc, const KernelFn &fn,
                       int width = 0);

  /// Charge `seconds` of serial host work to the calling thread.
  void HostCompute(double seconds) { ThisClock().Advance(seconds); }

  /// Asynchronous copy ordered by `stream`. Classification (H2D, ...) is
  /// inferred from the registry. The bytes move immediately (real memcpy);
  /// virtual time is charged to the stream and the owning copy engine.
  void CopyAsync(const Stream &stream, void *dst, const void *src,
                 std::size_t bytes);

  /// Synchronous copy: as CopyAsync on the device default stream, then the
  /// calling thread waits for completion.
  void Copy(void *dst, const void *src, std::size_t bytes);

  /// Advance the calling thread's clock to the stream's completion time.
  void StreamSynchronize(const Stream &stream);

  /// Advance the calling thread's clock past all work submitted to a
  /// device on the calling thread's node.
  void DeviceSynchronize(DeviceId device);

  // --- introspection -------------------------------------------------------

  /// Operation counters.
  PlatformStats &Stats() noexcept { return this->Stats_; }

  /// Validate a device id for the calling thread's node; throws vp::Error.
  void CheckDevice(DeviceId device) const;

private:
  Platform() = default;
  void Build(const PlatformConfig &config);

  /// Resolve a possibly-null stream handle to a real stream.
  Stream Resolve(const Stream &stream, DeviceId fallbackDevice);

  double CopyBandwidth(CopyKind kind, const AllocInfo &dst,
                       const AllocInfo &src) const;

  PlatformConfig Config_;
  std::vector<Node> Nodes_;
  MemoryRegistry Registry_;
  PlatformStats Stats_;
};

/// RAII helper that runs a function on a new thread whose virtual clock is
/// seeded from the parent at spawn and merged back at Join. This is the
/// platform-aware replacement for raw std::thread used by the asynchronous
/// in situ execution method.
class ScopedThread
{
public:
  ScopedThread() = default;

  /// Launch `fn` on a new thread. The child's clock starts at the parent's
  /// current time plus the configured thread-spawn cost.
  explicit ScopedThread(std::function<void()> fn);

  ScopedThread(ScopedThread &&) noexcept;
  ScopedThread &operator=(ScopedThread &&) noexcept;
  ScopedThread(const ScopedThread &) = delete;
  ScopedThread &operator=(const ScopedThread &) = delete;

  /// Joins (and merges clocks) if still running.
  ~ScopedThread();

  /// Wait for the child and advance the parent clock to
  /// max(parent, child completion).
  void Join();

  /// True when a thread is joinable.
  bool Joinable() const noexcept;

private:
  struct Impl;
  std::unique_ptr<Impl> Impl_;
};

} // namespace vp

#endif
