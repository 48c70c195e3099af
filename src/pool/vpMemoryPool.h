#ifndef vpMemoryPool_h
#define vpMemoryPool_h

/// @file vpMemoryPool.h
/// Stream-ordered caching memory pool for the virtual platform — the same
/// shape as CUDA's async memory pools and the caching allocators used by
/// ML training/inference stacks. A vp::MemoryPool serves one (node,
/// device, memory-space) triple with size-class free lists; freed blocks
/// are recycled instead of returned to the platform, so the hot in situ
/// loops (per-step cross-PM temporaries, async deep copies, binning
/// scratch grids) pay CostModel::AsyncAllocLatency on a hit instead of
/// AllocLatency plus registry churn on every allocation.
///
/// Stream-ordered reuse rule: a deallocation records the freeing stream's
/// completion point (or the freeing thread's virtual time for a null
/// stream). A cached block becomes reusable
///  * immediately on the stream it was freed on (in-order streams make
///    the reuse safe, exactly like cudaMallocAsync), and
///  * on any other stream or thread only once the requester's virtual
///    clock has passed the recorded free point.
/// Blocks that are not yet reusable are skipped — such a request is a
/// miss and falls through to the platform allocator.
///
/// Trimming: when the bytes cached by one pool exceed
/// PoolConfig::MaxCachedBytes, ready blocks are released back to the
/// platform (oldest free point first) until the cache is below
/// TrimThreshold * MaxCachedBytes — high-water-mark trimming as in
/// cudaMemPoolTrimTo.
///
/// PoolStats counts hits, misses, frees, trims, cached/in-use bytes with
/// peaks, and internal fragmentation; sensei::ExportPoolStats publishes
/// the block through the profiler.

#include "vpKnob.h"
#include "vpMemory.h"
#include "vpPlatform.h"
#include "vpStream.h"
#include "vpTypes.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace vp
{

/// Behaviour knobs, applied process wide through PoolManager::Configure.
struct PoolConfig
{
  /// Route implicit allocations (PM MallocAsync, data-model temporaries)
  /// through the pool. Explicit pool allocators always use the pool.
  bool Enabled = false;

  /// Cap on cached (free) bytes per pool; exceeding it triggers a trim.
  /// 0 means unlimited (never trim).
  std::size_t MaxCachedBytes = std::size_t(256) << 20;

  /// Trim target as a fraction of MaxCachedBytes in (0, 1].
  double TrimThreshold = 0.5;

  /// Smallest size class; requests are rounded up to a power of two of at
  /// least this many bytes.
  std::size_t MinBlockBytes = 256;
};

/// The `<pool>` rows (no variables).
const knob::Table<PoolConfig> &PoolConfigRows();

/// Counter block for one pool (or an aggregate over pools).
struct PoolStats
{
  std::uint64_t Hits = 0;    ///< allocations served from the free lists
  std::uint64_t Misses = 0;  ///< allocations that fell through to the platform
  std::uint64_t Frees = 0;   ///< deallocations returned to the free lists
  std::uint64_t Trims = 0;   ///< blocks released by high-water trimming
  std::uint64_t AllocRetries = 0; ///< platform allocation failures absorbed
                                  ///< by releasing the cache and retrying
  std::size_t BytesCached = 0;     ///< bytes currently in the free lists
  std::size_t BytesInUse = 0;      ///< pooled bytes currently handed out
  std::size_t PeakBytesCached = 0; ///< high-water mark of BytesCached
  std::size_t PeakBytesInUse = 0;  ///< high-water mark of BytesInUse
  std::uint64_t RequestedBytes = 0; ///< sum of requested sizes
  std::uint64_t RoundedBytes = 0;   ///< sum of size-class rounded sizes

  /// Fraction of allocations served from cache.
  double HitRate() const
  {
    const std::uint64_t n = this->Hits + this->Misses;
    return n ? static_cast<double>(this->Hits) / static_cast<double>(n) : 0.0;
  }

  /// Internal fragmentation from size-class rounding: wasted / rounded.
  double Fragmentation() const
  {
    return this->RoundedBytes
             ? 1.0 - static_cast<double>(this->RequestedBytes) /
                       static_cast<double>(this->RoundedBytes)
             : 0.0;
  }

  PoolStats &operator+=(const PoolStats &o);
};

/// Round `bytes` up to its size class: the next power of two that is at
/// least `minBlock` (itself rounded to a power of two).
std::size_t PoolSizeClass(std::size_t bytes, std::size_t minBlock);

/// One caching pool serving a single (node, device, memory space).
/// Thread safe. Obtain instances through PoolManager.
class MemoryPool
{
public:
  MemoryPool(int node, DeviceId device, MemSpace space);

  MemoryPool(const MemoryPool &) = delete;
  MemoryPool &operator=(const MemoryPool &) = delete;

  /// Allocate `bytes` (rounded to a size class) honouring the
  /// stream-ordered reuse rule. On a hit the block is recycled and
  /// AsyncAllocLatency is charged (to `stream` when given, else to the
  /// calling thread); on a miss the platform allocates and charges its
  /// usual latency. Returned memory is zeroed either way.
  void *Allocate(std::size_t bytes, PmKind pm, const Stream &stream,
                 const PoolConfig &cfg);

  /// Return a pooled block to the free lists. The block becomes reusable
  /// at the freeing stream's current completion point (the calling
  /// thread's virtual time for a null stream). May trim per `cfg`.
  /// Returns false when `p` was not handed out by this pool.
  bool Deallocate(void *p, const Stream &stream, const PoolConfig &cfg);

  /// Release every cached block back to the platform (in-use blocks are
  /// untouched). Counted as trims.
  void ReleaseCached();

  /// Number of blocks currently handed out.
  std::size_t LiveBlocks() const;

  /// Snapshot of the counters.
  PoolStats Stats() const;

  /// Zero the counters (cached/in-use gauges are recomputed, not reset).
  void ResetStats();

  int Node() const noexcept { return this->Node_; }
  DeviceId Device() const noexcept { return this->Device_; }
  MemSpace Space() const noexcept { return this->Space_; }

private:
  /// One cached block awaiting reuse.
  struct FreeBlock
  {
    void *Ptr = nullptr;
    std::size_t Bytes = 0;  ///< size-class rounded
    double ReadyAt = 0.0;   ///< virtual time the freeing stream point passes
    Stream FreedOn;         ///< stream the block was freed on (may be null)
  };

  /// Bookkeeping for a handed-out block.
  struct LiveBlock
  {
    std::size_t Rounded = 0;
  };

  void TrimLocked(std::size_t target); ///< requires Mutex_ held

  int Node_ = 0;
  DeviceId Device_ = HostDevice;
  MemSpace Space_ = MemSpace::Host;

  mutable std::mutex Mutex_;
  std::map<std::size_t, std::deque<FreeBlock>> Free_; ///< size class -> blocks
  std::unordered_map<void *, LiveBlock> InUse_;
  PoolStats Stats_;
};

/// Process-wide owner of every MemoryPool, keyed by (node, device, space).
/// Registers a Platform::AtInitialize hook on first use so cached blocks
/// are released before the platform rebuilds.
class PoolManager
{
public:
  /// The singleton, created on first use.
  static PoolManager &Get();

  /// Replace the process-wide configuration. Disabling does not release
  /// existing cache; call ReleaseAll for that.
  void Configure(const PoolConfig &cfg);

  /// The active configuration.
  PoolConfig Config() const;

  /// True when implicit routing through the pool is on (shorthand used by
  /// the PM front ends and the data model's temporary allocation).
  static bool Enabled();

  /// Allocate through the pool for (calling thread's node, device, space).
  void *Allocate(MemSpace space, DeviceId device, std::size_t bytes,
                 PmKind pm, const Stream &stream = Stream());

  /// Return a pool-managed block. Falls back to Platform::Free for
  /// pointers no pool knows (defensive: mixed alloc/free paths).
  void Deallocate(void *p, const Stream &stream = Stream());

  /// True when `p` was handed out by some pool and not yet returned.
  bool Owns(const void *p) const;

  /// The pool for (calling thread's node, device, space), created on
  /// first use.
  MemoryPool &Pool(MemSpace space, DeviceId device);

  /// Release all cached blocks in every pool.
  void ReleaseAll();

  /// Counters summed over every pool.
  PoolStats AggregateStats() const;

  /// Zero every pool's counters.
  void ResetStats();

private:
  PoolManager();

  mutable std::mutex Mutex_;
  PoolConfig Config_;
  std::map<std::tuple<int, DeviceId, std::uint8_t>,
           std::unique_ptr<MemoryPool>>
    Pools_;
  std::unordered_map<const void *, MemoryPool *> Owner_;
};

} // namespace vp

#endif
