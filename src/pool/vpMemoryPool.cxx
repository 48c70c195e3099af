#include "vpMemoryPool.h"

#include "vpChecker.h"
#include "vpClock.h"
#include "vpFaultInjector.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

namespace vp
{

PoolStats &PoolStats::operator+=(const PoolStats &o)
{
  this->Hits += o.Hits;
  this->Misses += o.Misses;
  this->Frees += o.Frees;
  this->Trims += o.Trims;
  this->AllocRetries += o.AllocRetries;
  this->BytesCached += o.BytesCached;
  this->BytesInUse += o.BytesInUse;
  this->PeakBytesCached += o.PeakBytesCached;
  this->PeakBytesInUse += o.PeakBytesInUse;
  this->RequestedBytes += o.RequestedBytes;
  this->RoundedBytes += o.RoundedBytes;
  return *this;
}

std::size_t PoolSizeClass(std::size_t bytes, std::size_t minBlock)
{
  std::size_t cls = 1;
  while (cls < minBlock)
    cls <<= 1;
  while (cls < bytes)
    cls <<= 1;
  return cls;
}

// ---------------------------------------------------------------------------
MemoryPool::MemoryPool(int node, DeviceId device, MemSpace space)
  : Node_(node), Device_(device), Space_(space)
{
}

void *MemoryPool::Allocate(std::size_t bytes, PmKind pm, const Stream &stream,
                           const PoolConfig &cfg)
{
  const std::size_t rounded = PoolSizeClass(bytes, cfg.MinBlockBytes);
  const CostModel &cost = Platform::Get().Config().Cost;

  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    auto lit = this->Free_.find(rounded);
    if (lit != this->Free_.end() && !lit->second.empty())
    {
      // the requester's position in virtual time: its thread clock, or —
      // for a stream-ordered request — wherever the stream's queued work
      // already reaches, whichever is later.
      double now = ThisClock().Now();
      if (stream)
        now = std::max(now, stream.Get()->Completion());

      // injected lifetime bug: skip the stream-ready check so the
      // checker's premature-reuse detection is testable against reality
      const bool premature = fault::PrematureReuseEnabled();

      auto &blocks = lit->second;
      for (auto it = blocks.begin(); it != blocks.end(); ++it)
      {
        const bool sameStream = stream && it->FreedOn == stream;
        if (!sameStream && !premature && it->ReadyAt > now)
          continue; // the freeing stream point has not been reached

        void *p = it->Ptr;
        blocks.erase(it);
        check::OnPoolReuse(p, stream ? stream.Get() : nullptr, now);
        this->Stats_.BytesCached -= rounded;
        this->Stats_.Hits++;
        this->Stats_.RequestedBytes += bytes;
        this->Stats_.RoundedBytes += rounded;
        this->InUse_[p] = LiveBlock{rounded};
        this->Stats_.BytesInUse += rounded;
        this->Stats_.PeakBytesInUse =
          std::max(this->Stats_.PeakBytesInUse, this->Stats_.BytesInUse);

        // a pool hit is a stream-ordered allocation: charge the cheap
        // async latency, never the full allocation bookkeeping
        if (stream)
          stream.Get()->Extend(ThisClock().Now() + cost.AsyncAllocLatency);
        ThisClock().Advance(cost.AsyncAllocLatency);

        // preserve the platform's zero-initialization invariant
        std::memset(p, 0, rounded);
        return p;
      }
    }
  }

  // miss: the platform allocates (and charges its usual latency). When
  // that fails — a device memory limit or an injected fault — degrade
  // gracefully: release this pool's cache back to the platform and retry
  // once (cudaMallocAsync-under-pressure semantics).
  void *p = nullptr;
  try
  {
    // fault injection targets pool-routed allocations only: this is the
    // one allocation site with a graceful-degradation contract, so an
    // injected failure is absorbed here instead of unwinding a rank
    if (fault::ShouldFailAllocation())
    {
      std::ostringstream oss;
      oss << "MemoryPool::Allocate: injected allocation failure (" << rounded
          << " bytes)";
      throw Error(oss.str());
    }
    p = Platform::Get().Allocate(this->Space_, this->Device_, rounded, pm,
                                 stream);
  }
  catch (const Error &)
  {
    this->ReleaseCached();
    {
      std::lock_guard<std::mutex> lock(this->Mutex_);
      this->Stats_.AllocRetries++;
    }
    p = Platform::Get().Allocate(this->Space_, this->Device_, rounded, pm,
                                 stream);
  }
  Platform::Get().TagPooled(p, true);

  std::lock_guard<std::mutex> lock(this->Mutex_);
  this->Stats_.Misses++;
  this->Stats_.RequestedBytes += bytes;
  this->Stats_.RoundedBytes += rounded;
  this->InUse_[p] = LiveBlock{rounded};
  this->Stats_.BytesInUse += rounded;
  this->Stats_.PeakBytesInUse =
    std::max(this->Stats_.PeakBytesInUse, this->Stats_.BytesInUse);
  return p;
}

bool MemoryPool::Deallocate(void *p, const Stream &stream,
                            const PoolConfig &cfg)
{
  const CostModel &cost = Platform::Get().Config().Cost;

  std::lock_guard<std::mutex> lock(this->Mutex_);
  auto it = this->InUse_.find(p);
  if (it == this->InUse_.end())
    return false;

  const std::size_t rounded = it->second.Rounded;
  this->InUse_.erase(it);
  this->Stats_.BytesInUse -= rounded;

  // the free is an operation on the freeing stream: the block becomes
  // reusable (elsewhere) once all work queued there so far completes
  FreeBlock blk;
  blk.Ptr = p;
  blk.Bytes = rounded;
  blk.ReadyAt = ThisClock().Now();
  blk.FreedOn = stream;
  if (stream)
  {
    blk.ReadyAt = std::max(blk.ReadyAt, stream.Get()->Completion());
    stream.Get()->Extend(ThisClock().Now() + cost.AsyncAllocLatency);
  }
  ThisClock().Advance(cost.AsyncAllocLatency);

  check::OnPoolFree(p, stream ? stream.Get() : nullptr, blk.ReadyAt);

  this->Free_[rounded].push_back(blk);
  this->Stats_.Frees++;
  this->Stats_.BytesCached += rounded;
  this->Stats_.PeakBytesCached =
    std::max(this->Stats_.PeakBytesCached, this->Stats_.BytesCached);

  if (cfg.MaxCachedBytes && this->Stats_.BytesCached > cfg.MaxCachedBytes)
  {
    const double frac = std::clamp(cfg.TrimThreshold, 0.0, 1.0);
    this->TrimLocked(static_cast<std::size_t>(
      frac * static_cast<double>(cfg.MaxCachedBytes)));
  }
  return true;
}

void MemoryPool::TrimLocked(std::size_t target)
{
  // release oldest free points first until the cache fits the target.
  // kernels execute eagerly at submit time, so a cached block has no
  // pending real writes — releasing early is always safe; ReadyAt only
  // matters for the reuse cost model.
  while (this->Stats_.BytesCached > target)
  {
    auto oldest = this->Free_.end();
    for (auto it = this->Free_.begin(); it != this->Free_.end(); ++it)
    {
      if (it->second.empty())
        continue;
      if (oldest == this->Free_.end() ||
          it->second.front().ReadyAt < oldest->second.front().ReadyAt)
        oldest = it;
    }
    if (oldest == this->Free_.end())
      break;

    FreeBlock blk = oldest->second.front();
    oldest->second.pop_front();
    this->Stats_.BytesCached -= blk.Bytes;
    this->Stats_.Trims++;
    // the release is legitimate: untag so Platform::Free accepts the
    // block, and tell the checker the next free of this pointer is clean
    check::OnPoolRelease(blk.Ptr);
    Platform::Get().TagPooled(blk.Ptr, false);
    Platform::Get().Free(blk.Ptr);
  }
}

void MemoryPool::ReleaseCached()
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  this->TrimLocked(0);
  this->Free_.clear();
}

std::size_t MemoryPool::LiveBlocks() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  return this->InUse_.size();
}

PoolStats MemoryPool::Stats() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  return this->Stats_;
}

void MemoryPool::ResetStats()
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  PoolStats fresh;
  for (const auto &kv : this->Free_)
    for (const FreeBlock &blk : kv.second)
      fresh.BytesCached += blk.Bytes;
  for (const auto &kv : this->InUse_)
    fresh.BytesInUse += kv.second.Rounded;
  fresh.PeakBytesCached = fresh.BytesCached;
  fresh.PeakBytesInUse = fresh.BytesInUse;
  this->Stats_ = fresh;
}

// ---------------------------------------------------------------------------
PoolManager::PoolManager()
{
  // release cached platform memory before the platform rebuilds, so
  // Platform::Initialize's live-allocation check sees a clean registry
  Platform::AtInitialize([]() { PoolManager::Get().ReleaseAll(); });
}

const knob::Table<PoolConfig> &PoolConfigRows()
{
  using namespace knob;
  static const Table<PoolConfig> rows({
    Bool<&PoolConfig::Enabled>("pool", "enabled"),
    Int<&PoolConfig::MaxCachedBytes>("pool", "max_cached_bytes", 0, kMaxInt),
    Real<&PoolConfig::TrimThreshold>("pool", "trim_threshold", 0, 1),
    Int<&PoolConfig::MinBlockBytes>("pool", "min_block_bytes", 1, 1 << 30),
  });
  return rows;
}

PoolManager &PoolManager::Get()
{
  static PoolManager instance;
  return instance;
}

void PoolManager::Configure(const PoolConfig &cfg)
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  this->Config_ = cfg;
}

PoolConfig PoolManager::Config() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  return this->Config_;
}

bool PoolManager::Enabled()
{
  return PoolManager::Get().Config().Enabled;
}

MemoryPool &PoolManager::Pool(MemSpace space, DeviceId device)
{
  const int node = Platform::GetThisNode();
  const DeviceId dev =
    space == MemSpace::Device || space == MemSpace::Managed ? device
                                                            : HostDevice;
  std::lock_guard<std::mutex> lock(this->Mutex_);
  auto key = std::make_tuple(node, dev, static_cast<std::uint8_t>(space));
  auto it = this->Pools_.find(key);
  if (it == this->Pools_.end())
    it = this->Pools_
           .emplace(key, std::make_unique<MemoryPool>(node, dev, space))
           .first;
  return *it->second;
}

void *PoolManager::Allocate(MemSpace space, DeviceId device,
                            std::size_t bytes, PmKind pm, const Stream &stream)
{
  MemoryPool &pool = this->Pool(space, device);
  void *p = pool.Allocate(bytes, pm, stream, this->Config());
  std::lock_guard<std::mutex> lock(this->Mutex_);
  this->Owner_[p] = &pool;
  return p;
}

void PoolManager::Deallocate(void *p, const Stream &stream)
{
  if (!p)
    return;

  MemoryPool *pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    auto it = this->Owner_.find(p);
    if (it != this->Owner_.end())
    {
      pool = it->second;
      this->Owner_.erase(it);
    }
  }

  if (!pool || !pool->Deallocate(p, stream, this->Config()))
    Platform::Get().Free(p); // not pool managed (mixed alloc/free paths)
}

bool PoolManager::Owns(const void *p) const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  return this->Owner_.count(p) > 0;
}

void PoolManager::ReleaseAll()
{
  std::vector<MemoryPool *> pools;
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    pools.reserve(this->Pools_.size());
    for (auto &kv : this->Pools_)
      pools.push_back(kv.second.get());
  }
  for (MemoryPool *pool : pools)
    pool->ReleaseCached();
}

PoolStats PoolManager::AggregateStats() const
{
  std::vector<const MemoryPool *> pools;
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    pools.reserve(this->Pools_.size());
    for (const auto &kv : this->Pools_)
      pools.push_back(kv.second.get());
  }
  PoolStats total;
  for (const MemoryPool *pool : pools)
    total += pool->Stats();
  return total;
}

void PoolManager::ResetStats()
{
  std::vector<MemoryPool *> pools;
  {
    std::lock_guard<std::mutex> lock(this->Mutex_);
    pools.reserve(this->Pools_.size());
    for (auto &kv : this->Pools_)
      pools.push_back(kv.second.get());
  }
  for (MemoryPool *pool : pools)
    pool->ResetStats();
}

} // namespace vp
