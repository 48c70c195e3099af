#include "vpPlatform.h"

#include "execEngine.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

namespace vp
{

namespace
{
/// Thread-local node binding.
int &ThisNodeRef()
{
  thread_local int node = 0;
  return node;
}

Platform *GlobalPlatform = nullptr;
std::mutex GlobalMutex;

/// Hooks run at the start of every Initialize (guarded by its own mutex so
/// hook bodies may call back into the platform).
std::vector<std::function<void()>> &InitializeHooks()
{
  static std::vector<std::function<void()>> hooks;
  return hooks;
}
std::mutex HookMutex;
} // namespace

const char *ToString(MemSpace s)
{
  switch (s)
  {
    case MemSpace::Host: return "host";
    case MemSpace::HostPinned: return "host_pinned";
    case MemSpace::Device: return "device";
    case MemSpace::Managed: return "managed";
  }
  return "unknown";
}

const char *ToString(PmKind p)
{
  switch (p)
  {
    case PmKind::None: return "none";
    case PmKind::Cuda: return "cuda";
    case PmKind::OpenMP: return "openmp";
    case PmKind::Hip: return "hip";
    case PmKind::Sycl: return "sycl";
  }
  return "unknown";
}

const char *ToString(CopyKind k)
{
  switch (k)
  {
    case CopyKind::HostToHost: return "H2H";
    case CopyKind::HostToDevice: return "H2D";
    case CopyKind::DeviceToHost: return "D2H";
    case CopyKind::DeviceToDevice: return "D2D";
    case CopyKind::OnDevice: return "OnDevice";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
Platform &Platform::Get()
{
  std::lock_guard<std::mutex> lock(GlobalMutex);
  if (!GlobalPlatform)
  {
    GlobalPlatform = new Platform;
    GlobalPlatform->Build(PlatformConfig{});
  }
  return *GlobalPlatform;
}

void Platform::AtInitialize(std::function<void()> hook)
{
  std::lock_guard<std::mutex> lock(HookMutex);
  InitializeHooks().push_back(std::move(hook));
}

void Platform::Initialize(const PlatformConfig &config)
{
  Platform &inst = Platform::Get();
  // drain any real in-flight work before the caching layers release
  // platform memory and before the live-allocation check below
  exec::Engine::Get().Quiesce();
  {
    std::vector<std::function<void()>> hooks;
    {
      std::lock_guard<std::mutex> lock(HookMutex);
      hooks = InitializeHooks();
    }
    for (const auto &hook : hooks)
      hook();
  }
  if (inst.Registry_.Size() != 0)
  {
    std::ostringstream oss;
    oss << "Platform::Initialize: " << inst.Registry_.Size()
        << " tracked allocations are still live";
    throw Error(oss.str());
  }
  inst.Build(config);
}

void Platform::Build(const PlatformConfig &config)
{
  if (config.NumNodes < 1 || config.DevicesPerNode < 0 ||
      config.HostCoresPerNode < 1)
    throw Error("Platform::Build: invalid configuration");

  this->Config_ = config;
  this->Nodes_.clear();
  this->Nodes_.resize(static_cast<std::size_t>(config.NumNodes));
  for (int n = 0; n < config.NumNodes; ++n)
  {
    Node &node = this->Nodes_[static_cast<std::size_t>(n)];
    node.HostPool = std::make_unique<PoolTimeline>(config.HostCoresPerNode);
    node.Devices.reserve(static_cast<std::size_t>(config.DevicesPerNode));
    for (int d = 0; d < config.DevicesPerNode; ++d)
    {
      auto dev = std::make_unique<Device>();
      dev->DefaultStream = Stream::New(n, d);
      node.Devices.emplace_back(std::move(dev));
    }
  }
  this->Stats_.Reset();
  exec::Engine::Get().ResetTopology(config.NumNodes, config.DevicesPerNode);
}

Node &Platform::GetNode(int node)
{
  if (node < 0 || node >= static_cast<int>(this->Nodes_.size()))
  {
    std::ostringstream oss;
    oss << "Platform::GetNode: invalid node id " << node;
    throw Error(oss.str());
  }
  return this->Nodes_[static_cast<std::size_t>(node)];
}

Device &Platform::GetDevice(int node, DeviceId dev)
{
  Node &n = this->GetNode(node);
  if (dev < 0 || dev >= static_cast<int>(n.Devices.size()))
  {
    std::ostringstream oss;
    oss << "Platform::GetDevice: invalid device id " << dev << " on node "
        << node << " (" << n.Devices.size() << " devices)";
    throw Error(oss.str());
  }
  return *n.Devices[static_cast<std::size_t>(dev)];
}

void Platform::SetThisNode(int node)
{
  Platform &inst = Platform::Get();
  if (node < 0 || node >= inst.NumNodes())
    throw Error("Platform::SetThisNode: invalid node id");
  ThisNodeRef() = node;
}

int Platform::GetThisNode()
{
  return ThisNodeRef();
}

void Platform::CheckDevice(DeviceId device) const
{
  if (device < 0 || device >= this->Config_.DevicesPerNode)
  {
    std::ostringstream oss;
    oss << "invalid device id " << device << " ("
        << this->Config_.DevicesPerNode << " devices per node)";
    throw Error(oss.str());
  }
}

// ---------------------------------------------------------------------------
void *Platform::Allocate(MemSpace space, DeviceId device, std::size_t bytes,
                         PmKind pm, const Stream &stream)
{
  const int node = GetThisNode();

  if (space == MemSpace::Device || space == MemSpace::Managed)
    this->CheckDevice(device);

  if (space == MemSpace::Device && this->Config_.DeviceMemoryLimit)
  {
    Device &dev = this->GetDevice(node, device);
    if (dev.BytesAllocated.load() + bytes > this->Config_.DeviceMemoryLimit)
    {
      std::ostringstream oss;
      oss << "device " << device << " out of memory: "
          << dev.BytesAllocated.load() << " + " << bytes << " > "
          << this->Config_.DeviceMemoryLimit;
      throw Error(oss.str());
    }
  }

  // device memory is backed by host heap storage, zero initialized so that
  // timing-only mode reads defined values. Blocks are 64-byte aligned —
  // the vector-register / cache-line alignment the SIMD lane kernels
  // assume — and the pool's power-of-two size
  // classes (>= 256) keep sub-allocations on that boundary too.
  // posix_memalign storage is std::free compatible, which Free relies on.
  void *p = nullptr;
  if (posix_memalign(&p, 64, bytes ? bytes : 1) != 0 || !p)
    throw Error("Platform::Allocate: host heap exhausted");
  std::memset(p, 0, bytes ? bytes : 1);

  AllocInfo info;
  info.Space = space;
  info.Device = (space == MemSpace::Device || space == MemSpace::Managed)
                  ? device
                  : HostDevice;
  info.Node = node;
  info.Bytes = bytes;
  info.Pm = pm;
  this->Registry_.Insert(p, info);

  if (space == MemSpace::Device)
    this->GetDevice(node, device).BytesAllocated += bytes;
  this->Stats_.AllocCount[static_cast<int>(space)]++;

  // charge allocation latency; stream-ordered allocations charge the stream
  const CostModel &cost = this->Config_.Cost;
  if (stream)
  {
    stream.Get()->Extend(ThisClock().Now() + cost.AsyncAllocLatency);
    ThisClock().Advance(cost.AsyncAllocLatency);
  }
  else
  {
    ThisClock().Advance(cost.AllocLatency);
  }

  check::OnAlloc(p, info, stream ? stream.Get() : nullptr);
  return p;
}

void Platform::Free(void *p)
{
  if (!p)
    return;

  // an erroneous free (double free / free of a pool-cached block) is
  // recorded and swallowed so the run can continue and be diagnosed
  if (check::InterceptFree(p))
    return;

  AllocInfo info;
  if (!this->Registry_.Query(p, info))
    throw Error("Platform::Free: pointer was not allocated by the platform");

  if (info.Pooled)
    throw Error("Platform::Free: pointer is owned by a vp::MemoryPool "
                "(cached block freed twice?)");

  // deferred bodies may still be touching device-resident storage; drain
  // the owning device's queues before the backing memory goes away
  if (exec::ThreadsEnabled() &&
      (info.Space == MemSpace::Device || info.Space == MemSpace::Managed))
    exec::Engine::Get().WaitDeviceTails(info.Node, info.Device);

  check::OnFree(p);

  if (info.Space == MemSpace::Device)
    this->GetDevice(info.Node, info.Device).BytesAllocated -= info.Bytes;

  this->Registry_.Erase(p);
  // the checker quarantines the storage behind its tombstone so the
  // address cannot be recycled while late accesses are still diagnosable
  if (!check::QuarantineFree(p))
    std::free(p);
  ThisClock().Advance(this->Config_.Cost.AllocLatency);
}

void Platform::Free(void *p, const Stream &stream)
{
  if (p)
    this->JoinReal(stream);
  this->Free(p);
}

void Platform::JoinReal(const Stream &stream)
{
  if (!stream)
    return;
  std::vector<exec::FencePtr> frontier;
  {
    std::lock_guard<std::mutex> lock(stream.Get()->Mutex);
    frontier = stream.Get()->RealFrontier;
  }
  for (const exec::FencePtr &f : frontier)
    if (f)
      f->Wait();
}

// ---------------------------------------------------------------------------
Stream Platform::DefaultStream(DeviceId device)
{
  this->CheckDevice(device);
  return this->GetDevice(GetThisNode(), device).DefaultStream;
}

Stream Platform::Resolve(const Stream &stream, DeviceId fallbackDevice)
{
  if (stream)
    return stream;
  return this->DefaultStream(fallbackDevice);
}

void Platform::LaunchKernel(const Stream &stream, const KernelDesc &desc,
                            const KernelFn &fn, bool synchronous)
{
  if (!stream)
    throw Error("Platform::LaunchKernel: null stream (resolve a default "
                "stream first)");

  StreamState *s = stream.Get();
  Device &dev = this->GetDevice(s->Node, s->Device);
  const CostModel &cost = this->Config_.Cost;

  check::OnSubmit(s);

  // a zero-N launch short-circuits below (the body never runs), and on
  // real hardware most runtimes elide the dispatch too — charging the
  // full launch latency to the device engine skewed eager baselines, so
  // only the host-side submit cost applies
  if (!desc.N)
  {
    this->Stats_.KernelsLaunched++;
    ThisClock().Advance(cost.KernelSubmitOverhead);
    return;
  }

  const double dur = cost.KernelSeconds(desc.N, desc.OpsPerElement,
                                        /*onDevice=*/true,
                                        desc.AtomicFraction) +
                     fault::StreamDelay(s->Node, s->Device);

  // ordering: after prior stream work, no earlier than submission
  const double submit = ThisClock().Now() + cost.KernelSubmitOverhead;
  double earliest = submit;
  {
    std::lock_guard<std::mutex> lock(s->Mutex);
    earliest = std::max(earliest, s->Last);
  }
  const double complete = dev.Engine.Claim(earliest, dur);
  s->Extend(complete);

  this->Stats_.KernelsLaunched++;

  // real execution. Virtual time is fully charged above, at submission,
  // in both modes — VP_EXEC only decides where the body's wall-clock is
  // spent. Serial mode runs it inline (the bit-exact legacy path);
  // threads mode defers it to the device's compute queue, ordered after
  // the stream's real frontier, and shards opted-in bodies across the
  // node's worker pool.
  if (this->Config_.ExecuteKernels && fn && desc.N)
  {
    if (exec::ThreadsEnabled())
    {
      exec::Engine &eng = exec::Engine::Get();
      const std::size_t n = desc.N;
      const int nodeId = s->Node;
      const int shards = desc.Shardable ? eng.PlanShards(n, 0) : 1;
      exec::FencePtr fence;
      {
        // frontier snapshot and replacement are one critical section so
        // a concurrent submitter on the same stream cannot lose a fence
        std::lock_guard<std::mutex> lock(s->Mutex);
        std::vector<exec::FencePtr> deps = s->RealFrontier;
        fence = eng.Enqueue(nodeId, s->Device, exec::Engine::ComputeQueue,
                            std::move(deps), [fn, n, nodeId, shards]()
                            {
                              exec::Engine::Get().RunSharded(nodeId, n,
                                                             shards, fn);
                            });
        s->RealFrontier.assign(1, fence);
      }
      if (synchronous)
        fence->Wait();
    }
    else
    {
      exec::NoteInlineTask();
      fn(0, desc.N);
    }
  }

  if (synchronous)
    ThisClock().AdvanceTo(complete);
  else
    ThisClock().Advance(cost.KernelSubmitOverhead);
}

void Platform::HostParallelFor(const KernelDesc &desc, const KernelFn &fn,
                               int width)
{
  Node &node = this->GetNode(GetThisNode());
  const CostModel &cost = this->Config_.Cost;

  // charge by the lanes actually claimed: the per-lane rate is a fixed
  // hardware property (HostOpRate spread over the whole pool), and a
  // width-limited region only ever occupies min(width, pool) of those
  // lanes — pricing it as `width` lanes when the pool is smaller made
  // virtual time run ahead of any real execution
  const int poolLanes = node.HostPool->Lanes();
  const int lanes = width > 0 ? std::min(width, poolLanes) : poolLanes;
  const double serial =
    static_cast<double>(desc.N) * desc.OpsPerElement /
    (cost.HostOpRate / static_cast<double>(poolLanes)) /
    (1.0 + desc.AtomicFraction * (cost.HostAtomicPenalty - 1.0));

  const double complete =
    node.HostPool->ClaimMany(ThisClock().Now(), serial, lanes);

  this->Stats_.HostRegions++;

  if (this->Config_.ExecuteKernels && fn && desc.N)
  {
    exec::Engine &eng = exec::Engine::Get();
    const int shards =
      desc.Shardable ? eng.PlanShards(desc.N, lanes) : 1;
    if (shards > 1)
    {
      eng.RunSharded(GetThisNode(), desc.N, shards, fn);
    }
    else
    {
      exec::NoteInlineTask();
      fn(0, desc.N);
    }
  }

  ThisClock().AdvanceTo(complete);
}

// ---------------------------------------------------------------------------
double Platform::CopyBandwidth(CopyKind kind, const AllocInfo &dst,
                               const AllocInfo &src) const
{
  const CostModel &cost = this->Config_.Cost;
  double bw = cost.H2HBandwidth;
  switch (kind)
  {
    case CopyKind::HostToDevice: bw = cost.H2DBandwidth; break;
    case CopyKind::DeviceToHost: bw = cost.D2HBandwidth; break;
    case CopyKind::DeviceToDevice: bw = cost.D2DBandwidth; break;
    case CopyKind::OnDevice: bw = cost.D2DBandwidth; break;
    case CopyKind::HostToHost: bw = cost.H2HBandwidth; break;
  }
  // pinned host endpoints transfer faster
  const bool pinned = dst.Space == MemSpace::HostPinned ||
                      src.Space == MemSpace::HostPinned;
  if (pinned &&
      (kind == CopyKind::HostToDevice || kind == CopyKind::DeviceToHost))
    bw *= cost.PinnedBandwidthScale;
  return bw;
}

void Platform::CopyAsync(const Stream &stream, void *dst, const void *src,
                         std::size_t bytes)
{
  if (!stream)
    throw Error("Platform::CopyAsync: null stream");
  if (!bytes)
    return;

  AllocInfo di, si;
  if (!this->Registry_.Query(dst, di))
    di = AllocInfo{}; // untracked: pageable host
  if (!this->Registry_.Query(src, si))
    si = AllocInfo{};

  const CopyKind kind = ClassifyCopy(di, si);
  const CostModel &cost = this->Config_.Cost;

  StreamState *s = stream.Get();
  Device &dev = this->GetDevice(s->Node, s->Device);

  check::OnCopy(s, dst, src, bytes);

  const double dur =
    cost.CopySeconds(bytes, this->CopyBandwidth(kind, di, si)) +
    fault::StreamDelay(s->Node, s->Device);

  const double submit = ThisClock().Now() + cost.KernelSubmitOverhead;
  double earliest = submit;
  {
    std::lock_guard<std::mutex> lock(s->Mutex);
    earliest = std::max(earliest, s->Last);
  }
  const double complete = dev.CopyEngine.Claim(earliest, dur);
  s->Extend(complete);

  this->Stats_.CopyCount[static_cast<int>(kind)]++;
  this->Stats_.CopyBytes[static_cast<int>(kind)] += bytes;

  // serial: the bytes move now; virtual time says later. callers that
  // reuse the source before synchronizing have a bug on real hardware
  // too. threads: the move is deferred to the device's copy engine
  // queue, ordered after the stream's frontier, so it genuinely overlaps
  // other queues. in timing-only mode data contents are meaningless, so
  // the movement is skipped along with kernel bodies.
  if (this->Config_.ExecuteKernels)
  {
    if (exec::ThreadsEnabled())
    {
      std::lock_guard<std::mutex> lock(s->Mutex);
      std::vector<exec::FencePtr> deps = s->RealFrontier;
      exec::FencePtr fence = exec::Engine::Get().Enqueue(
        s->Node, s->Device, exec::Engine::CopyQueue, std::move(deps),
        [dst, src, bytes]() { std::memmove(dst, src, bytes); });
      s->RealFrontier.assign(1, fence);
    }
    else
    {
      std::memmove(dst, src, bytes);
    }
  }

  ThisClock().Advance(cost.KernelSubmitOverhead);
}

void Platform::Copy(void *dst, const void *src, std::size_t bytes)
{
  if (!bytes)
    return;

  AllocInfo di, si;
  if (!this->Registry_.Query(dst, di))
    di = AllocInfo{};
  if (!this->Registry_.Query(src, si))
    si = AllocInfo{};

  const CopyKind kind = ClassifyCopy(di, si);

  if (kind == CopyKind::HostToHost)
  {
    // plain memcpy on the host, charged to the calling thread
    check::OnHostCopy(dst, src, bytes);
    if (this->Config_.ExecuteKernels)
      std::memmove(dst, src, bytes);
    this->Stats_.CopyCount[static_cast<int>(kind)]++;
    this->Stats_.CopyBytes[static_cast<int>(kind)] += bytes;
    ThisClock().Advance(
      this->Config_.Cost.CopySeconds(bytes, this->Config_.Cost.H2HBandwidth));
    return;
  }

  // device-involved synchronous copies flow through the device default
  // stream of whichever endpoint is a device.
  const DeviceId dev = di.Space == MemSpace::Device ? di.Device : si.Device;
  Stream s = this->DefaultStream(dev);
  this->CopyAsync(s, dst, src, bytes);
  this->StreamSynchronize(s);
}

void Platform::StreamSynchronize(const Stream &stream)
{
  if (!stream)
    return;
  StreamState *s = stream.Get();
  // real join first: wait out the stream's deferred bodies (empty in
  // serial mode). Fence::Wait also closes the checker's happens-before
  // edge from the last deferred task into the calling thread.
  std::vector<exec::FencePtr> frontier;
  {
    std::lock_guard<std::mutex> lock(s->Mutex);
    frontier = s->RealFrontier;
  }
  for (const exec::FencePtr &f : frontier)
    if (f)
      f->Wait();
  ThisClock().AdvanceTo(s->Completion());
  check::OnStreamSync(s);
}

void Platform::DeviceSynchronize(DeviceId device)
{
  this->CheckDevice(device);
  Device &dev = this->GetDevice(GetThisNode(), device);
  if (exec::ThreadsEnabled())
    exec::Engine::Get().WaitDeviceTails(GetThisNode(), device);
  ThisClock().AdvanceTo(dev.Engine.Available());
  ThisClock().AdvanceTo(dev.CopyEngine.Available());
  check::OnDeviceSync(GetThisNode(), device);
}

// ---------------------------------------------------------------------------
struct ScopedThread::Impl
{
  std::thread Thread;
  double ChildFinal = 0.0;
  std::uint64_t EndToken = 0; ///< checker join edge from the child
  std::mutex Mutex;
};

ScopedThread::ScopedThread(std::function<void()> fn)
  : Impl_(std::make_unique<Impl>())
{
  Platform &plat = Platform::Get();
  const double spawnCost = plat.Config().Cost.ThreadSpawnCost;
  ThisClock().Advance(spawnCost);

  const double start = ThisClock().Now();
  const int node = Platform::GetThisNode();
  const std::uint64_t spawnToken = check::OnThreadSpawn();
  Impl *impl = this->Impl_.get();

  impl->Thread = std::thread(
    [fn = std::move(fn), start, node, spawnToken, impl]()
    {
      ThisClock().Set(start);
      Platform::SetThisNode(node);
      check::OnThreadStart(spawnToken);
      fn();
      std::lock_guard<std::mutex> lock(impl->Mutex);
      impl->ChildFinal = ThisClock().Now();
      impl->EndToken = check::OnThreadEnd();
    });
}

ScopedThread::ScopedThread(ScopedThread &&) noexcept = default;
ScopedThread &ScopedThread::operator=(ScopedThread &&) noexcept = default;

ScopedThread::~ScopedThread()
{
  if (this->Impl_ && this->Impl_->Thread.joinable())
    this->Join();
}

void ScopedThread::Join()
{
  if (!this->Impl_ || !this->Impl_->Thread.joinable())
    return;
  this->Impl_->Thread.join();
  std::lock_guard<std::mutex> lock(this->Impl_->Mutex);
  ThisClock().AdvanceTo(this->Impl_->ChildFinal);
  check::OnThreadJoin(this->Impl_->EndToken);
}

bool ScopedThread::Joinable() const noexcept
{
  return this->Impl_ && this->Impl_->Thread.joinable();
}

} // namespace vp
