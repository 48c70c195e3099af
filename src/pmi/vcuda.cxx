#include "vcuda.h"

#include "execEngine.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"
#include "vpMemoryPool.h"

namespace vcuda
{

namespace
{
int &CurrentDevice()
{
  thread_local int device = 0;
  return device;
}
} // namespace

int GetDeviceCount()
{
  return vp::Platform::Get().NumDevices();
}

void SetDevice(int device)
{
  vp::Platform::Get().CheckDevice(device);
  CurrentDevice() = device;
}

int GetDevice()
{
  return CurrentDevice();
}

void *Malloc(std::size_t bytes)
{
  return vp::Platform::Get().Allocate(vp::MemSpace::Device, CurrentDevice(),
                                      bytes, vp::PmKind::Cuda);
}

void *MallocAsync(std::size_t bytes, const stream_t &stream)
{
  vp::Platform &plat = vp::Platform::Get();
  const int dev = stream ? stream.Get()->Device : CurrentDevice();
  const stream_t &s = stream ? stream : plat.DefaultStream(dev);
  // stream-ordered allocations draw from the device's memory pool when
  // pooling is on (cudaMallocAsync semantics)
  if (vp::PoolManager::Enabled())
    return vp::PoolManager::Get().Allocate(vp::MemSpace::Device, dev, bytes,
                                           vp::PmKind::Cuda, s);
  return plat.Allocate(vp::MemSpace::Device, dev, bytes, vp::PmKind::Cuda, s);
}

void *MallocHost(std::size_t bytes)
{
  return vp::Platform::Get().Allocate(vp::MemSpace::HostPinned,
                                      vp::HostDevice, bytes, vp::PmKind::Cuda);
}

void *MallocManaged(std::size_t bytes)
{
  return vp::Platform::Get().Allocate(vp::MemSpace::Managed, CurrentDevice(),
                                      bytes, vp::PmKind::Cuda);
}

void Free(void *p)
{
  // pool-managed blocks go back to their pool (reusable at the calling
  // thread's current virtual time); everything else frees directly
  if (p && vp::PoolManager::Get().Owns(p))
  {
    vp::PoolManager::Get().Deallocate(p);
    return;
  }
  vp::Platform::Get().Free(p);
}

void FreeAsync(void *p, const stream_t &stream)
{
  if (p && vp::PoolManager::Get().Owns(p))
  {
    vp::PoolManager::Get().Deallocate(p, stream);
    return;
  }
  vp::Platform &plat = vp::Platform::Get();
  if (stream)
    stream.Get()->Extend(vp::ThisClock().Now() +
                         plat.Config().Cost.AsyncAllocLatency);
  plat.Free(p);
}

stream_t StreamCreate()
{
  return vp::Stream::New(vp::Platform::GetThisNode(), CurrentDevice());
}

void StreamDestroy(stream_t &stream)
{
  stream = stream_t();
}

void StreamSynchronize(const stream_t &stream)
{
  vp::Platform::Get().StreamSynchronize(stream);
}

void DeviceSynchronize()
{
  vp::Platform::Get().DeviceSynchronize(CurrentDevice());
}

void MemcpyAsync(void *dst, const void *src, std::size_t bytes,
                 const stream_t &stream)
{
  vp::Platform &plat = vp::Platform::Get();
  plat.CopyAsync(stream ? stream : plat.DefaultStream(CurrentDevice()), dst,
                 src, bytes);
}

void Memcpy(void *dst, const void *src, std::size_t bytes)
{
  vp::Platform::Get().Copy(dst, src, bytes);
}

void LaunchN(const stream_t &stream, std::size_t n, const vp::KernelFn &fn,
             const LaunchBounds &bounds)
{
  vp::Platform &plat = vp::Platform::Get();

  vp::KernelDesc desc;
  desc.N = n;
  desc.OpsPerElement = bounds.OpsPerElement;
  desc.AtomicFraction = bounds.AtomicFraction;
  desc.Name = bounds.Name;
  desc.Shardable = bounds.Shardable;

  plat.LaunchKernel(stream ? stream : plat.DefaultStream(CurrentDevice()),
                    desc, fn, /*synchronous=*/false);
}

void LaunchGrid(const stream_t &stream, std::size_t blocks,
                std::size_t threadsPerBlock, std::size_t n,
                const std::function<void(std::size_t)> &fn,
                const LaunchBounds &bounds)
{
  const std::size_t total = blocks * threadsPerBlock;
  const std::size_t limit = total < n ? total : n;
  // capture by value: under VP_EXEC=threads the body may outlive this
  // call frame (it runs on a device worker queue)
  LaunchN(
    stream, limit,
    [fn](std::size_t begin, std::size_t end)
    {
      for (std::size_t i = begin; i < end; ++i)
        fn(i);
    },
    bounds);
}

event_t EventRecord(const stream_t &stream)
{
  event_t ev;
  if (stream)
  {
    // an injected dropped signal: the event reads "already complete" and
    // carries no ordering edge — waiters proceed without synchronizing
    if (vp::fault::ShouldDropEvent())
      return ev;
    vp::StreamState *s = stream.Get();
    {
      std::lock_guard<std::mutex> lock(s->Mutex);
      ev.Time_ = s->Last;
      // capture the real frontier too so cross-stream waiters order
      // their deferred bodies after the recorded work (threads mode)
      ev.Fences_ = s->RealFrontier;
    }
    ev.Token_ = vp::check::OnEventRecord(s);
  }
  return ev;
}

void StreamWaitEvent(const stream_t &stream, const event_t &event)
{
  if (stream)
  {
    vp::StreamState *s = stream.Get();
    {
      std::lock_guard<std::mutex> lock(s->Mutex);
      s->Last = std::max(s->Last, event.Time_);
      for (const auto &f : event.Fences_)
        s->RealFrontier.push_back(f);
    }
    vp::check::OnStreamWaitEvent(s, event.Token_);
  }
}

void EventSynchronize(const event_t &event)
{
  for (const auto &f : event.Fences_)
    if (f)
      f->Wait();
  vp::ThisClock().AdvanceTo(event.Time_);
  vp::check::OnEventSync(event.Token_);
}

} // namespace vcuda
