#ifndef vcuda_h
#define vcuda_h

/// @file vcuda.h
/// CUDA-style programming-model front end over the virtual platform. The
/// API mirrors the CUDA runtime closely enough that the paper's Listing 3
/// maps line for line: per-thread current device, streams, synchronous and
/// stream-ordered allocation, pinned and managed host memory, async
/// copies, and grid/block kernel launches. Errors surface as vp::Error.

#include "vpPlatform.h"
#include "vpStream.h"
#include "vpTypes.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace vcuda
{

/// Stream handle (value semantics, aliases vp::Stream).
using stream_t = vp::Stream;

/// Number of devices on the calling thread's node.
int GetDeviceCount();

/// Set the calling thread's current device.
void SetDevice(int device);

/// The calling thread's current device (default 0).
int GetDevice();

/// Allocate device memory on the current device (synchronous).
void *Malloc(std::size_t bytes);

/// Stream-ordered allocation on the stream's device.
void *MallocAsync(std::size_t bytes, const stream_t &stream);

/// Allocate page-locked host memory.
void *MallocHost(std::size_t bytes);

/// Allocate managed (unified) memory addressable everywhere, homed on the
/// current device.
void *MallocManaged(std::size_t bytes);

/// Free memory from any of the Malloc variants. nullptr is a no-op.
void Free(void *p);

/// Stream-ordered free (the simulation frees immediately but charges the
/// stream-ordered cost).
void FreeAsync(void *p, const stream_t &stream);

/// Create a stream on the current device.
stream_t StreamCreate();

/// Destroy a stream (drops this handle; outstanding handles stay valid).
void StreamDestroy(stream_t &stream);

/// Block the calling thread until all work in the stream completes.
void StreamSynchronize(const stream_t &stream);

/// Block until all work on the current device completes.
void DeviceSynchronize();

/// Asynchronous memory copy ordered by `stream`. Direction is inferred
/// (cudaMemcpyDefault semantics).
void MemcpyAsync(void *dst, const void *src, std::size_t bytes,
                 const stream_t &stream);

/// Synchronous memory copy, direction inferred.
void Memcpy(void *dst, const void *src, std::size_t bytes);

/// Describes the execution cost of a launch for the virtual clock.
struct LaunchBounds
{
  double OpsPerElement = 1.0;  ///< elementary ops per index
  double AtomicFraction = 0.0; ///< fraction of atomic-bound work
  const char *Name = "vcuda_kernel";
  bool Shardable = false;      ///< body may run as concurrent [b,e) chunks
};

/// Launch an n-index kernel on the current device in `stream`. The body is
/// invoked eagerly as fn(begin, end) over [0, n). This replaces CUDA's
/// <<<blocks, threads, 0, stream>>> syntax.
void LaunchN(const stream_t &stream, std::size_t n, const vp::KernelFn &fn,
             const LaunchBounds &bounds = LaunchBounds());

/// Grid/block flavoured launch: fn(i) is invoked for every global thread
/// index i in [0, blocks*threadsPerBlock) that is < n. Provided so ported
/// CUDA kernels keep their launch arithmetic.
void LaunchGrid(const stream_t &stream, std::size_t blocks,
                std::size_t threadsPerBlock, std::size_t n,
                const std::function<void(std::size_t)> &fn,
                const LaunchBounds &bounds = LaunchBounds());

/// An event marks a point in a stream's work (cudaEvent_t). Value
/// semantics; a default-constructed event is "already complete".
class event_t
{
public:
  /// Virtual time at which the recorded work completes (0 = complete).
  double Completion() const noexcept { return this->Time_; }

private:
  friend event_t EventRecord(const stream_t &);
  friend void StreamWaitEvent(const stream_t &, const event_t &);
  friend void EventSynchronize(const event_t &);
  double Time_ = 0.0;
  std::uint64_t Token_ = 0; ///< checker happens-before token (0 = none)
  /// Real-execution edge (VP_EXEC=threads): the recorded stream's
  /// frontier fences at record time; empty in serial mode.
  std::vector<std::shared_ptr<vp::exec::Fence>> Fences_;
};

/// Record an event capturing all work submitted to `stream` so far
/// (cudaEventRecord).
event_t EventRecord(const stream_t &stream);

/// Make future work on `stream` wait until the event's recorded work has
/// completed (cudaStreamWaitEvent) — the cross-stream, cross-device
/// ordering primitive.
void StreamWaitEvent(const stream_t &stream, const event_t &event);

/// Block the calling thread until the event's work completes
/// (cudaEventSynchronize).
void EventSynchronize(const event_t &event);

} // namespace vcuda

#endif
