#ifndef hamrBuffer_h
#define hamrBuffer_h

/// @file hamrBuffer.h
/// hamr::buffer<T> — an allocator-aware, location-aware array container
/// providing programming-model interoperability and multi-device memory
/// management. This reproduces the HAMR library underpinning the paper's
/// svtkHAMRDataArray:
///
///  * construction selects a PM + allocation method (hamr::allocator), an
///    ordering stream, and a synchronization mode;
///  * externally allocated host or device memory can be adopted zero-copy,
///    with life-cycle coordinated through std::shared_ptr deleters;
///  * `get_host_accessible` / `get_device_accessible` /
///    `get_cuda_accessible` / `get_openmp_accessible` return read-only
///    views valid at the requested location: zero-copy when the data is
///    already accessible there, otherwise a temporary is allocated, the
///    data is moved on the buffer's stream, and the returned shared_ptr
///    frees the temporary when the last reference drops;
///  * in stream_mode::async the move is in flight when the call returns
///    and the caller must synchronize() before dereferencing.

#include "hamrAllocator.h"
#include "hamrStream.h"
#include "vcuda.h"
#include "vhip.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpMemoryPool.h"
#include "vpPlatform.h"
#include "vsycl.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hamr
{

template <typename T>
class buffer
{
public:
  using value_type = T;

  /// An empty, default constructed buffer must be initialized with
  /// set_allocator / resize before use.
  buffer() = default;

  /// An empty buffer managed by `alloc`.
  explicit buffer(allocator alloc) : Alloc_(alloc)
  {
    this->ResolveOwner();
  }

  /// n zero-initialized elements managed by `alloc` on the currently
  /// active device of the owning PM.
  buffer(allocator alloc, std::size_t n) : buffer(alloc, stream(), stream_mode::sync, n)
  {
  }

  /// n elements initialized to `val`.
  buffer(allocator alloc, std::size_t n, const T &val)
    : buffer(alloc, stream(), stream_mode::sync, n, val)
  {
  }

  /// n zero-initialized elements with explicit stream and mode.
  buffer(allocator alloc, const stream &strm, stream_mode mode, std::size_t n)
    : Alloc_(alloc), Stream_(strm), Mode_(mode)
  {
    this->ResolveOwner();
    this->AllocateStorage(n);
    this->MaybeSynchronize();
  }

  /// n elements initialized to `val` with explicit stream and mode.
  buffer(allocator alloc, const stream &strm, stream_mode mode, std::size_t n,
         const T &val)
    : Alloc_(alloc), Stream_(strm), Mode_(mode)
  {
    this->ResolveOwner();
    this->AllocateStorage(n);
    this->fill(val);
  }

  /// Zero-copy adoption of externally managed memory. `owner` is the
  /// device id where the memory resides (HostDevice for host memory). The
  /// shared_ptr's deleter coordinates the memory's life cycle between the
  /// external code and this buffer.
  buffer(allocator alloc, const stream &strm, stream_mode mode, std::size_t n,
         int owner, const std::shared_ptr<T> &data)
    : Alloc_(alloc), Owner_(owner), Data_(data), Size_(n), Stream_(strm),
      Mode_(mode)
  {
  }

  /// Zero-copy adoption of a raw pointer. When `take` is true the buffer
  /// frees the memory when done: through the platform when the pointer is
  /// platform-tracked, with ::free otherwise. When `take` is false the
  /// caller retains ownership and must keep the memory alive.
  buffer(allocator alloc, const stream &strm, stream_mode mode, std::size_t n,
         int owner, T *ptr, bool take)
    : Alloc_(alloc), Owner_(owner), Size_(n), Stream_(strm), Mode_(mode)
  {
    if (take)
    {
      this->Data_ = std::shared_ptr<T>(ptr,
        [](T *p)
        {
          if (vp::PoolManager::Get().Owns(p))
          {
            vp::PoolManager::Get().Deallocate(p);
            return;
          }
          vp::AllocInfo info;
          if (vp::Platform::Get().Query(p, info))
            vp::Platform::Get().Free(p);
          else
            std::free(p); // NOLINT: external C allocation
        });
    }
    else
    {
      this->Data_ = std::shared_ptr<T>(ptr, [](T *) {});
    }
  }

  /// Deep copy: same allocator, owner, stream, and mode as `other`.
  buffer(const buffer &other)
    : Alloc_(other.Alloc_), Owner_(other.Owner_), Stream_(other.Stream_),
      Mode_(other.Mode_)
  {
    this->AllocateStorage(other.Size_);
    this->CopyFrom(other);
    this->MaybeSynchronize();
  }

  /// Deep copy converting to a new allocator (and hence possibly a new
  /// location). The new storage lands on the currently active device of
  /// the owning PM when `alloc` is a device allocator.
  buffer(allocator alloc, const buffer &other)
    : Alloc_(alloc), Stream_(other.Stream_), Mode_(other.Mode_)
  {
    this->ResolveOwner();
    this->AllocateStorage(other.Size_);
    this->CopyFrom(other);
    this->MaybeSynchronize();
  }

  buffer(buffer &&other) noexcept { this->Swap(other); }

  /// A deep copy resident on `device` (HostDevice for the host), in this
  /// buffer's mode.
  buffer deep_copy(int device) const
  {
    return this->deep_copy(device, this->Mode_);
  }

  /// A deep copy resident on `device` (HostDevice for the host), in mode
  /// `mode`. Host-accessible data already accessible on `device` gets
  /// the plain deep copy. Otherwise the storage is allocated there (a
  /// device allocator keeps its PM, host data gets allocator::device,
  /// and a host copy gets allocator::malloc_) and filled by one transfer
  /// on the stream get_device_accessible would move the data on, which
  /// for device-resident data is the source's own, also when `device`
  /// is the source's device. The copy claims the source device's copy
  /// engine, not the target's. The result has the target's default
  /// stream.
  ///
  /// Device-resident data is copied without a host wait before the
  /// transfer: its stream already orders it after the source's pending
  /// work, and a transfer still in flight into the source is ordered by
  /// its event. In async mode the copy is in flight when the call
  /// returns: device storage is allocated on that stream, synchronize()
  /// covers the transfer, and the storage is not freed before the
  /// transfer has run. A sync-mode copy is complete on return, and so
  /// is every copy of host-resident data, which the caller may
  /// overwrite as soon as the call returns.
  buffer deep_copy(int device, stream_mode mode) const
  {
    const bool host = device == vp::HostDevice;
    const bool resident = !this->host_accessible(); // device-resident
    if (!resident && (host || this->device_accessible(device)))
    {
      buffer out(*this);
      out.Mode_ = mode;
      return out;
    }

    buffer out;
    out.Alloc_ = host ? allocator::malloc_
                      : (space_of(this->Alloc_) == vp::MemSpace::Device
                           ? this->Alloc_
                           : allocator::device);
    out.Owner_ = device;
    out.Mode_ = mode;
    out.Size_ = this->Size_;
    if (!this->Size_)
      return out;

    vp::Platform &plat = vp::Platform::Get();
    const vp::MemSpace space = host ? vp::MemSpace::Host : vp::MemSpace::Device;
    const vp::Stream strm = this->MoveStream(space, device);
    const bool inFlight = resident && mode == stream_mode::async;
    out.Data_ = AllocateAt(space, device, this->Size_, pm_of(out.Alloc_),
                           hamr::pooled(out.Alloc_), strm, inFlight);
    if (resident)
      vcuda::StreamWaitEvent(strm, this->Moved_);
    else
      this->synchronize(); // the source's pending work, as CopyFrom
    plat.CopyAsync(strm, out.Data_.get(), this->Data_.get(),
                   this->Size_ * sizeof(T));
    if (inFlight)
      out.Moved_ = vcuda::EventRecord(strm); // before anyone shares `out`
    else
      plat.StreamSynchronize(strm);
    return out;
  }

  /// A part's [min, max] as a packed copy's gather folded it: two values
  /// on the host, read back on the gather's stream and valid once `ready`
  /// has completed (vcuda::EventSynchronize). Null `min_max` for a part
  /// the copy did not gather.
  struct part_range
  {
    std::shared_ptr<const T> min_max;
    vcuda::event_t ready;
  };

  /// Deep copies of `parts` resident on `device` (HostDevice for the
  /// host) in mode `mode`, returned in the order of `parts`, with
  /// deep_copy's guarantees but as few transfers as possible. The
  /// device-resident parts whose copies deep_copy would order on one
  /// stream, when there are two or more, are packed into one block by
  /// one gather kernel on that stream, and each copy is a slice() of the
  /// block. On the parts' own device the kernel writes the block;
  /// elsewhere it writes a staging block there, allocated on the stream
  /// and released with the block, and one transfer on the stream moves
  /// it to `device`. Every other part (host-resident, empty, or alone on
  /// its stream) gets deep_copy(device, mode). With `ranges`, which
  /// receives one entry per part, each gather also folds its parts'
  /// ranges in the pass that reads them (see Gather); a part copied by
  /// deep_copy gets none.
  static std::vector<buffer> packed_deep_copy(
    const std::vector<const buffer *> &parts, int device, stream_mode mode,
    std::vector<part_range> *ranges = nullptr)
  {
    const vp::MemSpace space =
      device == vp::HostDevice ? vp::MemSpace::Host : vp::MemSpace::Device;
    std::vector<vp::Stream> streams(parts.size());
    std::map<const vp::StreamState *, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < parts.size(); ++i)
      if (parts[i]->Size_ && !parts[i]->host_accessible())
      {
        streams[i] = parts[i]->MoveStream(space, device);
        groups[streams[i].Get()].push_back(i);
      }

    std::vector<buffer> out(parts.size());
    if (ranges)
      ranges->assign(parts.size(), part_range());
    for (std::size_t i = 0; i < parts.size(); ++i)
    {
      const std::vector<std::size_t> *group =
        streams[i] ? &groups[streams[i].Get()] : nullptr;
      if (!group || group->size() < 2)
        out[i] = parts[i]->deep_copy(device, mode);
      else if (group->front() == i)
      {
        std::vector<const buffer *> members;
        for (std::size_t k : *group)
          members.push_back(parts[k]);
        std::vector<part_range> folded;
        const buffer block = Gather(members, streams[i], device, mode,
                                    ranges ? &folded : nullptr);
        std::size_t at = 0;
        for (std::size_t j = 0; j < group->size(); ++j)
        {
          const std::size_t k = (*group)[j];
          out[k] = block.slice(at, parts[k]->Size_);
          at += parts[k]->Size_;
          if (ranges)
            (*ranges)[k] = folded[j];
        }
      }
    }
    return out;
  }

  /// A zero-copy view of elements [offset, offset + n). It shares this
  /// buffer's storage, which it keeps alive, its allocator, owner,
  /// stream and mode, and the event of the transfer that filled it, so
  /// the slice's synchronize() covers that transfer as the buffer's does.
  buffer slice(std::size_t offset, std::size_t n) const
  {
    if (offset > this->Size_ || n > this->Size_ - offset)
      throw std::out_of_range("hamr::buffer::slice");
    buffer out;
    out.Alloc_ = this->Alloc_;
    out.Owner_ = this->Owner_;
    out.Data_ = std::shared_ptr<T>(this->Data_, this->Data_.get() + offset);
    out.Size_ = n;
    out.Stream_ = this->Stream_;
    out.Mode_ = this->Mode_;
    out.Moved_ = this->Moved_;
    out.Slice_ = this->Slice_ || n < this->Size_;
    return out;
  }

  /// True for a slice() narrower than the storage it shares. It keeps
  /// that whole storage alive, so a holder that outlives the other
  /// slices keeps a deep_copy() of it instead.
  bool is_slice() const noexcept { return this->Slice_; }

  buffer &operator=(const buffer &other)
  {
    if (this != &other)
    {
      buffer tmp(other);
      this->Swap(tmp);
    }
    return *this;
  }

  buffer &operator=(buffer &&other) noexcept
  {
    if (this != &other)
    {
      buffer tmp(std::move(other));
      this->Swap(tmp);
    }
    return *this;
  }

  ~buffer() = default;

  // --- observers ----------------------------------------------------------

  std::size_t size() const noexcept { return this->Size_; }
  bool empty() const noexcept { return this->Size_ == 0; }
  allocator get_allocator() const noexcept { return this->Alloc_; }
  stream_mode mode() const noexcept { return this->Mode_; }

  /// Device id where the data resides; HostDevice for host memory.
  int owner() const noexcept { return this->Owner_; }

  /// True when the data can be dereferenced on the host without movement:
  /// host allocators, and a device allocator whose PM placed the storage
  /// on the host (OpenMP with the initial device as its default).
  bool host_accessible() const
  {
    return hamr::host_accessible(this->Alloc_) ||
           this->Owner_ == vp::HostDevice;
  }

  /// True when the data can be dereferenced on `device` without movement.
  bool device_accessible(int device) const
  {
    if (space_of(this->Alloc_) == vp::MemSpace::Managed)
      return true; // universally addressable
    return hamr::device_accessible(this->Alloc_) && this->Owner_ == device;
  }

  /// Direct pointer access — only valid where the data resides. The paper
  /// uses this fast path when location and PM are known (Listing 3 line 24).
  T *data() noexcept { return this->Data_.get(); }
  const T *data() const noexcept { return this->Data_.get(); }

  /// The shared pointer managing the storage (zero-copy hand-off).
  const std::shared_ptr<T> &pointer() const noexcept { return this->Data_; }

  /// The ordering stream.
  const stream &get_stream() const noexcept { return this->Stream_; }
  void set_stream(const stream &s) { this->Stream_ = s; }
  void set_mode(stream_mode m) { this->Mode_ = m; }

  // --- location / PM agnostic access ---------------------------------------

  /// A read-only view of the data valid on the host. Zero-copy when
  /// already host accessible; otherwise the data is moved into a host
  /// temporary owned by the returned shared_ptr. In async mode call
  /// synchronize() before dereferencing the view.
  std::shared_ptr<const T> get_host_accessible() const
  {
    if (this->host_accessible() || !this->Data_)
      return std::shared_ptr<const T>(this->Data_, this->Data_.get());
    return this->MoveTo(vp::MemSpace::Host, vp::HostDevice);
  }

  /// A read-only view valid on device `device` (HostDevice selects the
  /// host path). Zero-copy when already accessible there.
  std::shared_ptr<const T> get_device_accessible(int device) const
  {
    if (device == vp::HostDevice)
      return this->get_host_accessible();
    if (this->device_accessible(device) || !this->Data_)
      return std::shared_ptr<const T>(this->Data_, this->Data_.get());
    return this->MoveTo(vp::MemSpace::Device, device);
  }

  /// A read-only view valid on the CUDA PM's current device.
  std::shared_ptr<const T> get_cuda_accessible() const
  {
    return this->get_device_accessible(vcuda::GetDevice());
  }

  /// A read-only view valid on the HIP PM's current device.
  std::shared_ptr<const T> get_hip_accessible() const
  {
    return this->get_device_accessible(vhip::GetDevice());
  }

  /// A read-only view valid on the OpenMP PM's default device.
  std::shared_ptr<const T> get_openmp_accessible() const
  {
    const int dev = vomp::GetDefaultDevice();
    if (vomp::IsInitialDevice(dev))
      return this->get_host_accessible();
    return this->get_device_accessible(dev);
  }

  /// A read-only view valid on the SYCL PM's default device.
  std::shared_ptr<const T> get_sycl_accessible() const
  {
    return this->get_device_accessible(vsycl::GetDefaultDevice());
  }

  /// A read-only view valid on the device a SYCL queue targets.
  std::shared_ptr<const T> get_sycl_accessible(const vsycl::queue &q) const
  {
    return this->get_device_accessible(q.get_device());
  }

  /// Block the calling thread until operations issued on the buffer's
  /// behalf (allocation, movement, fills) have completed — including
  /// movement the access APIs enqueued on another device's stream (e.g.
  /// a host-owned buffer viewed on a device). That movement is waited
  /// for through the event recorded when it was issued, so work queued
  /// on its stream afterwards does not hold the caller up.
  void synchronize() const
  {
    vp::Stream s = this->ResolveStream(this->Owner_);
    if (s)
      vp::Platform::Get().StreamSynchronize(s);
    vcuda::EventSynchronize(this->Moved_);
  }

  // --- modifiers ------------------------------------------------------------

  /// Change the allocator of an empty buffer.
  void set_allocator(allocator alloc)
  {
    if (this->Size_)
      throw std::runtime_error("hamr::buffer::set_allocator: buffer not empty");
    this->Alloc_ = alloc;
    this->ResolveOwner();
  }

  /// Resize preserving min(n, size()) leading elements.
  void resize(std::size_t n)
  {
    if (n == this->Size_)
      return;
    if (this->Alloc_ == allocator::none)
      throw std::runtime_error("hamr::buffer::resize: no allocator set");

    std::shared_ptr<T> old = this->Data_;
    const std::size_t keep = n < this->Size_ ? n : this->Size_;
    this->AllocateStorage(n);
    if (keep && old)
      this->CopyBytes(this->Data_.get(), old.get(), keep * sizeof(T));
    this->MaybeSynchronize();
  }

  /// Release the storage; the buffer becomes empty.
  void free()
  {
    this->Data_.reset();
    this->Size_ = 0;
  }

  /// Set every element to `val` (runs where the data lives).
  void fill(const T &val)
  {
    if (!this->Size_)
      return;
    T *p = this->Data_.get();
    vp::Platform &plat = vp::Platform::Get();
    // disjoint per-index stores: safe to run as concurrent chunks
    vp::KernelDesc desc{this->Size_, 1.0, 0.0, "hamr_fill",
                        /*Shardable=*/true};
    const auto body = [p, val](std::size_t b, std::size_t e)
    {
      for (std::size_t i = b; i < e; ++i)
        p[i] = val;
    };
    if (this->Owner_ == vp::HostDevice)
    {
      vp::check::HostWrite(p, this->Size_ * sizeof(T), "hamr::buffer::fill");
      plat.HostParallelFor(desc, body);
    }
    else
      plat.LaunchKernel(this->ResolveStream(this->Owner_), desc, body,
                        this->Mode_ == stream_mode::sync);
  }

  /// Copy n elements of host data into the buffer (resizing to n).
  void assign(const T *hostSrc, std::size_t n)
  {
    if (this->Alloc_ == allocator::none)
      throw std::runtime_error("hamr::buffer::assign: no allocator set");
    if (n != this->Size_)
    {
      this->Data_.reset();
      this->Size_ = 0;
      this->AllocateStorage(n);
    }
    if (n)
      this->CopyBytes(this->Data_.get(), hostSrc, n * sizeof(T));
    this->MaybeSynchronize();
  }

  /// Copy the buffer's contents into a host std::vector (synchronizes).
  std::vector<T> to_vector() const
  {
    std::vector<T> out(this->Size_);
    if (this->Size_)
    {
      auto view = this->get_host_accessible();
      this->synchronize();
      vp::check::HostRead(view.get(), this->Size_ * sizeof(T),
                          "hamr::buffer::to_vector");
      std::memcpy(out.data(), view.get(), this->Size_ * sizeof(T));
    }
    return out;
  }

  /// Read one element (host staging; synchronizes — test/diagnostic use).
  T get(std::size_t i) const
  {
    if (i >= this->Size_)
      throw std::out_of_range("hamr::buffer::get");
    if (this->host_accessible())
    {
      this->synchronize();
      vp::check::HostRead(this->Data_.get() + i, sizeof(T),
                          "hamr::buffer::get");
      return this->Data_.get()[i];
    }
    T v{};
    vp::Platform::Get().Copy(&v, this->Data_.get() + i, sizeof(T));
    return v;
  }

  /// Write one element (host staging; synchronizes — test/diagnostic use).
  void set(std::size_t i, const T &v)
  {
    if (i >= this->Size_)
      throw std::out_of_range("hamr::buffer::set");
    if (this->host_accessible())
    {
      this->synchronize();
      vp::check::HostWrite(this->Data_.get() + i, sizeof(T),
                           "hamr::buffer::set");
      this->Data_.get()[i] = v;
      return;
    }
    vp::Platform::Get().Copy(this->Data_.get() + i, &v, sizeof(T));
  }

  /// Swap contents with another buffer.
  void Swap(buffer &other) noexcept
  {
    std::swap(this->Alloc_, other.Alloc_);
    std::swap(this->Owner_, other.Owner_);
    std::swap(this->Data_, other.Data_);
    std::swap(this->Size_, other.Size_);
    std::swap(this->Stream_, other.Stream_);
    std::swap(this->Mode_, other.Mode_);
    std::swap(this->Moved_, other.Moved_);
    std::swap(this->Slice_, other.Slice_);
  }

private:
  /// Determine the owning device from the PM's currently active device.
  void ResolveOwner()
  {
    switch (this->Alloc_)
    {
      case allocator::device:
      case allocator::device_async:
      case allocator::managed:
      case allocator::pool_device:
        this->Owner_ = vcuda::GetDevice();
        break;
      case allocator::hip:
      case allocator::hip_async:
        this->Owner_ = vhip::GetDevice();
        break;
      case allocator::sycl_device:
      case allocator::sycl_shared:
        this->Owner_ = vsycl::GetDefaultDevice();
        break;
      case allocator::openmp:
      {
        const int dev = vomp::GetDefaultDevice();
        this->Owner_ = vomp::IsInitialDevice(dev) ? vp::HostDevice : dev;
        break;
      }
      default:
        this->Owner_ = vp::HostDevice;
        break;
    }
  }

  /// The stream used for operations on this buffer. The buffer's own
  /// stream when one was given; otherwise the owning device's default
  /// stream, so that synchronize() always covers movement initiated by
  /// the access APIs; for host-owned buffers touching device `dev`, that
  /// device's default stream.
  vp::Stream ResolveStream(int dev) const
  {
    if (this->Stream_)
      return this->Stream_.native();
    if (this->Owner_ != vp::HostDevice)
      return vp::Platform::Get().DefaultStream(this->Owner_);
    if (dev != vp::HostDevice)
      return vp::Platform::Get().DefaultStream(dev);
    return vp::Stream();
  }

  void MaybeSynchronize() const
  {
    if (this->Mode_ == stream_mode::sync)
      this->synchronize();
  }

  /// Allocate Size_=n elements in the buffer's space, replacing Data_.
  void AllocateStorage(std::size_t n)
  {
    this->Size_ = n;
    if (!n)
    {
      this->Data_.reset();
      return;
    }

    vp::Platform &plat = vp::Platform::Get();
    const vp::MemSpace space = space_of(this->Alloc_);
    const vp::PmKind pm = pm_of(this->Alloc_);
    const int owner =
      space == vp::MemSpace::Device || space == vp::MemSpace::Managed
        ? this->Owner_
        : vp::HostDevice;
    // openmp allocator with host default device produces host memory
    const vp::MemSpace realSpace =
      owner == vp::HostDevice && space == vp::MemSpace::Device
        ? vp::MemSpace::Host
        : space;

    vp::Stream strm;
    if (hamr::asynchronous(this->Alloc_))
      strm = this->ResolveStream(owner);

    if (hamr::pooled(this->Alloc_))
    {
      T *p = static_cast<T *>(vp::PoolManager::Get().Allocate(
        realSpace, owner, n * sizeof(T), pm, strm));
      this->Data_ = std::shared_ptr<T>(p,
        [strm](T *q) { vp::PoolManager::Get().Deallocate(q, strm); });
      return;
    }

    T *p = static_cast<T *>(
      plat.Allocate(realSpace, owner, n * sizeof(T), pm, strm));
    this->Data_ = std::shared_ptr<T>(p, [](T *q) { vp::Platform::Get().Free(q); });
  }

  /// Copy bytes into this buffer's storage from anywhere (classified by
  /// the registry), ordered on the buffer's stream when a device is
  /// involved.
  void CopyBytes(void *dst, const void *src, std::size_t bytes)
  {
    vp::Platform &plat = vp::Platform::Get();
    if (this->Owner_ == vp::HostDevice)
    {
      vp::AllocInfo si;
      const bool srcDev =
        plat.Query(src, si) && si.Space == vp::MemSpace::Device;
      if (!srcDev)
      {
        plat.Copy(dst, src, bytes); // pure host copy
        return;
      }
      const vp::Stream strm = plat.DefaultStream(si.Device);
      plat.CopyAsync(strm, dst, src, bytes);
      if (this->Mode_ == stream_mode::sync)
        plat.StreamSynchronize(strm);
      else
        this->Moved_ = vcuda::EventRecord(strm);
      return;
    }
    plat.CopyAsync(this->ResolveStream(this->Owner_), dst, src, bytes);
  }

  void CopyFrom(const buffer &other)
  {
    if (!other.Size_)
      return;
    other.synchronize();
    this->CopyBytes(this->Data_.get(), other.Data_.get(),
                    other.Size_ * sizeof(T));
  }

  /// The stream a move of the data into (space, device) is ordered on.
  vp::Stream MoveStream(vp::MemSpace space, int device) const
  {
    return this->ResolveStream(space == vp::MemSpace::Device ? device
                                                             : this->Owner_);
  }

  /// n elements of storage in (space, device) for data moved there on
  /// `strm`: from the caching pool when it is enabled (or `pooled`),
  /// from the platform otherwise. Platform storage for a transfer left
  /// `inFlight` is allocated on `strm` when it is device memory, and is
  /// freed only once the work queued on `strm` has run.
  static std::shared_ptr<T> AllocateAt(vp::MemSpace space, int device,
                                       std::size_t n, vp::PmKind pm,
                                       bool pooled, const vp::Stream &strm,
                                       bool inFlight = false)
  {
    // the short-lived movement temporaries are the pool's primary
    // customer: per-pass views in analysis codes allocate and free the
    // same sizes every time step
    if (vp::PoolManager::Enabled() || pooled)
      return std::shared_ptr<T>(
        static_cast<T *>(vp::PoolManager::Get().Allocate(
          space, device, n * sizeof(T), pm, strm)),
        [strm](T *p) { vp::PoolManager::Get().Deallocate(p, strm); });
    vp::Platform &plat = vp::Platform::Get();
    if (!inFlight)
      return std::shared_ptr<T>(
        static_cast<T *>(plat.Allocate(space, device, n * sizeof(T), pm)),
        [](T *p) { vp::Platform::Get().Free(p); });
    const vp::Stream ordered =
      space == vp::MemSpace::Device ? strm : vp::Stream();
    return std::shared_ptr<T>(
      static_cast<T *>(
        plat.Allocate(space, device, n * sizeof(T), pm, ordered)),
      [strm](T *p) { vp::Platform::Get().Free(p, strm); });
  }

  /// The block packed_deep_copy slices: `parts`, device-resident on one
  /// device and moved on `strm`, gathered in order into one block
  /// resident on `device`. With `ranges` the gather kernel also folds
  /// each part's min and max, in index order from +/-inf with std::min
  /// and std::max (so a NaN is skipped and the first of tied signed
  /// zeros wins, as a sequential scan of the part would have it), into a
  /// tail of 2 values per part behind the gathered values; it runs
  /// unsharded so the fold is that sequential one, and is priced 2 more
  /// ops per element. One transfer on `strm`, issued before the block's,
  /// reads the tail back to the host, and `ranges` receives one entry per
  /// part with the event recorded after it. The host copy is released
  /// only once the work queued on `strm` has really run, so a range
  /// dropped unread never outlives its readback.
  static buffer Gather(const std::vector<const buffer *> &parts,
                       const vp::Stream &strm, int device, stream_mode mode,
                       std::vector<part_range> *ranges = nullptr)
  {
    const buffer &first = *parts.front();
    const bool host = device == vp::HostDevice;
    buffer out;
    out.Alloc_ = host ? allocator::malloc_
                      : (space_of(first.Alloc_) == vp::MemSpace::Device
                           ? first.Alloc_
                           : allocator::device);
    out.Owner_ = device;
    out.Mode_ = mode;
    std::vector<std::pair<const T *, std::size_t>> from;
    for (const buffer *p : parts)
    {
      vcuda::StreamWaitEvent(strm, p->Moved_);
      from.emplace_back(p->Data_.get(), p->Size_);
      out.Size_ += p->Size_;
    }

    // the kernel writes the block itself on the parts' device, a staging
    // block elsewhere; either is allocated on the stream, with the range
    // tail behind the gathered values
    const bool inFlight = mode == stream_mode::async;
    const bool local = device == first.Owner_;
    const allocator packAlloc = local ? out.Alloc_ : first.Alloc_;
    const std::size_t nTail = ranges ? 2 * parts.size() : 0;
    std::shared_ptr<T> packed = AllocateAt(
      vp::MemSpace::Device, first.Owner_, out.Size_ + nTail, pm_of(packAlloc),
      hamr::pooled(packAlloc), strm, inFlight || !local);
    T *to = packed.get();
    T *tail = ranges ? to + out.Size_ : nullptr;
    vp::Platform &plat = vp::Platform::Get();
    // the kernel moves its bytes at the rate an on-device copy of them
    // is priced at (D2DBandwidth), with a launch instead of CopyLatency;
    // a fold adds the 2 ops per element a range scan is priced at
    const vp::CostModel &cost = plat.Config().Cost;
    const double opsPerElement =
      static_cast<double>(sizeof(T)) * cost.DeviceOpRate / cost.D2DBandwidth +
      (tail ? 2.0 : 0.0);
    plat.LaunchKernel(strm,
                      vp::KernelDesc{out.Size_, opsPerElement, 0.0,
                                     "hamr_gather", /*Shardable=*/!tail},
                      [from, to, tail](std::size_t b, std::size_t e)
                      {
                        std::size_t at = 0;
                        for (std::size_t k = 0; k < from.size(); ++k)
                        {
                          const auto &[src, n] = from[k];
                          const std::size_t lo = std::max(b, at);
                          const std::size_t hi = std::min(e, at + n);
                          if (tail) // unsharded: [b, e) covers every part
                            FoldPart(to + at, src, n, tail + 2 * k);
                          else if (lo < hi)
                            std::memcpy(to + lo, src + (lo - at),
                                        (hi - lo) * sizeof(T));
                          at += n;
                        }
                      },
                      /*synchronous=*/false);
    if (tail)
    {
      std::shared_ptr<T> host(new T[nTail](),
                              [strm](T *p)
                              {
                                vp::Platform::Get().JoinReal(strm);
                                delete[] p;
                              });
      plat.CopyAsync(strm, host.get(), tail, nTail * sizeof(T));
      const vcuda::event_t ready = vcuda::EventRecord(strm);
      for (std::size_t k = 0; k < parts.size(); ++k)
        ranges->push_back(
          part_range{std::shared_ptr<const T>(host, host.get() + 2 * k), ready});
    }

    if (local)
      out.Data_ = std::move(packed);
    else
    {
      const vp::MemSpace space =
        host ? vp::MemSpace::Host : vp::MemSpace::Device;
      std::shared_ptr<T> target =
        AllocateAt(space, device, out.Size_, pm_of(out.Alloc_),
                   hamr::pooled(out.Alloc_), strm, inFlight);
      plat.CopyAsync(strm, target.get(), to, out.Size_ * sizeof(T));
      // the staging block is released with the block, stream ordered,
      // so the caller pays no free and the transfer never outlives it
      auto both = std::make_shared<std::pair<std::shared_ptr<T>,
                                             std::shared_ptr<T>>>(
        target, std::move(packed));
      out.Data_ = std::shared_ptr<T>(both, target.get());
    }
    if (inFlight)
      out.Moved_ = vcuda::EventRecord(strm); // before anyone shares `out`
    else
      plat.StreamSynchronize(strm);
    return out;
  }

  /// Copy the n values at `src` to `to` and write their min and max to
  /// minMax[0] and minMax[1]: one sequential pass from +/-inf, with
  /// std::min and std::max.
  static void FoldPart(T *to, const T *src, std::size_t n, T *minMax)
  {
    using limits = std::numeric_limits<T>;
    T mn = limits::has_infinity ? limits::infinity() : limits::max();
    T mx = limits::has_infinity ? -limits::infinity() : limits::lowest();
    for (std::size_t i = 0; i < n; ++i)
    {
      const T v = src[i];
      to[i] = v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    minMax[0] = mn;
    minMax[1] = mx;
  }

  /// Allocate a temporary in (space, device), move the data onto it on the
  /// buffer's stream, and return a self-cleaning view. A transfer into
  /// this buffer still in flight on another stream (a deep_copy onto
  /// another device is queued on its source's stream) is ordered before
  /// the move by its event, so the move reads what it wrote; in async
  /// mode the move's own event, which synchronize() waits on, covers
  /// both.
  std::shared_ptr<const T> MoveTo(vp::MemSpace space, int device) const
  {
    const vp::Stream strm = this->MoveStream(space, device);
    vcuda::StreamWaitEvent(strm, this->Moved_);
    std::shared_ptr<T> tmp =
      AllocateAt(space, device, this->Size_, pm_of(this->Alloc_),
                 hamr::pooled(this->Alloc_), strm);
    vp::Platform &plat = vp::Platform::Get();
    plat.CopyAsync(strm, tmp.get(), this->Data_.get(),
                   this->Size_ * sizeof(T));
    if (this->Mode_ == stream_mode::sync)
      plat.StreamSynchronize(strm);
    else
      this->Moved_ = vcuda::EventRecord(strm);
    return tmp;
  }

  allocator Alloc_ = allocator::none;
  int Owner_ = vp::HostDevice;
  std::shared_ptr<T> Data_;
  std::size_t Size_ = 0;
  stream Stream_;
  stream_mode Mode_ = stream_mode::sync;
  /// recorded when the most recent access-API transfer was issued
  /// (deep_copy, a copy out of a device, MoveTo): synchronize() waits on
  /// it rather than on the transfer's whole stream. deep_copy writes it
  /// before the copy is shared, so concurrent consumers only read it.
  mutable vcuda::event_t Moved_;
  bool Slice_ = false; ///< a slice() narrower than the storage it shares
};

} // namespace hamr

#endif
