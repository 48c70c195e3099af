#ifndef svtkHAMRDataArray_h
#define svtkHAMRDataArray_h

/// @file svtkHAMRDataArray.h
/// svtkHAMRDataArray (HDA) — the svtkDataArray subclass the paper adds to
/// the SENSEI data model for heterogeneous architectures. The HDA provides
/// host and device memory management as well as PM interoperability by
/// delegating storage to hamr::buffer:
///
///  * initialization specifies a svtkAllocator (the PM + allocation method),
///    a svtkStream for ordering, and a svtkStreamMode (sync/async);
///  * zero-copy APIs adopt externally allocated host or device memory and
///    capture the additional information heterogeneous systems need: the
///    allocator/PM, the device the memory resides on, and the stream and
///    mode for ordering and synchronization (paper Listing 1);
///  * GetHostAccessible / GetCUDAAccessible / GetOpenMPAccessible /
///    GetHIPAccessible grant location- and PM-agnostic read access: direct
///    when possible, via an automatically cleaned up temporary otherwise
///    (paper Listings 2-4);
///  * GetData gives direct pointer access when location and PM are known;
///  * tuples are stored interleaved (AoS): component c of tuple t is
///    element t * comps + c.

#include "hamrBuffer.h"
#include "svtkDataArray.h"
#include "svtkEnums.h"

#include <memory>

template <typename T>
class svtkHAMRDataArray : public svtkDataArray
{
public:
  // --- construction ---------------------------------------------------------

  /// An empty array; call SetAllocator / SetNumberOfTuples before use.
  static svtkHAMRDataArray *New(const std::string &name = std::string())
  {
    auto *a = new svtkHAMRDataArray;
    a->SetName(name);
    return a;
  }

  /// nElem tuples of nComp components managed by `alloc` on the owning
  /// PM's currently active device, ordered by `strm` with `mode`
  /// synchronization. Memory is zero initialized.
  static svtkHAMRDataArray *New(const std::string &name, std::size_t nElem,
                               int nComp, svtkAllocator alloc,
                               const svtkStream &strm = svtkStream(),
                               svtkStreamMode mode = svtkStreamMode::sync)
  {
    auto *a = New(name);
    a->NumComps_ = nComp > 0 ? nComp : 1;
    a->Buffer_ = hamr::buffer<T>(svtkToHamr(alloc), strm, svtkToHamr(mode),
                                 nElem * static_cast<std::size_t>(a->NumComps_));
    return a;
  }

  /// As above with every element initialized to `initVal`.
  static svtkHAMRDataArray *New(const std::string &name, std::size_t nElem,
                               int nComp, svtkAllocator alloc,
                               const svtkStream &strm, svtkStreamMode mode,
                               const T &initVal)
  {
    auto *a = New(name);
    a->NumComps_ = nComp > 0 ? nComp : 1;
    a->Buffer_ =
      hamr::buffer<T>(svtkToHamr(alloc), strm, svtkToHamr(mode),
                      nElem * static_cast<std::size_t>(a->NumComps_), initVal);
    return a;
  }

  /// Zero-copy construction with coordinated life-cycle management: adopt
  /// externally allocated memory held by `data`. `owner` identifies the
  /// device on which the memory currently resides (vp::HostDevice / -1 for
  /// host memory). This is the API the paper's Listing 1 demonstrates.
  static svtkHAMRDataArray *New(const std::string &name,
                               const std::shared_ptr<T> &data,
                               std::size_t nElem, int nComp,
                               svtkAllocator alloc, const svtkStream &strm,
                               svtkStreamMode mode, int owner)
  {
    auto *a = New(name);
    a->NumComps_ = nComp > 0 ? nComp : 1;
    a->Buffer_ = hamr::buffer<T>(svtkToHamr(alloc), strm, svtkToHamr(mode),
                                 nElem * static_cast<std::size_t>(a->NumComps_),
                                 owner, data);
    return a;
  }

  /// Zero-copy construction from a raw pointer. When `take` is non-zero
  /// the array assumes ownership and frees the memory when done; otherwise
  /// the caller must keep it alive for the array's lifetime.
  static svtkHAMRDataArray *New(const std::string &name, T *data,
                               std::size_t nElem, int nComp,
                               svtkAllocator alloc, const svtkStream &strm,
                               svtkStreamMode mode, int owner, int take)
  {
    auto *a = New(name);
    a->NumComps_ = nComp > 0 ? nComp : 1;
    a->Buffer_ = hamr::buffer<T>(svtkToHamr(alloc), strm, svtkToHamr(mode),
                                 nElem * static_cast<std::size_t>(a->NumComps_),
                                 owner, data, take != 0);
    return a;
  }

  const char *GetClassName() const override { return "svtkHAMRDataArray"; }

  // --- svtkDataArray interface ----------------------------------------------

  std::size_t GetNumberOfTuples() const override
  {
    // derived from the buffer so direct GetBuffer() resizes (the
    // zero-copy idiom) stay visible
    return this->Buffer_.size() / static_cast<std::size_t>(this->NumComps_);
  }

  int GetNumberOfComponents() const override { return this->NumComps_; }

  svtkScalarType GetScalarType() const override
  {
    return svtkScalarTypeTraits<T>::value;
  }

  double GetVariantValue(std::size_t tuple, int component) const override
  {
    return static_cast<double>(
      this->Buffer_.get(tuple * static_cast<std::size_t>(this->NumComps_) +
                        static_cast<std::size_t>(component)));
  }

  void SetVariantValue(std::size_t tuple, int component, double v) override
  {
    this->Buffer_.set(tuple * static_cast<std::size_t>(this->NumComps_) +
                        static_cast<std::size_t>(component),
                      static_cast<T>(v));
  }

  void SetNumberOfTuples(std::size_t n) override
  {
    if (this->Buffer_.get_allocator() == hamr::allocator::none)
      this->Buffer_.set_allocator(hamr::allocator::malloc_);
    this->Buffer_.resize(n * static_cast<std::size_t>(this->NumComps_));
  }

  svtkDataArray *NewInstance() const override
  {
    auto *a = New(this->GetName());
    a->NumComps_ = this->NumComps_;
    a->Buffer_ = hamr::buffer<T>(this->Buffer_.get_allocator());
    a->Buffer_.set_stream(this->Buffer_.get_stream());
    a->Buffer_.set_mode(this->Buffer_.mode());
    return a;
  }

  /// A deep copy with the same allocator, owner device, stream, and mode.
  /// Caller owns the returned reference.
  svtkHAMRDataArray *NewDeepCopy() const
  {
    auto *a = New(this->GetName());
    a->NumComps_ = this->NumComps_;
    a->Buffer_ = hamr::buffer<T>(this->Buffer_);
    return a;
  }

  /// A deep copy resident on `device` (vp::HostDevice for the host),
  /// made by one transfer on the stream a move there would use (see
  /// hamr::buffer::deep_copy). The asynchronous execution method makes
  /// its copies with it, through sensei::DataAdaptor::Snapshot, before
  /// the simulation overwrites the data. Caller owns the returned
  /// reference.
  svtkHAMRDataArray *NewDeepCopy(int device) const
  {
    auto *a = New(this->GetName());
    a->NumComps_ = this->NumComps_;
    a->Buffer_ = this->Buffer_.deep_copy(device);
    return a;
  }

  // --- heterogeneous extensions ---------------------------------------------

  /// A read-only view of the data valid on the host: direct when already
  /// host accessible, otherwise a self-cleaning temporary the data is
  /// moved into. In async mode, Synchronize() before dereferencing.
  std::shared_ptr<const T> GetHostAccessible() const
  {
    return this->Buffer_.get_host_accessible();
  }

  /// A read-only view valid on the CUDA PM's current device.
  std::shared_ptr<const T> GetCUDAAccessible() const
  {
    return this->Buffer_.get_cuda_accessible();
  }

  /// A read-only view valid on the HIP PM's current device.
  std::shared_ptr<const T> GetHIPAccessible() const
  {
    return this->Buffer_.get_hip_accessible();
  }

  /// A read-only view valid on the OpenMP PM's default device.
  std::shared_ptr<const T> GetOpenMPAccessible() const
  {
    return this->Buffer_.get_openmp_accessible();
  }

  /// A read-only view valid on the SYCL PM's default device (the paper's
  /// future-work PM, supported here).
  std::shared_ptr<const T> GetSYCLAccessible() const
  {
    return this->Buffer_.get_sycl_accessible();
  }

  /// A read-only view valid on the device a SYCL queue targets.
  std::shared_ptr<const T> GetSYCLAccessible(const vsycl::queue &q) const
  {
    return this->Buffer_.get_sycl_accessible(q);
  }

  /// A read-only view valid on an explicitly named device.
  std::shared_ptr<const T> GetDeviceAccessible(int device) const
  {
    return this->Buffer_.get_device_accessible(device);
  }

  /// Direct access to the storage — valid only where the data resides.
  T *GetData() { return this->Buffer_.data(); }
  const T *GetData() const { return this->Buffer_.data(); }

  /// Make sure data in flight, if it was moved, has arrived.
  void Synchronize() const { this->Buffer_.synchronize(); }

  /// Device id where the data resides (vp::HostDevice for host memory).
  int GetOwner() const { return this->Buffer_.owner(); }

  /// The allocator managing the storage.
  hamr::allocator GetAllocator() const { return this->Buffer_.get_allocator(); }

  /// True when the data is host accessible without movement.
  bool HostAccessible() const { return this->Buffer_.host_accessible(); }

  /// True when the data is accessible on `device` without movement.
  bool DeviceAccessible(int device) const
  {
    return this->Buffer_.device_accessible(device);
  }

  /// The ordering stream.
  const svtkStream &GetStream() const { return this->Buffer_.get_stream(); }

  /// The underlying HAMR buffer (advanced use, zero-copy hand-offs).
  hamr::buffer<T> &GetBuffer() { return this->Buffer_; }
  const hamr::buffer<T> &GetBuffer() const { return this->Buffer_; }

  /// Host std::vector copy of the contents (synchronizes; tests and IO).
  std::vector<T> ToVector() const { return this->Buffer_.to_vector(); }

protected:
  svtkHAMRDataArray() = default;
  ~svtkHAMRDataArray() override = default;

private:
  hamr::buffer<T> Buffer_;
  int NumComps_ = 1;
};

using svtkHAMRDoubleArray = svtkHAMRDataArray<double>;
using svtkHAMRFloatArray = svtkHAMRDataArray<float>;
using svtkHAMRIntArray = svtkHAMRDataArray<int>;
using svtkHAMRLongArray = svtkHAMRDataArray<long long>;

#endif
