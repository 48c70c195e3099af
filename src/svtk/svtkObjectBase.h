#ifndef svtkObjectBase_h
#define svtkObjectBase_h

/// @file svtkObjectBase.h
/// Root of the SENSEI data-model class hierarchy: intrusive reference
/// counting with the VTK New/Delete/Register/UnRegister protocol. Objects
/// are created with a refcount of 1 by their static New() and destroyed
/// when the count drops to zero.

#include <atomic>
#include <string>

/// Base class providing intrusive reference counting.
class svtkObjectBase
{
public:
  svtkObjectBase(const svtkObjectBase &) = delete;
  svtkObjectBase &operator=(const svtkObjectBase &) = delete;

  /// Increase the reference count (take a shared hold on the object).
  void Register() const { ++this->ReferenceCount_; }

  /// Decrease the reference count; deletes the object at zero.
  void UnRegister() const
  {
    if (--this->ReferenceCount_ == 0)
      delete this;
  }

  /// Alias of UnRegister, matching VTK user-facing convention.
  void Delete() const { this->UnRegister(); }

  /// Current reference count (diagnostics and tests).
  int GetReferenceCount() const { return this->ReferenceCount_.load(); }

  /// The concrete class name (diagnostics).
  virtual const char *GetClassName() const { return "svtkObjectBase"; }

protected:
  svtkObjectBase() = default;
  virtual ~svtkObjectBase() = default;

private:
  mutable std::atomic<int> ReferenceCount_{1};
};

/// RAII holder for svtk objects: takes one reference on acquisition and
/// releases it on destruction. Use to write leak-free code against the
/// New/Delete API without manual UnRegister calls.
template <typename T>
class svtkSmartPtr
{
public:
  svtkSmartPtr() = default;

  /// Adopt a New()-returned pointer (takes over its initial reference).
  static svtkSmartPtr Take(T *p)
  {
    svtkSmartPtr s;
    s.Ptr_ = p;
    return s;
  }

  /// Share an existing pointer (increments the reference count).
  explicit svtkSmartPtr(T *p) : Ptr_(p)
  {
    if (this->Ptr_)
      this->Ptr_->Register();
  }

  svtkSmartPtr(const svtkSmartPtr &o) : Ptr_(o.Ptr_)
  {
    if (this->Ptr_)
      this->Ptr_->Register();
  }

  svtkSmartPtr(svtkSmartPtr &&o) noexcept : Ptr_(o.Ptr_) { o.Ptr_ = nullptr; }

  /// Share another holder's object through a base or const pointer.
  template <typename U>
  svtkSmartPtr(const svtkSmartPtr<U> &o) : svtkSmartPtr(o.Get()) // NOLINT
  {
  }

  svtkSmartPtr &operator=(const svtkSmartPtr &o)
  {
    if (this != &o)
    {
      svtkSmartPtr tmp(o);
      std::swap(this->Ptr_, tmp.Ptr_);
    }
    return *this;
  }

  svtkSmartPtr &operator=(svtkSmartPtr &&o) noexcept
  {
    std::swap(this->Ptr_, o.Ptr_);
    return *this;
  }

  ~svtkSmartPtr()
  {
    if (this->Ptr_)
      this->Ptr_->UnRegister();
  }

  T *Get() const noexcept { return this->Ptr_; }
  T *operator->() const noexcept { return this->Ptr_; }
  T &operator*() const noexcept { return *this->Ptr_; }
  explicit operator bool() const noexcept { return this->Ptr_ != nullptr; }

private:
  T *Ptr_ = nullptr;
};

#endif
