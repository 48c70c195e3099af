// Unit tests for hamr::buffer — the memory management layer underneath
// svtkHAMRDataArray: allocator matrix, zero-copy adoption, PM/location
// agnostic access, synchronous vs asynchronous stream modes, and
// modifiers. The parameterized suites sweep every allocator so each
// behaviour is verified in every memory space.

#include "hamrBuffer.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <numeric>

using hamr::allocator;
using hamr::buffer;
using hamr::stream_mode;

namespace
{
void ResetPlatform()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vomp::SetDefaultDevice(0);
}

const allocator AllAllocators[] = {
  allocator::malloc_,     allocator::cpp,
  allocator::host_pinned, allocator::device,
  allocator::device_async, allocator::managed,
  allocator::openmp,      allocator::hip,
  allocator::hip_async,   allocator::sycl_device,
  allocator::sycl_shared,
};

std::string AllocatorName(const ::testing::TestParamInfo<allocator> &info)
{
  return hamr::to_string(info.param);
}

class BufferAllocators : public ::testing::TestWithParam<allocator>
{
protected:
  void SetUp() override { ResetPlatform(); }
};
} // namespace

// --- allocator trait sanity -------------------------------------------------------

TEST(HamrAllocator, TraitsAreConsistent)
{
  EXPECT_TRUE(hamr::host_accessible(allocator::malloc_));
  EXPECT_TRUE(hamr::host_accessible(allocator::cpp));
  EXPECT_TRUE(hamr::host_accessible(allocator::host_pinned));
  EXPECT_TRUE(hamr::host_accessible(allocator::managed));
  EXPECT_FALSE(hamr::host_accessible(allocator::device));
  EXPECT_FALSE(hamr::host_accessible(allocator::openmp));

  EXPECT_TRUE(hamr::device_accessible(allocator::device));
  EXPECT_TRUE(hamr::device_accessible(allocator::device_async));
  EXPECT_TRUE(hamr::device_accessible(allocator::managed));
  EXPECT_TRUE(hamr::device_accessible(allocator::openmp));
  EXPECT_FALSE(hamr::device_accessible(allocator::malloc_));

  EXPECT_TRUE(hamr::asynchronous(allocator::device_async));
  EXPECT_FALSE(hamr::asynchronous(allocator::device));

  EXPECT_EQ(hamr::pm_of(allocator::device), vp::PmKind::Cuda);
  EXPECT_EQ(hamr::pm_of(allocator::openmp), vp::PmKind::OpenMP);
  EXPECT_EQ(hamr::pm_of(allocator::malloc_), vp::PmKind::None);
  EXPECT_EQ(hamr::pm_of(allocator::hip), vp::PmKind::Hip);
  EXPECT_EQ(hamr::pm_of(allocator::sycl_device), vp::PmKind::Sycl);

  // the new PMs of this reproduction's future-work support
  EXPECT_TRUE(hamr::device_accessible(allocator::hip));
  EXPECT_TRUE(hamr::asynchronous(allocator::hip_async));
  EXPECT_TRUE(hamr::device_accessible(allocator::sycl_device));
  EXPECT_FALSE(hamr::host_accessible(allocator::sycl_device));
  EXPECT_TRUE(hamr::host_accessible(allocator::sycl_shared));
  EXPECT_TRUE(hamr::device_accessible(allocator::sycl_shared));
}

// --- construction across all allocators ----------------------------------------------

TEST_P(BufferAllocators, ConstructZeroInitialized)
{
  buffer<double> b(GetParam(), 100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.get_allocator(), GetParam());
  std::vector<double> v = b.to_vector();
  for (double x : v)
    ASSERT_DOUBLE_EQ(x, 0.0);
}

TEST_P(BufferAllocators, ConstructWithFillValue)
{
  buffer<double> b(GetParam(), 64, 2.5);
  std::vector<double> v = b.to_vector();
  ASSERT_EQ(v.size(), 64u);
  for (double x : v)
    ASSERT_DOUBLE_EQ(x, 2.5);
}

TEST_P(BufferAllocators, OwnerMatchesAllocator)
{
  buffer<double> b(GetParam(), 8);
  if (hamr::device_accessible(GetParam()))
    EXPECT_EQ(b.owner(), 0); // the PM's current device
  else
    EXPECT_EQ(b.owner(), vp::HostDevice);
}

TEST_P(BufferAllocators, AssignAndToVectorRoundTrip)
{
  std::vector<double> src(50);
  std::iota(src.begin(), src.end(), 1.0);

  buffer<double> b(GetParam());
  b.assign(src.data(), src.size());
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(b.to_vector(), src);
}

TEST_P(BufferAllocators, ResizePreservesPrefix)
{
  buffer<double> b(GetParam(), 10, 3.0);
  b.resize(20);
  std::vector<double> v = b.to_vector();
  ASSERT_EQ(v.size(), 20u);
  for (int i = 0; i < 10; ++i)
    ASSERT_DOUBLE_EQ(v[static_cast<std::size_t>(i)], 3.0);

  b.resize(4);
  v = b.to_vector();
  ASSERT_EQ(v.size(), 4u);
  for (double x : v)
    ASSERT_DOUBLE_EQ(x, 3.0);
}

TEST_P(BufferAllocators, DeepCopyIsIndependent)
{
  buffer<double> a(GetParam(), 16, 1.0);
  buffer<double> b(a);
  EXPECT_EQ(b.get_allocator(), a.get_allocator());
  EXPECT_EQ(b.owner(), a.owner());

  a.fill(9.0);
  std::vector<double> vb = b.to_vector();
  for (double x : vb)
    ASSERT_DOUBLE_EQ(x, 1.0) << "copy aliases the original";
}

TEST_P(BufferAllocators, MoveTransfersStorage)
{
  buffer<double> a(GetParam(), 16, 4.0);
  const double *p = a.data();
  buffer<double> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.size(), 0u); // NOLINT: moved-from is empty by contract
  EXPECT_EQ(b.to_vector(), std::vector<double>(16, 4.0));
}

TEST_P(BufferAllocators, GetSetElement)
{
  buffer<double> b(GetParam(), 8, 0.0);
  b.set(3, 42.0);
  EXPECT_DOUBLE_EQ(b.get(3), 42.0);
  EXPECT_DOUBLE_EQ(b.get(0), 0.0);
  EXPECT_THROW(b.get(8), std::out_of_range);
  EXPECT_THROW(b.set(9, 0.0), std::out_of_range);
}

TEST_P(BufferAllocators, HostAccessIsCorrectEverywhere)
{
  std::vector<double> src(32);
  std::iota(src.begin(), src.end(), 0.0);
  buffer<double> b(GetParam());
  b.assign(src.data(), src.size());

  auto view = b.get_host_accessible();
  b.synchronize();
  for (std::size_t i = 0; i < src.size(); ++i)
    ASSERT_DOUBLE_EQ(view.get()[i], src[i]);
}

TEST_P(BufferAllocators, DeviceAccessIsCorrectEverywhere)
{
  std::vector<double> src(32);
  std::iota(src.begin(), src.end(), 10.0);
  buffer<double> b(GetParam());
  b.assign(src.data(), src.size());

  // request access on device 2, wherever the data currently lives
  auto view = b.get_device_accessible(2);
  b.synchronize();
  for (std::size_t i = 0; i < src.size(); ++i)
    ASSERT_DOUBLE_EQ(view.get()[i], src[i]);
}

TEST_P(BufferAllocators, DeepCopyOntoANamedDevice)
{
  // wherever the data lives, the copy is accessible on the named target
  // without movement, holds the same values and aliases nothing
  std::vector<double> src(32);
  std::iota(src.begin(), src.end(), 5.0);
  buffer<double> a(GetParam());
  a.assign(src.data(), src.size());

  for (int target : {vp::HostDevice, 2})
  {
    buffer<double> c = a.deep_copy(target);
    EXPECT_TRUE(target == vp::HostDevice ? c.host_accessible()
                                         : c.device_accessible(target))
      << "target " << target;
    EXPECT_NE(c.data(), a.data());
    EXPECT_EQ(c.to_vector(), src) << "target " << target;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAllocators, BufferAllocators,
                         ::testing::ValuesIn(AllAllocators), AllocatorName);

// --- zero copy vs movement ----------------------------------------------------------

namespace
{
class BufferFixture : public ::testing::Test
{
protected:
  void SetUp() override { ResetPlatform(); }
};
} // namespace

TEST_F(BufferFixture, HostAccessOfHostBufferIsZeroCopy)
{
  vp::Platform::Get().Stats().Reset();
  buffer<double> b(allocator::malloc_, 128, 1.0);
  auto view = b.get_host_accessible();
  EXPECT_EQ(view.get(), b.data()); // the very same pointer
  EXPECT_EQ(vp::Platform::Get().Stats().Copies(vp::CopyKind::DeviceToHost), 0u);
}

TEST_F(BufferFixture, DeviceAccessOfOwningDeviceIsZeroCopy)
{
  vcuda::SetDevice(1);
  buffer<double> b(allocator::device, 128, 1.0);
  vp::Platform::Get().Stats().Reset();

  auto view = b.get_device_accessible(1);
  EXPECT_EQ(view.get(), b.data());
  EXPECT_EQ(vp::Platform::Get().Stats().Copies(vp::CopyKind::OnDevice), 0u);
  EXPECT_EQ(vp::Platform::Get().Stats().Copies(vp::CopyKind::DeviceToDevice),
            0u);
  vcuda::SetDevice(0);
}

TEST_F(BufferFixture, ManagedIsZeroCopyEverywhere)
{
  buffer<double> b(allocator::managed, 64, 5.0);
  auto hv = b.get_host_accessible();
  auto dv0 = b.get_device_accessible(0);
  auto dv3 = b.get_device_accessible(3);
  EXPECT_EQ(hv.get(), b.data());
  EXPECT_EQ(dv0.get(), b.data());
  EXPECT_EQ(dv3.get(), b.data());
}

TEST_F(BufferFixture, CrossDeviceAccessAllocatesTemporaryAndMoves)
{
  vcuda::SetDevice(0);
  buffer<double> b(allocator::device, 128, 7.0);
  vp::Platform::Get().Stats().Reset();

  {
    auto view = b.get_device_accessible(2);
    b.synchronize();
    EXPECT_NE(view.get(), b.data());
    for (int i = 0; i < 128; ++i)
      ASSERT_DOUBLE_EQ(view.get()[i], 7.0);

    // the temporary lives on device 2
    vp::AllocInfo info;
    ASSERT_TRUE(vp::Platform::Get().Query(view.get(), info));
    EXPECT_EQ(info.Device, 2);

    EXPECT_EQ(
      vp::Platform::Get().Stats().Copies(vp::CopyKind::DeviceToDevice), 1u);
  }
  // the temporary frees itself with the last shared_ptr reference
  vp::AllocInfo info;
  EXPECT_EQ(vp::Platform::Get().Registry().BytesIn(vp::MemSpace::Device, 2),
            0u);
}

TEST_F(BufferFixture, HostAccessOfDeviceBufferMovesOnce)
{
  buffer<double> b(allocator::device, 64, 3.0);
  vp::Platform::Get().Stats().Reset();
  auto view = b.get_host_accessible();
  b.synchronize();
  EXPECT_EQ(vp::Platform::Get().Stats().Copies(vp::CopyKind::DeviceToHost), 1u);
  for (int i = 0; i < 64; ++i)
    ASSERT_DOUBLE_EQ(view.get()[i], 3.0);
}

TEST_F(BufferFixture, SynchronizeCoversHostToDeviceMoves)
{
  // regression: a host-owned buffer viewed on a device enqueues the move
  // on that device's stream; synchronize() must wait for it
  buffer<double> b(allocator::malloc_, hamr::stream(), stream_mode::async,
                   1u << 20, 2.0);
  const double before = vp::ThisClock().Now();
  auto view = b.get_device_accessible(1);
  b.synchronize();
  const double waited = vp::ThisClock().Now() - before;
  const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
  const double transfer = (1u << 20) * sizeof(double) / cost.H2DBandwidth;
  EXPECT_GE(waited, 0.9 * transfer);
  for (int i = 0; i < 16; ++i)
    ASSERT_DOUBLE_EQ(view.get()[i], 2.0);
}

// --- PM current-device routing -----------------------------------------------------

TEST_F(BufferFixture, CudaAccessibleFollowsCurrentDevice)
{
  vcuda::SetDevice(0);
  buffer<double> b(allocator::openmp, 32, 1.5); // OpenMP PM owns the data

  vcuda::SetDevice(2); // consumer targets device 2 in the CUDA PM
  auto view = b.get_cuda_accessible();
  b.synchronize();

  vp::AllocInfo info;
  ASSERT_TRUE(vp::Platform::Get().Query(view.get(), info));
  EXPECT_EQ(info.Device, 2);
  for (int i = 0; i < 32; ++i)
    ASSERT_DOUBLE_EQ(view.get()[i], 1.5);
  vcuda::SetDevice(0);
}

TEST_F(BufferFixture, OpenmpAccessibleHostFallback)
{
  buffer<double> b(allocator::device, 16, 2.0);
  vomp::SetDefaultDevice(vomp::GetInitialDevice()); // OpenMP targets the host
  auto view = b.get_openmp_accessible();
  b.synchronize();
  vp::AllocInfo info;
  ASSERT_TRUE(vp::Platform::Get().Query(view.get(), info));
  EXPECT_NE(info.Space, vp::MemSpace::Device);
  vomp::SetDefaultDevice(0);
}

// --- zero-copy adoption ---------------------------------------------------------------

TEST_F(BufferFixture, AdoptSharedPtrCoordinatesLifecycle)
{
  // the paper's Listing 1: wrap an OpenMP device allocation in a
  // shared_ptr with a deleter, hand it to the data model zero-copy
  vomp::SetDefaultDevice(1);
  const std::size_t n = 100;
  auto *dev = static_cast<double *>(vomp::TargetAlloc(n * sizeof(double), 1));
  std::shared_ptr<double> spDev(dev,
                                [](double *p) { vomp::TargetFree(p, 1); });

  vomp::TargetParallelFor(1, n,
                          [dev](std::size_t b, std::size_t e)
                          {
                            for (std::size_t i = b; i < e; ++i)
                              dev[i] = -3.14;
                          });

  {
    buffer<double> b(allocator::openmp, hamr::stream(), stream_mode::async, n,
                     1, spDev);
    EXPECT_EQ(b.data(), dev); // zero copy
    EXPECT_EQ(b.owner(), 1);
    spDev.reset(); // the buffer keeps the memory alive
    EXPECT_DOUBLE_EQ(b.get(0), -3.14);
  }
  // last reference dropped: memory was freed
  EXPECT_EQ(vp::Platform::Get().Registry().BytesIn(vp::MemSpace::Device, 1),
            0u);
  vomp::SetDefaultDevice(0);
}

TEST_F(BufferFixture, AdoptRawPointerWithoutOwnership)
{
  std::vector<double> ext(10, 6.0);
  {
    buffer<double> b(allocator::malloc_, hamr::stream(), stream_mode::sync,
                     ext.size(), vp::HostDevice, ext.data(), /*take=*/false);
    EXPECT_EQ(b.data(), ext.data());
    EXPECT_DOUBLE_EQ(b.get(9), 6.0);
  }
  // buffer destruction must not free caller-owned memory
  EXPECT_DOUBLE_EQ(ext[0], 6.0);
}

TEST_F(BufferFixture, AdoptRawPointerTakingOwnership)
{
  auto *p = static_cast<double *>(vcuda::Malloc(8 * sizeof(double)));
  {
    buffer<double> b(allocator::device, hamr::stream(), stream_mode::sync, 8,
                     0, p, /*take=*/true);
    EXPECT_EQ(b.data(), p);
  }
  EXPECT_EQ(vp::Platform::Get().Registry().BytesIn(vp::MemSpace::Device, 0),
            0u);
}

// --- stream modes ------------------------------------------------------------------

TEST_F(BufferFixture, AsyncModeDefersCompletion)
{
  vcuda::SetDevice(0);
  vcuda::stream_t strm = vcuda::StreamCreate();

  buffer<double> b(allocator::device_async, hamr::stream(strm),
                   stream_mode::async, 1u << 18, 1.0);

  // work is stream-ordered; synchronize() waits for it
  const double before = vp::ThisClock().Now();
  b.synchronize();
  EXPECT_GE(vp::ThisClock().Now(), before);
  EXPECT_EQ(b.to_vector(), std::vector<double>(1u << 18, 1.0));
}

TEST_F(BufferFixture, DeepCopyTransfersOnTheSourceStream)
{
  // a peer deep copy is one D2D transfer on the source's stream: it
  // claims the source device's copy engine, not the target's, and in
  // async mode the copy's synchronize() covers it
  vcuda::SetDevice(0);
  vcuda::stream_t strm = vcuda::StreamCreate();
  buffer<double> a(allocator::device_async, hamr::stream(strm),
                   stream_mode::async, 1u << 16, 3.0);
  a.synchronize();

  vp::Platform &plat = vp::Platform::Get();
  const double target = plat.GetDevice(0, 3).CopyEngine.Available();
  plat.Stats().Reset();
  buffer<double> c = a.deep_copy(3);
  EXPECT_EQ(plat.Stats().Copies(vp::CopyKind::DeviceToDevice), 1u);
  EXPECT_EQ(plat.GetDevice(0, 3).CopyEngine.Available(), target);
  EXPECT_EQ(c.owner(), 3);
  EXPECT_EQ(c.mode(), stream_mode::async);

  const double copied = plat.GetDevice(0, 0).CopyEngine.Available();
  EXPECT_LT(vp::ThisClock().Now(), copied);
  c.synchronize();
  EXPECT_GE(vp::ThisClock().Now(), copied);
  EXPECT_EQ(c.to_vector(), std::vector<double>(1u << 16, 3.0));
}

TEST_F(BufferFixture, ConvertingCopyChangesLocation)
{
  buffer<double> host(allocator::malloc_, 32, 2.0);
  vcuda::SetDevice(3);
  buffer<double> dev(allocator::device, host);
  EXPECT_EQ(dev.owner(), 3);
  EXPECT_EQ(dev.get_allocator(), allocator::device);
  EXPECT_EQ(dev.to_vector(), host.to_vector());
  vcuda::SetDevice(0);
}

TEST_F(BufferFixture, ErrorsOnMisuse)
{
  buffer<double> b;
  EXPECT_THROW(b.resize(10), std::runtime_error);
  EXPECT_THROW(b.assign(nullptr, 0), std::runtime_error);

  buffer<double> c(allocator::device, 4);
  EXPECT_THROW(c.set_allocator(allocator::malloc_), std::runtime_error);
  c.free();
  EXPECT_NO_THROW(c.set_allocator(allocator::malloc_));
}
