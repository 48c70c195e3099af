// Exhaustive accessor matrix for svtkHAMRDataArray / hamr::buffer: every
// Get*Accessible view over {host, device-sync, device-async} storage ×
// {sync, async} stream modes, asserting
//  * zero-copy when the data is already accessible at the requested
//    location (pointer identity with GetData(), no copy recorded), and
//    exactly one platform copy of the right kind otherwise — no
//    redundant movement;
//  * contents survive every movement;
//  * after Synchronize() every host dereference is clean under the
//    race/lifetime checker — the accessor discipline really provides
//    "no unsynchronized access".
// Then what a deep copy guarantees when it returns, and the packed deep
// copy: slices of one gathered block, at most one transfer per stream,
// and the parts' ranges its gather folds and reads back.

#include "execEngine.h"
#include "svtkHAMRDataArray.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace
{

class HamrAccessTest : public ::testing::Test
{
protected:
  void SetUp() override
  {
    vp::PlatformConfig cfg;
    cfg.NumNodes = 1;
    cfg.DevicesPerNode = 2;
    cfg.HostCoresPerNode = 8;
    vp::Platform::Initialize(cfg);
    vcuda::SetDevice(0);
    vomp::SetDefaultDevice(0);
    vp::check::Reset();
    vp::check::Configure(vp::check::CheckConfig{true, 256, false});
  }

  void TearDown() override { vp::check::Enable(false); }
};

/// Sum of synchronous + asynchronous copies of every kind.
std::uint64_t TotalCopies()
{
  const vp::PlatformStats &s = vp::Platform::Get().Stats();
  std::uint64_t n = 0;
  for (int k = 0; k < 5; ++k)
    n += s.Copies(static_cast<vp::CopyKind>(k));
  return n;
}

struct StorageCase
{
  const char *Label;
  svtkAllocator Alloc;
  svtkStreamMode Mode;
  bool OnDevice;
};

const StorageCase Storages[] = {
  {"host/sync", svtkAllocator::malloc_, svtkStreamMode::sync, false},
  {"host/async", svtkAllocator::malloc_, svtkStreamMode::async, false},
  {"cuda/sync", svtkAllocator::cuda, svtkStreamMode::sync, true},
  {"cuda/async", svtkAllocator::cuda, svtkStreamMode::async, true},
  {"cuda_async/sync", svtkAllocator::cuda_async, svtkStreamMode::sync, true},
  {"cuda_async/async", svtkAllocator::cuda_async, svtkStreamMode::async, true},
};

struct AccessorCase
{
  const char *Label;
  bool OnDevice; ///< the view targets device 0 (all device PMs do here)
  std::function<std::shared_ptr<const double>(const svtkHAMRDoubleArray *)> Get;
};

const AccessorCase Accessors[] = {
  {"GetHostAccessible", false,
   [](const svtkHAMRDoubleArray *a) { return a->GetHostAccessible(); }},
  {"GetCUDAAccessible", true,
   [](const svtkHAMRDoubleArray *a) { return a->GetCUDAAccessible(); }},
  {"GetOpenMPAccessible", true,
   [](const svtkHAMRDoubleArray *a) { return a->GetOpenMPAccessible(); }},
  {"GetHIPAccessible", true,
   [](const svtkHAMRDoubleArray *a) { return a->GetHIPAccessible(); }},
};

constexpr std::size_t N = 256;
constexpr double Fill = 3.25;

/// Read back `n` doubles that live wherever `p` points (host or device)
/// into a host vector, checker-clean (the caller must have synchronized).
std::vector<double> ReadBack(const double *p, std::size_t n, bool onDevice)
{
  std::vector<double> out(n);
  if (onDevice)
    vp::Platform::Get().Copy(out.data(), p, n * sizeof(double));
  else
  {
    vp::check::HostRead(p, n * sizeof(double), "testHamrAccess readback");
    std::memcpy(out.data(), p, n * sizeof(double));
  }
  return out;
}

} // namespace

TEST_F(HamrAccessTest, AccessorMatrixZeroCopyWhenResidentOneCopyOtherwise)
{
  for (const StorageCase &sc : Storages)
  {
    vcuda::stream_t strm = vcuda::StreamCreate();
    auto *a = svtkHAMRDoubleArray::New("m", N, 1, sc.Alloc, svtkStream(strm),
                                      sc.Mode, Fill);
    a->Synchronize(); // creation/fill traffic is not under test
    vp::check::Reset();

    for (const AccessorCase &ac : Accessors)
    {
      SCOPED_TRACE(std::string(sc.Label) + " via " + ac.Label);

      const vp::CopyKind want = sc.OnDevice ? vp::CopyKind::DeviceToHost
                                            : vp::CopyKind::HostToDevice;
      const std::uint64_t before = TotalCopies();
      const std::uint64_t kindBefore = vp::Platform::Get().Stats().Copies(want);

      auto view = ac.Get(a);
      ASSERT_TRUE(view);

      if (ac.OnDevice == sc.OnDevice)
      {
        // already accessible: the view must alias the storage, not copy it
        EXPECT_EQ(view.get(), a->GetData());
        EXPECT_EQ(TotalCopies() - before, 0u)
          << "redundant copy for an already-accessible view";
      }
      else
      {
        EXPECT_NE(view.get(), a->GetData());
        EXPECT_EQ(TotalCopies() - before, 1u)
          << "movement must be exactly one platform copy";
        EXPECT_EQ(vp::Platform::Get().Stats().Copies(want) - kindBefore, 1u)
          << "movement classified wrongly";
      }

      // the documented discipline: synchronize before dereferencing
      a->Synchronize();
      const std::vector<double> got = ReadBack(view.get(), N, ac.OnDevice);
      for (std::size_t i = 0; i < N; ++i)
        ASSERT_EQ(got[i], Fill) << "element " << i << " corrupted";
    }

    const vp::check::Report r = vp::check::Snapshot();
    EXPECT_EQ(r.Total(), 0u) << sc.Label << ":\n" << r.Summary();
    a->Delete();
    vcuda::StreamDestroy(strm);
  }
}

TEST_F(HamrAccessTest, RepeatedResidentViewsNeverCopy)
{
  for (const StorageCase &sc : Storages)
  {
    auto *a = svtkHAMRDoubleArray::New("r", N, 1, sc.Alloc, svtkStream(),
                                      sc.Mode, Fill);
    a->Synchronize();

    const std::uint64_t before = TotalCopies();
    for (int i = 0; i < 3; ++i)
    {
      auto view = sc.OnDevice ? a->GetCUDAAccessible()
                              : a->GetHostAccessible();
      EXPECT_EQ(view.get(), a->GetData()) << sc.Label;
    }
    EXPECT_EQ(TotalCopies() - before, 0u) << sc.Label;
    a->Delete();
  }
  EXPECT_EQ(vp::check::Snapshot().Total(), 0u);
}

TEST_F(HamrAccessTest, MovedViewOutlivesSourceArray)
{
  // the self-cleaning temporary keeps the data valid after the array goes
  // away — the shared_ptr owns the movement target
  auto *a = svtkHAMRDoubleArray::New("o", N, 1, svtkAllocator::cuda,
                                    svtkStream(), svtkStreamMode::sync, Fill);
  auto view = a->GetHostAccessible();
  a->Synchronize();
  a->Delete();

  const std::vector<double> got = ReadBack(view.get(), N, false);
  for (std::size_t i = 0; i < N; ++i)
    ASSERT_EQ(got[i], Fill);
  EXPECT_EQ(vp::check::Snapshot().Total(), 0u);
}

TEST_F(HamrAccessTest, UnsynchronizedDereferenceOfAsyncMoveIsFlagged)
{
  // the one forbidden order: dereference a moved view in async mode
  // before Synchronize(). The checker must call it out.
  vcuda::stream_t strm = vcuda::StreamCreate();
  auto *a = svtkHAMRDoubleArray::New("u", N, 1, svtkAllocator::cuda,
                                    svtkStream(strm), svtkStreamMode::async,
                                    Fill);
  a->Synchronize();
  vp::check::Reset();

  auto view = a->GetHostAccessible(); // D2H still in flight on the stream
  vp::check::HostRead(view.get(), N * sizeof(double),
                      "testHamrAccess premature readback");

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Count(vp::check::ViolationKind::UnsyncedHostAccess), 1u)
    << r.Summary();

  // and the documented order is clean
  vp::check::Reset();
  auto view2 = a->GetHostAccessible();
  a->Synchronize();
  vp::check::HostRead(view2.get(), N * sizeof(double),
                      "testHamrAccess synced readback");
  EXPECT_EQ(vp::check::Snapshot().Total(), 0u);

  a->Delete();
  vcuda::StreamDestroy(strm);
}

TEST_F(HamrAccessTest, ToVectorIsCheckerCleanEverywhere)
{
  for (const StorageCase &sc : Storages)
  {
    auto *a = svtkHAMRDoubleArray::New("v", N, 1, sc.Alloc, svtkStream(),
                                      sc.Mode, Fill);
    const std::vector<double> v = a->ToVector();
    ASSERT_EQ(v.size(), N) << sc.Label;
    for (std::size_t i = 0; i < N; ++i)
      ASSERT_EQ(v[i], Fill) << sc.Label;
    a->Delete();
  }
  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
}

TEST(HamrMoveOrdering, HostViewOfAnInFlightDeepCopyWaitsForIt)
{
  // an async-mode deep copy onto device 3 is queued on device 0's stream,
  // and the host view of the copy is moved on device 3's stream: the move
  // must be ordered after the copy and synchronize() must cover both.
  // Under real threads with the checker on, the view holds the source's
  // values and no access is unordered. scripts/run_campaign.sh runs this
  // under VP_CHECK=1 in the tsan section.
  vp::PlatformConfig cfg;
  cfg.NumNodes = 1;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vp::check::Reset();
  vp::check::Configure(vp::check::CheckConfig{true, 256, false});
  vp::exec::ExecConfig ec;
  ec.ExecMode = vp::exec::Mode::Threads;
  ec.Threads = 2;
  vp::exec::Configure(ec);
  {
    constexpr std::size_t n = 65536;
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i)
      want[i] = 0.5 * static_cast<double>(i) - 7.0;
    hamr::buffer<double> a(hamr::allocator::device, hamr::stream(),
                           hamr::stream_mode::async, n);
    a.assign(want.data(), n);
    a.synchronize();

    const hamr::buffer<double> c = a.deep_copy(3);
    ASSERT_EQ(c.owner(), 3);
    const std::shared_ptr<const double> view = c.get_host_accessible();
    c.synchronize();
    vp::check::HostRead(view.get(), n * sizeof(double),
                        "HamrMoveOrdering readback");
    EXPECT_EQ(std::memcmp(view.get(), want.data(), n * sizeof(double)), 0);
  }
  vp::exec::Configure(vp::exec::ExecConfig());
  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
}

TEST(HamrSyncEvent, ASecondSynchronizeJoinsNoFence)
{
  // the first synchronize() of an async-mode deep copy waits out its
  // transfer's fences and joins them; a second one finds them joined
  // and neither waits on them again nor counts a join. scripts/
  // run_campaign.sh runs this under VP_CHECK=1 in the tsan section.
  vp::PlatformConfig cfg;
  cfg.NumNodes = 1;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vp::check::Reset();
  vp::check::Configure(vp::check::CheckConfig{true, 256, false});
  vp::exec::ExecConfig ec;
  ec.ExecMode = vp::exec::Mode::Threads;
  ec.Threads = 2;
  vp::exec::Configure(ec);
  {
    constexpr std::size_t n = 65536;
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i)
      want[i] = 0.125 * static_cast<double>(i) - 1.0;
    hamr::buffer<double> a(hamr::allocator::device, hamr::stream(),
                           hamr::stream_mode::async, n);
    a.assign(want.data(), n);
    a.synchronize();

    const hamr::buffer<double> c = a.deep_copy(3);
    const std::uint64_t before = vp::exec::Stats().FenceJoins;
    c.synchronize();
    const std::uint64_t first = vp::exec::Stats().FenceJoins;
    EXPECT_GT(first, before);
    c.synchronize();
    EXPECT_EQ(vp::exec::Stats().FenceJoins, first);

    const std::vector<double> got = c.to_vector();
    EXPECT_EQ(got, want);
  }
  vp::exec::Configure(vp::exec::ExecConfig());
  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
}

TEST(HamrSyncEvent, SynchronizeDoesNotWaitForLaterWorkOnTheCopysStream)
{
  // an async-mode deep copy onto device 3 is queued on device 0's
  // default stream. Once synchronized, a second synchronize() of the
  // copy must not wait for an unrelated kernel queued on that stream
  // later: the copy waits on the event recorded with its transfer, not
  // on the stream. The source, whose own stream that is, still waits.
  // Two threads then synchronize the shared copy at once, which only
  // reads the event. scripts/run_campaign.sh runs this under VP_CHECK=1
  // in the tsan section.
  vp::PlatformConfig cfg;
  cfg.NumNodes = 1;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vp::check::Reset();
  vp::check::Configure(vp::check::CheckConfig{true, 256, false});
  vp::exec::ExecConfig ec;
  ec.ExecMode = vp::exec::Mode::Threads;
  ec.Threads = 2;
  vp::exec::Configure(ec);
  {
    constexpr std::size_t n = 65536;
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i)
      want[i] = 0.25 * static_cast<double>(i) + 3.0;
    hamr::buffer<double> a(hamr::allocator::device, hamr::stream(),
                           hamr::stream_mode::async, n);
    a.assign(want.data(), n);
    a.synchronize();

    const hamr::buffer<double> c = a.deep_copy(3);
    ASSERT_EQ(c.owner(), 3);
    c.synchronize();

    // a long kernel on device 0's default stream, unrelated to the copy
    vp::Platform &plat = vp::Platform::Get();
    double *src = a.data();
    vcuda::LaunchN(plat.DefaultStream(0), n,
                   [src](std::size_t b, std::size_t e)
                   {
                     for (std::size_t i = b; i < e; ++i)
                       src[i] += 1.0;
                   },
                   {1.0e5, 0.0, "hamr_sync_probe", false});
    const double t0 = vp::ThisClock().Now();
    c.synchronize();
    EXPECT_EQ(vp::ThisClock().Now(), t0);
    a.synchronize();
    EXPECT_GT(vp::ThisClock().Now(), t0);

    std::vector<std::thread> consumers;
    for (int k = 0; k < 2; ++k)
      consumers.emplace_back([&c] { c.synchronize(); });
    for (std::thread &t : consumers)
      t.join();

    const std::vector<double> got = c.to_vector();
    EXPECT_EQ(got, want);
  }
  vp::exec::Configure(vp::exec::ExecConfig());
  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
}

// --- the deep copy's contract: what a caller may rely on when it returns ------------------

namespace
{
/// A 4-device node, the checker on, and <exec mode="threads">, so a
/// transfer or kernel left in flight really runs later on a worker.
void StartCheckedThreads()
{
  vp::PlatformConfig cfg;
  cfg.NumNodes = 1;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vp::check::Reset();
  vp::check::Configure(vp::check::CheckConfig{true, 256, false});
  vp::exec::ExecConfig ec;
  ec.ExecMode = vp::exec::Mode::Threads;
  ec.Threads = 2;
  vp::exec::Configure(ec);
}

/// Back to serial; the checker must have seen nothing.
void StopCheckedThreads()
{
  vp::exec::Configure(vp::exec::ExecConfig());
  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
}

constexpr std::size_t kCopyN = 65536;

std::vector<double> Ramp(double scale, double shift)
{
  std::vector<double> v(kCopyN);
  for (std::size_t i = 0; i < kCopyN; ++i)
    v[i] = scale * static_cast<double>(i) + shift;
  return v;
}

/// A device-0 buffer in mode `mode` holding Ramp(0.5, -7) when its long
/// pending kernel on its own stream (device 0's default) is done, which
/// rewrites every element as 2 * x + 1. Returns the kernel's virtual
/// completion time.
double DeviceSourceWithPendingKernel(hamr::buffer<double> &a,
                                     hamr::stream_mode mode)
{
  const std::vector<double> before = Ramp(0.5, -7.0);
  a = hamr::buffer<double>(hamr::allocator::device, hamr::stream(), mode,
                           kCopyN);
  a.assign(before.data(), kCopyN);
  a.synchronize();
  vp::Platform &plat = vp::Platform::Get();
  double *p = a.data();
  vcuda::LaunchN(plat.DefaultStream(0), kCopyN,
                 [p](std::size_t b, std::size_t e)
                 {
                   for (std::size_t i = b; i < e; ++i)
                     p[i] = 2.0 * p[i] + 1.0;
                 },
                 {1.0e5, 0.0, "hamr_copy_probe", false});
  return plat.DefaultStream(0).Get()->Completion();
}
} // namespace

TEST(HamrDeepCopy, SyncCopyIsCompleteOnReturn)
{
  // a sync-mode copy, of a sync-mode source or asked for explicitly of
  // an async one, returns after its transfer, which lands after the
  // source's pending kernel: its synchronize() has nothing left to wait
  // for. Onto a peer device and onto the source's own.
  StartCheckedThreads();
  {
    const std::vector<double> after = Ramp(1.0, -13.0);
    for (hamr::stream_mode mode :
         {hamr::stream_mode::sync, hamr::stream_mode::async})
      for (int target : {3, 0})
      {
        hamr::buffer<double> a;
        const double kernelEnd = DeviceSourceWithPendingKernel(a, mode);
        const hamr::buffer<double> c =
          mode == hamr::stream_mode::sync
            ? a.deep_copy(target)
            : a.deep_copy(target, hamr::stream_mode::sync);
        EXPECT_EQ(c.mode(), hamr::stream_mode::sync);
        EXPECT_EQ(c.owner(), target);
        EXPECT_GT(vp::ThisClock().Now(), kernelEnd) << target;
        const double t = vp::ThisClock().Now();
        c.synchronize();
        EXPECT_EQ(vp::ThisClock().Now(), t) << target;
        EXPECT_EQ(c.to_vector(), after) << target;
      }
  }
  StopCheckedThreads();
}

TEST(HamrDeepCopy, AsyncCopyOfADeviceSourceReturnsAfterItsSubmission)
{
  // an async-mode copy of device-resident data costs the caller its
  // stream-ordered allocation and one submission, even with a long
  // kernel pending on the source's stream; the transfer lands after that
  // kernel, and the copy's synchronize() covers it. Onto a peer device
  // (the transfer's event) and onto the source's own (its stream).
  StartCheckedThreads();
  {
    const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
    const std::vector<double> after = Ramp(1.0, -13.0);
    for (int target : {3, 0})
    {
      hamr::buffer<double> a;
      const double kernelEnd =
        DeviceSourceWithPendingKernel(a, hamr::stream_mode::sync);
      const double t0 = vp::ThisClock().Now();
      const hamr::buffer<double> c =
        a.deep_copy(target, hamr::stream_mode::async);
      EXPECT_NEAR(vp::ThisClock().Now() - t0,
                  cost.AsyncAllocLatency + cost.KernelSubmitOverhead, 1e-12)
        << target;
      EXPECT_LT(vp::ThisClock().Now(), kernelEnd) << target;
      EXPECT_EQ(c.mode(), hamr::stream_mode::async);
      EXPECT_EQ(c.owner(), target);
      EXPECT_NE(c.data(), a.data());
      c.synchronize();
      EXPECT_GT(vp::ThisClock().Now(), kernelEnd) << target;
      EXPECT_EQ(c.to_vector(), after) << target;
    }
  }
  StopCheckedThreads();
}

TEST(HamrDeepCopy, AsyncRequestOfAHostSourceCompletesBeforeItReturns)
{
  // the caller may overwrite pageable host data as soon as the call
  // returns, so an async-mode copy of a host buffer onto a device is
  // complete on return: the write right after it does not reach the
  // copy, and the copy's synchronize() waits for nothing
  StartCheckedThreads();
  {
    const std::vector<double> before = Ramp(0.25, 3.0);
    hamr::buffer<double> h(hamr::allocator::malloc_, hamr::stream(),
                           hamr::stream_mode::async, kCopyN);
    h.assign(before.data(), kCopyN);
    const hamr::buffer<double> c = h.deep_copy(2, hamr::stream_mode::async);
    EXPECT_EQ(c.owner(), 2);
    EXPECT_EQ(c.mode(), hamr::stream_mode::async);
    EXPECT_GE(vp::ThisClock().Now(),
              vp::Platform::Get().GetDevice(0, 2).CopyEngine.Available());
    vp::check::HostWrite(h.data(), kCopyN * sizeof(double),
                         "HamrDeepCopy source overwrite");
    std::fill(h.data(), h.data() + kCopyN, -1.0);
    const double t = vp::ThisClock().Now();
    c.synchronize();
    EXPECT_EQ(vp::ThisClock().Now(), t);
    EXPECT_EQ(c.to_vector(), before);
  }
  StopCheckedThreads();
}

TEST(HamrDeepCopy, AnInFlightCopyDroppedUnreadOutlivesItsTransfer)
{
  // a copy whose last reference drops before anyone synchronized it (a
  // dropped pipeline task's snapshot) is not freed under its transfer:
  // its storage goes only once the work queued on the transfer's stream
  // has run, here a kernel that sleeps on its worker before the copy
  StartCheckedThreads();
  {
    hamr::buffer<double> a;
    DeviceSourceWithPendingKernel(a, hamr::stream_mode::sync);
    auto ran = std::make_shared<std::atomic<bool>>(false);
    vcuda::LaunchN(vp::Platform::Get().DefaultStream(0), 1,
                   [ran](std::size_t, std::size_t)
                   {
                     std::this_thread::sleep_for(std::chrono::milliseconds(20));
                     ran->store(true);
                   },
                   {1.0, 0.0, "hamr_slow_probe", false});
    a.deep_copy(3, hamr::stream_mode::async); // dropped at once, unread
    EXPECT_TRUE(ran->load());
    a.synchronize();
  }
  StopCheckedThreads();
}

// --- packed deep copies: one gather and at most one transfer per stream -----------------

namespace
{
/// Three device-0 buffers of different sizes in async mode, each a ramp
/// of its own, behind one long pending kernel on device 0's default
/// stream that adds `k + 1` to buffer k. Returns the kernel's virtual
/// completion time; `want` receives the values after it.
double PackedSources(std::vector<hamr::buffer<double>> &parts,
                     std::vector<std::vector<double>> &want)
{
  const std::size_t sizes[] = {kCopyN, 1000, 4097};
  parts.clear();
  want.clear();
  std::vector<double *> ptrs;
  for (std::size_t k = 0; k < 3; ++k)
  {
    std::vector<double> v(sizes[k]);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = 0.25 * static_cast<double>(i) - 3.0 * static_cast<double>(k);
    parts.emplace_back(hamr::allocator::device, hamr::stream(),
                       hamr::stream_mode::async, v.size());
    parts.back().assign(v.data(), v.size());
    parts.back().synchronize();
    ptrs.push_back(parts.back().data());
    for (double &x : v)
      x += static_cast<double>(k + 1);
    want.push_back(std::move(v));
  }
  vp::Platform &plat = vp::Platform::Get();
  const std::vector<std::size_t> n(std::begin(sizes), std::end(sizes));
  vcuda::LaunchN(plat.DefaultStream(0), kCopyN,
                 [ptrs, n](std::size_t b, std::size_t e)
                 {
                   for (std::size_t k = 0; k < ptrs.size(); ++k)
                     for (std::size_t i = b; i < std::min(e, n[k]); ++i)
                       ptrs[k][i] += static_cast<double>(k + 1);
                 },
                 {1.0e5, 0.0, "hamr_pack_probe", false});
  return plat.DefaultStream(0).Get()->Completion();
}

std::vector<const hamr::buffer<double> *>
PartPointers(const std::vector<hamr::buffer<double>> &parts)
{
  std::vector<const hamr::buffer<double> *> out;
  for (const hamr::buffer<double> &p : parts)
    out.push_back(&p);
  return out;
}
} // namespace

TEST(HamrPackedCopy, SlicesOfOneBlockShareItsStorageAndTransferEvent)
{
  // three device-0 buffers packed onto a peer device cost one gather
  // kernel and one transfer (two stream-ordered allocations and two
  // submissions), onto their own device one kernel and no transfer; the
  // copies are consecutive slices of one block, each waits for the
  // transfer behind the pending kernel, and one left alone still reads
  // its values
  StartCheckedThreads();
  {
    const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
    vp::PlatformStats &stats = vp::Platform::Get().Stats();
    for (int target : {3, 0})
    {
      std::vector<hamr::buffer<double>> parts;
      std::vector<std::vector<double>> want;
      const double kernelEnd = PackedSources(parts, want);
      stats.Reset();
      const double t0 = vp::ThisClock().Now();
      std::vector<hamr::buffer<double>> c = hamr::buffer<double>::
        packed_deep_copy(PartPointers(parts), target,
                         hamr::stream_mode::async);
      const double hops = target == 0 ? 1.0 : 2.0;
      EXPECT_NEAR(vp::ThisClock().Now() - t0,
                  hops * (cost.AsyncAllocLatency + cost.KernelSubmitOverhead),
                  1e-12)
        << target;
      EXPECT_EQ(stats.KernelsLaunched, 1u) << target;
      EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToDevice),
                target == 0 ? 0u : 1u);
      EXPECT_EQ(stats.Bytes(vp::CopyKind::DeviceToDevice),
                target == 0 ? 0u : (kCopyN + 1000 + 4097) * sizeof(double));
      EXPECT_EQ(stats.Copies(vp::CopyKind::OnDevice), 0u) << target;
      ASSERT_EQ(c.size(), 3u);
      EXPECT_EQ(c[1].data(), c[0].data() + kCopyN) << target;
      EXPECT_EQ(c[2].data(), c[1].data() + 1000) << target;
      EXPECT_LT(vp::ThisClock().Now(), kernelEnd) << target;

      c[0].free();
      c[2].free();
      const hamr::buffer<double> alone = c[1];
      c.clear();
      EXPECT_EQ(alone.owner(), target);
      EXPECT_EQ(alone.mode(), hamr::stream_mode::async);
      alone.synchronize();
      EXPECT_GT(vp::ThisClock().Now(), kernelEnd) << target;
      EXPECT_EQ(alone.to_vector(), want[1]) << target;
    }
  }
  StopCheckedThreads();
}

TEST(HamrPackedCopy, ALoneOrHostPartKeepsItsOwnDeepCopy)
{
  // a device part alone on its stream and a host part are copied as
  // deep_copy copies them: one transfer each, no gather
  StartCheckedThreads();
  {
    vp::PlatformStats &stats = vp::Platform::Get().Stats();
    std::vector<hamr::buffer<double>> parts;
    std::vector<std::vector<double>> want;
    PackedSources(parts, want);
    const std::vector<double> hv = Ramp(2.0, 1.0);
    hamr::buffer<double> h(hamr::allocator::malloc_, hamr::stream(),
                           hamr::stream_mode::async, kCopyN);
    h.assign(hv.data(), kCopyN);
    stats.Reset();
    std::vector<hamr::buffer<double>> c = hamr::buffer<double>::
      packed_deep_copy({&parts[2], &h}, 3, hamr::stream_mode::async);
    EXPECT_EQ(stats.KernelsLaunched, 0u);
    EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToDevice), 1u);
    EXPECT_EQ(stats.Copies(vp::CopyKind::HostToDevice), 1u);
    ASSERT_EQ(c.size(), 2u);
    c[0].synchronize();
    EXPECT_EQ(c[0].to_vector(), want[2]);
    EXPECT_EQ(c[1].to_vector(), hv);
  }
  StopCheckedThreads();
}

TEST(HamrPackedCopy, ABlockDroppedUnreadOutlivesItsTransfer)
{
  // a packed copy whose slices all drop before anyone synchronized them
  // is not freed under its gather or its transfer, which wait behind a
  // kernel that sleeps on its worker
  StartCheckedThreads();
  {
    std::vector<hamr::buffer<double>> parts;
    std::vector<std::vector<double>> want;
    PackedSources(parts, want);
    auto ran = std::make_shared<std::atomic<bool>>(false);
    vcuda::LaunchN(vp::Platform::Get().DefaultStream(0), 1,
                   [ran](std::size_t, std::size_t)
                   {
                     std::this_thread::sleep_for(std::chrono::milliseconds(20));
                     ran->store(true);
                   },
                   {1.0, 0.0, "hamr_slow_probe", false});
    hamr::buffer<double>::packed_deep_copy(PartPointers(parts), 3,
                                           hamr::stream_mode::async);
    EXPECT_TRUE(ran->load());
    parts.front().synchronize();
  }
  StopCheckedThreads();
}

namespace
{
std::uint64_t Bits(double x)
{
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

std::vector<std::uint64_t> Bits(const std::vector<double> &v)
{
  std::vector<std::uint64_t> out;
  for (double x : v)
    out.push_back(Bits(x));
  return out;
}
} // namespace

TEST(HamrPackedCopy, GatherFoldsEachPartsRange)
{
  // five device-0 parts holding NaNs and ties of -0.0 and +0.0, the last
  // one large enough to be sharded, packed onto a peer device and onto
  // their own with their ranges: one gather kernel and one readback of
  // 16 B per part (plus the block's transfer onto the peer), and each
  // part's [min, max] equals a sequential std::min/std::max fold of it
  // bit for bit: a NaN is skipped, the first of tied zeros wins, and an
  // all-NaN part reads [+inf, -inf]. Under serial and threads exec, with
  // the checker on.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> values = {{+0.0, -0.0, nan, 1.5, -0.0},
                                             {-0.0, +0.0, nan},
                                             {nan, +0.0, -0.0, -2.5},
                                             {nan, nan},
                                             std::vector<double>(kCopyN, +0.0)};
  values[4][0] = -0.0;
  for (std::size_t i = 1000; i < kCopyN; i += 1000)
    values[4][i] = nan;
  const std::vector<std::vector<double>> want = {
    {+0.0, 1.5}, {-0.0, -0.0}, {-2.5, +0.0}, {inf, -inf}, {-0.0, -0.0}};

  for (vp::exec::Mode mode : {vp::exec::Mode::Serial, vp::exec::Mode::Threads})
  {
    StartCheckedThreads();
    vp::exec::ExecConfig ec;
    ec.ExecMode = mode;
    ec.Threads = 2;
    vp::exec::Configure(ec);
    {
      vp::PlatformStats &stats = vp::Platform::Get().Stats();
      std::vector<hamr::buffer<double>> parts;
      for (const std::vector<double> &v : values)
      {
        parts.emplace_back(hamr::allocator::device, hamr::stream(),
                           hamr::stream_mode::async, v.size());
        parts.back().assign(v.data(), v.size());
        parts.back().synchronize();
      }
      for (int target : {3, 0})
      {
        stats.Reset();
        std::vector<hamr::buffer<double>::part_range> ranges;
        const std::vector<hamr::buffer<double>> c =
          hamr::buffer<double>::packed_deep_copy(PartPointers(parts), target,
                                                 hamr::stream_mode::async,
                                                 &ranges);
        EXPECT_EQ(stats.KernelsLaunched, 1u) << target;
        EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToHost), 1u) << target;
        EXPECT_EQ(stats.Bytes(vp::CopyKind::DeviceToHost), 16u * values.size())
          << target;
        EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToDevice),
                  target == 0 ? 0u : 1u);
        ASSERT_EQ(ranges.size(), values.size());
        for (std::size_t k = 0; k < values.size(); ++k)
        {
          double mn = inf;
          double mx = -inf;
          for (double v : values[k])
          {
            mn = std::min(mn, v);
            mx = std::max(mx, v);
          }
          ASSERT_TRUE(ranges[k].min_max) << k;
          vcuda::EventSynchronize(ranges[k].ready);
          const std::vector<double> got(ranges[k].min_max.get(),
                                        ranges[k].min_max.get() + 2);
          EXPECT_EQ(Bits(got), Bits(std::vector<double>{mn, mx}))
            << "part " << k << " target " << target;
          EXPECT_EQ(Bits(got), Bits(want[k]))
            << "part " << k << " target " << target;
          c[k].synchronize();
          EXPECT_EQ(Bits(c[k].to_vector()), Bits(values[k]))
            << "part " << k << " target " << target;
        }
      }
    }
    StopCheckedThreads();
  }
}

TEST(HamrPackedCopy, RangesDroppedUnreadOutliveTheirReadback)
{
  // a packed copy's ranges and slices all dropped before anyone waited
  // for them, while a kernel that sleeps on its worker still holds up the
  // gather and the ranges' readback: the readback's host target is not
  // freed under it. 50 times, under threads exec with the checker on.
  StartCheckedThreads();
  {
    for (int rep = 0; rep < 50; ++rep)
    {
      std::vector<hamr::buffer<double>> parts;
      std::vector<std::vector<double>> want;
      PackedSources(parts, want);
      vcuda::LaunchN(vp::Platform::Get().DefaultStream(0), 1,
                     [](std::size_t, std::size_t)
                     { std::this_thread::sleep_for(std::chrono::milliseconds(1)); },
                     {1.0, 0.0, "hamr_slow_probe", false});
      std::vector<hamr::buffer<double>::part_range> ranges;
      std::vector<hamr::buffer<double>> copies =
        hamr::buffer<double>::packed_deep_copy(
          PartPointers(parts), 3, hamr::stream_mode::async, &ranges);
      ASSERT_EQ(ranges.size(), parts.size());
      ranges.clear(); // before the slices, which wait for their transfer
      copies.clear();
      parts.front().synchronize();
    }
  }
  StopCheckedThreads();
}

TEST(HamrPackedCopy, PooledStagingReturnsToThePoolStreamOrdered)
{
  // with the memory pool on, the staging block of a copy onto a peer
  // device goes back to device 0's pool on the stream its transfer ran
  // on: another stream cannot take it before that work completes
  StartCheckedThreads();
  vp::PoolConfig pc;
  pc.Enabled = true;
  vp::PoolManager::Get().Configure(pc);
  {
    std::vector<hamr::buffer<double>> parts;
    std::vector<std::vector<double>> want;
    const double kernelEnd = PackedSources(parts, want);
    std::size_t total = 0;
    for (const hamr::buffer<double> &p : parts)
      total += p.size();
    hamr::buffer<double>::packed_deep_copy(PartPointers(parts), 3,
                                           hamr::stream_mode::async);
    ASSERT_LT(vp::ThisClock().Now(), kernelEnd);
    vp::PoolManager::Get().ResetStats();
    vp::Stream other = vcuda::StreamCreate();
    void *p = vp::PoolManager::Get().Allocate(
      vp::MemSpace::Device, 0, total * sizeof(double), vp::PmKind::Cuda, other);
    EXPECT_EQ(vp::PoolManager::Get().AggregateStats().Hits, 0u);
    vp::PoolManager::Get().Deallocate(p, other);
    parts.front().synchronize();
  }
  vp::PoolManager::Get().Configure(vp::PoolConfig());
  vp::PoolManager::Get().ReleaseAll();
  StopCheckedThreads();
}
