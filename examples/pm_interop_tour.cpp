// pm_interop_tour: one array visits every supported programming model.
//
// A simulation produces data with OpenMP target offload on device 0; the
// array is then consumed — through the data model's location- and
// PM-agnostic access, with all movement automatic — by CUDA code on
// device 1, HIP code on device 2, SYCL code on device 3 (the paper's
// future-work PM), a Kokkos-style kernel, and finally plain host C++.
// Each stage transforms the data; the final values prove every stage ran
// against valid data. The platform's copy counters show each hand-off
// moved the data exactly once.
//
// Usage: ./pm_interop_tour [n]     (default 100000)

#include "cliArgs.h"
#include "svtkHAMRDataArray.h"
#include "vcuda.h"
#include "vhip.h"
#include "vkokkos.h"
#include "vomp.h"
#include "vpPlatform.h"
#include "vsycl.h"

#include <cmath>
#include <iostream>

// a malformed argument is one line and exit 2
int main(int argc, char **argv)
try
{
  const std::size_t n =
    cli::Arg<std::size_t>(argc, argv, 1, "n", 100000);

  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  vp::Platform::Initialize(cfg);

  std::cout << "touring " << n << " doubles through 5 PMs on 4 devices\n";

  // --- stage 0: OpenMP offload producer on device 0 -------------------------
  vomp::SetDefaultDevice(0);
  auto *raw = static_cast<double *>(vomp::TargetAlloc(n * sizeof(double), 0));
  std::shared_ptr<double> sp(raw, [](double *p) { vomp::TargetFree(p, 0); });
  vomp::TargetParallelFor(0, n,
                          [raw](std::size_t b, std::size_t e)
                          {
                            for (std::size_t i = b; i < e; ++i)
                              raw[i] = 1.0;
                          });

  svtkHAMRDoubleArray *data = svtkHAMRDoubleArray::New(
    "tour", sp, n, 1, svtkAllocator::openmp, svtkStream(),
    svtkStreamMode::async, 0);
  std::cout << "  [openmp ] produced on device " << data->GetOwner()
            << " (zero-copy wrap)\n";

  // --- stage 1: CUDA on device 1: +1 ------------------------------------------
  vcuda::SetDevice(1);
  svtkHAMRDoubleArray *s1 = svtkHAMRDoubleArray::New(
    "s1", n, 1, svtkAllocator::cuda_async, svtkStream(vcuda::StreamCreate()),
    svtkStreamMode::async);
  {
    auto in = data->GetCUDAAccessible();
    data->Synchronize();
    double *out = s1->GetData();
    const double *p = in.get();
    vcuda::stream_t strm = vcuda::StreamCreate();
    vcuda::LaunchN(strm, n,
                   [p, out](std::size_t b, std::size_t e)
                   {
                     for (std::size_t i = b; i < e; ++i)
                       out[i] = p[i] + 1.0;
                   });
    vcuda::StreamSynchronize(strm);
  }
  std::cout << "  [cuda   ] +1 on device " << s1->GetOwner() << "\n";

  // --- stage 2: HIP on device 2: *3 ---------------------------------------------
  vhip::SetDevice(2);
  svtkHAMRDoubleArray *s2 = svtkHAMRDoubleArray::New(
    "s2", n, 1, svtkAllocator::hip, svtkStream(), svtkStreamMode::sync);
  {
    auto in = s1->GetHIPAccessible();
    s1->Synchronize();
    double *out = s2->GetData();
    const double *p = in.get();
    vhip::stream_t strm = vhip::StreamCreate();
    vhip::LaunchN(strm, n,
                  [p, out](std::size_t b, std::size_t e)
                  {
                    for (std::size_t i = b; i < e; ++i)
                      out[i] = p[i] * 3.0;
                  });
    vhip::StreamSynchronize(strm);
  }
  std::cout << "  [hip    ] *3 on device " << s2->GetOwner() << "\n";

  // --- stage 3: SYCL on device 3: -2 ----------------------------------------------
  vsycl::queue q(3);
  vsycl::SetDefaultDevice(3);
  svtkHAMRDoubleArray *s3 = svtkHAMRDoubleArray::New(
    "s3", n, 1, svtkAllocator::sycl, svtkStream(q.native()),
    svtkStreamMode::async);
  {
    auto in = s2->GetSYCLAccessible(q);
    s2->Synchronize();
    double *out = s3->GetData();
    const double *p = in.get();
    q.parallel_for(n,
                   [p, out](std::size_t b, std::size_t e)
                   {
                     for (std::size_t i = b; i < e; ++i)
                       out[i] = p[i] - 2.0;
                   });
    q.wait();
  }
  std::cout << "  [sycl   ] -2 on device " << s3->GetOwner() << "\n";

  // --- stage 4: Kokkos-style kernel: square, back on device 0 ------------------------
  vkokkos::SetDefaultDevice(0);
  vkokkos::View<double> view("squared", n, vkokkos::Space::Device);
  {
    auto in = s3->GetDeviceAccessible(0);
    s3->Synchronize();
    const double *p = in.get();
    double *out = view.data();
    vkokkos::parallel_for(vkokkos::RangePolicy(0, n),
                          [p, out](std::size_t i) { out[i] = p[i] * p[i]; });
    vkokkos::fence();
  }
  svtkHAMRDoubleArray *s4 = svtkHAMRDoubleArray::New(
    "s4", view.pointer(), n, 1, svtkAllocator::cuda, svtkStream(),
    svtkStreamMode::sync, 0);
  std::cout << "  [kokkos ] squared on device " << s4->GetOwner()
            << " (zero-copy adoption of the view)\n";

  // --- stage 5: host C++ verifies -----------------------------------------------------
  auto final = s4->GetHostAccessible();
  s4->Synchronize();
  // ((1 + 1) * 3 - 2)^2 = 16
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i)
    ok = ok && std::abs(final.get()[i] - 16.0) < 1e-12;
  std::cout << "  [host   ] verified: " << (ok ? "all 16.0 — correct" : "WRONG")
            << "\n";

  const vp::PlatformStats &stats = vp::Platform::Get().Stats();
  std::cout << "data movement: D2D="
            << stats.Copies(vp::CopyKind::DeviceToDevice)
            << " D2H=" << stats.Copies(vp::CopyKind::DeviceToHost)
            << " H2D=" << stats.Copies(vp::CopyKind::HostToDevice)
            << "  (4 inter-device hand-offs, 1 host view)\n";

  s4->Delete();
  s3->Delete();
  s2->Delete();
  s1->Delete();
  data->Delete();
  return ok ? 0 : 1;
}
catch (const cli::BadArgument &e)
{
  std::cerr << "pm_interop_tour: " << e.what() << "\n";
  return 2;
}
