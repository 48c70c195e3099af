// Ablation: what the execution-model extensions buy — synchronous vs
// asynchronous (stream-ordered) operation, overlap of allocation, data
// movement and computation on independent streams/devices, and the cost
// of the lockstep vs asynchronous in situ execution methods at the
// sched::BoundedPipeline level. Virtual time (UseManualTime).

#include "schedPipeline.h"
#include "vcuda.h"
#include "vpPlatform.h"

#include <benchmark/benchmark.h>

namespace
{
void Reset()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
}

double Elapsed(double t0)
{
  return vp::ThisClock().Now() - t0;
}

constexpr std::size_t N = 1 << 20;
constexpr double Ops = 50.0;
} // namespace

// sequential kernels on one device: the synchronous baseline
static void BM_TwoKernels_OneDevice_Sync(benchmark::State &state)
{
  Reset();
  vcuda::stream_t s = vcuda::StreamCreate();
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    vcuda::LaunchN(s, N, nullptr, vcuda::LaunchBounds{Ops, 0, "a"});
    vcuda::StreamSynchronize(s);
    vcuda::LaunchN(s, N, nullptr, vcuda::LaunchBounds{Ops, 0, "b"});
    vcuda::StreamSynchronize(s);
    state.SetIterationTime(Elapsed(t0));
  }
  state.SetLabel("baseline: serialized");
}
BENCHMARK(BM_TwoKernels_OneDevice_Sync)->UseManualTime();

// two async streams on one device still share the engine: no speedup
static void BM_TwoKernels_OneDevice_TwoStreams(benchmark::State &state)
{
  Reset();
  vcuda::stream_t s1 = vcuda::StreamCreate();
  vcuda::stream_t s2 = vcuda::StreamCreate();
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    vcuda::LaunchN(s1, N, nullptr, vcuda::LaunchBounds{Ops, 0, "a"});
    vcuda::LaunchN(s2, N, nullptr, vcuda::LaunchBounds{Ops, 0, "b"});
    vcuda::StreamSynchronize(s1);
    vcuda::StreamSynchronize(s2);
    state.SetIterationTime(Elapsed(t0));
  }
  state.SetLabel("same engine: ~no overlap");
}
BENCHMARK(BM_TwoKernels_OneDevice_TwoStreams)->UseManualTime();

// two devices genuinely overlap: ~2x
static void BM_TwoKernels_TwoDevices(benchmark::State &state)
{
  Reset();
  vcuda::SetDevice(0);
  vcuda::stream_t s1 = vcuda::StreamCreate();
  vcuda::SetDevice(1);
  vcuda::stream_t s2 = vcuda::StreamCreate();
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    vcuda::LaunchN(s1, N, nullptr, vcuda::LaunchBounds{Ops, 0, "a"});
    vcuda::LaunchN(s2, N, nullptr, vcuda::LaunchBounds{Ops, 0, "b"});
    vcuda::StreamSynchronize(s1);
    vcuda::StreamSynchronize(s2);
    state.SetIterationTime(Elapsed(t0));
  }
  state.SetLabel("independent engines: ~2x overlap");
}
BENCHMARK(BM_TwoKernels_TwoDevices)->UseManualTime();

// copy/compute overlap on one device: the copy engine is independent
static void BM_CopyComputeOverlap(benchmark::State &state)
{
  Reset();
  vcuda::SetDevice(0);
  vcuda::stream_t sk = vcuda::StreamCreate();
  vcuda::stream_t sc = vcuda::StreamCreate();
  auto *dev = static_cast<double *>(vcuda::Malloc(N * sizeof(double)));
  std::vector<double> host(N, 1.0);
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    vcuda::LaunchN(sk, N, nullptr, vcuda::LaunchBounds{Ops, 0, "compute"});
    vcuda::MemcpyAsync(dev, host.data(), N * sizeof(double), sc);
    vcuda::StreamSynchronize(sk);
    vcuda::StreamSynchronize(sc);
    state.SetIterationTime(Elapsed(t0));
  }
  vcuda::Free(dev);
  state.SetLabel("DMA overlaps compute");
}
BENCHMARK(BM_CopyComputeOverlap)->UseManualTime();

// stream-ordered vs synchronous allocation
static void BM_Allocation_Sync(benchmark::State &state)
{
  Reset();
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    void *p = vcuda::Malloc(1 << 16);
    vcuda::Free(p);
    state.SetIterationTime(Elapsed(t0));
  }
}
BENCHMARK(BM_Allocation_Sync)->UseManualTime();

static void BM_Allocation_StreamOrdered(benchmark::State &state)
{
  Reset();
  vcuda::stream_t s = vcuda::StreamCreate();
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    void *p = vcuda::MallocAsync(1 << 16, s);
    vcuda::FreeAsync(p, s);
    state.SetIterationTime(Elapsed(t0));
  }
}
BENCHMARK(BM_Allocation_StreamOrdered)->UseManualTime();

// the two in situ execution methods at the runner level: a task of fixed
// device work submitted lockstep (inline) vs asynchronously
static void BM_ExecutionMethod_Lockstep(benchmark::State &state)
{
  Reset();
  vcuda::stream_t s = vcuda::StreamCreate();
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    vcuda::LaunchN(s, N, nullptr, vcuda::LaunchBounds{Ops, 0, "analysis"});
    vcuda::StreamSynchronize(s);
    state.SetIterationTime(Elapsed(t0));
  }
  state.SetLabel("simulation waits for the analysis");
}
BENCHMARK(BM_ExecutionMethod_Lockstep)->UseManualTime();

static void BM_ExecutionMethod_Asynchronous(benchmark::State &state)
{
  Reset();
  sched::BoundedPipeline runner;
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    runner.Submit(
      []()
      {
        vcuda::stream_t s = vcuda::StreamCreate();
        vcuda::LaunchN(s, N, nullptr,
                       vcuda::LaunchBounds{Ops, 0, "analysis"});
        vcuda::StreamSynchronize(s);
      });
    // the submitting thread's apparent cost: spawn + backpressure only
    state.SetIterationTime(Elapsed(t0));
    // meanwhile the "solver" runs long enough that the next submission
    // sees no backpressure (the paper's regime: analysis < solver step)
    vp::ThisClock().Advance(0.01);
  }
  runner.Drain();
  state.SetLabel("apparent cost to the simulation");
}
BENCHMARK(BM_ExecutionMethod_Asynchronous)->UseManualTime();

BENCHMARK_MAIN();
