// Microbenchmark: minimpi collective costs in virtual time as a function
// of rank count and payload — the cross-rank reduction of binning grids
// is a first-order term in the in situ cost at scale (90 grids per step
// are reduced in the paper's campaign). BM_CompactVsDense prices one
// binning record (128^2 bins x 11 grids) through the sparse allreduce at
// 1/10/50/100% per-rank capacity against the dense Allreduce.

#include "minimpi.h"
#include "vpPlatform.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

namespace
{
void Reset()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  vp::Platform::Initialize(cfg);
}
} // namespace

static void BM_Allreduce(benchmark::State &state)
{
  Reset();
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));

  for (auto _ : state)
  {
    double virtualSeconds = 0.0;
    minimpi::Run(ranks,
                 [n, &virtualSeconds](minimpi::Communicator &comm)
                 {
                   std::vector<double> grid(n, 1.0);
                   const double t0 = vp::ThisClock().Now();
                   comm.Allreduce(grid.data(), n, minimpi::Op::Sum);
                   if (comm.Rank() == 0)
                     virtualSeconds = vp::ThisClock().Now() - t0;
                 });
    state.SetIterationTime(virtualSeconds);
  }
  state.SetLabel(std::to_string(ranks) + " ranks, " +
                 std::to_string(n * sizeof(double)) + " B");
}
BENCHMARK(BM_Allreduce)
  ->Args({2, 1 << 14})
  ->Args({4, 1 << 14})
  ->Args({8, 1 << 14})
  ->Args({16, 1 << 14})
  ->Args({8, 1 << 10})
  ->Args({8, 1 << 16})
  ->UseManualTime()
  ->Iterations(10);

static void BM_CompactVsDense(benchmark::State &state)
{
  Reset();
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t percent = static_cast<std::size_t>(state.range(1));
  const bool compact = state.range(2) != 0;
  const minimpi::CompactShape shape{
    128 * 128, std::vector<minimpi::Op>(11, minimpi::Op::Sum)};
  const std::size_t cap = shape.Bins * percent / 100;

  for (auto _ : state)
  {
    double virtualSeconds = 0.0;
    minimpi::Run(
      ranks,
      [&](minimpi::Communicator &comm)
      {
        // every rank occupies `cap` bins of its record
        std::vector<double> rec(shape.Grids() * shape.Bins, 0.0);
        for (std::size_t g = 0; g < shape.Grids(); ++g)
          std::fill_n(rec.begin() + static_cast<long>(g * shape.Bins), cap,
                      1.0);
        std::vector<double> buf(shape.Bytes(cap) / sizeof(double));
        if (compact)
          minimpi::PackCompact(shape, rec.data(), cap, buf.data());
        const double t0 = vp::ThisClock().Now();
        if (compact)
          comm.AllreduceCompact(
            {minimpi::CompactRecord{&shape, buf.data(), cap}},
            [&](std::size_t, const void *reduced, std::size_t held)
            { minimpi::UnpackCompact(shape, reduced, held, rec.data()); });
        else
          comm.Allreduce(rec.data(), rec.size(), minimpi::Op::Sum);
        if (comm.Rank() == 0)
          virtualSeconds = vp::ThisClock().Now() - t0;
      });
    state.SetIterationTime(virtualSeconds);
  }
  state.SetLabel(std::string(compact ? "compact" : "dense") + ", " +
                 std::to_string(ranks) + " ranks, capacity " +
                 std::to_string(percent) + "%");
}
BENCHMARK(BM_CompactVsDense)
  ->ArgsProduct({{2, 4, 8, 16}, {1, 10, 50, 100}, {0, 1}})
  ->UseManualTime()
  ->Iterations(10);

static void BM_Barrier(benchmark::State &state)
{
  Reset();
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state)
  {
    double virtualSeconds = 0.0;
    minimpi::Run(ranks,
                 [&virtualSeconds](minimpi::Communicator &comm)
                 {
                   const double t0 = vp::ThisClock().Now();
                   comm.Barrier();
                   if (comm.Rank() == 0)
                     virtualSeconds = vp::ThisClock().Now() - t0;
                 });
    state.SetIterationTime(virtualSeconds);
  }
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(8)->Arg(32)->UseManualTime()->Iterations(10);

static void BM_RingExchange(benchmark::State &state)
{
  // the solver's force-pass communication pattern
  Reset();
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));

  for (auto _ : state)
  {
    double virtualSeconds = 0.0;
    minimpi::Run(ranks,
                 [n, &virtualSeconds](minimpi::Communicator &comm)
                 {
                   const int next = (comm.Rank() + 1) % comm.Size();
                   const int prev =
                     (comm.Rank() + comm.Size() - 1) % comm.Size();
                   std::vector<double> block(n, 1.0);
                   const double t0 = vp::ThisClock().Now();
                   for (int s = 1; s < comm.Size(); ++s)
                   {
                     comm.SendVec(next, s, block);
                     block = comm.RecvAs<double>(prev, s);
                   }
                   if (comm.Rank() == 0)
                     virtualSeconds = vp::ThisClock().Now() - t0;
                 });
    state.SetIterationTime(virtualSeconds);
  }
  state.SetLabel(std::to_string(ranks) + "-stage ring");
}
BENCHMARK(BM_RingExchange)
  ->Args({4, 1 << 12})
  ->Args({8, 1 << 12})
  ->UseManualTime()
  ->Iterations(10);

BENCHMARK_MAIN();
