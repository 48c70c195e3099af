// Microbenchmark: in transit vs in situ cost structure. What the sender
// pays per step (serialize + ship) against what the same analysis costs
// in situ, as a function of rows per rank — the trade the paper's related
// work (refs [4, 8, 13, 14]) studies. Virtual time (UseManualTime).

#include "minimpi.h"
#include "senseiDataBinning.h"
#include "senseiInTransit.h"
#include "senseiSerialization.h"
#include "svtkAOSDataArray.h"
#include "vpPlatform.h"

#include <benchmark/benchmark.h>

#include <random>

namespace
{
void Reset()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 64;
  vp::Platform::Initialize(cfg);
}

svtkTable *MakeTable(std::size_t n)
{
  std::mt19937_64 gen(9);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  svtkTable *t = svtkTable::New();
  for (const char *name : {"x", "y", "m"})
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, n, 1);
    for (std::size_t i = 0; i < n; ++i)
      c->SetVariantValue(i, 0, u(gen));
    t->AddColumn(c);
    c->Delete();
  }
  return t;
}
} // namespace

static void BM_SerializePlainTable(benchmark::State &state)
{
  Reset();
  svtkTable *t = MakeTable(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    auto bytes = sensei::SerializeTableCompressed(t, {cmp::CodecId::None});
    benchmark::DoNotOptimize(bytes);
    vp::ThisClock().Advance(
      static_cast<double>(bytes.size()) /
      vp::Platform::Get().Config().Cost.H2HBandwidth);
    state.SetIterationTime(vp::ThisClock().Now() - t0);
  }
  t->Delete();
  state.SetLabel("3 columns -> bytes, codec none");
}
BENCHMARK(BM_SerializePlainTable)->Arg(1 << 12)->Arg(1 << 16)->UseManualTime();

static void BM_InTransit_SenderVisibleCost(benchmark::State &state)
{
  Reset();
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
  {
    double visible = 0.0;
    minimpi::Run(2,
                 [rows, &visible](minimpi::Communicator &world)
                 {
                   const sensei::InTransitLayout layout(2, 1);
                   if (!layout.IsEndpoint(world.Rank()))
                   {
                     sensei::TableAdaptor *da =
                       sensei::TableAdaptor::New("bodies");
                     svtkTable *t = MakeTable(rows);
                     da->SetTable(t);
                     t->Delete();

                     sensei::InTransitSender sender(&world, layout, "bodies");
                     const double t0 = vp::ThisClock().Now();
                     sender.Send(da);
                     visible = vp::ThisClock().Now() - t0;
                     sender.Close();
                     da->ReleaseData();
                     da->Delete();
                     return;
                   }
                   // endpoint: drain the frames so sends stay matched
                   while (true)
                   {
                     auto f = world.RecvChunked(0, 7000);
                     if (f.empty() || f[0] == 1)
                       break;
                   }
                 });
    state.SetIterationTime(visible);
  }
  state.SetLabel("what the simulation waits for per step");
}
BENCHMARK(BM_InTransit_SenderVisibleCost)
  ->Arg(1 << 12)
  ->Arg(1 << 16)
  ->UseManualTime()
  ->Iterations(5);

static void BM_InSitu_LockstepCostForComparison(benchmark::State &state)
{
  Reset();
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  svtkTable *t = MakeTable(rows);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  da->SetTable(t);
  t->Delete();

  sensei::DataBinning *b = sensei::DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({128});
  b->AddOperation("m", sensei::BinningOp::Sum);
  b->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);

  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    b->Execute(da);
    state.SetIterationTime(vp::ThisClock().Now() - t0);
  }

  b->Delete();
  da->ReleaseData();
  da->Delete();
  state.SetLabel("the analysis run in situ, lockstep");
}
BENCHMARK(BM_InSitu_LockstepCostForComparison)
  ->Arg(1 << 12)
  ->Arg(1 << 16)
  ->UseManualTime();

BENCHMARK_MAIN();
