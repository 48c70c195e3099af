// Microbenchmark for the SIMD force switch (src/layout): the SoA +
// SIMD nbody force path vs the seed's scalar loop, on REAL
// wall-clock, since vectorization changes host work, not virtual-time
// accounting. Writes BENCH_layout.json into the working directory
// (scripts/run_campaign.sh collects it under results/).
//
// Exit-code gates:
//   - the SoA-vectorized force kernel must beat the seed's scalar loop
//     by >= 1.5x wall clock (enforced only with >= 4 hardware threads —
//     auto-vectorization gains are swamped by timer noise on small
//     boxes; recorded and skipped there; exit 3).
//   - a direct binning pipeline must produce bit-exact grids across
//     serial x threads execution (always enforced; exit 4).
//   - under VP_CHECK=1 any checker violation exits 2.

#include "execEngine.h"
#include "layoutMapping.h"
#include "newtonSolver.h"
#include "senseiDataAdaptor.h"
#include "senseiDataBinning.h"
#include "senseiProfiler.h"
#include "svtkAOSDataArray.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace
{

void Reset()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vomp::SetDefaultDevice(0);
  vp::check::Reset();
  vp::ThisClock().Set(0.0);
}

double Now()
{
  return std::chrono::duration<double>(
           std::chrono::steady_clock::now().time_since_epoch())
    .count();
}

// ---- nbody force: the scalar loop vs the SIMD lane loop ---------------------

newton::Config ForceConfig(std::size_t bodies)
{
  newton::Config c;
  c.TotalBodies = bodies;
  c.Seed = 42;
  c.Repartition = false;
  return c;
}

/// Wall seconds for `steps` solver steps with the lane-vectorized force
/// kernel on or off. The virtual platform runs kernel bodies on the
/// host for real, so this times the actual loops.
double TimeForce(bool simd, std::size_t bodies, int steps)
{
  Reset();
  vp::exec::Configure(vp::exec::ExecConfig());
  vp::layout::LayoutConfig lc;
  lc.Simd = simd;
  vp::layout::Configure(lc);

  newton::Solver solver(nullptr, ForceConfig(bodies));
  solver.Initialize();
  for (int s = 0; s < 2; ++s)
    solver.Step(); // warm: early steps pay allocation and placement

  const double t0 = Now();
  for (int s = 0; s < steps; ++s)
    solver.Step();
  const double wall = Now() - t0;

  vp::layout::Configure(vp::layout::LayoutConfig());
  return wall;
}

// ---- the bit-exactness matrix ----------------------------------------------

svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> xs(n), ys(n), vs(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    xs[i] = u(gen);
    ys[i] = u(gen);
    // integer valued: sums stay exact under any accumulation order
    vs[i] = std::floor(8.0 * (xs[i] + 2.0 * ys[i]));
  }
  svtkTable *t = svtkTable::New();
  auto add = [t](const char *name, const std::vector<double> &v)
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, v.size(), 1);
    c->GetVector() = v;
    t->AddColumn(c);
    c->Delete();
  };
  add("x", xs);
  add("y", ys);
  add("v", vs);
  return t;
}

std::vector<double> GridValues(svtkImageData *img, const char *name)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  std::vector<double> out(a ? a->GetNumberOfTuples() : 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->GetVariantValue(i, 0);
  return out;
}

/// Four direct binning steps on device 0 under the given execution
/// mode; returns every grid.
std::vector<std::vector<double>> RunBinning(bool threads)
{
  Reset();
  vp::exec::ExecConfig ec;
  ec.ExecMode = threads ? vp::exec::Mode::Threads : vp::exec::Mode::Serial;
  ec.Threads = threads ? 2 : 0;
  vp::exec::Configure(ec);

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  sensei::DataBinning *b = sensei::DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({32});
  b->SetRange(0, -1.0, 1.0);
  b->SetRange(1, -1.0, 1.0);
  b->AddOperation("v", sensei::BinningOp::Sum);
  b->AddOperation("v", sensei::BinningOp::Min);
  b->AddOperation("v", sensei::BinningOp::Max);
  b->SetDeviceId(0);

  std::vector<std::vector<double>> out;
  for (int s = 0; s < 4; ++s)
  {
    svtkTable *t = MakeTable(5000, 90u + static_cast<unsigned>(s));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    b->Execute(da);
    svtkImageData *img = b->GetLastResult();
    if (img)
    {
      out.push_back(GridValues(img, "count"));
      out.push_back(GridValues(img, "v_sum"));
      out.push_back(GridValues(img, "v_min"));
      out.push_back(GridValues(img, "v_max"));
      img->UnRegister();
    }
  }
  b->Finalize();
  b->Delete();
  da->ReleaseData();
  da->Delete();
  vp::exec::Configure(vp::exec::ExecConfig());
  return out;
}

const char *GateName(bool ok) { return ok ? "passed" : "FAILED"; }

void WriteJson(unsigned hw, double scalarWall, double simdWall,
               double forceRatio, bool gatesEnforced, bool forceOk,
               bool exact, const char *path)
{
  const vp::layout::LayoutStats s = vp::layout::Stats();
  std::ofstream os(path);
  os.precision(12);
  os << "{\n"
     << "  \"bench\": \"um_layout\",\n"
     << "  \"hardware_threads\": " << hw << ",\n"
     << "  \"nbody_force\": {\n"
     << "    \"scalar_aos_wall_seconds\": " << scalarWall << ",\n"
     << "    \"simd_soa_wall_seconds\": " << simdWall << ",\n"
     << "    \"speedup\": " << forceRatio << "\n  },\n"
     << "  \"layout_stats\": {\n"
     << "    \"simd_kernels\": " << s.SimdKernels << ",\n"
     << "    \"scalar_kernels\": " << s.ScalarKernels << "\n  },\n"
     << "  \"gates\": {\n"
     << "    \"force_speedup_1p5x\": \""
     << (gatesEnforced ? GateName(forceOk) : "skipped (insufficient cores)")
     << "\",\n"
     << "    \"matrix_bit_exact\": \"" << GateName(exact) << "\"\n  },\n"
     << "  \"profiler\": " << sensei::Profiler::Global().ToJson() << "\n"
     << "}\n";
}

} // namespace

// One solver step per iteration, scalar AoS vs SoA + SIMD lanes.
static void BM_NbodyForce(benchmark::State &state)
{
  const bool simd = state.range(0) != 0;
  Reset();
  vp::layout::LayoutConfig lc;
  lc.Simd = simd;
  vp::layout::Configure(lc);
  newton::Solver solver(nullptr, ForceConfig(1024));
  solver.Initialize();
  for (auto _ : state)
    solver.Step();
  state.SetLabel(simd ? "soa+simd lanes" : "scalar aos (seed)");
  vp::layout::Configure(vp::layout::LayoutConfig());
}
BENCHMARK(BM_NbodyForce)->Arg(0)->Arg(1)->UseRealTime();

int main(int argc, char **argv)
{
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  sensei::Profiler::Global().Clear();
  vp::layout::ResetStats();

  // the bit-exactness matrix first: threads execution must reproduce
  // the serial grids exactly
  const std::vector<std::vector<double>> baseline = RunBinning(false);
  bool exact = !baseline.empty();
  if (RunBinning(true) != baseline)
  {
    std::fprintf(stderr, "um_layout: binning diverged under threads\n");
    exact = false;
  }

  // wall-clock probes: best of 3 trials each to shed scheduler noise
  const std::size_t bodies = 1024;
  const int steps = 10;
  double scalarWall = 1e30, simdWall = 1e30;
  for (int t = 0; t < 3; ++t)
  {
    scalarWall = std::min(scalarWall, TimeForce(false, bodies, steps));
    simdWall = std::min(simdWall, TimeForce(true, bodies, steps));
  }

  const double forceRatio = simdWall > 0.0 ? scalarWall / simdWall : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();
  const bool gatesEnforced = hw >= 4;
  const bool forceOk = forceRatio >= 1.5;

  sensei::ExportLayoutStats(sensei::Profiler::Global());
  sensei::ExportExecStats(sensei::Profiler::Global());

  // under VP_CHECK the matrix runs double as a race/lifetime gate
  if (vp::check::Enabled())
  {
    const vp::check::Report report = vp::check::Finalize();
    sensei::ExportCheckReport(sensei::Profiler::Global(), report);
    if (report.Total())
    {
      std::fprintf(stderr, "um_layout: VP_CHECK failed\n%s",
                   report.Summary().c_str());
      return 2;
    }
    std::printf("VP_CHECK: 0 violations across the layout matrix\n");
  }

  WriteJson(hw, scalarWall, simdWall, forceRatio, gatesEnforced, forceOk,
            exact, "BENCH_layout.json");

  std::printf("nbody force:   scalar aos %.3f s, soa+simd %.3f s "
              "(%.2fx)\n",
              scalarWall, simdWall, forceRatio);

  if (!exact)
  {
    std::fprintf(stderr, "um_layout: the exec matrix diverged from the "
                         "serial grids\n");
    return 4;
  }
  std::printf("binning grids bit-exact across serial x threads\n");

  if (!gatesEnforced)
  {
    std::printf("speedup gates skipped (insufficient cores: %u hardware "
                "threads)\n",
                hw);
    return 0;
  }
  if (!forceOk)
  {
    std::fprintf(stderr,
                 "um_layout: soa+simd force speedup %.2fx below the 1.5x "
                 "gate\n",
                 forceRatio);
    return 3;
  }
  std::printf("BENCH_layout.json: force %.2fx (gate 1.5x)\n", forceRatio);
  return 0;
}
