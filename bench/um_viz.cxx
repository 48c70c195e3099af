// Benchmark for the steerable visualization endpoint (src/viz): a
// render analysis bins a moving particle set, shades the grid through
// the transfer function, and streams the framebuffers to concurrent
// viewer sessions over the service transport. Like um_service this
// bench measures *real* seconds — the streamer's fan-out, the ring
// transport, and the viewers are real threads doing real concurrency.
//
// Beyond the google-benchmark output, main() runs three experiments
// and writes BENCH_viz.json into the working directory
// (scripts/run_campaign.sh collects it under results/):
//
//   streaming  4 viewers (one deliberately comatose) receive every
//              rendered step under drop-oldest backpressure; gates:
//              the slow viewer forced drops (PushDrops > 0), the
//              responsive viewers' p99 frame age stays bounded, and
//              no publish ever stalled the simulation step loop.
//   steering   a viewer swaps bin resolution + rendered variable
//              mid-run with a Steer frame; gates: applied within
//              <= 2 step boundaries, the viewer session survives,
//              and every step keeps executing.
//   bitexact   the same 3-step campaign rendered under serial and
//              threads execution; gate: both framebuffer sequences
//              are byte-identical.
//
// Exit codes: 2 when VP_CHECK found violations, 3 when a gate failed.
// The timing gate (p99 frame age / stall bound) is enforced only when
// the machine has >= 4 hardware threads; the steering and bitexact
// gates are deterministic and always enforced.

#include "cmpCodec.h"
#include "execEngine.h"
#include "senseiDataAdaptor.h"
#include "senseiProfiler.h"
#include "svcClient.h"
#include "svcSession.h"
#include "svtkAOSDataArray.h"
#include "vizConfig.h"
#include "vizRender.h"
#include "vizStreamer.h"
#include "vizWire.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"
#include "vpPlatform.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace
{

constexpr int kViewers = 4;
constexpr int kStreamSteps = 60;
constexpr std::size_t kBodies = 20000;
constexpr std::uint32_t kFbSize = 64; // framebuffer edge, pixels
constexpr long kBinRes = 32;

void Reset()
{
  vp::PlatformConfig pcfg;
  pcfg.DevicesPerNode = 4;
  pcfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(pcfg);
  vp::check::Reset();
  vp::fault::Reset();

  svc::ServiceConfig cfg;
  cfg.HeartbeatMs = 25;
  cfg.PushDepth = 2; // drop-oldest kicks in after two buffered frames
  svc::Configure(cfg);
  svc::ResetStats();
  viz::Configure(viz::VizConfig{});
  viz::ResetStats();
  vp::exec::Configure(vp::exec::ExecConfig());
}

double Now()
{
  return std::chrono::duration<double>(
           std::chrono::steady_clock::now().time_since_epoch())
    .count();
}

/// p-th percentile of `v` (the service bench's convention).
double Percentile(std::vector<double> v, double p)
{
  if (v.empty())
    return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
    v.size() - 1,
    static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5));
  return v[i];
}

/// Rows with integer-valued v so per-bin sums are exact in any
/// accumulation order — framebuffer equality between execution modes
/// can be asserted bitwise.
svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);

  std::vector<double> xs(n), ys(n), vs(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    xs[i] = u(gen);
    ys[i] = u(gen);
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

viz::RenderAnalysis *MakeRender(long binRes, std::uint32_t w,
                                std::uint32_t h)
{
  viz::RenderAnalysis *r = viz::RenderAnalysis::New();
  r->SetMeshName("bodies");
  r->SetAxes({"x", "y"});
  r->SetBinResolution(binRes);
  r->SetBinRange(0, -1.0, 1.0);
  r->SetBinRange(1, -1.0, 1.0);
  r->SetVariable("v", "sum");
  r->SetImageSize(w, h);
  viz::TransferFunction tf;
  tf.Map = viz::Colormap::Viridis;
  tf.AutoRange = true;
  r->SetTransfer(tf);
  return r;
}

/// Wait (bounded real time) for `pred` to become true.
template <typename Pred>
bool Eventually(Pred pred, double seconds = 10.0)
{
  const double deadline = Now() + seconds;
  while (Now() < deadline)
  {
    if (pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// --- streaming: fan-out under a comatose viewer -----------------------------

struct StreamResult
{
  int Viewers = 0;
  double WallSeconds = 0.0;
  double MaxStepSeconds = 0.0;     ///< slowest render+publish step
  double P99FrameAgeSeconds = 0.0; ///< viewer-observed, responsive viewers
  std::uint64_t FramesDelivered = 0;
  std::uint64_t PushDrops = 0;
  std::uint64_t FramesPublished = 0;
};

/// `viewers` concurrent viewer sessions receive kStreamSteps rendered
/// frames; the viewer at `slowIndex` never polls, forcing drop-oldest
/// on its outbox while the others' frame age stays bounded.
StreamResult StreamViewers(int viewers, int slowIndex)
{
  Reset();
  viz::Streamer st;
  st.Start();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::vector<double>> ages(
    static_cast<std::size_t>(viewers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(viewers));
  for (int c = 0; c < viewers; ++c)
    threads.emplace_back(
      [c, slowIndex, &st, &done, &delivered, &ages]
      {
        svc::Client viewer(st.Connect(), "viz:bench");
        if (!viewer.Connect(cmp::Params{}, false))
          return;
        viewer.StartHeartbeats();
        if (c == slowIndex)
        {
          // comatose: admitted and heartbeating, but never draining —
          // the server's drop-oldest outbox absorbs every frame
          while (!done.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          viewer.Close();
          return;
        }
        svc::Frame f;
        while (true)
        {
          if (!viewer.Poll(f, 0.01))
          {
            if (done.load())
              break;
            continue;
          }
          const double now = Now();
          std::size_t off = 0;
          const viz::FrameInfo fi =
            viz::DecodeFrameInfo(f.Payload.data(), f.Payload.size(), off);
          ages[static_cast<std::size_t>(c)].push_back(now - fi.RenderTime);
          delivered.fetch_add(1);
        }
        viewer.Close();
      });

  if (!Eventually([&] { return st.ActiveViewers() == viewers; }))
    std::fprintf(stderr, "um_viz: only %d of %d viewers admitted\n",
                 st.ActiveViewers(), viewers);

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  viz::RenderAnalysis *r = MakeRender(kBinRes, kFbSize, kFbSize);
  r->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
  r->SetStreamer(&st);

  const double t0 = Now();
  double maxStep = 0.0;
  for (int s = 0; s < kStreamSteps; ++s)
  {
    svtkTable *t = MakeTable(kBodies, 1000u + static_cast<unsigned>(s));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    const double stepBegin = Now();
    r->Execute(da);
    maxStep = std::max(maxStep, Now() - stepBegin);
  }
  const double wall = Now() - t0;

  // let the responsive viewers drain their last buffered frames
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  done.store(true);
  for (std::thread &t : threads)
    t.join();

  r->Finalize();
  r->Delete();
  da->ReleaseData();
  da->Delete();
  st.Stop();

  std::vector<double> all;
  for (const auto &a : ages)
    all.insert(all.end(), a.begin(), a.end());

  StreamResult res;
  res.Viewers = viewers;
  res.WallSeconds = wall;
  res.MaxStepSeconds = maxStep;
  res.P99FrameAgeSeconds = Percentile(all, 0.99);
  res.FramesDelivered = delivered.load();
  res.PushDrops = svc::Stats().PushDrops;
  res.FramesPublished = viz::Stats().FramesPublished;
  return res;
}

// --- steering: resolution + variable swap mid-run ---------------------------

struct SteerResult
{
  int StepsToApply = -1; ///< step boundaries until the swap landed
  bool ViewerAlive = false;
  bool AllStepsExecuted = true;
  bool ViewerSawSwap = false; ///< a frame with the new shape arrived
};

SteerResult SteerRun()
{
  Reset();
  viz::Streamer st;
  st.Start();

  svc::Client viewer(st.Connect(), "viz:pilot");
  if (!viewer.Connect(cmp::Params{}, false))
    return SteerResult{};
  viewer.StartHeartbeats();
  Eventually([&] { return st.ActiveViewers() == 1; });

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  viz::RenderAnalysis *r = MakeRender(kBinRes, kFbSize, kFbSize);
  r->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
  r->SetStreamer(&st);

  SteerResult res;
  auto step = [&](int s)
  {
    svtkTable *t = MakeTable(kBodies, 2000u + static_cast<unsigned>(s));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    if (!r->Execute(da))
      res.AllStepsExecuted = false;
  };

  for (int s = 0; s < 3; ++s)
    step(s);

  // the swap: coarser binning and the histogram instead of the sum
  viz::SteerCommand c;
  c.Version = 1;
  c.Have = viz::kSteerBinRes | viz::kSteerVariable;
  c.BinResolution = kBinRes / 2;
  c.Variable = ""; // count
  const std::vector<std::uint8_t> buf = viz::EncodeSteer(c);
  viewer.SendSteer(buf.data(), buf.size(), c.Version);
  Eventually([&] { return svc::Stats().Steers >= 1; });

  for (int s = 3; s < 8 && res.StepsToApply < 0; ++s)
  {
    step(s);
    if (r->GetParamVersion() == 1)
      res.StepsToApply = s - 2; // boundaries since the command was sent
  }

  // the viewer must see the steered shape without losing its session
  Eventually(
    [&]
    {
      svc::Frame f;
      while (viewer.Poll(f, 0.01))
      {
        std::size_t off = 0;
        const viz::FrameInfo fi =
          viz::DecodeFrameInfo(f.Payload.data(), f.Payload.size(), off);
        if (fi.Version == 1 && fi.Variable == "count")
          res.ViewerSawSwap = true;
      }
      if (!res.ViewerSawSwap)
        step(99);
      return res.ViewerSawSwap;
    });
  res.ViewerAlive = st.ActiveViewers() == 1;

  r->Finalize();
  r->Delete();
  da->ReleaseData();
  da->Delete();
  viewer.Close();
  st.Stop();
  return res;
}

// --- bitexact: serial x threads ----------------------------------------------

/// Drive a fresh render analysis for 3 steps under the given execution
/// mode and return each step's framebuffer.
std::vector<std::vector<std::uint8_t>> RenderSteps(bool threadsOn)
{
  Reset();
  if (threadsOn)
  {
    vp::exec::ExecConfig ecfg;
    ecfg.ExecMode = vp::exec::Mode::Threads;
    ecfg.Threads = 3;
    ecfg.ShardGrain = 256;
    vp::exec::Configure(ecfg);
  }

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  viz::RenderAnalysis *r = MakeRender(kBinRes, kFbSize, kFbSize);
  r->SetDeviceId(0); // the device path: upload, fill, readback

  std::vector<std::vector<std::uint8_t>> out;
  for (int s = 0; s < 3; ++s)
  {
    svtkTable *t = MakeTable(4000, 3000u + static_cast<unsigned>(s));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    r->Execute(da);
    out.push_back(r->GetFramebuffer());
  }
  r->Finalize();
  r->Delete();
  da->ReleaseData();
  da->Delete();
  return out;
}

bool BitExactRun()
{
  const auto serial = RenderSteps(false);
  return RenderSteps(true) == serial;
}

void WriteJson(unsigned hw, bool timingGates, const StreamResult &stream,
               const SteerResult &steer, bool bitexact,
               const std::string &path)
{
  const bool streamPass = stream.PushDrops > 0 &&
                          stream.P99FrameAgeSeconds < 0.5 &&
                          stream.MaxStepSeconds < 1.0;
  const bool steerPass = steer.StepsToApply >= 1 && steer.StepsToApply <= 2 &&
                         steer.ViewerAlive && steer.AllStepsExecuted &&
                         steer.ViewerSawSwap;
  std::ofstream os(path);
  os.precision(12);
  os << "{\n"
     << "  \"bench\": \"um_viz\",\n"
     << "  \"viewers\": " << kViewers << ",\n"
     << "  \"steps\": " << kStreamSteps << ",\n"
     << "  \"framebuffer\": \"" << kFbSize << "x" << kFbSize << "\",\n"
     << "  \"hardware_threads\": " << hw << ",\n"
     << "  \"streaming_gate\": {\n"
     << "    \"wall_seconds\": " << stream.WallSeconds << ",\n"
     << "    \"max_step_seconds\": " << stream.MaxStepSeconds << ",\n"
     << "    \"p99_frame_age_seconds\": " << stream.P99FrameAgeSeconds
     << ",\n"
     << "    \"frames_published\": " << stream.FramesPublished << ",\n"
     << "    \"frames_delivered\": " << stream.FramesDelivered << ",\n"
     << "    \"push_drops\": " << stream.PushDrops << ",\n"
     << "    \"gate\": \""
     << (timingGates ? (streamPass ? "pass" : "fail")
                     : "skipped (insufficient cores)")
     << "\"\n  },\n"
     << "  \"steering_gate\": {\n"
     << "    \"steps_to_apply\": " << steer.StepsToApply << ",\n"
     << "    \"viewer_alive\": " << (steer.ViewerAlive ? "true" : "false")
     << ",\n"
     << "    \"all_steps_executed\": "
     << (steer.AllStepsExecuted ? "true" : "false") << ",\n"
     << "    \"viewer_saw_swap\": "
     << (steer.ViewerSawSwap ? "true" : "false") << ",\n"
     << "    \"gate\": \"" << (steerPass ? "pass" : "fail") << "\"\n  },\n"
     << "  \"bitexact_gate\": {\n"
     << "    \"identical\": " << (bitexact ? "true" : "false") << ",\n"
     << "    \"gate\": \"" << (bitexact ? "pass" : "fail") << "\"\n  },\n"
     << "  \"profiler\": " << sensei::Profiler::Global().ToJson() << "\n"
     << "}\n";
}

} // namespace

static void BM_VizRenderFrame(benchmark::State &state)
{
  Reset();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(kBodies, 7u);
  da->SetTable(t);
  t->Delete();
  viz::RenderAnalysis *r = MakeRender(kBinRes, kFbSize, kFbSize);
  r->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);

  std::uint64_t step = 0;
  for (auto _ : state)
  {
    da->SetDataTimeStep(static_cast<long>(step++));
    r->Execute(da);
  }
  r->Finalize();
  r->Delete();
  da->ReleaseData();
  da->Delete();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * kFbSize * kFbSize));
}
BENCHMARK(BM_VizRenderFrame)->UseRealTime();

int main(int argc, char **argv)
{
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  sensei::Profiler::Global().Clear();

  const unsigned hw = std::thread::hardware_concurrency();
  const bool timingGates = hw >= 4;

  const StreamResult stream = StreamViewers(kViewers, /*slowIndex=*/0);
  std::printf("streaming: %d viewers, %.3f s wall, max step %.1f ms, "
              "p99 frame age %.1f ms, %llu delivered, %llu drops\n",
              stream.Viewers, stream.WallSeconds,
              1e3 * stream.MaxStepSeconds, 1e3 * stream.P99FrameAgeSeconds,
              static_cast<unsigned long long>(stream.FramesDelivered),
              static_cast<unsigned long long>(stream.PushDrops));

  const SteerResult steer = SteerRun();
  std::printf("steering: applied after %d step%s, viewer %s, swap %s\n",
              steer.StepsToApply, steer.StepsToApply == 1 ? "" : "s",
              steer.ViewerAlive ? "alive" : "DEAD",
              steer.ViewerSawSwap ? "seen" : "NOT seen");

  const bool bitexact = BitExactRun();
  std::printf("bitexact: serial x threads framebuffers %s\n",
              bitexact ? "identical" : "DIVERGED");

  sensei::ExportServiceStats(sensei::Profiler::Global());
  sensei::ExportVizStats(sensei::Profiler::Global());

  // under VP_CHECK the streaming runs double as a race/lifetime gate
  // over the streamer fan-out, viewer threads, and render kernels
  if (vp::check::Enabled())
  {
    const vp::check::Report report = vp::check::Finalize();
    sensei::ExportCheckReport(sensei::Profiler::Global(), report);
    if (report.Total())
    {
      std::fprintf(stderr, "um_viz: VP_CHECK failed\n%s",
                   report.Summary().c_str());
      return 2;
    }
    std::printf("VP_CHECK: 0 violations across the viz runs\n");
  }

  WriteJson(hw, timingGates, stream, steer, bitexact, "BENCH_viz.json");

  if (!bitexact)
  {
    std::fprintf(stderr, "um_viz: framebuffers diverged across execution "
                         "modes\n");
    return 3;
  }
  if (steer.StepsToApply < 1 || steer.StepsToApply > 2 ||
      !steer.ViewerAlive || !steer.AllStepsExecuted || !steer.ViewerSawSwap)
  {
    std::fprintf(stderr,
                 "um_viz: steer applied after %d steps (want 1..2), viewer "
                 "%s, swap %s, steps %s\n",
                 steer.StepsToApply, steer.ViewerAlive ? "alive" : "dead",
                 steer.ViewerSawSwap ? "seen" : "missed",
                 steer.AllStepsExecuted ? "executed" : "stalled");
    return 3;
  }
  if (!timingGates)
  {
    std::printf("BENCH_viz.json: timing gate skipped (insufficient cores: "
                "%u hardware threads)\n",
                hw);
    return 0;
  }
  if (stream.PushDrops == 0)
  {
    std::fprintf(stderr, "um_viz: the comatose viewer never forced a "
                         "drop-oldest discard\n");
    return 3;
  }
  if (stream.P99FrameAgeSeconds >= 0.5 || stream.MaxStepSeconds >= 1.0)
  {
    std::fprintf(stderr,
                 "um_viz: p99 frame age %.1f ms / max step %.1f ms exceeds "
                 "the 500 ms / 1000 ms budgets\n",
                 1e3 * stream.P99FrameAgeSeconds,
                 1e3 * stream.MaxStepSeconds);
    return 3;
  }
  std::printf("BENCH_viz.json: p99 frame age %.1f ms with %llu drops, "
              "steer in %d step%s (gates passed)\n",
              1e3 * stream.P99FrameAgeSeconds,
              static_cast<unsigned long long>(stream.PushDrops),
              steer.StepsToApply, steer.StepsToApply == 1 ? "" : "s");
  return 0;
}
