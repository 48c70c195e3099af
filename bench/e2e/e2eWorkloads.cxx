#include "e2eWorkloads.h"

#include "vpPlatform.h"

#include <algorithm>

namespace e2e
{

void ResetProcessState()
{
  vp::exec::Configure(vp::exec::ExecConfig()); // quiesce worker threads
  vp::PlatformConfig plat;
  plat.NumNodes = 1;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 64;
  vp::Platform::Initialize(plat);
  vp::ThisClock().Set(0.0);

  sched::Configure(sched::SchedConfig());
  vp::graph::Configure(vp::graph::GraphConfig());
  vp::layout::Configure(vp::layout::LayoutConfig());
  vp::PoolManager::Get().Configure(vp::PoolConfig());
  cmp::Configure(cmp::Config());
  svc::Configure(svc::ServiceConfig());
  viz::Configure(viz::VizConfig());
  ResetCounters();
}

void ResetCounters()
{
  vp::Platform::Get().Stats().Reset();
  vp::exec::ResetStats();
  vp::graph::ResetStats();
  sched::ResetAggregateStats();
  vp::PoolManager::Get().ResetStats();
  vp::layout::ResetStats();
  cmp::ResetStats();
  svc::ResetStats();
  viz::ResetStats();
}

Counters Snapshot()
{
  const vp::PlatformStats &ps = vp::Platform::Get().Stats();
  Counters c;
  c.Kernels = ps.KernelsLaunched.load();
  for (int k = 0; k < 5; ++k)
    c.Copies += ps.Copies(static_cast<vp::CopyKind>(k));
  c.H2DBytes = ps.Bytes(vp::CopyKind::HostToDevice);
  c.D2HBytes = ps.Bytes(vp::CopyKind::DeviceToHost);
  c.D2DBytes = ps.Bytes(vp::CopyKind::DeviceToDevice) +
               ps.Bytes(vp::CopyKind::OnDevice);
  c.Exec = vp::exec::Stats();
  c.Graph = vp::graph::Stats();
  c.Sched = sched::AggregateStats();
  c.Pool = vp::PoolManager::Get().AggregateStats();
  c.Layout = vp::layout::Stats();
  c.Codec = cmp::Stats();
  c.Service = svc::Stats();
  c.Viz = viz::Stats();
  return c;
}

namespace
{
double Ratio(double num, double den)
{
  return den > 0.0 ? num / den : 0.0;
}
} // namespace

void ReportPerLayer(Report &r, const LayerValues &s, const WallClock &w,
                    const Counters &c, long steps)
{
  const double n = static_cast<double>(std::max(1L, steps));
  auto perStep = [n](std::uint64_t v) { return static_cast<double>(v) / n; };

  // the untraced (even) steps give the wall clock; the traced (odd) ones
  // against them give the tracing overhead
  std::vector<double> plain, traced, insitu;
  for (std::size_t i = 0; i < w.StepSeconds.size(); ++i)
  {
    const bool odd = (w.FirstStep + static_cast<long>(i)) % 2 != 0;
    (odd ? traced : plain).push_back(w.StepSeconds[i]);
    if (!odd && i < w.InSituSeconds.size())
      insitu.push_back(w.InSituSeconds[i]);
  }
  const double base = Median(plain);
  r.Add("wall.step_ms_p50", 1e3 * base, "ms");
  r.Add("wall.step_ms_p90", 1e3 * Percentile(plain, 0.9), "ms");
  r.Add("wall.steps_per_s", w.StepsPerSecond, "1/s");
  r.Add("wall.insitu_ms_p50", 1e3 * Median(insitu), "ms");
  r.Add("mem.peak_rss_mb", s.PeakRssMb, "MB");

  r.Add("newton.step_ms_p50", s.NewtonStepMsP50, "ms");
  r.Add("newton.interactions_per_s", s.NewtonInteractionsPerS, "1/s");
  r.Add("newton.rank_imbalance", s.NewtonRankImbalance, "ratio");
  r.Add("comm.rank_skew_ms_p50", s.CommRankSkewMsP50, "ms");
  r.Add("core.binning_ms_p50", s.CoreBinningMsP50, "ms");
  r.Add("core.binning_ms_p90", s.CoreBinningMsP90, "ms");
  r.Add("core.histogram_ms_p50", s.CoreHistogramMsP50, "ms");
  r.Add("core.bridge_ms_p50", s.CoreBridgeMsP50, "ms");
  r.Add("core.finalize_ms", s.CoreFinalizeMs, "ms");

  r.Add("hamr.h2d_bytes_per_step", perStep(c.H2DBytes), "B");
  r.Add("hamr.d2h_bytes_per_step", perStep(c.D2HBytes), "B");
  r.Add("hamr.d2d_bytes_per_step", perStep(c.D2DBytes), "B");
  r.Add("hamr.copies_per_step", perStep(c.Copies), "count");
  r.Add("platform.kernels_per_step", perStep(c.Kernels), "count");

  r.Add("sched.executed_per_step", perStep(c.Sched.Executed), "count");
  r.Add("sched.dropped", static_cast<double>(c.Sched.Dropped), "count");
  r.Add("sched.queue_depth_high_water",
        static_cast<double>(c.Sched.QueueDepthHighWater), "count");
  r.Add("sched.stall_s", c.Sched.StallSeconds, "s");

  r.Add("exec.tasks_enqueued_per_step", perStep(c.Exec.TasksEnqueued),
        "count");
  r.Add("exec.sharded_regions_per_step", perStep(c.Exec.ShardedRegions),
        "count");
  r.Add("exec.shards_per_region",
        Ratio(static_cast<double>(c.Exec.ShardsExecuted),
              static_cast<double>(c.Exec.ShardedRegions)),
        "count");
  r.Add("exec.fence_joins_per_step", perStep(c.Exec.FenceJoins), "count");

  r.Add("graph.replay_frac",
        Ratio(static_cast<double>(c.Graph.Replays),
              static_cast<double>(c.Graph.Captures + c.Graph.Replays +
                                  c.Graph.Invalidations)),
        "ratio");
  r.Add("graph.invalidations", static_cast<double>(c.Graph.Invalidations),
        "count");
  r.Add("graph.launches_fused_per_step", perStep(c.Graph.LaunchesFused),
        "count");

  r.Add("pool.hit_rate", c.Pool.HitRate(), "ratio");
  r.Add("pool.peak_bytes_cached", static_cast<double>(c.Pool.PeakBytesCached),
        "B");

  r.Add("layout.simd_kernels_per_step", perStep(c.Layout.SimdKernels),
        "count");
  r.Add("layout.scalar_kernels_per_step", perStep(c.Layout.ScalarKernels),
        "count");

  r.Add("compress.ratio", c.Codec.Ratio(), "ratio");
  r.Add("compress.fallbacks", static_cast<double>(c.Codec.Fallbacks),
        "count");

  r.Add("svc.send_ms_p50", s.SvcSendMsP50, "ms");
  r.Add("svc.send_ms_p90", s.SvcSendMsP90, "ms");
  r.Add("svc.frame_latency_ms_p50", s.SvcFrameLatencyMsP50, "ms");
  r.Add("svc.frame_latency_ms_p90", s.SvcFrameLatencyMsP90, "ms");
  r.Add("svc.queue_depth_high_water",
        static_cast<double>(c.Service.QueueHighWater), "count");
  r.Add("svc.frames_rejected", static_cast<double>(c.Service.FramesRejected),
        "count");
  r.Add("svc.short_reads", static_cast<double>(c.Service.ShortReads),
        "count");
  r.Add("svc.heartbeat_rtt_us",
        Ratio(static_cast<double>(c.Service.RttSumUs),
              static_cast<double>(c.Service.RttCount)),
        "us");

  r.Add("viz.render_ms_p50", s.VizRenderMsP50, "ms");
  r.Add("viz.frame_age_ms_p90", s.VizFrameAgeMsP90, "ms");
  r.Add("viz.push_drops", static_cast<double>(c.Service.PushDrops), "count");
  r.Add("viz.delivered_frac", s.VizDeliveredFrac, "ratio");

  r.Add("step.unattributed_frac", s.StepUnattributedFrac, "ratio");
  r.Add("trace.overhead_pct",
        base > 0.0 ? 100.0 * (Median(traced) / base - 1.0) : 0.0, "%");
}

void ReportEndToEnd(Report &r, const EndToEnd &e)
{
  r.Add("setup_s", Median(e.SetupSeconds), "s");
  r.Add("virtual_step_ms", 1e3 * e.VirtualStepSeconds, "ms");
  r.Add("virtual_insitu_ms", 1e3 * e.VirtualInSituSeconds, "ms");
}

} // namespace e2e
