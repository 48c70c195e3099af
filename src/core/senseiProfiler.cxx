#include "senseiProfiler.h"

#include "cmpCodec.h"
#include "execEngine.h"
#include "graphCapture.h"
#include "layoutMapping.h"
#include "schedPipeline.h"
#include "svcSession.h"
#include "vizConfig.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"
#include "vpLoadTracker.h"
#include "vpMemoryPool.h"

#include <cstdio>
#include <sstream>

namespace sensei
{

Profiler &Profiler::Global()
{
  static Profiler instance;
  return instance;
}

Profiler::CounterSnapshot Profiler::Snapshot() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);
  CounterSnapshot out;
  for (const auto &kv : this->Series_)
    out[kv.first] = Counter{kv.second.Total, kv.second.Count, kv.second.Max};
  return out;
}

Profiler::CounterSnapshot Profiler::Delta(const CounterSnapshot &newer,
                                          const CounterSnapshot &older)
{
  CounterSnapshot out;
  for (const auto &kv : newer)
  {
    Counter d = kv.second;
    auto it = older.find(kv.first);
    if (it != older.end())
    {
      d.Total -= it->second.Total;
      d.Count -= it->second.Count;
    }
    out[kv.first] = d; // Max stays newer's cumulative max
  }
  return out;
}

std::string Profiler::ToJson() const
{
  std::lock_guard<std::mutex> lock(this->Mutex_);

  // escape per RFC 8259: quote, backslash, the common control shorthands,
  // and \u00XX for the remaining control bytes, so hostile event names
  // (embedded newlines, tabs, NULs) still produce parseable, diffable
  // output. key order is the map's lexicographic order, so two runs that
  // record the same events serialize byte identically.
  auto quote = [](const std::string &s)
  {
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s)
    {
      switch (c)
      {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20)
          {
            char u[8];
            std::snprintf(u, sizeof(u), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += u;
          }
          else
            out += c;
      }
    }
    out += '"';
    return out;
  };

  std::ostringstream os;
  os.precision(12);
  os << "{\"schema\":\"" << SchemaVersion << "\",\"events\":{";
  bool first = true;
  for (const auto &kv : this->Series_)
  {
    if (!first)
      os << ',';
    first = false;
    const Stats &s = kv.second;
    const double mean =
      s.Count ? s.Total / static_cast<double>(s.Count) : 0.0;
    os << quote(kv.first) << ":{\"count\":" << s.Count
       << ",\"total\":" << s.Total << ",\"mean\":" << mean
       << ",\"max\":" << s.Max << '}';
  }
  os << "}}";
  return os.str();
}

void ExportPoolStats(Profiler &prof)
{
  const vp::PoolStats s = vp::PoolManager::Get().AggregateStats();
  prof.Event("pool::hits", static_cast<double>(s.Hits));
  prof.Event("pool::misses", static_cast<double>(s.Misses));
  prof.Event("pool::frees", static_cast<double>(s.Frees));
  prof.Event("pool::trims", static_cast<double>(s.Trims));
  prof.Event("pool::hit_rate", s.HitRate());
  prof.Event("pool::bytes_cached", static_cast<double>(s.BytesCached));
  prof.Event("pool::peak_bytes_cached",
             static_cast<double>(s.PeakBytesCached));
  prof.Event("pool::fragmentation", s.Fragmentation());
  prof.Event("pool::alloc_retries", static_cast<double>(s.AllocRetries));
}

void ExportCheckReport(Profiler &prof, const vp::check::Report &report)
{
  prof.Event("check::violations", static_cast<double>(report.Total()));
  for (int k = 0; k < 5; ++k)
    prof.Event(std::string("check::") +
                 vp::check::ToString(static_cast<vp::check::ViolationKind>(k)),
               static_cast<double>(report.Counts[k]));
  const vp::fault::FaultStats f = vp::fault::Stats();
  prof.Event("fault::alloc_failures", static_cast<double>(f.AllocFailures));
  prof.Event("fault::events_dropped", static_cast<double>(f.EventsDropped));
  prof.Event("fault::delays_applied", static_cast<double>(f.DelaysApplied));
}

void ExportSchedStats(Profiler &prof)
{
  const sched::PipelineStats s = sched::AggregateStats();
  prof.Event("sched::submitted", static_cast<double>(s.Submitted));
  prof.Event("sched::executed", static_cast<double>(s.Executed));
  prof.Event("sched::dropped", static_cast<double>(s.Dropped));
  prof.Event("sched::coalesced", static_cast<double>(s.Coalesced));
  prof.Event("sched::queue_depth_high_water",
             static_cast<double>(s.QueueDepthHighWater));
  prof.Event("sched::peak_queued_bytes",
             static_cast<double>(s.PeakQueuedBytes));
  prof.Event("sched::stall_seconds", s.StallSeconds);
  prof.Event("sched::host_fallbacks",
             static_cast<double>(sched::HostFallbackCount()));

  const std::vector<std::uint64_t> placements =
    vp::DeviceLoadTracker::Get().PlacementTotals();
  if (!placements.empty())
    prof.Event("sched::placements_host",
               static_cast<double>(placements[0]));
  for (std::size_t d = 1; d < placements.size(); ++d)
    prof.Event("sched::placements_dev" + std::to_string(d - 1),
               static_cast<double>(placements[d]));
}

void ExportCompressStats(Profiler &prof)
{
  const cmp::CodecStats s = cmp::Stats();
  prof.Event("cmp::encoded_chunks", static_cast<double>(s.EncodedChunks));
  prof.Event("cmp::decoded_chunks", static_cast<double>(s.DecodedChunks));
  prof.Event("cmp::fallbacks", static_cast<double>(s.Fallbacks));
  prof.Event("cmp::bytes_raw", static_cast<double>(s.BytesRaw));
  prof.Event("cmp::bytes_encoded", static_cast<double>(s.BytesEncoded));
  prof.Event("cmp::ratio", s.Ratio());
  prof.Event("cmp::encode_seconds", s.EncodeSeconds);
  prof.Event("cmp::decode_seconds", s.DecodeSeconds);

  const sched::PipelineStats p = sched::AggregateStats();
  prof.Event("cmp::payload_raw_bytes",
             static_cast<double>(p.PayloadRawBytes));
  prof.Event("cmp::payload_encoded_bytes",
             static_cast<double>(p.PayloadEncodedBytes));
}

void ExportExecStats(Profiler &prof)
{
  const vp::exec::EngineStats s = vp::exec::Stats();
  prof.Event("exec::mode_threads", vp::exec::ThreadsEnabled() ? 1.0 : 0.0);
  prof.Event("exec::lanes",
             static_cast<double>(vp::exec::Engine::Get().Lanes()));
  prof.Event("exec::tasks_enqueued", static_cast<double>(s.TasksEnqueued));
  prof.Event("exec::copies_enqueued", static_cast<double>(s.CopiesEnqueued));
  prof.Event("exec::tasks_inline", static_cast<double>(s.TasksInline));
  prof.Event("exec::sharded_regions", static_cast<double>(s.ShardedRegions));
  prof.Event("exec::shards_executed", static_cast<double>(s.ShardsExecuted));
  prof.Event("exec::fence_joins", static_cast<double>(s.FenceJoins));
}

void ExportGraphStats(Profiler &prof)
{
  const vp::graph::GraphStats s = vp::graph::Stats();
  prof.Event("graph::captures", static_cast<double>(s.Captures));
  prof.Event("graph::capture_aborts", static_cast<double>(s.CaptureAborts));
  prof.Event("graph::replays", static_cast<double>(s.Replays));
  prof.Event("graph::invalidations", static_cast<double>(s.Invalidations));
  prof.Event("graph::nodes_captured", static_cast<double>(s.NodesCaptured));
  prof.Event("graph::launches_fused", static_cast<double>(s.LaunchesFused));
  prof.Event("graph::flushes", static_cast<double>(s.Flushes));
  prof.Event("graph::ops_absorbed", static_cast<double>(s.OpsAbsorbed));
}

void ExportLayoutStats(Profiler &prof)
{
  const vp::layout::LayoutStats s = vp::layout::Stats();
  prof.Event("layout::conversions", static_cast<double>(s.Conversions));
  prof.Event("layout::bytes_reordered",
             static_cast<double>(s.BytesReordered));
  prof.Event("layout::simd_kernels", static_cast<double>(s.SimdKernels));
  prof.Event("layout::scalar_kernels", static_cast<double>(s.ScalarKernels));
}

void ExportServiceStats(Profiler &prof)
{
  const svc::ServiceStats s = svc::Stats();
  prof.Event("svc::sessions_opened", static_cast<double>(s.SessionsOpened));
  prof.Event("svc::sessions_rejected",
             static_cast<double>(s.SessionsRejected));
  prof.Event("svc::sessions_closed", static_cast<double>(s.SessionsClosed));
  prof.Event("svc::sessions_reaped", static_cast<double>(s.SessionsReaped));
  prof.Event("svc::frames_sent", static_cast<double>(s.FramesSent));
  prof.Event("svc::frames_accepted", static_cast<double>(s.FramesAccepted));
  prof.Event("svc::frames_dropped", static_cast<double>(s.FramesDropped));
  prof.Event("svc::frames_coalesced",
             static_cast<double>(s.FramesCoalesced));
  prof.Event("svc::frames_rejected", static_cast<double>(s.FramesRejected));
  prof.Event("svc::frames_executed", static_cast<double>(s.FramesExecuted));
  prof.Event("svc::heartbeats", static_cast<double>(s.Heartbeats));
  prof.Event("svc::bytes_raw", static_cast<double>(s.BytesRaw));
  prof.Event("svc::bytes_wire", static_cast<double>(s.BytesWire));
  prof.Event("svc::queue_depth_high_water",
             static_cast<double>(s.QueueHighWater));
  prof.Event("svc::short_reads", static_cast<double>(s.ShortReads));
  prof.Event("svc::frames_pushed", static_cast<double>(s.FramesPushed));
  prof.Event("svc::push_drops", static_cast<double>(s.PushDrops));
  prof.Event("svc::steers", static_cast<double>(s.Steers));
  prof.Event("svc::heartbeat_acks", static_cast<double>(s.HeartbeatAcks));
  // mean of the per-beat client-measured round trips; 0 until a client
  // reported one
  prof.Event("svc::heartbeat_rtt_us",
             s.RttCount ? static_cast<double>(s.RttSumUs) /
                            static_cast<double>(s.RttCount)
                        : 0.0);
  prof.Event("svc::heartbeat_rtt_max_us", static_cast<double>(s.RttMaxUs));
}

void ExportVizStats(Profiler &prof)
{
  const viz::VizStats s = viz::Stats();
  prof.Event("viz::frames_rendered", static_cast<double>(s.FramesRendered));
  prof.Event("viz::frames_published",
             static_cast<double>(s.FramesPublished));
  prof.Event("viz::steers_applied", static_cast<double>(s.SteersApplied));
  prof.Event("viz::steers_stale", static_cast<double>(s.SteersStale));
  prof.Event("viz::recaptures", static_cast<double>(s.Recaptures));
  prof.Event("viz::frame_age_count", static_cast<double>(s.FrameAgeCount));
  prof.Event("viz::frame_age_p99_us", static_cast<double>(s.FrameAgeP99Us));
  prof.Event("viz::frame_age_max_us", static_cast<double>(s.FrameAgeMaxUs));
}

} // namespace sensei
