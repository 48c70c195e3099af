#ifndef effectiveConfig_h
#define effectiveConfig_h

// Text dump of every configuration section a SENSEI document can set:
// the nine process-wide subsystem configurations read back through their
// public GetConfig() accessors, plus the per-analysis settings of a
// loaded ConfigurableAnalysis. One "section.field = value" line each, so
// two dumps diff line by line. Reads only the config structs and the
// adaptor getters, so it is independent of how the document was parsed.

#include "cmpCodec.h"
#include "execEngine.h"
#include "layoutMapping.h"
#include "schedPipeline.h"
#include "senseiConfigurableAnalysis.h"
#include "svcSession.h"
#include "vizConfig.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"
#include "vpMemoryPool.h"

#include <cstdio>
#include <sstream>
#include <string>

namespace effective
{

inline std::string Real(double v)
{
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string Codec(const cmp::Params &p)
{
  return std::string(cmp::CodecName(p.Codec)) + "/e" + Real(p.ErrorBound);
}

/// Every subsystem section, in document order.
inline std::string Sections()
{
  std::ostringstream os;
  {
    const vp::PoolConfig c = vp::PoolManager::Get().Config();
    os << "pool.enabled = " << c.Enabled << "\n"
       << "pool.max_cached_bytes = " << c.MaxCachedBytes << "\n"
       << "pool.trim_threshold = " << Real(c.TrimThreshold) << "\n"
       << "pool.min_block_bytes = " << c.MinBlockBytes << "\n";
  }
  {
    const vp::check::CheckConfig c = vp::check::GetConfig();
    os << "check.enabled = " << c.Enabled << "\n"
       << "check.max_reports = " << c.MaxReports << "\n"
       << "check.fail_fast = " << c.FailFast << "\n";
  }
  {
    const sched::SchedConfig c = sched::GetConfig();
    os << "sched.policy = " << sched::PolicyKindName(c.Policy) << "\n"
       << "sched.queue_depth = " << c.QueueDepth << "\n"
       << "sched.backpressure = " << sched::BackpressureName(c.Pressure)
       << "\n";
  }
  {
    const vp::exec::ExecConfig c = vp::exec::GetConfig();
    os << "exec.mode = " << vp::exec::ModeName(c.ExecMode) << "\n"
       << "exec.threads = " << c.Threads << "\n"
       << "exec.shard_grain = " << c.ShardGrain << "\n";
  }
  {
    const vp::layout::LayoutConfig c = vp::layout::GetConfig();
    os << "layout.simd = " << c.Simd << "\n";
  }
  {
    const cmp::Config c = cmp::GetConfig();
    os << "compress.enabled = " << c.Enabled << "\n"
       << "compress.default = " << Codec(c.Default) << "\n";
  }
  {
    const svc::ServiceConfig c = svc::GetConfig();
    os << "service.max_sessions = " << c.MaxSessions << "\n"
       << "service.workers = " << c.Workers << "\n"
       << "service.queue_depth = " << c.QueueDepth << "\n"
       << "service.backpressure = " << sched::BackpressureName(c.Pressure)
       << "\n"
       << "service.policy = " << sched::PolicyKindName(c.Policy) << "\n"
       << "service.heartbeat_ms = " << c.HeartbeatMs << "\n"
       << "service.missed_heartbeats = " << c.MissedHeartbeats << "\n"
       << "service.ring_bytes = " << c.RingBytes << "\n"
       << "service.ring_messages = " << c.RingMessages << "\n"
       << "service.max_chunk_bytes = " << c.MaxChunkBytes << "\n"
       << "service.push_depth = " << c.PushDepth << "\n"
       << "service.codec_override = " << c.HaveCodecOverride << " "
       << Codec(c.CodecOverride) << "\n";
  }
  {
    const viz::VizConfig c = viz::GetConfig();
    os << "viz.width = " << c.Width << "\n"
       << "viz.height = " << c.Height << "\n"
       << "viz.colormap = " << viz::ColormapName(c.Map) << "\n"
       << "viz.log = " << c.Log << "\n"
       << "viz.range = " << c.AutoRange << " " << Real(c.Lo) << ","
       << Real(c.Hi) << "\n"
       << "viz.codec = " << Codec(c.Codec) << "\n"
       << "viz.viewers = " << c.Viewers.size() << "\n";
    for (std::size_t i = 0; i < c.Viewers.size(); ++i)
      os << "viz.viewer" << i << " = " << c.Viewers[i].Width << "x"
         << c.Viewers[i].Height << " " << c.Viewers[i].HaveCodec << " "
         << Codec(c.Viewers[i].Codec) << "\n";
  }
  {
    const vp::fault::FaultConfig c = vp::fault::GetConfig();
    os << "fault.enabled = " << c.Enabled << "\n"
       << "fault.seed = " << c.Seed << "\n"
       << "fault.fail_alloc_nth = " << c.FailAllocNth << "\n"
       << "fault.fail_alloc_prob = " << Real(c.FailAllocProb) << "\n"
       << "fault.drop_event_nth = " << c.DropEventNth << "\n"
       << "fault.stream_delay = " << Real(c.StreamDelaySeconds) << "\n"
       << "fault.delay_node = " << c.DelayNode << "\n"
       << "fault.delay_device = " << c.DelayDevice << "\n"
       << "fault.premature_reuse = " << c.PrematureReuse << "\n"
       << "fault.drop_frame_nth = " << c.DropFrameNth << "\n"
       << "fault.crash_send_nth = " << c.CrashSendNth << "\n"
       << "fault.frame_delay = " << Real(c.FrameDelaySeconds) << "\n";
  }
  return os.str();
}

/// The per-analysis settings ConfigurableAnalysis applied to `ca`.
inline std::string Analyses(const sensei::ConfigurableAnalysis &ca)
{
  std::ostringstream os;
  for (int i = 0; i < ca.GetNumberOfAnalyses(); ++i)
  {
    const sensei::AnalysisAdaptor *a = ca.GetAnalysis(i);
    const std::string p = "analysis" + std::to_string(i) + ".";
    os << p << "class = " << a->GetClassName() << "\n"
       << p << "async = " << a->GetAsynchronous() << "\n"
       << p << "device = " << a->GetDeviceId() << " use "
       << a->GetDevicesToUse() << " start " << a->GetDeviceStart()
       << " stride " << a->GetDeviceStride() << "\n"
       << p << "policy = " << sched::PolicyKindName(a->GetPlacementPolicy())
       << "\n";
  }
  return os.str();
}

} // namespace effective

#endif
