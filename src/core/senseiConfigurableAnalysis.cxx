#include "senseiConfigurableAnalysis.h"

#include "senseiAutocorrelation.h"
#include "senseiColumnStatistics.h"
#include "senseiDataBinning.h"
#include "senseiHistogram.h"
#include "senseiPosthocIO.h"
#include "execEngine.h"
#include "graphCapture.h"
#include "schedPipeline.h"
#include "svcSession.h"
#include "sxml.h"
#include "vizConfig.h"
#include "vizRender.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"
#include "vpMemoryPool.h"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace sensei
{

namespace
{
/// Split a comma separated attribute list, trimming whitespace.
std::vector<std::string> SplitList(const std::string &s)
{
  std::vector<std::string> out;
  std::istringstream iss(s);
  std::string tok;
  while (std::getline(iss, tok, ','))
  {
    std::size_t b = tok.find_first_not_of(" \t");
    std::size_t e = tok.find_last_not_of(" \t");
    out.push_back(b == std::string::npos ? std::string()
                                         : tok.substr(b, e - b + 1));
  }
  return out;
}
} // namespace

ConfigurableAnalysis::~ConfigurableAnalysis()
{
  for (AnalysisAdaptor *a : this->Analyses_)
    a->UnRegister();
}

void ConfigurableAnalysis::InitializeFile(const std::string &path)
{
  auto root = sxml::ParseFile(path);
  this->Initialize(*root);
}

void ConfigurableAnalysis::InitializeString(const std::string &xml)
{
  auto root = sxml::Parse(xml);
  this->Initialize(*root);
}

void ConfigurableAnalysis::Initialize(const sxml::Element &root)
{
  if (root.Name() != "sensei")
    throw std::runtime_error(
      "ConfigurableAnalysis: document element must be <sensei>");

  // optional <pool> element configures the stream-ordered caching
  // allocator shared by all analyses in this run
  if (const sxml::Element *pe = root.FirstChild("pool"))
  {
    vp::PoolConfig cfg = vp::PoolManager::Get().Config();
    cfg.Enabled = pe->AttributeBool("enabled", cfg.Enabled);
    cfg.MaxCachedBytes = static_cast<std::size_t>(pe->AttributeInt(
      "max_cached_bytes", static_cast<long long>(cfg.MaxCachedBytes)));
    cfg.TrimThreshold = pe->AttributeDouble("trim_threshold",
                                            cfg.TrimThreshold);
    cfg.MinBlockBytes = static_cast<std::size_t>(pe->AttributeInt(
      "min_block_bytes", static_cast<long long>(cfg.MinBlockBytes)));
    if (cfg.TrimThreshold < 0.0 || cfg.TrimThreshold > 1.0)
      throw std::runtime_error(
        "ConfigurableAnalysis: <pool> trim_threshold must be in [0,1]");
    vp::PoolManager::Get().Configure(cfg);
  }

  // optional <check> element turns the race/lifetime checker on (same
  // switch as the VP_CHECK environment variable)
  if (const sxml::Element *ce = root.FirstChild("check"))
  {
    vp::check::CheckConfig cfg = vp::check::GetConfig();
    cfg.Enabled = ce->AttributeBool("enabled", true);
    cfg.MaxReports = static_cast<std::size_t>(ce->AttributeInt(
      "max_reports", static_cast<long long>(cfg.MaxReports)));
    cfg.FailFast = ce->AttributeBool("fail_fast", cfg.FailFast);
    vp::check::Configure(cfg);
  }

  // optional <sched> element configures the adaptive scheduler: the
  // default placement policy for every analysis and the bounded async
  // pipeline (queue depth + backpressure) shared by all async runners
  if (const sxml::Element *se = root.FirstChild("sched"))
  {
    sched::SchedConfig cfg = sched::GetConfig();
    try
    {
      cfg.Policy = sched::PolicyKindFromName(
        se->Attribute("policy", sched::PolicyKindName(cfg.Policy)));
      cfg.Pressure = sched::BackpressureFromName(se->Attribute(
        "backpressure", sched::BackpressureName(cfg.Pressure)));
    }
    catch (const std::invalid_argument &e)
    {
      throw std::runtime_error(std::string("ConfigurableAnalysis: <sched> ") +
                               e.what());
    }
    const long long depth = se->AttributeInt(
      "queue_depth", static_cast<long long>(cfg.QueueDepth));
    if (depth < 0)
      throw std::runtime_error(
        "ConfigurableAnalysis: <sched> queue_depth must be >= 0 "
        "(0 means unbounded)");
    cfg.QueueDepth = static_cast<long>(depth);
    cfg.RealThreads = se->AttributeBool("real_threads", cfg.RealThreads);
    sched::Configure(cfg);
    this->SchedPolicy_ = cfg.Policy;
    this->HaveSchedPolicy_ = true;
  }

  // optional <exec> element selects where kernel bodies really run: the
  // bit-exact serial path or per-device worker threads with sharded
  // host regions. VP_EXEC in the environment wins over the XML mode so
  // a command line can force the deterministic serial path on a config
  // written for threaded runs.
  if (const sxml::Element *xe = root.FirstChild("exec"))
  {
    vp::exec::ExecConfig cfg = vp::exec::GetConfig();
    if (!std::getenv("VP_EXEC"))
    {
      try
      {
        cfg.ExecMode = vp::exec::ModeFromName(
          xe->Attribute("mode", vp::exec::ModeName(cfg.ExecMode)));
      }
      catch (const std::invalid_argument &e)
      {
        throw std::runtime_error(std::string("ConfigurableAnalysis: <exec> ") +
                                 e.what());
      }
    }
    const long long threads =
      xe->AttributeInt("threads", static_cast<long long>(cfg.Threads));
    if (threads < 0)
      throw std::runtime_error(
        "ConfigurableAnalysis: <exec> threads must be >= 0 (0 means auto)");
    cfg.Threads = static_cast<int>(threads);
    const long long grain = xe->AttributeInt(
      "shard_grain", static_cast<long long>(cfg.ShardGrain));
    if (grain < 1)
      throw std::runtime_error(
        "ConfigurableAnalysis: <exec> shard_grain must be >= 1");
    cfg.ShardGrain = static_cast<std::size_t>(grain);
    vp::exec::Configure(cfg);
  }

  // optional <graph> element turns on captured step-graph execution
  // (capture a step's device DAG once, replay it with pointer rebinding
  // on later steps). VP_GRAPH in the environment wins over the XML so
  // command lines can force either mode.
  if (const sxml::Element *ge = root.FirstChild("graph"))
  {
    vp::graph::GraphConfig cfg = vp::graph::GetConfig();
    const vp::graph::GraphConfig env = vp::graph::DefaultConfig();
    cfg.Enabled = std::getenv("VP_GRAPH") ? env.Enabled
                                          : ge->AttributeBool("enabled", true);
    const long long maxNodes = ge->AttributeInt(
      "max_nodes", static_cast<long long>(cfg.MaxNodes));
    if (maxNodes < 1)
      throw std::runtime_error(
        "ConfigurableAnalysis: <graph> max_nodes must be >= 1");
    cfg.MaxNodes = static_cast<std::size_t>(maxNodes);
    cfg.RepinThreshold =
      ge->AttributeDouble("repin_threshold", cfg.RepinThreshold);
    if (cfg.RepinThreshold < 0.0)
      throw std::runtime_error(
        "ConfigurableAnalysis: <graph> repin_threshold must be >= 0");
    vp::graph::Configure(cfg);
  }

  // optional <layout> element selects the process-wide default array
  // storage layout (aos | soa | aosoa, plus the AoSoA block size) and
  // whether kernels may take their vectorized (floating-point
  // reassociating) variants. VP_LAYOUT / VP_SIMD in the environment win
  // over the XML, mirroring the VP_EXEC convention; per-analysis
  // layout= attributes override the default per back end.
  if (const sxml::Element *le = root.FirstChild("layout"))
  {
    vp::layout::LayoutConfig cfg = vp::layout::GetConfig();
    try
    {
      if (!std::getenv("VP_LAYOUT"))
      {
        std::size_t block = cfg.Block;
        cfg.Default = vp::layout::KindFromName(
          le->Attribute("default",
                        vp::layout::KindName(cfg.Default)), &block);
        cfg.Block = block;
        const long long blk = le->AttributeInt(
          "block", static_cast<long long>(cfg.Block));
        if (blk < 2 || blk > 65536)
          throw std::invalid_argument("block must be in [2, 65536]");
        cfg.Block = static_cast<std::size_t>(blk);
      }
      if (!std::getenv("VP_SIMD"))
        cfg.Simd = le->AttributeBool("simd", cfg.Simd);
      vp::layout::Configure(cfg);
    }
    catch (const std::invalid_argument &e)
    {
      throw std::runtime_error(std::string("ConfigurableAnalysis: <layout> ") +
                               e.what());
    }
  }

  // optional <compress> element configures the process-wide default
  // codec for bulk payloads (in transit frames, binary snapshots);
  // per-analysis compress= attributes override it
  if (const sxml::Element *ke = root.FirstChild("compress"))
  {
    cmp::Config cfg = cmp::GetConfig();
    cfg.Enabled = ke->AttributeBool("enabled", true);
    try
    {
      cfg.Default.Codec = cmp::CodecIdFromName(
        ke->Attribute("codec", cmp::CodecName(cfg.Default.Codec)));
      cfg.Default.Level =
        static_cast<int>(ke->AttributeInt("level", cfg.Default.Level));
      cfg.Default.ErrorBound =
        ke->AttributeDouble("error_bound", cfg.Default.ErrorBound);
      cmp::Configure(cfg);
    }
    catch (const std::invalid_argument &e)
    {
      throw std::runtime_error(
        std::string("ConfigurableAnalysis: <compress> ") + e.what());
    }
  }

  // optional <service> element configures the multi-tenant in-transit
  // service (pool size, per-session flow control, heartbeat budget,
  // optional server-side codec override). VP_SVC_* environment
  // variables win over the XML, mirroring the VP_EXEC convention.
  if (const sxml::Element *ve = root.FirstChild("service"))
  {
    svc::ServiceConfig cfg = svc::GetConfig();
    try
    {
      if (!std::getenv("VP_SVC_MAX_SESSIONS"))
        cfg.MaxSessions = static_cast<int>(
          ve->AttributeInt("max_sessions", cfg.MaxSessions));
      if (!std::getenv("VP_SVC_WORKERS"))
        cfg.Workers =
          static_cast<int>(ve->AttributeInt("workers", cfg.Workers));
      if (!std::getenv("VP_SVC_QUEUE_DEPTH"))
        cfg.QueueDepth = static_cast<long>(
          ve->AttributeInt("queue_depth", cfg.QueueDepth));
      if (!std::getenv("VP_SVC_BACKPRESSURE"))
        cfg.Pressure = sched::BackpressureFromName(ve->Attribute(
          "backpressure", sched::BackpressureName(cfg.Pressure)));
      if (!std::getenv("VP_SVC_POLICY"))
        cfg.Policy = sched::PolicyKindFromName(
          ve->Attribute("policy", sched::PolicyKindName(cfg.Policy)));
      if (!std::getenv("VP_SVC_HEARTBEAT_MS"))
        cfg.HeartbeatMs = static_cast<int>(
          ve->AttributeInt("heartbeat_ms", cfg.HeartbeatMs));
      cfg.MissedHeartbeats = static_cast<int>(
        ve->AttributeInt("missed_heartbeats", cfg.MissedHeartbeats));
      cfg.RingBytes = static_cast<std::size_t>(ve->AttributeInt(
        "ring_bytes", static_cast<long long>(cfg.RingBytes)));
      cfg.MaxChunkBytes = static_cast<std::size_t>(ve->AttributeInt(
        "max_chunk_bytes", static_cast<long long>(cfg.MaxChunkBytes)));
      if (const char *env = std::getenv("VP_SVC_CODEC"))
      {
        cfg.HaveCodecOverride = true;
        cfg.CodecOverride.Codec = cmp::CodecIdFromName(env);
      }
      else if (ve->HasAttribute("codec"))
      {
        cfg.HaveCodecOverride = true;
        cfg.CodecOverride.Codec =
          cmp::CodecIdFromName(ve->Attribute("codec"));
      }
      if (cfg.HaveCodecOverride)
      {
        cfg.CodecOverride.Level = static_cast<int>(
          ve->AttributeInt("codec_level", cfg.CodecOverride.Level));
        cfg.CodecOverride.ErrorBound = ve->AttributeDouble(
          "codec_error_bound", cfg.CodecOverride.ErrorBound);
      }

      // the env overrides proper
      if (const char *env = std::getenv("VP_SVC_MAX_SESSIONS"))
        cfg.MaxSessions = std::atoi(env);
      if (const char *env = std::getenv("VP_SVC_WORKERS"))
        cfg.Workers = std::atoi(env);
      if (const char *env = std::getenv("VP_SVC_QUEUE_DEPTH"))
        cfg.QueueDepth = std::atol(env);
      if (const char *env = std::getenv("VP_SVC_BACKPRESSURE"))
        cfg.Pressure = sched::BackpressureFromName(env);
      if (const char *env = std::getenv("VP_SVC_POLICY"))
        cfg.Policy = sched::PolicyKindFromName(env);
      if (const char *env = std::getenv("VP_SVC_HEARTBEAT_MS"))
        cfg.HeartbeatMs = std::atoi(env);

      svc::Configure(cfg);
    }
    catch (const std::invalid_argument &e)
    {
      throw std::runtime_error(
        std::string("ConfigurableAnalysis: <service> ") + e.what());
    }
  }

  // optional <viz> element configures the steerable visualization
  // endpoint: framebuffer resolution, transfer function defaults, the
  // image-frame codec, the per-viewer push depth (a <service> knob the
  // viz endpoint rides on), and per-viewer fidelity overrides as
  // <viewer> children matched by admission order. VP_VIZ_* environment
  // variables win over the XML, mirroring the VP_SVC_* convention.
  if (const sxml::Element *ze = root.FirstChild("viz"))
  {
    viz::VizConfig cfg = viz::GetConfig();
    try
    {
      if (!std::getenv("VP_VIZ_WIDTH"))
        cfg.Width = static_cast<std::uint32_t>(
          ze->AttributeInt("width", cfg.Width));
      if (!std::getenv("VP_VIZ_HEIGHT"))
        cfg.Height = static_cast<std::uint32_t>(
          ze->AttributeInt("height", cfg.Height));
      if (!std::getenv("VP_VIZ_COLORMAP"))
        cfg.Map = viz::ColormapFromName(
          ze->Attribute("colormap", viz::ColormapName(cfg.Map)));
      if (!std::getenv("VP_VIZ_LOG"))
        cfg.Log = ze->AttributeBool("log", cfg.Log);
      if (ze->HasAttribute("range"))
      {
        std::vector<std::string> r = SplitList(ze->Attribute("range"));
        if (r.size() != 2)
          throw std::runtime_error("<viz> range must be 'lo,hi'");
        cfg.Lo = std::stod(r[0]);
        cfg.Hi = std::stod(r[1]);
        cfg.AutoRange = false;
      }
      if (const char *env = std::getenv("VP_VIZ_CODEC"))
        cfg.Codec.Codec = cmp::CodecIdFromName(env);
      else if (ze->HasAttribute("codec"))
        cfg.Codec.Codec = cmp::CodecIdFromName(ze->Attribute("codec"));
      cfg.Codec.Level = static_cast<int>(
        ze->AttributeInt("codec_level", cfg.Codec.Level));

      cfg.Viewers.clear();
      for (const sxml::Element *we : ze->ChildrenNamed("viewer"))
      {
        viz::ViewerOverride ov;
        ov.Width = static_cast<std::uint32_t>(we->AttributeInt("width", 0));
        ov.Height = static_cast<std::uint32_t>(we->AttributeInt("height", 0));
        if (we->HasAttribute("codec"))
        {
          ov.HaveCodec = true;
          ov.Codec.Codec = cmp::CodecIdFromName(we->Attribute("codec"));
        }
        cfg.Viewers.push_back(ov);
      }

      // the env overrides proper
      if (const char *env = std::getenv("VP_VIZ_WIDTH"))
        cfg.Width = static_cast<std::uint32_t>(std::atoi(env));
      if (const char *env = std::getenv("VP_VIZ_HEIGHT"))
        cfg.Height = static_cast<std::uint32_t>(std::atoi(env));
      if (const char *env = std::getenv("VP_VIZ_COLORMAP"))
        cfg.Map = viz::ColormapFromName(env);
      if (const char *env = std::getenv("VP_VIZ_LOG"))
        cfg.Log = std::atoi(env) != 0;

      viz::Configure(cfg);

      // the frame outbox rides the service layer
      if (ze->HasAttribute("push_depth"))
      {
        svc::ServiceConfig scfg = svc::GetConfig();
        scfg.PushDepth = static_cast<long>(ze->AttributeInt("push_depth",
                                                            scfg.PushDepth));
        svc::Configure(scfg);
      }
    }
    catch (const std::invalid_argument &e)
    {
      throw std::runtime_error(std::string("ConfigurableAnalysis: <viz> ") +
                               e.what());
    }
  }

  // optional <fault> element arms the deterministic fault injector
  if (const sxml::Element *fe = root.FirstChild("fault"))
  {
    vp::fault::FaultConfig cfg;
    cfg.Enabled = fe->AttributeBool("enabled", true);
    cfg.Seed = static_cast<std::uint64_t>(fe->AttributeInt("seed", 1));
    cfg.FailAllocNth =
      static_cast<std::uint64_t>(fe->AttributeInt("fail_alloc_nth", 0));
    cfg.FailAllocProb = fe->AttributeDouble("fail_alloc_prob", 0.0);
    cfg.DropEventNth =
      static_cast<std::uint64_t>(fe->AttributeInt("drop_event_nth", 0));
    cfg.StreamDelaySeconds = fe->AttributeDouble("stream_delay", 0.0);
    cfg.DelayNode = static_cast<int>(fe->AttributeInt("delay_node", -1));
    cfg.DelayDevice = static_cast<int>(fe->AttributeInt("delay_device", -1));
    cfg.PrematureReuse = fe->AttributeBool("premature_reuse", false);
    cfg.DropFrameNth =
      static_cast<std::uint64_t>(fe->AttributeInt("drop_frame_nth", 0));
    cfg.CrashSendNth =
      static_cast<std::uint64_t>(fe->AttributeInt("crash_send_nth", 0));
    cfg.FrameDelaySeconds = fe->AttributeDouble("frame_delay", 0.0);
    vp::fault::Configure(cfg);
  }

  for (const sxml::Element *el : root.ChildrenNamed("analysis"))
  {
    if (!el->AttributeBool("enabled", true))
      continue;
    AnalysisAdaptor *a = this->BuildAnalysis(*el);
    try
    {
      ApplyCommon(*el, a);
      this->Analyses_.push_back(a);
    }
    catch (...)
    {
      a->UnRegister();
      throw;
    }
  }
}

void ConfigurableAnalysis::ApplyCommon(const sxml::Element &el,
                                       AnalysisAdaptor *a)
{
  // execution method
  a->SetAsynchronous(el.AttributeBool("async", false));

  // placement: explicit device id, "host", or "auto" + Eq. 1 controls
  const std::string device = el.Attribute("device", "auto");
  if (device == "host")
    a->SetDeviceId(AnalysisAdaptor::DEVICE_HOST);
  else if (device == "auto")
    a->SetDeviceId(AnalysisAdaptor::DEVICE_AUTO);
  else
    a->SetDeviceId(static_cast<int>(el.AttributeInt("device", 0)));

  a->SetDevicesToUse(static_cast<int>(el.AttributeInt("devices_to_use", 0)));
  a->SetDeviceStart(static_cast<int>(el.AttributeInt("device_start", 0)));
  a->SetDeviceStride(static_cast<int>(el.AttributeInt("device_stride", 1)));
  a->SetVerbose(static_cast<int>(el.AttributeInt("verbose", 0)));

  // placement policy: the <sched> element's default, overridable per
  // analysis with policy="static|least-loaded|cost-model"
  if (this->HaveSchedPolicy_)
    a->SetPlacementPolicy(this->SchedPolicy_);
  if (el.HasAttribute("policy"))
  {
    try
    {
      a->SetPlacementPolicy(sched::PolicyKindFromName(el.Attribute("policy")));
    }
    catch (const std::invalid_argument &e)
    {
      throw std::runtime_error(std::string("ConfigurableAnalysis: ") +
                               e.what());
    }
  }

  // per-analysis codec override: compress="none|shuffle-rle|delta-varint|
  // quantize" [+ compress_level, compress_error_bound]. Without the
  // attribute the back end follows the <compress> element's default.
  if (el.HasAttribute("compress"))
  {
    cmp::Params p = cmp::GetConfig().Default;
    try
    {
      p.Codec = cmp::CodecIdFromName(el.Attribute("compress"));
    }
    catch (const std::invalid_argument &e)
    {
      throw std::runtime_error(std::string("ConfigurableAnalysis: ") +
                               e.what());
    }
    p.Level = static_cast<int>(el.AttributeInt("compress_level", p.Level));
    p.ErrorBound = el.AttributeDouble("compress_error_bound", p.ErrorBound);
    if (p.Codec == cmp::CodecId::Quantize && !(p.ErrorBound > 0.0))
      throw std::runtime_error(
        "ConfigurableAnalysis: compress=\"quantize\" needs a positive "
        "compress_error_bound");
    a->SetCompression(p);
  }

  // per-analysis array layout override: layout="aos|soa|aosoa|aosoa<B>"
  // [+ layout_block]. Without the attribute the back end follows the
  // <layout> element's process-wide default.
  if (el.HasAttribute("layout"))
  {
    try
    {
      std::size_t block = 0;
      const vp::layout::Kind k =
        vp::layout::KindFromName(el.Attribute("layout"), &block);
      const long long blk = el.AttributeInt(
        "layout_block", static_cast<long long>(block));
      if (blk < 0 || blk == 1 || blk > 65536)
        throw std::invalid_argument(
          "layout_block must be in [2, 65536] (or 0 for the default)");
      a->SetArrayLayout(k, static_cast<std::size_t>(blk));
    }
    catch (const std::invalid_argument &e)
    {
      throw std::runtime_error(std::string("ConfigurableAnalysis: ") +
                               e.what());
    }
  }
}

AnalysisAdaptor *ConfigurableAnalysis::BuildAnalysis(const sxml::Element &el)
{
  const std::string type = el.Attribute("type");

  if (type == "data_binning")
  {
    DataBinning *b = DataBinning::New();
    try
    {
      b->SetMeshName(el.Attribute("mesh", "table"));

      const std::vector<std::string> axes =
        SplitList(el.Attribute("axes", "x,y"));
      b->SetAxes(axes);

      if (el.HasAttribute("resolution"))
      {
        std::vector<long> res;
        for (const std::string &r : SplitList(el.Attribute("resolution")))
          res.push_back(std::stol(r));
        b->SetResolution(res);
      }

      // optional fixed ranges: range_0="lo,hi" per axis
      for (std::size_t a = 0; a < axes.size(); ++a)
      {
        const std::string key = "range_" + std::to_string(a);
        if (el.HasAttribute(key))
        {
          std::vector<std::string> r = SplitList(el.Attribute(key));
          if (r.size() != 2)
            throw std::runtime_error("data_binning: " + key +
                                     " must be 'lo,hi'");
          b->SetRange(static_cast<int>(a), std::stod(r[0]), std::stod(r[1]));
        }
      }

      const std::vector<std::string> ops =
        SplitList(el.Attribute("ops", "count"));
      const std::vector<std::string> values =
        SplitList(el.Attribute("values", ""));
      for (std::size_t i = 0; i < ops.size(); ++i)
      {
        const BinningOp op = BinningOpFromName(ops[i]);
        const std::string col = i < values.size() ? values[i] : std::string();
        if (op != BinningOp::Count)
          b->AddOperation(col, op);
      }

      if (el.HasAttribute("out_dir"))
        b->SetOutput(el.Attribute("out_dir"),
                     el.Attribute("out_prefix", "binning"),
                     el.AttributeInt("out_freq", 1));

      b->SetGpuStrategy(
        GpuBinningStrategyFromName(el.Attribute("gpu_strategy", "")));
    }
    catch (...)
    {
      b->UnRegister();
      throw;
    }
    return b;
  }

  if (type == "render")
  {
    // the steerable rendering endpoint: a data binning driven through a
    // transfer function; defaults come from the <viz> element
    const viz::VizConfig vcfg = viz::GetConfig();
    viz::RenderAnalysis *r = viz::RenderAnalysis::New();
    try
    {
      r->SetMeshName(el.Attribute("mesh", "table"));
      r->SetAxes(SplitList(el.Attribute("axes", "x,y")));
      if (el.HasAttribute("resolution"))
        r->SetBinResolution(el.AttributeInt("resolution", 256));

      const std::vector<std::string> axes = SplitList(el.Attribute(
        "axes", "x,y"));
      for (std::size_t a = 0; a < axes.size(); ++a)
      {
        const std::string key = "range_" + std::to_string(a);
        if (el.HasAttribute(key))
        {
          std::vector<std::string> rg = SplitList(el.Attribute(key));
          if (rg.size() != 2)
            throw std::runtime_error("render: " + key + " must be 'lo,hi'");
          r->SetBinRange(static_cast<int>(a), std::stod(rg[0]),
                         std::stod(rg[1]));
        }
      }

      if (el.HasAttribute("variable"))
        r->SetVariable(el.Attribute("variable"), el.Attribute("op", "sum"));

      r->SetImageSize(
        static_cast<std::uint32_t>(el.AttributeInt("width", vcfg.Width)),
        static_cast<std::uint32_t>(el.AttributeInt("height", vcfg.Height)));

      viz::TransferFunction tf;
      tf.Map = viz::ColormapFromName(
        el.Attribute("colormap", viz::ColormapName(vcfg.Map)));
      tf.Log = el.AttributeBool("log", vcfg.Log);
      tf.AutoRange = vcfg.AutoRange;
      tf.Lo = vcfg.Lo;
      tf.Hi = vcfg.Hi;
      if (el.HasAttribute("range"))
      {
        std::vector<std::string> rg = SplitList(el.Attribute("range"));
        if (rg.size() != 2)
          throw std::runtime_error("render: range must be 'lo,hi'");
        tf.Lo = std::stod(rg[0]);
        tf.Hi = std::stod(rg[1]);
        tf.AutoRange = false;
      }
      r->SetTransfer(tf);
    }
    catch (const std::invalid_argument &e)
    {
      r->UnRegister();
      throw std::runtime_error(std::string("ConfigurableAnalysis: render: ") +
                               e.what());
    }
    catch (...)
    {
      r->UnRegister();
      throw;
    }
    return r;
  }

  if (type == "histogram")
  {
    Histogram *h = Histogram::New();
    try
    {
      h->SetMeshName(el.Attribute("mesh", "table"));
      h->SetColumn(el.Attribute("column"));
      h->SetBins(el.AttributeInt("bins", 64));
      if (el.HasAttribute("range"))
      {
        std::vector<std::string> r = SplitList(el.Attribute("range"));
        if (r.size() != 2)
          throw std::runtime_error("histogram: range must be 'lo,hi'");
        h->SetRange(std::stod(r[0]), std::stod(r[1]));
      }
    }
    catch (...)
    {
      h->UnRegister();
      throw;
    }
    return h;
  }

  if (type == "autocorrelation")
  {
    Autocorrelation *a = Autocorrelation::New();
    a->SetMeshName(el.Attribute("mesh", "table"));
    a->SetColumn(el.Attribute("column"));
    a->SetWindow(el.AttributeInt("window", 8));
    return a;
  }

  if (type == "column_statistics")
  {
    ColumnStatistics *s = ColumnStatistics::New();
    s->SetMeshName(el.Attribute("mesh", "table"));
    if (el.HasAttribute("columns"))
      s->SetColumns(SplitList(el.Attribute("columns")));
    if (el.HasAttribute("file"))
      s->SetOutputFile(el.Attribute("file"));
    return s;
  }

  if (type == "posthoc_io")
  {
    PosthocIO *io = PosthocIO::New();
    io->SetMeshName(el.Attribute("mesh", "table"));
    io->SetOutputDir(el.Attribute("dir", "."));
    io->SetPrefix(el.Attribute("prefix", "posthoc"));
    io->SetFrequency(el.AttributeInt("frequency", 1));
    const std::string fmt = el.Attribute("format", "csv");
    io->SetFormat(fmt == "vtk"    ? PosthocIO::Format::VTK
                  : fmt == "sbin" ? PosthocIO::Format::SBIN
                                  : PosthocIO::Format::CSV);
    return io;
  }

  throw std::runtime_error("ConfigurableAnalysis: unknown analysis type '" +
                           type + "'");
}

bool ConfigurableAnalysis::Execute(DataAdaptor *data)
{
  bool ok = true;
  for (AnalysisAdaptor *a : this->Analyses_)
    ok = a->Execute(data) && ok;
  return ok;
}

void ConfigurableAnalysis::DrainAsync()
{
  for (AnalysisAdaptor *a : this->Analyses_)
    a->DrainAsync();
}

int ConfigurableAnalysis::Finalize()
{
  // drain every analysis before finalizing any: a back end's Finalize
  // (or the profiler shutdown that follows) must not run while a sibling
  // still has an asynchronous task in flight
  this->DrainAsync();

  int status = 0;
  for (AnalysisAdaptor *a : this->Analyses_)
  {
    const int s = a->Finalize();
    if (s && !status)
      status = s;
  }
  return status;
}

AnalysisAdaptor *ConfigurableAnalysis::GetAnalysis(int i) const
{
  if (i < 0 || i >= static_cast<int>(this->Analyses_.size()))
    return nullptr;
  return this->Analyses_[static_cast<std::size_t>(i)];
}

} // namespace sensei
