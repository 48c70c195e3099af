#include "tuneSpace.h"

#include "schedPolicy.h"
#include "sxml.h"
#include "vizTransfer.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace tune
{

// --------------------------------------------------------------- equality

bool AnalysisOverride::operator==(const AnalysisOverride &o) const
{
  if (this->Policy != o.Policy || this->Codec != o.Codec)
    return false;
  // Level/ErrorBound only carry meaning when a codec override is set
  if (this->Codec >= 0 &&
      (this->Level != o.Level || this->ErrorBound != o.ErrorBound))
    return false;
  return true;
}

bool ConfigPoint::operator==(const ConfigPoint &o) const
{
  if (this->PoolEnabled != o.PoolEnabled ||
      this->PoolMaxCachedBytes != o.PoolMaxCachedBytes ||
      this->PoolTrimThreshold != o.PoolTrimThreshold ||
      this->PoolMinBlockBytes != o.PoolMinBlockBytes ||
      this->Policy != o.Policy || this->QueueDepth != o.QueueDepth ||
      this->Pressure != o.Pressure ||
      this->CompressEnabled != o.CompressEnabled ||
      this->Codec != o.Codec || this->CompressLevel != o.CompressLevel ||
      this->CompressErrorBound != o.CompressErrorBound ||
      this->ExecMode != o.ExecMode || this->ExecThreads != o.ExecThreads ||
      this->ExecShardGrain != o.ExecShardGrain ||
      this->GraphEnabled != o.GraphEnabled ||
      this->GraphMaxNodes != o.GraphMaxNodes ||
      this->Layout != o.Layout || this->LayoutBlock != o.LayoutBlock ||
      this->LayoutSimd != o.LayoutSimd ||
      this->VizResolution != o.VizResolution ||
      this->VizColormap != o.VizColormap || this->VizCodec != o.VizCodec)
    return false;

  // overrides compare padded with defaults: a short (or missing) vector is
  // the same point as one extended with default entries
  const std::size_t n = std::max(this->Overrides.size(), o.Overrides.size());
  static const AnalysisOverride def;
  for (std::size_t i = 0; i < n; ++i)
  {
    const AnalysisOverride &a = i < this->Overrides.size()
                                  ? this->Overrides[i] : def;
    const AnalysisOverride &b = i < o.Overrides.size() ? o.Overrides[i] : def;
    if (a != b)
      return false;
  }
  return true;
}

// ------------------------------------------------------------------ knobs

std::size_t Knob::Cardinality() const
{
  switch (this->Kind)
  {
    case KnobKind::Bool:
      return 2;
    case KnobKind::Enum:
      return this->Choices.size();
    case KnobKind::PowerOfTwo:
      return static_cast<std::size_t>(
               std::lround(std::log2(this->Max / this->Min))) + 1;
    case KnobKind::Int:
      return static_cast<std::size_t>(this->Max - this->Min) + 1;
    case KnobKind::LogDouble:
      return static_cast<std::size_t>(std::lround(
               std::log(this->Max / this->Min) / std::log(this->Step))) + 1;
  }
  return 1;
}

namespace
{

// the i-th value of a knob's domain, i in [0, Cardinality())
double ValueAt(const Knob &k, std::size_t i)
{
  switch (k.Kind)
  {
    case KnobKind::Bool:
    case KnobKind::Enum:
      return static_cast<double>(i);
    case KnobKind::PowerOfTwo:
      return k.Min * std::pow(2.0, static_cast<double>(i));
    case KnobKind::Int:
      return k.Min + static_cast<double>(i);
    case KnobKind::LogDouble:
      return std::min(k.Max,
                      k.Min * std::pow(k.Step, static_cast<double>(i)));
  }
  return k.Min;
}

// index of the domain value closest to v
std::size_t IndexOf(const Knob &k, double v)
{
  switch (k.Kind)
  {
    case KnobKind::Bool:
    case KnobKind::Enum:
    case KnobKind::Int:
      break;
    case KnobKind::PowerOfTwo:
      return static_cast<std::size_t>(std::max(
        0L, std::lround(std::log2(std::max(v, k.Min) / k.Min))));
    case KnobKind::LogDouble:
      return static_cast<std::size_t>(std::max(
        0L, std::lround(std::log(std::max(v, k.Min) / k.Min) /
                        std::log(k.Step))));
  }
  return static_cast<std::size_t>(std::max(0.0, v - k.Min));
}

std::string FormatValue(const Knob &k, double v)
{
  if ((k.Kind == KnobKind::Bool || k.Kind == KnobKind::Enum) &&
      static_cast<std::size_t>(v) < k.Choices.size())
    return k.Choices[static_cast<std::size_t>(v)];
  std::ostringstream os;
  os << v;
  return os.str();
}

AnalysisOverride &OverrideAt(ConfigPoint &p, std::size_t i)
{
  if (p.Overrides.size() <= i)
    p.Overrides.resize(i + 1);
  return p.Overrides[i];
}

int OverridePolicy(const ConfigPoint &p, std::size_t i)
{
  return i < p.Overrides.size() ? p.Overrides[i].Policy : -1;
}

} // namespace

KnobSpace KnobSpace::Campaign(int nAnalyses, bool includeExec)
{
  KnobSpace s;
  auto add = [&s](Knob k) { s.Knobs_.push_back(std::move(k)); };

  // ---- <pool> ----
  {
    Knob k;
    k.Name = "pool.enabled";
    k.Kind = KnobKind::Bool;
    k.Min = 0; k.Max = 1;
    k.Choices = {"0", "1"};
    k.Get = [](const ConfigPoint &p) { return p.PoolEnabled ? 1.0 : 0.0; };
    k.Set = [](ConfigPoint &p, double v) { p.PoolEnabled = v >= 0.5; };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "pool.max_cached_bytes";
    k.Kind = KnobKind::PowerOfTwo;
    k.Min = double(std::size_t(1) << 20);  // 1 MiB
    k.Max = double(std::size_t(1) << 30);  // 1 GiB
    k.Get = [](const ConfigPoint &p) { return double(p.PoolMaxCachedBytes); };
    k.Set = [](ConfigPoint &p, double v)
    { p.PoolMaxCachedBytes = static_cast<std::size_t>(v); };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "pool.trim_threshold";
    k.Kind = KnobKind::LogDouble;
    k.Min = 0.125; k.Max = 1.0; k.Step = 2.0;
    k.Get = [](const ConfigPoint &p) { return p.PoolTrimThreshold; };
    k.Set = [](ConfigPoint &p, double v) { p.PoolTrimThreshold = v; };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "pool.min_block_bytes";
    k.Kind = KnobKind::PowerOfTwo;
    k.Min = 64; k.Max = 65536;
    k.Get = [](const ConfigPoint &p) { return double(p.PoolMinBlockBytes); };
    k.Set = [](ConfigPoint &p, double v)
    { p.PoolMinBlockBytes = static_cast<std::size_t>(v); };
    add(std::move(k));
  }

  // ---- <sched> ----
  {
    Knob k;
    k.Name = "sched.policy";
    k.Kind = KnobKind::Enum;
    k.Min = 0; k.Max = 2;
    k.Choices = {"static", "least-loaded", "cost-model"};
    k.Get = [](const ConfigPoint &p) { return double(int(p.Policy)); };
    k.Set = [](ConfigPoint &p, double v)
    { p.Policy = static_cast<sched::PolicyKind>(int(v)); };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "sched.queue_depth"; // 0 = unbounded
    k.Kind = KnobKind::Int;
    k.Min = 0; k.Max = 8;
    k.Get = [](const ConfigPoint &p) { return double(p.QueueDepth); };
    k.Set = [](ConfigPoint &p, double v) { p.QueueDepth = long(v); };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "sched.backpressure";
    k.Kind = KnobKind::Enum;
    k.Min = 0; k.Max = 2;
    k.Choices = {"block", "drop-oldest", "coalesce"};
    k.Get = [](const ConfigPoint &p) { return double(int(p.Pressure)); };
    k.Set = [](ConfigPoint &p, double v)
    { p.Pressure = static_cast<sched::Backpressure>(int(v)); };
    add(std::move(k));
  }

  // ---- <compress> ----
  {
    Knob k;
    k.Name = "compress.enabled";
    k.Kind = KnobKind::Bool;
    k.Choices = {"0", "1"};
    k.Get = [](const ConfigPoint &p) { return p.CompressEnabled ? 1.0 : 0.0; };
    k.Set = [](ConfigPoint &p, double v) { p.CompressEnabled = v >= 0.5; };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "compress.codec";
    k.Kind = KnobKind::Enum;
    k.Min = 0; k.Max = 3;
    k.Choices = {"none", "shuffle-rle", "delta-varint", "quantize"};
    k.Get = [](const ConfigPoint &p) { return double(int(p.Codec)); };
    k.Set = [](ConfigPoint &p, double v)
    { p.Codec = static_cast<cmp::CodecId>(int(v)); };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "compress.level";
    k.Kind = KnobKind::Int;
    k.Min = 0; k.Max = 3;
    k.Get = [](const ConfigPoint &p) { return double(p.CompressLevel); };
    k.Set = [](ConfigPoint &p, double v) { p.CompressLevel = int(v); };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "compress.error_bound";
    k.Kind = KnobKind::LogDouble;
    k.Min = 1e-6; k.Max = 1e-2; k.Step = 10.0;
    k.Get = [](const ConfigPoint &p) { return p.CompressErrorBound; };
    k.Set = [](ConfigPoint &p, double v) { p.CompressErrorBound = v; };
    add(std::move(k));
  }

  // ---- <exec> ---- (virtual time is exec-mode independent: optional)
  if (includeExec)
  {
    {
      Knob k;
      k.Name = "exec.mode";
      k.Kind = KnobKind::Enum;
      k.Min = 0; k.Max = 1;
      k.Choices = {"serial", "threads"};
      k.Get = [](const ConfigPoint &p) { return double(int(p.ExecMode)); };
      k.Set = [](ConfigPoint &p, double v)
      { p.ExecMode = static_cast<vp::exec::Mode>(int(v)); };
      add(std::move(k));
    }
    {
      Knob k;
      k.Name = "exec.threads"; // 0 = auto
      k.Kind = KnobKind::Int;
      k.Min = 0; k.Max = 8;
      k.Get = [](const ConfigPoint &p) { return double(p.ExecThreads); };
      k.Set = [](ConfigPoint &p, double v) { p.ExecThreads = int(v); };
      add(std::move(k));
    }
    {
      Knob k;
      k.Name = "exec.shard_grain";
      k.Kind = KnobKind::PowerOfTwo;
      k.Min = 4096; k.Max = 65536;
      k.Get = [](const ConfigPoint &p) { return double(p.ExecShardGrain); };
      k.Set = [](ConfigPoint &p, double v)
      { p.ExecShardGrain = static_cast<std::size_t>(v); };
      add(std::move(k));
    }
  }

  // ---- <graph> ----
  {
    Knob k;
    k.Name = "graph.enabled";
    k.Kind = KnobKind::Bool;
    k.Choices = {"0", "1"};
    k.Get = [](const ConfigPoint &p) { return p.GraphEnabled ? 1.0 : 0.0; };
    k.Set = [](ConfigPoint &p, double v) { p.GraphEnabled = v >= 0.5; };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "graph.max_nodes";
    k.Kind = KnobKind::PowerOfTwo;
    k.Min = 1024; k.Max = 8192;
    k.Get = [](const ConfigPoint &p) { return double(p.GraphMaxNodes); };
    k.Set = [](ConfigPoint &p, double v)
    { p.GraphMaxNodes = static_cast<std::size_t>(v); };
    add(std::move(k));
  }

  // ---- <layout> ----
  {
    Knob k;
    k.Name = "layout.default";
    k.Kind = KnobKind::Enum;
    k.Min = 0; k.Max = 2;
    k.Choices = {"aos", "soa", "aosoa"};
    k.Get = [](const ConfigPoint &p) { return double(int(p.Layout)); };
    k.Set = [](ConfigPoint &p, double v)
    { p.Layout = static_cast<vp::layout::Kind>(int(v)); };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "layout.block";
    k.Kind = KnobKind::PowerOfTwo;
    k.Min = 8; k.Max = 128;
    k.Get = [](const ConfigPoint &p) { return double(p.LayoutBlock); };
    k.Set = [](ConfigPoint &p, double v)
    { p.LayoutBlock = static_cast<std::size_t>(v); };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "layout.simd";
    k.Kind = KnobKind::Bool;
    k.Choices = {"0", "1"};
    k.Get = [](const ConfigPoint &p) { return p.LayoutSimd ? 1.0 : 0.0; };
    k.Set = [](ConfigPoint &p, double v) { p.LayoutSimd = v >= 0.5; };
    add(std::move(k));
  }

  // ---- <viz> ----
  {
    Knob k;
    k.Name = "viz.resolution";
    k.Kind = KnobKind::PowerOfTwo;
    k.Min = 64; k.Max = 1024;
    k.Get = [](const ConfigPoint &p) { return double(p.VizResolution); };
    k.Set = [](ConfigPoint &p, double v)
    { p.VizResolution = static_cast<std::size_t>(v); };
    add(std::move(k));
  }
  {
    Knob k;
    k.Name = "viz.colormap";
    k.Kind = KnobKind::Enum;
    k.Min = 0; k.Max = 2;
    k.Choices = {"gray", "viridis", "heat"};
    k.Get = [](const ConfigPoint &p) { return double(p.VizColormap); };
    k.Set = [](ConfigPoint &p, double v) { p.VizColormap = int(v); };
    add(std::move(k));
  }
  {
    // image frames are RGBA bytes: only none / shuffle-rle apply (u8
    // negotiation folds everything else onto shuffle-rle anyway)
    Knob k;
    k.Name = "viz.codec";
    k.Kind = KnobKind::Enum;
    k.Min = 0; k.Max = 1;
    k.Choices = {"none", "shuffle-rle"};
    k.Get = [](const ConfigPoint &p)
    { return p.VizCodec == cmp::CodecId::None ? 0.0 : 1.0; };
    k.Set = [](ConfigPoint &p, double v)
    {
      p.VizCodec = v >= 0.5 ? cmp::CodecId::ShuffleRLE : cmp::CodecId::None;
    };
    add(std::move(k));
  }

  // ---- per-analysis placement-policy overrides ----
  for (int i = 0; i < nAnalyses; ++i)
  {
    Knob k;
    k.Name = "analysis" + std::to_string(i) + ".policy";
    k.Kind = KnobKind::Enum;
    k.Min = 0; k.Max = 3;
    k.Choices = {"default", "static", "least-loaded", "cost-model"};
    const std::size_t idx = static_cast<std::size_t>(i);
    k.Get = [idx](const ConfigPoint &p)
    { return double(OverridePolicy(p, idx) + 1); };
    k.Set = [idx](ConfigPoint &p, double v)
    { OverrideAt(p, idx).Policy = int(v) - 1; };
    add(std::move(k));
  }

  return s;
}

double KnobSpace::Size() const
{
  double n = 1.0;
  for (const Knob &k : this->Knobs_)
    n *= double(k.Cardinality());
  return n;
}

ConfigPoint KnobSpace::Random(std::mt19937_64 &rng) const
{
  ConfigPoint p;
  for (const Knob &k : this->Knobs_)
  {
    std::uniform_int_distribution<std::size_t> pick(0, k.Cardinality() - 1);
    k.Set(p, ValueAt(k, pick(rng)));
  }
  return p;
}

std::string KnobSpace::Neighbor(ConfigPoint &p, std::mt19937_64 &rng) const
{
  if (this->Knobs_.empty())
    return std::string();

  std::uniform_int_distribution<std::size_t> pickKnob(
    0, this->Knobs_.size() - 1);
  for (int attempt = 0; attempt < 64; ++attempt)
  {
    const Knob &k = this->Knobs_[pickKnob(rng)];
    const std::size_t n = k.Cardinality();
    if (n < 2)
      continue;

    const std::size_t cur = IndexOf(k, k.Get(p));
    std::size_t next = cur;
    if (k.Kind == KnobKind::Enum || k.Kind == KnobKind::Bool)
    {
      // adjacent choice, wrapping
      const bool up = std::uniform_int_distribution<int>(0, 1)(rng) != 0;
      next = up ? (cur + 1) % n : (cur + n - 1) % n;
    }
    else
    {
      // one step along the scale, reflecting at the bounds
      bool up = std::uniform_int_distribution<int>(0, 1)(rng) != 0;
      if (cur == 0)
        up = true;
      else if (cur >= n - 1)
        up = false;
      next = up ? cur + 1 : cur - 1;
    }
    if (next == cur)
      continue;

    const double oldV = k.Get(p);
    k.Set(p, ValueAt(k, next));
    return k.Name + ": " + FormatValue(k, oldV) + " -> " +
           FormatValue(k, k.Get(p));
  }
  return std::string();
}

void KnobSpace::Clamp(ConfigPoint &p) const
{
  for (const Knob &k : this->Knobs_)
  {
    const std::size_t n = k.Cardinality();
    std::size_t i = IndexOf(k, k.Get(p));
    if (i >= n)
      i = n - 1;
    k.Set(p, ValueAt(k, i));
  }
}

// ------------------------------------------------------------ XML emitter

void ApplyToDoc(const ConfigPoint &p, sxml::Element &root)
{
  // every element is (re)written with every knob explicit, so loading the
  // document fully determines the subsystem configurations regardless of
  // what a previous candidate (or a hand-written config) left behind
  sxml::Element *pe = root.FindOrAddChild("pool");
  pe->ClearAttributes();
  pe->SetAttributeBool("enabled", p.PoolEnabled);
  pe->SetAttributeInt("max_cached_bytes",
                      static_cast<long long>(p.PoolMaxCachedBytes));
  pe->SetAttributeDouble("trim_threshold", p.PoolTrimThreshold);
  pe->SetAttributeInt("min_block_bytes",
                      static_cast<long long>(p.PoolMinBlockBytes));

  sxml::Element *se = root.FindOrAddChild("sched");
  se->ClearAttributes();
  se->SetAttribute("policy", sched::PolicyKindName(p.Policy));
  se->SetAttributeInt("queue_depth", p.QueueDepth);
  se->SetAttribute("backpressure", sched::BackpressureName(p.Pressure));
  se->SetAttributeBool("real_threads", false); // determinism: virtual ranks

  sxml::Element *ke = root.FindOrAddChild("compress");
  ke->ClearAttributes();
  ke->SetAttributeBool("enabled", p.CompressEnabled);
  ke->SetAttribute("codec", cmp::CodecName(p.Codec));
  ke->SetAttributeInt("level", p.CompressLevel);
  ke->SetAttributeDouble("error_bound", p.CompressErrorBound);

  sxml::Element *xe = root.FindOrAddChild("exec");
  xe->ClearAttributes();
  xe->SetAttribute("mode", vp::exec::ModeName(p.ExecMode));
  xe->SetAttributeInt("threads", p.ExecThreads);
  xe->SetAttributeInt("shard_grain",
                      static_cast<long long>(p.ExecShardGrain));

  sxml::Element *ge = root.FindOrAddChild("graph");
  ge->ClearAttributes();
  ge->SetAttributeBool("enabled", p.GraphEnabled);
  ge->SetAttributeInt("max_nodes", static_cast<long long>(p.GraphMaxNodes));

  sxml::Element *le = root.FindOrAddChild("layout");
  le->ClearAttributes();
  le->SetAttribute("default", vp::layout::KindName(p.Layout));
  le->SetAttributeInt("block", static_cast<long long>(p.LayoutBlock));
  le->SetAttributeBool("simd", p.LayoutSimd);

  sxml::Element *ze = root.FindOrAddChild("viz");
  ze->ClearAttributes();
  ze->SetAttributeInt("width", static_cast<long long>(p.VizResolution));
  ze->SetAttributeInt("height", static_cast<long long>(p.VizResolution));
  ze->SetAttribute("colormap",
                   viz::ColormapName(viz::Colormap(p.VizColormap)));
  ze->SetAttribute("codec", cmp::CodecName(p.VizCodec));

  // per-analysis overrides onto the i-th <analysis> element
  std::size_t i = 0;
  for (const auto &child : root.Children())
  {
    if (child->Name() != "analysis")
      continue;
    if (i >= p.Overrides.size())
      break;
    const AnalysisOverride &ov = p.Overrides[i++];
    if (ov.Policy >= 0)
      child->SetAttribute(
        "policy", sched::PolicyKindName(sched::PolicyKind(ov.Policy)));
    if (ov.Codec >= 0)
    {
      child->SetAttribute("compress",
                          cmp::CodecName(cmp::CodecId(ov.Codec)));
      child->SetAttributeInt("compress_level", ov.Level);
      child->SetAttributeDouble("compress_error_bound", ov.ErrorBound);
    }
  }
}

std::string EmitXml(const ConfigPoint &p)
{
  sxml::Element root;
  root.SetName("sensei");
  ApplyToDoc(p, root);

  // a standalone document has no <analysis> children to carry override
  // attributes: record them in a <tune> element ConfigurableAnalysis
  // ignores, so the document stays loadable and the point round-trips
  bool any = false;
  for (const AnalysisOverride &ov : p.Overrides)
    if (!ov.IsDefault())
      any = true;
  if (any)
  {
    sxml::Element *te = root.FindOrAddChild("tune");
    for (std::size_t i = 0; i < p.Overrides.size(); ++i)
    {
      const AnalysisOverride &ov = p.Overrides[i];
      if (ov.IsDefault())
        continue;
      sxml::Element *oe = te->AddChild("override");
      oe->SetAttributeInt("analysis", static_cast<long long>(i));
      if (ov.Policy >= 0)
        oe->SetAttribute(
          "policy", sched::PolicyKindName(sched::PolicyKind(ov.Policy)));
      if (ov.Codec >= 0)
      {
        oe->SetAttribute("compress",
                         cmp::CodecName(cmp::CodecId(ov.Codec)));
        oe->SetAttributeInt("compress_level", ov.Level);
        oe->SetAttributeDouble("compress_error_bound", ov.ErrorBound);
      }
    }
  }

  return sxml::Serialize(root);
}

// ------------------------------------------------------------- XML parser

namespace
{

void ParseOverrideAttrs(const sxml::Element &el, AnalysisOverride &ov)
{
  if (el.HasAttribute("policy"))
    ov.Policy = int(sched::PolicyKindFromName(el.Attribute("policy")));
  if (el.HasAttribute("compress"))
  {
    ov.Codec = int(cmp::CodecIdFromName(el.Attribute("compress")));
    ov.Level = int(el.AttributeInt("compress_level", ov.Level));
    ov.ErrorBound = el.AttributeDouble("compress_error_bound", ov.ErrorBound);
  }
}

} // namespace

ConfigPoint ParseDoc(const sxml::Element &root)
{
  if (root.Name() != "sensei")
    throw std::runtime_error("tune::ParseDoc: document element must be "
                             "<sensei>, got <" + root.Name() + ">");

  ConfigPoint p;
  try
  {
    if (const sxml::Element *pe = root.FirstChild("pool"))
    {
      p.PoolEnabled = pe->AttributeBool("enabled", p.PoolEnabled);
      p.PoolMaxCachedBytes = static_cast<std::size_t>(pe->AttributeInt(
        "max_cached_bytes", static_cast<long long>(p.PoolMaxCachedBytes)));
      p.PoolTrimThreshold =
        pe->AttributeDouble("trim_threshold", p.PoolTrimThreshold);
      p.PoolMinBlockBytes = static_cast<std::size_t>(pe->AttributeInt(
        "min_block_bytes", static_cast<long long>(p.PoolMinBlockBytes)));
    }
    if (const sxml::Element *se = root.FirstChild("sched"))
    {
      p.Policy = sched::PolicyKindFromName(
        se->Attribute("policy", sched::PolicyKindName(p.Policy)));
      p.QueueDepth = static_cast<long>(se->AttributeInt(
        "queue_depth", static_cast<long long>(p.QueueDepth)));
      p.Pressure = sched::BackpressureFromName(
        se->Attribute("backpressure", sched::BackpressureName(p.Pressure)));
    }
    if (const sxml::Element *ke = root.FirstChild("compress"))
    {
      // mirror ConfigurableAnalysis: the element's presence means enabled
      // unless it says otherwise
      p.CompressEnabled = ke->AttributeBool("enabled", true);
      p.Codec =
        cmp::CodecIdFromName(ke->Attribute("codec", cmp::CodecName(p.Codec)));
      p.CompressLevel =
        static_cast<int>(ke->AttributeInt("level", p.CompressLevel));
      p.CompressErrorBound =
        ke->AttributeDouble("error_bound", p.CompressErrorBound);
    }
    if (const sxml::Element *xe = root.FirstChild("exec"))
    {
      p.ExecMode = vp::exec::ModeFromName(
        xe->Attribute("mode", vp::exec::ModeName(p.ExecMode)));
      p.ExecThreads =
        static_cast<int>(xe->AttributeInt("threads", p.ExecThreads));
      p.ExecShardGrain = static_cast<std::size_t>(xe->AttributeInt(
        "shard_grain", static_cast<long long>(p.ExecShardGrain)));
    }
    if (const sxml::Element *ge = root.FirstChild("graph"))
    {
      p.GraphEnabled = ge->AttributeBool("enabled", true);
      p.GraphMaxNodes = static_cast<std::size_t>(ge->AttributeInt(
        "max_nodes", static_cast<long long>(p.GraphMaxNodes)));
    }
    if (const sxml::Element *le = root.FirstChild("layout"))
    {
      p.Layout = vp::layout::KindFromName(
        le->Attribute("default", vp::layout::KindName(p.Layout)));
      p.LayoutBlock = static_cast<std::size_t>(le->AttributeInt(
        "block", static_cast<long long>(p.LayoutBlock)));
      if (p.LayoutBlock < 2 || p.LayoutBlock > 65536)
        throw std::runtime_error(
          "tune::ParseDoc: <layout> block must be in [2, 65536]");
      p.LayoutSimd = le->AttributeBool("simd", p.LayoutSimd);
    }
    if (const sxml::Element *ze = root.FirstChild("viz"))
    {
      p.VizResolution = static_cast<std::size_t>(ze->AttributeInt(
        "width", static_cast<long long>(p.VizResolution)));
      p.VizColormap = int(viz::ColormapFromName(ze->Attribute(
        "colormap", viz::ColormapName(viz::Colormap(p.VizColormap)))));
      p.VizCodec = cmp::CodecIdFromName(
        ze->Attribute("codec", cmp::CodecName(p.VizCodec)));
    }

    // per-analysis overrides: from <analysis> elements when the document
    // has them (a campaign config), from <tune><override> records when it
    // does not (a standalone EmitXml document)
    std::size_t i = 0;
    for (const auto &child : root.Children())
    {
      if (child->Name() != "analysis")
        continue;
      AnalysisOverride ov;
      ParseOverrideAttrs(*child, ov);
      if (!ov.IsDefault())
      {
        if (p.Overrides.size() <= i)
          p.Overrides.resize(i + 1);
        p.Overrides[i] = ov;
      }
      ++i;
    }
    if (const sxml::Element *te = root.FirstChild("tune"))
    {
      for (const sxml::Element *oe : te->ChildrenNamed("override"))
      {
        const long long idx = oe->AttributeInt("analysis", -1);
        if (idx < 0)
          throw std::runtime_error(
            "tune::ParseDoc: <override> needs an analysis=\"i\" index");
        AnalysisOverride ov;
        ParseOverrideAttrs(*oe, ov);
        if (p.Overrides.size() <= static_cast<std::size_t>(idx))
          p.Overrides.resize(static_cast<std::size_t>(idx) + 1);
        p.Overrides[static_cast<std::size_t>(idx)] = ov;
      }
    }
  }
  catch (const std::invalid_argument &e)
  {
    throw std::runtime_error(std::string("tune::ParseDoc: ") + e.what());
  }
  return p;
}

ConfigPoint ParseXml(const std::string &xml)
{
  return ParseDoc(*sxml::Parse(xml));
}

ConfigPoint ParseFile(const std::string &path)
{
  return ParseDoc(*sxml::ParseFile(path));
}

std::string Describe(const ConfigPoint &p)
{
  std::ostringstream os;
  os << "sched=" << sched::PolicyKindName(p.Policy) << "/d"
     << p.QueueDepth << "/" << sched::BackpressureName(p.Pressure)
     << " pool=" << (p.PoolEnabled ? "on" : "off");
  if (p.PoolEnabled)
    os << "(" << (p.PoolMaxCachedBytes >> 20) << "MiB,t"
       << p.PoolTrimThreshold << ",b" << p.PoolMinBlockBytes << ")";
  os << " cmp=" << (p.CompressEnabled ? cmp::CodecName(p.Codec) : "off");
  if (p.CompressEnabled)
    os << "/L" << p.CompressLevel;
  os << " exec=" << vp::exec::ModeName(p.ExecMode);
  if (p.ExecMode == vp::exec::Mode::Threads)
    os << "/" << p.ExecThreads << "t/g" << p.ExecShardGrain;
  os << " graph=" << (p.GraphEnabled ? "on" : "off");
  os << " layout=" << vp::layout::KindName(p.Layout, p.LayoutBlock);
  if (p.LayoutSimd)
    os << "+simd";
  os << " viz=" << p.VizResolution << "px/"
     << viz::ColormapName(viz::Colormap(p.VizColormap));
  if (p.VizCodec != cmp::CodecId::None)
    os << "/" << cmp::CodecName(p.VizCodec);
  int n = 0;
  for (const AnalysisOverride &ov : p.Overrides)
    if (!ov.IsDefault())
      ++n;
  if (n)
    os << " overrides=" << n;
  return os.str();
}

} // namespace tune
