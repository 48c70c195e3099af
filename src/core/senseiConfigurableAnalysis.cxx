#include "senseiConfigurableAnalysis.h"

#include "senseiAutocorrelation.h"
#include "senseiColumnStatistics.h"
#include "senseiDataBinning.h"
#include "senseiHistogram.h"
#include "senseiPosthocIO.h"
#include "execEngine.h"
#include "layoutMapping.h"
#include "schedPipeline.h"
#include "svcSession.h"
#include "sxml.h"
#include "vizConfig.h"
#include "vizRender.h"
#include "vpChecker.h"
#include "vpFaultInjector.h"
#include "vpMemoryPool.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

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

/// The error for attribute `key` of analysis element `el`, naming the
/// analysis type, the attribute and `what` was expected.
std::runtime_error BadAttribute(const sxml::Element &el, const std::string &key,
                                const std::string &what)
{
  return std::runtime_error("ConfigurableAnalysis: <analysis type=\"" +
                            el.Attribute("type") + "\" " + key + "=\"" +
                            el.Attribute(key) + "\">: " + what);
}

/// parse(), reporting a std::invalid_argument it throws as an error in
/// attribute `key` of analysis element `el`.
template <class F>
auto Checked(const sxml::Element &el, const std::string &key, F &&parse)
{
  try
  {
    return parse();
  }
  catch (const std::invalid_argument &e)
  {
    throw BadAttribute(el, key, e.what());
  }
}

/// Attribute `key` of analysis element `el` as a boolean in the knob
/// rows' spellings, or `fallback` when it is absent.
bool BoolAttribute(const sxml::Element &el, const std::string &key,
                   bool fallback)
{
  if (!el.HasAttribute(key))
    return fallback;
  return Checked(el, key,
                 [&] { return vp::knob::ParseBool(el.Attribute(key)); });
}

/// Attribute `key` of analysis element `el` as an integer in [min,
/// 2^31 - 1], or `fallback` when it is absent.
int IntAttribute(const sxml::Element &el, const std::string &key,
                 int fallback, int min)
{
  if (!el.HasAttribute(key))
    return fallback;
  return Checked(el, key,
                 [&]
                 {
                   return static_cast<int>(vp::knob::ParseNumber(
                     el.Attribute(key), true, min, vp::knob::kMaxInt32));
                 });
}

/// "lo,hi" as two finite numbers with lo < hi; throws
/// std::invalid_argument saying what was expected.
std::pair<double, double> ParseRange(const std::string &text)
{
  const std::vector<std::string> r = SplitList(text);
  constexpr double big = std::numeric_limits<double>::max();
  try
  {
    if (r.size() == 2)
    {
      const double lo = vp::knob::ParseNumber(r[0], false, -big, big);
      const double hi = vp::knob::ParseNumber(r[1], false, -big, big);
      if (lo < hi)
        return {lo, hi};
    }
  }
  catch (const std::invalid_argument &)
  {
  }
  throw std::invalid_argument("expected 'lo,hi', two numbers with lo < hi");
}

/// Attribute `key` of analysis element `el` as a range (ParseRange).
std::pair<double, double> RangeAttribute(const sxml::Element &el,
                                         const std::string &key)
{
  return Checked(el, key, [&] { return ParseRange(el.Attribute(key)); });
}

/// What the <viz> rows cannot express: the fixed range and the viewers.
void ApplyExtra(viz::VizConfig &cfg, const sxml::Element &root)
{
  const sxml::Element *ze = root.FirstChild("viz");
  if (!ze)
    return;
  if (ze->HasAttribute("range"))
  {
    std::tie(cfg.Lo, cfg.Hi) = ParseRange(ze->Attribute("range"));
    cfg.AutoRange = false;
  }
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
}

template <class Cfg>
void ApplyExtra(Cfg &, const sxml::Element &)
{
}

/// Visit every subsystem section, in the order Initialize applies them:
/// f(element, rows, get, configure).
template <class F>
void ForEachSection(F &&f)
{
  f("pool", vp::PoolConfigRows(),
    [] { return vp::PoolManager::Get().Config(); },
    [](const vp::PoolConfig &c) { vp::PoolManager::Get().Configure(c); });
  f("check", vp::check::ConfigRows(), vp::check::GetConfig,
    vp::check::Configure);
  f("sched", sched::ConfigRows(), sched::GetConfig, sched::Configure);
  f("exec", vp::exec::ConfigRows(), vp::exec::GetConfig, vp::exec::Configure);
  f("layout", vp::layout::ConfigRows(), vp::layout::GetConfig,
    vp::layout::Configure);
  f("compress", cmp::ConfigRows(), cmp::GetConfig, cmp::Configure);
  f("service", svc::ConfigRows(), svc::GetConfig, svc::Configure);
  f("viz", viz::ConfigRows(), viz::GetConfig, viz::Configure);
  f("fault", vp::fault::ConfigRows(), vp::fault::GetConfig,
    vp::fault::Configure);
}
} // namespace

const vp::knob::Table<AnalysisOverride> &AnalysisRows()
{
  using namespace vp::knob;
  using O = AnalysisOverride;
  static const Table<AnalysisOverride> rows({
    Enum<&O::Policy>("analysis", "policy", sched::PolicyNames())
      .When([](const O &o) { return o.Policy >= 0; }),
  });
  return rows;
}

const vp::knob::Attrs *AttrsOf::operator()(const char *element) const
{
  const sxml::Element *e = this->Root.FirstChild(element);
  return e ? &e->Attributes() : nullptr;
}

void ResetConfig(std::initializer_list<std::string> sections)
{
  std::size_t named = 0;
  ForEachSection(
    [&](const char *name, const auto &rows, auto, auto configure)
    {
      const bool listed = std::find(sections.begin(), sections.end(),
                                    name) != sections.end();
      named += listed;
      if (listed || sections.size() == 0)
        configure(rows.Defaults());
    });
  if (named != sections.size())
    throw std::invalid_argument("ResetConfig: unknown section name");
}

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

  // a subsystem is touched only when the document has one of its
  // elements or the environment sets one of its variables
  ForEachSection(
    [&root](const char *name, const auto &rows, auto get, auto configure)
    {
      if (!rows.Touched(AttrsOf{root}))
        return;
      auto cfg = get();
      rows.Merge(cfg, AttrsOf{root});
      try
      {
        ApplyExtra(cfg, root);
        configure(cfg);
      }
      catch (const std::invalid_argument &e)
      {
        throw std::runtime_error(std::string("ConfigurableAnalysis: <") +
                                 name + "> " + e.what());
      }
    });

  // the <sched> policy is every analysis's default policy
  if (root.FirstChild("sched"))
  {
    this->SchedPolicy_ = sched::GetConfig().Policy;
    this->HaveSchedPolicy_ = true;
  }

  for (const sxml::Element *el : root.ChildrenNamed("analysis"))
  {
    if (!BoolAttribute(*el, "enabled", true))
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
  a->SetAsynchronous(BoolAttribute(el, "async", false));

  // placement: explicit device id, "host", or "auto" + Eq. 1 controls
  const std::string device = el.Attribute("device", "auto");
  if (device == "host")
    a->SetDeviceId(AnalysisAdaptor::DEVICE_HOST);
  else if (device == "auto")
    a->SetDeviceId(AnalysisAdaptor::DEVICE_AUTO);
  else
    a->SetDeviceId(IntAttribute(el, "device", 0, 0));

  a->SetDevicesToUse(IntAttribute(el, "devices_to_use", 0, 0));
  a->SetDeviceStart(IntAttribute(el, "device_start", 0, 0));
  a->SetDeviceStride(IntAttribute(el, "device_stride", 1, 1));
  a->SetVerbose(IntAttribute(el, "verbose", 0, 0));

  AnalysisOverride ov;
  AnalysisRows().Merge(
    ov, [&el](const char *) { return &el.Attributes(); }, false);

  if (this->HaveSchedPolicy_)
    a->SetPlacementPolicy(this->SchedPolicy_);
  if (ov.Policy >= 0)
    a->SetPlacementPolicy(static_cast<sched::PolicyKind>(ov.Policy));
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
      Checked(el, "axes", [&] { b->SetAxes(axes); });

      if (el.HasAttribute("resolution"))
        Checked(el, "resolution",
                [&]
                {
                  std::vector<long> res;
                  for (const std::string &r :
                       SplitList(el.Attribute("resolution")))
                    res.push_back(static_cast<long>(
                      vp::knob::ParseNumber(r, true, 1, vp::knob::kMaxInt32)));
                  b->SetResolution(res);
                });

      // optional fixed ranges: range_0="lo,hi" per axis
      for (std::size_t a = 0; a < axes.size(); ++a)
      {
        const std::string key = "range_" + std::to_string(a);
        if (el.HasAttribute(key))
        {
          const auto [lo, hi] = RangeAttribute(el, key);
          b->SetRange(static_cast<int>(a), lo, hi);
        }
      }

      const std::vector<std::string> ops =
        SplitList(el.Attribute("ops", "count"));
      const std::vector<std::string> values =
        SplitList(el.Attribute("values", ""));
      for (std::size_t i = 0; i < ops.size(); ++i)
      {
        const BinningOp op =
          Checked(el, "ops", [&] { return BinningOpFromName(ops[i]); });
        const std::string col = i < values.size() ? values[i] : std::string();
        if (op != BinningOp::Count)
          Checked(el, "ops", [&] { b->AddOperation(col, op); });
      }

      const int outFreq = IntAttribute(el, "out_freq", 1, 0);
      if (el.HasAttribute("out_dir"))
        b->SetOutput(el.Attribute("out_dir"),
                     el.Attribute("out_prefix", "binning"), outFreq);

      b->SetGpuStrategy(Checked(el, "gpu_strategy",
                                [&]
                                {
                                  return GpuBinningStrategyFromName(
                                    el.Attribute("gpu_strategy", ""));
                                }));
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
      const std::vector<std::string> axes =
        SplitList(el.Attribute("axes", "x,y"));
      Checked(el, "axes", [&] { r->SetAxes(axes); });
      if (el.HasAttribute("resolution"))
        r->SetBinResolution(IntAttribute(el, "resolution", 256, 1));

      for (std::size_t a = 0; a < axes.size(); ++a)
      {
        const std::string key = "range_" + std::to_string(a);
        if (el.HasAttribute(key))
        {
          const auto [lo, hi] = RangeAttribute(el, key);
          r->SetBinRange(static_cast<int>(a), lo, hi);
        }
      }

      const std::string op = el.Attribute("op", "sum");
      Checked(el, "op", [&] { return BinningOpFromName(op); });
      if (el.HasAttribute("variable"))
        r->SetVariable(el.Attribute("variable"), op);

      r->SetImageSize(
        static_cast<std::uint32_t>(
          IntAttribute(el, "width", static_cast<int>(vcfg.Width), 1)),
        static_cast<std::uint32_t>(
          IntAttribute(el, "height", static_cast<int>(vcfg.Height), 1)));

      viz::TransferFunction tf;
      tf.Map = Checked(el, "colormap",
                       [&]
                       {
                         return viz::ColormapFromName(el.Attribute(
                           "colormap", viz::ColormapName(vcfg.Map)));
                       });
      tf.Log = BoolAttribute(el, "log", vcfg.Log);
      tf.AutoRange = vcfg.AutoRange;
      tf.Lo = vcfg.Lo;
      tf.Hi = vcfg.Hi;
      if (el.HasAttribute("range"))
      {
        std::tie(tf.Lo, tf.Hi) = RangeAttribute(el, "range");
        tf.AutoRange = false;
      }
      r->SetTransfer(tf);
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
      h->SetBins(IntAttribute(el, "bins", 64, 1));
      if (el.HasAttribute("range"))
      {
        const auto [lo, hi] = RangeAttribute(el, "range");
        h->SetRange(lo, hi);
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
    const int window = IntAttribute(el, "window", 8, 1);
    Autocorrelation *a = Autocorrelation::New();
    a->SetMeshName(el.Attribute("mesh", "table"));
    a->SetColumn(el.Attribute("column"));
    a->SetWindow(window);
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
    const int frequency = IntAttribute(el, "frequency", 1, 0);
    const std::string fmt = el.Attribute("format", "csv");
    if (fmt != "csv" && fmt != "vtk" && fmt != "sbin")
      throw BadAttribute(el, "format", "expected csv | vtk | sbin");
    PosthocIO *io = PosthocIO::New();
    io->SetMeshName(el.Attribute("mesh", "table"));
    io->SetOutputDir(el.Attribute("dir", "."));
    io->SetPrefix(el.Attribute("prefix", "posthoc"));
    io->SetFrequency(frequency);
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
  // a step with fewer lockstep binnings than the last completes here
  if (data)
    data->FinishLockstep();
  return ok;
}

void ConfigurableAnalysis::DrainAsync()
{
  for (AnalysisAdaptor *a : this->Analyses_)
    a->DrainAsync();
}

std::optional<std::vector<std::string>>
ConfigurableAnalysis::GetColumnsRead(const std::string &mesh) const
{
  std::set<std::string> cols;
  for (const AnalysisAdaptor *a : this->Analyses_)
  {
    const std::optional<std::vector<std::string>> read =
      a->GetColumnsRead(mesh);
    if (!read)
      return std::nullopt;
    cols.insert(read->begin(), read->end());
  }
  return std::vector<std::string>(cols.begin(), cols.end());
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
