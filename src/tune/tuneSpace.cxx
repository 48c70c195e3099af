#include "tuneSpace.h"

#include "sxml.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace tune
{

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
  }
  return k.Min;
}

// index of the domain value closest to v
std::size_t IndexOf(const Knob &k, double v)
{
  if (k.Kind == KnobKind::PowerOfTwo)
    return static_cast<std::size_t>(std::max(
      0L, std::lround(std::log2(std::max(v, k.Min) / k.Min))));
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

/// Visit the three tuned sections: each subsystem's rows with the
/// ConfigPoint member they set. Every row of them is a knob.
template <class F>
void ForEachSection(F &&f)
{
  f(vp::PoolConfigRows(), &ConfigPoint::Pool);
  f(sched::ConfigRows(), &ConfigPoint::Sched);
  f(vp::graph::ConfigRows(), &ConfigPoint::Graph);
}

/// f(row, member) for the row named `name`.
template <class F>
void WithRow(const std::string &name, F &&f)
{
  ForEachSection(
    [&](const auto &rows, auto member)
    {
      for (const auto &r : rows)
        if (r.Name() == name)
          f(r, member);
    });
}

/// The tuner's domain of one knob, keyed by the row it moves.
struct Domain
{
  const char *Row;
  KnobKind Kind;
  double Min;
  double Max;
};

/// Every knob of the campaign space, in search order. Enum domains are
/// value indices into the row's spellings.
const Domain kDomains[] = {
  {"pool.enabled", KnobKind::Bool, 0, 1},
  {"pool.min_block_bytes", KnobKind::PowerOfTwo, 64, 65536},
  {"sched.policy", KnobKind::Enum, 0, 2},
  {"sched.queue_depth", KnobKind::Int, 0, 8}, // 0 = unbounded
  {"sched.backpressure", KnobKind::Enum, 0, 2},
  {"graph.enabled", KnobKind::Bool, 0, 1},
};

/// Write the set overrides of `ov` as attributes of `el`.
void EmitOverride(const AnalysisOverride &ov, sxml::Element &el)
{
  sensei::AnalysisRows().Emit(
    ov, [&el](const auto &row, const std::string &text)
    { el.SetAttribute(row.Attribute, text); });
}

/// The overrides an <analysis> or <override> element sets.
AnalysisOverride ParseOverride(const sxml::Element &el)
{
  AnalysisOverride ov;
  sensei::AnalysisRows().Merge(
    ov, [&el](const char *) { return &el.Attributes(); }, false);
  return ov;
}

} // namespace

KnobSpace KnobSpace::Campaign(int nAnalyses)
{
  KnobSpace s;
  for (const Domain &d : kDomains)
  {
    Knob k;
    k.Name = d.Row;
    k.Kind = d.Kind;
    k.Min = d.Min;
    k.Max = d.Max;
    if (d.Kind == KnobKind::Bool)
      k.Choices = {"0", "1"};
    WithRow(d.Row,
            [&k](const auto &r, auto m)
            {
              k.Get = [&r, m](const ConfigPoint &p) { return r.Get(p.*m); };
              k.Set = [&r, m](ConfigPoint &p, double v) { r.Set(p.*m, v); };
              for (int v = 0; k.Kind == KnobKind::Enum && v <= k.Max; ++v)
                k.Choices.push_back(r.Text(v));
            });
    s.Knobs_.push_back(std::move(k));
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
    s.Knobs_.push_back(std::move(k));
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

bool ConfigPoint::operator==(const ConfigPoint &o) const
{
  // the same document: every tuner row and every set override agree
  return EmitXml(*this) == EmitXml(o);
}

// ------------------------------------------------------------ XML emitter

void ApplyToDoc(const ConfigPoint &p, sxml::Element &root)
{
  // every element is (re)written with every knob explicit, so loading the
  // document fully determines the subsystem configurations regardless of
  // what a previous candidate (or a hand-written config) left behind
  ForEachSection(
    [&](const auto &rows, auto member)
    {
      sxml::Element *e = root.FindOrAddChild(rows.front().Element);
      e->ClearAttributes();
      for (const auto &r : rows)
        e->SetAttribute(r.Attribute, r.Text(r.Get(p.*member)));
    });

  // per-analysis overrides onto the i-th <analysis> element
  std::size_t i = 0;
  for (const auto &child : root.Children())
  {
    if (child->Name() != "analysis")
      continue;
    if (i >= p.Overrides.size())
      break;
    EmitOverride(p.Overrides[i++], *child);
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
  for (std::size_t i = 0; i < p.Overrides.size(); ++i)
  {
    if (p.Overrides[i].IsDefault())
      continue;
    sxml::Element *oe = root.FindOrAddChild("tune")->AddChild("override");
    oe->SetAttributeInt("analysis", static_cast<long long>(i));
    EmitOverride(p.Overrides[i], *oe);
  }

  return sxml::Serialize(root);
}

// ------------------------------------------------------------- XML parser

ConfigPoint ParseDoc(const sxml::Element &root)
{
  if (root.Name() != "sensei")
    throw std::runtime_error("tune::ParseDoc: document element must be "
                             "<sensei>, got <" + root.Name() + ">");

  ConfigPoint p;
  try
  {
    ForEachSection([&](const auto &rows, auto member)
                   { rows.Merge(p.*member, sensei::AttrsOf{root}, false); });

    // per-analysis overrides: from <analysis> elements when the document
    // has them (a campaign config), from <tune><override> records when it
    // does not (a standalone EmitXml document)
    std::size_t i = 0;
    for (const sxml::Element *el : root.ChildrenNamed("analysis"))
    {
      const AnalysisOverride ov = ParseOverride(*el);
      if (!ov.IsDefault())
        OverrideAt(p, i) = ov;
      ++i;
    }
    if (const sxml::Element *te = root.FirstChild("tune"))
      for (const sxml::Element *oe : te->ChildrenNamed("override"))
      {
        const long long idx = oe->AttributeInt("analysis", -1);
        if (idx < 0)
          throw std::runtime_error(
            "<override> needs an analysis=\"i\" index");
        OverrideAt(p, static_cast<std::size_t>(idx)) = ParseOverride(*oe);
      }
  }
  catch (const std::runtime_error &e)
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
  // element=value/value/... over the rows a point carries
  std::ostringstream os;
  ForEachSection(
    [&](const auto &rows, auto member)
    {
      os << (os.tellp() > 0 ? " " : "") << rows.front().Element;
      const char *sep = "=";
      for (const auto &r : rows)
      {
        os << sep << r.Text(r.Get(p.*member));
        sep = "/";
      }
    });
  int n = 0;
  for (const AnalysisOverride &ov : p.Overrides)
    n += ov.IsDefault() ? 0 : 1;
  if (n)
    os << " overrides=" << n;
  return os.str();
}

} // namespace tune
