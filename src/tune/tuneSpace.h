#ifndef tuneSpace_h
#define tuneSpace_h

/// @file tuneSpace.h
/// The campaign auto-tuner's configuration-space model: the run-time
/// knobs whose values move the tuner's virtual-time score — pool knobs x
/// placement policy x queue depth x backpressure x graph capture, plus
/// per-analysis placement overrides. This header makes that space a
/// first-class object:
///
///  * `ConfigPoint` — one point in the space: the tuned subsystems' own
///    config structs (`<pool>`, `<sched>`, `<graph>`) plus optional
///    per-analysis overrides (the attributes ConfigurableAnalysis honours
///    per `<analysis>` element).
///  * `Knob` / `KnobSpace` — typed knob domains (bool, enum, power-of-two,
///    linear int) over the subsystems' knob rows (vpKnob.h), so a search
///    algorithm can mutate points generically without knowing what each
///    knob means.
///  * the XML emitter/parser — any point serializes to a loadable SENSEI
///    configuration (ApplyToDoc / EmitXml) and parses back field for
///    field (ParseDoc), which is what makes offline search results
///    shippable as `configs/tuned_campaign.xml`. Both read and write
///    through the same rows ConfigurableAnalysis parses with.
///
/// A knob enters the space only when some value of it moves the score.
/// The `<exec>`, `<layout>`, `<viz>` and `<compress>` knobs never do: the
/// evaluator pins serial exec, campaigns skip the kernel bodies of
/// one-component columns, and campaign analyses never render or
/// compress. Those subsystems keep their knobs; the tuner does not search
/// them (tests/testTune.cxx, TuneSpace.EveryKnobMovesTheScore).

#include "graphCapture.h"
#include "schedPipeline.h"
#include "senseiConfigurableAnalysis.h"
#include "vpMemoryPool.h"

#include <cstddef>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace sxml
{
class Element;
}

namespace tune
{

/// Optional per-analysis overrides, index-aligned with the `<analysis>`
/// children of the document a point is applied to (unset fields emit no
/// attribute).
using AnalysisOverride = sensei::AnalysisOverride;

/// One point in the scheduling space: every run-time knob the tuner may
/// set, with the subsystem defaults as the origin.
struct ConfigPoint
{
  vp::PoolConfig Pool;
  sched::SchedConfig Sched;
  vp::graph::GraphConfig Graph;

  /// Per-analysis overrides; entries beyond the vector (or default
  /// entries) mean "follow the run-wide configuration", so a missing
  /// vector and an all-default vector compare equal.
  std::vector<AnalysisOverride> Overrides;

  /// Equal when both emit the same document (EmitXml): every knob and
  /// every set override agree.
  bool operator==(const ConfigPoint &o) const;
  bool operator!=(const ConfigPoint &o) const { return !(*this == o); }
};

/// How a knob's value moves through its domain.
enum class KnobKind : int
{
  Bool = 0,   ///< flip
  Enum,       ///< adjacent choice (wrapping)
  PowerOfTwo, ///< x2 / /2 within [Min, Max]
  Int         ///< +-1 within [Min, Max]
};

/// One typed knob: its domain, its choices, and accessors into a
/// ConfigPoint (through the subsystem row it is keyed by). Values travel
/// as double (enums/bools as their index).
struct Knob
{
  std::string Name; ///< "sched.queue_depth", "analysis3.policy", ...
  KnobKind Kind = KnobKind::Int;
  double Min = 0.0;
  double Max = 0.0;
  std::vector<std::string> Choices; ///< Enum labels (diagnostics)
  std::function<double(const ConfigPoint &)> Get;
  std::function<void(ConfigPoint &, double)> Set;

  /// Number of distinct values this knob can take.
  std::size_t Cardinality() const;
};

/// The tunable space: an ordered set of knobs over ConfigPoint.
class KnobSpace
{
public:
  /// The campaign space: every `<pool>`, `<sched>` and `<graph>` knob,
  /// plus a per-analysis placement-policy override knob for each of
  /// `nAnalyses` analyses (0 = no per-analysis knobs).
  static KnobSpace Campaign(int nAnalyses = 0);

  const std::vector<Knob> &Knobs() const { return this->Knobs_; }

  /// Product of knob cardinalities (size of the discrete space).
  double Size() const;

  /// A uniformly random point (each knob independently uniform over its
  /// domain).
  ConfigPoint Random(std::mt19937_64 &rng) const;

  /// Move one uniformly chosen knob of `p` to a neighbouring value
  /// (guaranteed to change it). Returns "knob-name: old -> new".
  std::string Neighbor(ConfigPoint &p, std::mt19937_64 &rng) const;

  /// Clamp every knob of `p` into its domain.
  void Clamp(ConfigPoint &p) const;

private:
  std::vector<Knob> Knobs_;
};

/// Overlay `p` onto a parsed `<sensei>` document: the three tuned
/// elements are created (or taken over) with every knob explicitly set,
/// and per-analysis override attributes are written onto the i-th
/// `<analysis>` child. Fully explicit emission is what makes evaluations
/// order-independent: no knob of a previous candidate can leak through
/// process-wide state.
void ApplyToDoc(const ConfigPoint &p, sxml::Element &root);

/// A standalone `<sensei>` document holding only the subsystem elements
/// of `p` (no analyses): the exchange format for search traces and the
/// cache key for the evaluator.
std::string EmitXml(const ConfigPoint &p);

/// Read a point back from a parsed `<sensei>` document through the
/// subsystems' rows (environment variables are not applied). Attributes
/// or elements that are absent keep the ConfigPoint defaults; elements
/// the tuner does not model (`<exec>`, `<layout>`, `<compress>`, `<viz>`,
/// `<check>`, `<fault>`, `<service>`) are ignored. Throws
/// std::runtime_error on out-of-domain values.
ConfigPoint ParseDoc(const sxml::Element &root);

/// ParseDoc over parsed text / a file on disk.
ConfigPoint ParseXml(const std::string &xml);
ConfigPoint ParseFile(const std::string &path);

/// One-line description of a point (diagnostics, traces): each tuned
/// element with the values of its rows, "pool=0/268435456/0.5/256
/// sched=static/1/block graph=0", then the number of set overrides.
std::string Describe(const ConfigPoint &p);

} // namespace tune

#endif
