#ifndef tuneSpace_h
#define tuneSpace_h

/// @file tuneSpace.h
/// The campaign auto-tuner's configuration-space model. PRs 1-7 grew the
/// run-time configuration surface to placement policy x queue depth x
/// backpressure x codec/level/error-bound x pool knobs x exec mode/threads
/// x graph capture — far beyond what hand-written `configs/*.xml` can
/// cover. This header makes that space a first-class object:
///
///  * `ConfigPoint` — one point in the space, a typed struct mirroring
///    the `<pool>`, `<sched>`, `<compress>`, `<exec>` and `<graph>` XML
///    elements plus optional per-analysis overrides (placement policy
///    and codec, the attributes ConfigurableAnalysis honours per
///    `<analysis>` element).
///  * `Knob` / `KnobSpace` — typed knob descriptors (bool, enum,
///    power-of-two, linear int, log-scale double) with bounds and
///    neighbourhood moves, so a search algorithm can mutate points
///    generically without knowing what each knob means.
///  * the XML emitter/parser — any point serializes to a loadable SENSEI
///    configuration (ApplyToDoc / EmitXml) and parses back field for
///    field (ParseDoc), which is what makes offline search results
///    shippable as `configs/tuned_campaign.xml`.

#include "cmpCodec.h"
#include "execEngine.h"
#include "layoutMapping.h"
#include "schedPipeline.h"

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
/// children of the document a point is applied to. -1 means "follow the
/// run-wide default" (no attribute emitted).
struct AnalysisOverride
{
  int Policy = -1; ///< sched::PolicyKind when >= 0
  int Codec = -1;  ///< cmp::CodecId when >= 0
  int Level = 1;   ///< codec level when Codec >= 0
  double ErrorBound = 0.0; ///< quantize bound when Codec >= 0

  bool IsDefault() const { return this->Policy < 0 && this->Codec < 0; }
  bool operator==(const AnalysisOverride &o) const;
  bool operator!=(const AnalysisOverride &o) const { return !(*this == o); }
};

/// One point in the scheduling space: every run-time knob the tuner may
/// set, with the subsystem defaults as the origin.
struct ConfigPoint
{
  // <pool>
  bool PoolEnabled = false;
  std::size_t PoolMaxCachedBytes = std::size_t(256) << 20;
  double PoolTrimThreshold = 0.5;
  std::size_t PoolMinBlockBytes = 256;

  // <sched>
  sched::PolicyKind Policy = sched::PolicyKind::Static;
  long QueueDepth = 1;
  sched::Backpressure Pressure = sched::Backpressure::Block;

  // <compress>
  bool CompressEnabled = false;
  cmp::CodecId Codec = cmp::CodecId::ShuffleRLE;
  int CompressLevel = 1;
  double CompressErrorBound = 1e-4; ///< kept > 0 so quantize always validates

  // <exec>
  vp::exec::Mode ExecMode = vp::exec::Mode::Serial;
  int ExecThreads = 0;
  std::size_t ExecShardGrain = 16384;

  // <graph>
  bool GraphEnabled = false;
  std::size_t GraphMaxNodes = 4096;

  // <layout> — default array layout, AoSoA block size, and whether the
  // vectorized (reassociating) kernel variants may run
  vp::layout::Kind Layout = vp::layout::Kind::AoS;
  std::size_t LayoutBlock = 32;
  bool LayoutSimd = false;

  // <viz> — the steerable render endpoint: square framebuffer ladder,
  // colormap, and the image-frame codec (None = raw RGBA)
  std::size_t VizResolution = 256;
  int VizColormap = 1; ///< viz::Colormap index (1 = viridis)
  cmp::CodecId VizCodec = cmp::CodecId::None;

  /// Per-analysis overrides; entries beyond the vector (or default
  /// entries) mean "follow the run-wide configuration", so a missing
  /// vector and an all-default vector compare equal.
  std::vector<AnalysisOverride> Overrides;

  bool operator==(const ConfigPoint &o) const;
  bool operator!=(const ConfigPoint &o) const { return !(*this == o); }
};

/// How a knob's value moves through its domain.
enum class KnobKind : int
{
  Bool = 0,   ///< flip
  Enum,       ///< adjacent choice (wrapping)
  PowerOfTwo, ///< x2 / /2 within [Min, Max]
  Int,        ///< +-1 within [Min, Max]
  LogDouble   ///< x/÷ a step factor within [Min, Max]
};

/// One typed knob descriptor: bounds, choices, and accessors into a
/// ConfigPoint. Values travel as double (enums/bools as their index).
struct Knob
{
  std::string Name; ///< "sched.queue_depth", "analysis3.policy", ...
  KnobKind Kind = KnobKind::Int;
  double Min = 0.0;
  double Max = 0.0;
  double Step = 2.0; ///< LogDouble neighbour factor
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
  /// The campaign space: every `<pool>`, `<sched>`, `<compress>`,
  /// `<exec>`, `<graph>` and `<viz>` knob, plus a per-analysis placement-policy
  /// override knob for each of `nAnalyses` analyses (0 = no per-analysis
  /// knobs). `includeExec` drops the `<exec>`/shard knobs for searches
  /// that only score virtual time (exec mode cannot change it).
  static KnobSpace Campaign(int nAnalyses = 0, bool includeExec = true);

  const std::vector<Knob> &Knobs() const { return this->Knobs_; }

  /// Product of knob cardinalities (size of the discrete space; may
  /// saturate for log-double knobs, diagnostics only).
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

/// Overlay `p` onto a parsed `<sensei>` document: the six subsystem
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

/// Read a point back from a parsed `<sensei>` document. Attributes or
/// elements that are absent keep the ConfigPoint defaults; elements the
/// tuner does not model (`<check>`, `<fault>`, `<service>`, analyses)
/// are ignored. Throws std::runtime_error on out-of-domain values.
ConfigPoint ParseDoc(const sxml::Element &root);

/// ParseDoc over parsed text / a file on disk.
ConfigPoint ParseXml(const std::string &xml);
ConfigPoint ParseFile(const std::string &path);

/// One-line human-readable description of a point (diagnostics, traces).
std::string Describe(const ConfigPoint &p);

} // namespace tune

#endif
