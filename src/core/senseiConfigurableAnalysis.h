#ifndef senseiConfigurableAnalysis_h
#define senseiConfigurableAnalysis_h

/// @file senseiConfigurableAnalysis.h
/// SENSEI's run-time configuration feature: an analysis adaptor that
/// builds and drives a chain of back ends from an XML document, enabling
/// run time switching between back ends through a single simulation
/// instrumentation. The paper's new execution-method and placement
/// controls are exposed here as XML attributes common to every
/// <analysis> element:
///
///   <sensei>
///     <pool enabled="1" max_cached_bytes="268435456"
///           trim_threshold="0.5"/>
///     <sched policy="cost-model" queue_depth="4"
///            backpressure="drop-oldest"/>
///     <analysis type="data_binning" mesh="bodies"
///               axes="x,y" resolution="256,256"
///               ops="sum" values="m"
///               device="auto" devices_to_use="1" device_start="3"
///               device_stride="1" async="1" enabled="1"/>
///     <analysis type="histogram"  mesh="bodies" column="m" bins="64"
///               device="host"/>
///     <analysis type="posthoc_io" mesh="bodies" dir="." prefix="p"
///               frequency="5" format="csv"/>
///   </sensei>
///
/// `device` accepts an explicit id, "host", or "auto" (Eq. 1 placement
/// with the optional devices_to_use / device_start / device_stride
/// controls). A malformed or out-of-range attribute throws
/// std::runtime_error naming the analysis type and the attribute: async,
/// enabled, device, devices_to_use, device_start, device_stride and
/// verbose on every analysis; data_binning's resolution, range_N, ops,
/// gpu_strategy and out_freq; render's resolution, range_N, width,
/// height, log and range; histogram's bins and range; autocorrelation's
/// window; posthoc_io's frequency and format. A range ("lo,hi") needs
/// two numbers with lo < hi.
///
/// The optional <sched> element configures the adaptive scheduler: the
/// automatic-placement policy ("static" = Eq. 1, "least-loaded",
/// "cost-model"; overridable per analysis with a policy attribute) and
/// the bounded asynchronous pipeline (queue_depth, 0 = unbounded;
/// backpressure = "block" | "drop-oldest" | "coalesce").
///
/// Every subsystem element (<pool>, <check>, <sched>, <exec>, <graph>,
/// <layout>, <compress>, <service>, <viz>, <fault>) is read through the
/// rows its subsystem declares (vpKnob.h): the environment variable beats
/// the attribute, the attribute beats the current value, and a value that
/// does not parse or is out of range throws std::runtime_error.

#include "senseiAnalysisAdaptor.h"
#include "vpKnob.h"

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace sxml
{
class Element;
}

namespace sensei
{

/// The attribute an <analysis> element overrides the run-wide defaults
/// with: policy= (the <sched> policy). -1 means "not set": the analysis
/// follows the run-wide default.
struct AnalysisOverride
{
  int Policy = -1; ///< sched::PolicyKind when >= 0

  bool IsDefault() const { return this->Policy < 0; }
};

/// The <analysis> override rows.
const vp::knob::Table<AnalysisOverride> &AnalysisRows();

/// The lookup the knob rows merge a document from: the attributes of the
/// root's first child named `element`, or nullptr when it has none.
struct AttrsOf
{
  const sxml::Element &Root;
  const vp::knob::Attrs *operator()(const char *element) const;
};

/// Reset configuration sections to their defaults, each config struct's
/// defaults with the environment applied. Sections are named by element
/// ("pool", "check", "sched", "exec", "graph", "layout", "compress",
/// "service", "viz", "fault"); no names resets every section. Throws
/// std::invalid_argument on an unknown name.
void ResetConfig(std::initializer_list<std::string> sections = {});

class ConfigurableAnalysis : public AnalysisAdaptor
{
public:
  static ConfigurableAnalysis *New() { return new ConfigurableAnalysis; }

  const char *GetClassName() const override
  {
    return "sensei::ConfigurableAnalysis";
  }

  /// Build the analysis chain from an XML file. Throws on parse or
  /// configuration errors.
  void InitializeFile(const std::string &path);

  /// Build the analysis chain from an XML string.
  void InitializeString(const std::string &xml);

  /// Build the analysis chain from a parsed document.
  void Initialize(const sxml::Element &root);

  /// Forward the step to every enabled back end (in document order).
  /// Returns false when any back end fails.
  bool Execute(DataAdaptor *data) override;

  /// Wait for every back end's in-flight asynchronous work.
  void DrainAsync() override;

  /// The union over the chain, sorted: any column when some back end
  /// reads any column of `mesh`.
  std::optional<std::vector<std::string>>
  GetColumnsRead(const std::string &mesh) const override;

  /// Drain every back end, then finalize each; returns the first
  /// nonzero status.
  int Finalize() override;

  /// Number of configured back ends.
  int GetNumberOfAnalyses() const
  {
    return static_cast<int>(this->Analyses_.size());
  }

  /// Back end by index (borrowed reference; nullptr when out of range).
  AnalysisAdaptor *GetAnalysis(int i) const;

protected:
  ConfigurableAnalysis() = default;
  ~ConfigurableAnalysis() override;

private:
  AnalysisAdaptor *BuildAnalysis(const sxml::Element &el);
  void ApplyCommon(const sxml::Element &el, AnalysisAdaptor *a);

  std::vector<AnalysisAdaptor *> Analyses_;
  sched::PolicyKind SchedPolicy_ = sched::PolicyKind::Static;
  bool HaveSchedPolicy_ = false; ///< a <sched> element set the default
};

} // namespace sensei

#endif
