#ifndef campaign_h
#define campaign_h

/// @file campaign.h
/// The paper's evaluation campaign (Section 4.3): Newton++ coupled through
/// SENSEI to the data binning analysis, run over the eight cases of
/// Table 1 — four in situ placements ({all on host, on the same device,
/// one dedicated device, two dedicated devices}) crossed with two
/// execution methods ({lockstep, asynchronous}).
///
/// Per the paper: one simulation rank per simulation GPU; the host and
/// same-device placements use 4 ranks/node, the one-dedicated placement 3
/// ranks/node (GPU 3 reserved for in situ), the two-dedicated placement 2
/// ranks/node (GPUs 2,3 reserved, paired per rank); in situ runs at every
/// iteration; the data binning operator is applied to 10 variables over 9
/// coordinate systems (90 binning operations), each coordinate system in
/// its own operator instance orchestrated through SENSEI's XML
/// configuration; I/O and repartitioning are disabled.
///
/// The paper ran 128 Perlmutter nodes / 512 GPUs with 24M bodies. The
/// default here simulates fewer virtual nodes with a reduced body count so
/// kernels really execute; paper-scale runs (full per-rank body counts,
/// timing-only kernels) are available through CampaignConfig.

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace sxml
{
class Element;
}

namespace campaign
{

/// The four in situ placements of Table 1.
enum class Placement : int
{
  Host = 0,     ///< in situ on the host CPU
  SameDevice,   ///< in situ on the device where the data is generated
  OneDedicated, ///< one GPU per node reserved for in situ
  TwoDedicated  ///< per rank: one sim GPU + one paired in situ GPU
};

/// Human readable placement name (matches the paper's terminology).
const char *PlacementName(Placement p);

/// Ranks per node for a placement (4, 4, 3, 2 — Table 1).
int RanksPerNode(Placement p);

/// Devices the simulation may use for a placement (4, 4, 3, 2).
int SimDevices(Placement p);

/// Campaign-wide knobs. As in the paper, the *global* problem size is
/// fixed across placements (the body count scales with nodes, not ranks):
/// dedicated-device placements run fewer, larger ranks.
struct CampaignConfig
{
  int Nodes = 2;                  ///< virtual nodes (paper: 128)
  std::size_t BodiesPerNode = 30000; ///< paper: 24M/128 = 187500
  long Steps = 5;                 ///< in situ at every step
  long Resolution = 128;          ///< bins per axis (paper: 256)
  int CoordSystems = 9;           ///< binning operator instances
  int VariablesPerSystem = 10;    ///< reductions per instance
  bool TimingOnly = true;         ///< skip kernel bodies (timing campaign)
  unsigned Seed = 42;

  /// Run ranks under minimpi's deterministic cooperative scheduler so
  /// virtual timings are bit-reproducible (see minimpi::LaunchOptions).
  /// The auto-tuner forces this on for candidate evaluations; benches
  /// keep the default free-running threads.
  bool Lockstep = false;

  // adaptive scheduler controls, emitted as a <sched> element when any is
  // set: placement policy ("static", "least-loaded", "cost-model"; empty
  // keeps the built-in static default), bounded-pipeline depth (-1 keeps
  // the default of 1; 0 = unbounded), and full-queue backpressure
  // ("block", "drop-oldest", "coalesce"; empty keeps "block")
  std::string SchedPolicy;
  long QueueDepth = -1;
  std::string Backpressure;

  // execution-engine controls, emitted as an <exec> element when either
  // is set: ExecMode "serial" (bit-exact inline bodies) or "threads"
  // (per-device workers + sharded host regions). Empty keeps whatever is
  // active — the VP_EXEC environment default — so deterministic campaigns
  // stay serial. ExecThreads 0 = auto pool width.
  std::string ExecMode;
  int ExecThreads = 0;

  // per-case configuration injection: when set, the built <sensei>
  // document is passed through this mutator before it is serialized and
  // handed to ConfigurableAnalysis. The campaign auto-tuner (src/tune)
  // uses it to overlay candidate <pool>/<sched>/<graph> elements and
  // per-analysis override attributes onto every case of a run without
  // the campaign knowing about the tuner's knob space.
  std::function<void(sxml::Element &)> ConfigMutator;
};

/// A paper-shape configuration: per-node body count and grid resolution at
/// the paper's values (187500 bodies/node, 256^2 grids, 90 binning
/// operations per step), timing-only kernels, fewer virtual nodes (node
/// count beyond a few only deepens collectives).
CampaignConfig PaperScaleConfig();

/// A small real-execution configuration (kernels actually run): used to
/// validate that the campaign pipeline computes real results.
CampaignConfig RealExecutionConfig();

/// One case of Table 1.
struct CaseConfig
{
  Placement Place = Placement::SameDevice;
  bool Asynchronous = false;
};

/// The measurements Figures 2 and 3 plot.
struct CaseResult
{
  Placement Place = Placement::SameDevice;
  bool Asynchronous = false;
  int Ranks = 0;
  int RanksPerNode = 0;
  double TotalSeconds = 0.0;      ///< Figure 2: total run time
  double MeanSolverSeconds = 0.0; ///< Figure 3: avg solver time / iter
  double MeanInSituSeconds = 0.0; ///< Figure 3: avg (apparent) in situ / iter
};

/// The SENSEI configuration for a case as a document tree: CoordSystems
/// data_binning operator instances, each reducing VariablesPerSystem
/// variables, with the placement and execution-method attributes set per
/// the case. `g.ConfigMutator`, when set, has already been applied.
std::unique_ptr<sxml::Element> BuildDoc(const CaseConfig &c,
                                        const CampaignConfig &g);

/// BuildDoc serialized to XML text (what RunCase feeds the analysis).
std::string BuildXml(const CaseConfig &c, const CampaignConfig &g);

/// Run one case: configures the platform (Nodes x 4 GPUs), launches the
/// rank-parallel coupled run, and returns the virtual-time measurements.
CaseResult RunCase(const CaseConfig &c, const CampaignConfig &g);

/// All eight cases of Table 1 in the paper's order (placements grouped,
/// lockstep before asynchronous).
std::vector<CaseConfig> AllCases();

} // namespace campaign

#endif
