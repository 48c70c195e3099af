#ifndef e2eWorkloads_h
#define e2eWorkloads_h

/// @file e2eWorkloads.h
/// The four workloads of the end-to-end step benchmark and the pieces
/// they share: run options, the process reset between set-ups, the
/// layer counters read through each subsystem's public Stats(), and the
/// one per-layer metric list every traced run reports.

#include "e2eHarness.h"

#include "cmpCodec.h"
#include "execEngine.h"
#include "graphCapture.h"
#include "layoutMapping.h"
#include "schedPipeline.h"
#include "svcSession.h"
#include "vizConfig.h"
#include "vpMemoryPool.h"

#include "svtkObjectBase.h"

#include <cstdint>
#include <memory>
#include <string>

namespace e2e
{

/// Owns one reference to a reference-counted data-model object.
struct Unref
{
  void operator()(svtkObjectBase *o) const { o->UnRegister(); }
};
template <typename T>
using Ref = std::unique_ptr<T, Unref>;

struct Options
{
  unsigned Seed = 1;
  double Seconds = 20.0;   ///< measured closed-loop time per run
  bool Trace = false;      ///< per-layer run: spans on every odd step
  std::string TraceDir;    ///< where a traced run writes its Chrome trace
  int SetupReps = 7;       ///< set-ups timed; setup_s is their median
  bool Tiny = false;       ///< selftest sizes
};

/// Rebuild the virtual node (1 node, 4 devices, 64 host cores) and put
/// every process-wide subsystem back to its default configuration.
void ResetProcessState();

/// The public layer counters, as one snapshot.
struct Counters
{
  std::uint64_t Kernels = 0;
  std::uint64_t Copies = 0;
  std::uint64_t H2DBytes = 0, D2HBytes = 0, D2DBytes = 0;
  vp::exec::EngineStats Exec;
  vp::graph::GraphStats Graph;
  sched::PipelineStats Sched;
  vp::PoolStats Pool;
  vp::layout::LayoutStats Layout;
  cmp::CodecStats Codec;
  svc::ServiceStats Service;
  viz::VizStats Viz;
};

/// Zero every counter Snapshot() reads (start of the measured window).
void ResetCounters();
Counters Snapshot();

/// The wall clock of one run's measured steps. In a traced run the odd
/// global steps carry spans, so the wall.* metrics use the even ones.
struct WallClock
{
  std::vector<double> StepSeconds;   ///< per measured step
  std::vector<double> InSituSeconds; ///< per measured step
  long FirstStep = 0;                ///< global index of StepSeconds[0]
  double StepsPerSecond = 0.0;
};

/// Per-layer values the harness measured (spans, peak memory); a layer
/// the workload does not exercise stays 0.
struct LayerValues
{
  double PeakRssMb = 0.0; ///< read when the run ends, before the checks
  double NewtonStepMsP50 = 0.0;
  double NewtonInteractionsPerS = 0.0;
  double NewtonRankImbalance = 0.0;
  double CommRankSkewMsP50 = 0.0;
  double CoreBinningMsP50 = 0.0, CoreBinningMsP90 = 0.0;
  double CoreHistogramMsP50 = 0.0;
  double CoreBridgeMsP50 = 0.0;
  double CoreFinalizeMs = 0.0;
  double SvcSendMsP50 = 0.0, SvcSendMsP90 = 0.0;
  double SvcFrameLatencyMsP50 = 0.0, SvcFrameLatencyMsP90 = 0.0;
  double VizRenderMsP50 = 0.0;
  double VizFrameAgeMsP90 = 0.0;
  double VizDeliveredFrac = 0.0;
  double StepUnattributedFrac = 0.0;
};

/// Add the full per-layer metric list (the same names, in the same order,
/// for every workload); counter metrics are normalized by `steps`.
void ReportPerLayer(Report &r, const LayerValues &s, const WallClock &w,
                    const Counters &c, long steps);

/// The end-to-end values every workload reports: set-up time (median of
/// the timed set-ups), and the step and its in situ part on the virtual
/// clock.
struct EndToEnd
{
  std::vector<double> SetupSeconds;
  double VirtualStepSeconds = 0.0;
  double VirtualInSituSeconds = 0.0;
};

void ReportEndToEnd(Report &r, const EndToEnd &e);

void RunSolve(const Options &o, Report &r);
void RunCampaignLockstep(const Options &o, Report &r);
void RunCampaignAsync(const Options &o, Report &r);
void RunInTransitViz(const Options &o, Report &r);

/// Under serial exec and lockstep ranks, the benchmark's step loop and
/// newton::Driver::Run give bit-identical binning grids and the same
/// virtual total.
bool LoopMatchesDriver();

} // namespace e2e

#endif
