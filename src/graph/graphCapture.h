#ifndef graphCapture_h
#define graphCapture_h

/// @file graphCapture.h
/// Captured step-graph execution for the virtual platform — the CUDA-graph
/// analogue for in situ analysis steps. A vp::graph::Session observes one
/// step's stream-ordered work (kernel launches, async copies, event
/// record/wait edges) through the vp::CaptureSink hooks while the step
/// still executes eagerly, so the src/check vector-clock checker validates
/// the DAG once. From the next step on the session *replays* the captured
/// graph: each submission is matched positionally against the recorded
/// node (rebinding pointers and kernel bodies to this step's buffers) at
/// near-zero cost, and the accumulated virtual-time charges are applied in
/// one amortized flush per synchronization point instead of per call. Any
/// structural divergence (different op, N, stream shape, or event wiring)
/// flushes the matched prefix, falls back to eager execution for the rest
/// of the step, and recaptures on the next step — results are bit-exact
/// with eager execution in all cases.

#include "vpCaptureSink.h"
#include "vpKnob.h"
#include "vpPlatform.h"
#include "vpStream.h"
#include "vpTypes.h"

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace vp
{
namespace graph
{

/// A capture aborts (the step runs eagerly) beyond this many nodes.
constexpr std::size_t kMaxNodes = 4096;

/// Backlog gap (virtual seconds) between the pinned replay device and the
/// best adaptive candidate beyond which the placement is considered
/// diverged and the armed graph is dropped for re-capture.
constexpr double kRepinThreshold = 2.0e-3;

/// Runtime configuration, env-overridable (VP_GRAPH).
struct GraphConfig
{
  bool Enabled = false; ///< capture/replay on (VP_GRAPH=1)
};

/// The `<graph>` row: enabled (VP_GRAPH; a bare element means enabled).
const vp::knob::Table<GraphConfig> &ConfigRows();

/// The defaults with the environment applied.
GraphConfig DefaultConfig();

/// Install a configuration (tests, ConfigurableAnalysis <graph> element).
void Configure(const GraphConfig &cfg);

/// The active configuration.
GraphConfig GetConfig();

/// True when capture/replay is globally enabled.
bool Enabled();

/// Aggregate counters across all sessions since ResetStats().
struct GraphStats
{
  std::uint64_t Captures = 0;      ///< graphs captured (armed)
  std::uint64_t CaptureAborts = 0; ///< captures abandoned (overflow, foreign event)
  std::uint64_t Replays = 0;       ///< full-step replays completed
  std::uint64_t Invalidations = 0; ///< armed graphs dropped (divergence, repin)
  std::uint64_t NodesCaptured = 0; ///< DAG nodes across all captures
  std::uint64_t LaunchesFused = 0; ///< always 0; kept for stat exporters
  std::uint64_t Flushes = 0;       ///< amortized replay flushes
  std::uint64_t OpsAbsorbed = 0;   ///< submissions matched during replay
};

/// Snapshot of the aggregate counters.
GraphStats Stats();

/// Zero the aggregate counters.
void ResetStats();

/// One recorded operation of the step DAG.
enum class NodeKind : std::uint8_t
{
  Kernel = 0,
  Copy,
  EventRecord,
  EventWait
};

/// A node of the captured DAG. Kernel nodes keep the work cost *excluding*
/// launch latency (the flush adds one latency per kernel); copy nodes keep
/// the classified cost; event nodes carry the per-step event index wired
/// by record/wait pairs.
struct GraphNode
{
  NodeKind Kind = NodeKind::Kernel;
  int StreamIx = 0;     ///< index into the session's stream slots

  // --- Kernel ---
  KernelDesc Desc;      ///< captured launch description (N, ops, name)
  KernelFn Fn;          ///< body, rebound every replay step
  bool Synchronous = false;
  double WorkSeconds = 0.0; ///< KernelSeconds minus launch latency

  // --- Copy ---
  void *Dst = nullptr;
  const void *Src = nullptr;
  std::size_t Bytes = 0;
  double CopySeconds = 0.0; ///< classified transfer cost, rebound on match
  int CopyKindIx = 0;       ///< CopyKind index for platform stats

  // --- EventRecord / EventWait ---
  int EventIx = -1;     ///< per-step event slot
};

/// One stream role of the captured DAG. Streams are matched by first
/// appearance order; each replay step rebinds the role to the step's
/// concrete stream, which must live on the recorded node/device.
struct StreamSlot
{
  int Node = 0;
  DeviceId Device = 0;
  Stream Bound; ///< this step's binding (cleared at step begin)
};

/// A capture/replay session for one recurring step pattern (typically one
/// analysis adaptor). Drive it with StepScope; between steps the session
/// is inert. A session whose pattern proves uncapturable (overflow,
/// cross-step events, empty step) goes permanently eager.
class Session : public CaptureSink
{
public:
  Session() = default;
  ~Session() override = default;
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// True when a captured graph is armed for replay — placement decisions
  /// feeding the captured kernels should stay pinned while this holds.
  bool Armed() const;

  /// Drop an armed graph (e.g. the scheduler wants to move the work to a
  /// different device): counts an invalidation and recaptures next step.
  void Drop();

  /// True when the session can never capture again.
  bool Dead() const;

  // --- CaptureSink ---------------------------------------------------------
  bool OnKernel(const Stream &stream, const KernelDesc &desc,
                const KernelFn &fn, bool synchronous) override;
  bool OnCopy(const Stream &stream, void *dst, const void *src,
              std::size_t bytes) override;
  bool OnEventRecord(const Stream &stream, std::uint64_t captureId) override;
  bool OnStreamWaitEvent(const Stream &stream,
                         std::uint64_t captureId) override;
  void BeforeStreamSync(const Stream &stream) override;
  void BeforeDeviceSync(int node, DeviceId device) override;
  void BeforeEventSync(std::uint64_t captureId) override;

private:
  friend class StepScope;

  enum class State : std::uint8_t
  {
    Idle = 0,   ///< no graph; next step captures
    Capturing,  ///< recording this step (ops also run eagerly)
    Armed,      ///< captured graph ready; next step replays
    Replaying,  ///< matching this step against the graph
    Bypass      ///< this step runs eagerly (mismatch or abort)
  };

  void BeginStep();
  void EndStep();

  /// Abandon the current capture permanently.
  void AbortCapture();

  /// Record a stream's slot index, creating the slot on first sight
  /// (capture) — returns -1 for a stream that cannot be captured.
  int CaptureStreamIx(const Stream &stream);

  /// Resolve / bind a stream to its recorded slot during replay; returns
  /// false on a binding mismatch.
  bool BindStreamIx(const Stream &stream, int wantIx);

  /// Apply the matched-prefix charges: one amortized latency, engine
  /// claims per node, inline bodies, then per-stream summary edges.
  void Flush();

  /// Structural mismatch mid-replay: flush the prefix and go eager.
  void Invalidate();

  mutable std::mutex Mutex_; ///< held across a step by StepScope
  State State_ = State::Idle;
  bool Dead_ = false;

  std::vector<GraphNode> Nodes_;
  std::vector<StreamSlot> Streams_;
  /// Capture-time identity map: concrete stream -> slot index.
  std::unordered_map<const StreamState *, int> StreamIxOf_;

  std::size_t Cursor_ = 0;       ///< next node to match (replay)
  std::size_t PendingBegin_ = 0; ///< first node not yet flushed (replay)
  /// Per-step map: vcuda capture id -> event slot index.
  std::unordered_map<std::uint64_t, int> EventIx_;
  int NextEventIx_ = 0;   ///< event slots assigned during capture
  int NumEvents_ = 0;     ///< event slots in the armed graph
  /// Per-replay-step virtual completion time of each event slot.
  std::vector<double> EventTime_;
  std::vector<char> EventSet_; ///< EventTime_ validity per slot
};

/// RAII step driver: installs the session as the calling thread's capture
/// sink for the duration of one step and advances the session state
/// machine (capture -> arm -> replay / invalidate). Inactive (a no-op)
/// when the subsystem is disabled or the session is dead.
class StepScope
{
public:
  explicit StepScope(Session &session);
  ~StepScope();
  StepScope(const StepScope &) = delete;
  StepScope &operator=(const StepScope &) = delete;

  /// True when the scope installed the sink (capture or replay underway).
  bool Active() const noexcept { return this->Active_; }

private:
  Session *Session_ = nullptr;
  CaptureSink *Prev_ = nullptr;
  bool Active_ = false;
};

} // namespace graph
} // namespace vp

#endif
