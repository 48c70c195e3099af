#ifndef vizConfig_h
#define vizConfig_h

/// @file vizConfig.h
/// Process-wide configuration of the visualization endpoint (the `<viz>`
/// XML element with VP_VIZ_* environment overrides) and the viz::*
/// counters exported through the profiler, including the frame-age p99
/// computed from a bounded sample reservoir.

#include "cmpCodec.h"
#include "vizTransfer.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace viz
{

/// Per-viewer fidelity override, matched to viewer sessions by
/// admission order (`<viewer>` children of `<viz>`). A zero size keeps
/// the full framebuffer; a smaller one downsamples before shipping —
/// trading image fidelity against frame age for that viewer.
struct ViewerOverride
{
  std::uint32_t Width = 0, Height = 0;
  bool HaveCodec = false;
  cmp::Params Codec; ///< image-frame codec for this viewer
};

/// Process-wide render/stream plan.
struct VizConfig
{
  std::uint32_t Width = 256, Height = 256; ///< framebuffer resolution
  Colormap Map = Colormap::Viridis;
  bool Log = false;
  bool AutoRange = true;
  double Lo = 0.0, Hi = 1.0;
  /// Default image-frame codec; raw pixels unless a codec is asked for
  /// (cmp::Params defaults to ShuffleRLE, which is wrong for frames).
  cmp::Params Codec{cmp::CodecId::None};
  std::vector<ViewerOverride> Viewers;
};

/// The `<viz>` rows, VP_VIZ_* variables included. The fixed `range` and
/// the `<viewer>` children are read by ConfigurableAnalysis itself. The
/// initial configuration is the defaults with the variables applied.
const vp::knob::Table<VizConfig> &ConfigRows();

/// Replace the process-wide configuration (validated; throws
/// std::invalid_argument on nonsense).
void Configure(const VizConfig &cfg);

/// The active configuration.
VizConfig GetConfig();

/// Counters of everything the viz endpoint did (exported as profiler
/// events under viz::*).
struct VizStats
{
  std::uint64_t FramesRendered = 0;  ///< render kernel completions
  std::uint64_t FramesPublished = 0; ///< per-viewer frames handed to svc
  std::uint64_t SteersApplied = 0;   ///< commands applied at a step boundary
  std::uint64_t SteersStale = 0;     ///< commands discarded (stale version)
  std::uint64_t FrameAgeCount = 0;   ///< frame-age samples recorded
  std::uint64_t FrameAgeP99Us = 0;   ///< p99 of the sample reservoir, µs
  std::uint64_t FrameAgeMaxUs = 0;   ///< max observed frame age, µs
};

/// Counters since the last ResetStats(); FrameAgeP99Us is computed from
/// the reservoir at call time.
VizStats Stats();

/// Zero the counters and the age reservoir (configuration untouched).
void ResetStats();

/// Mutate the counter block under its lock.
void UpdateStats(const std::function<void(VizStats &)> &fn);

/// Record one frame age (seconds from render begin to delivery hand-off)
/// into the bounded reservoir the p99 is computed from.
void RecordFrameAge(double seconds);

} // namespace viz

#endif
