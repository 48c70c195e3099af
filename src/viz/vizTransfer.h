#ifndef vizTransfer_h
#define vizTransfer_h

/// @file vizTransfer.h
/// The transfer function of the steerable visualization endpoint: maps a
/// scalar binning grid through a colormap into RGBA pixels. Every pixel
/// is a pure function of (value, parameters) — no accumulation, no
/// shared state — so the per-pixel fill loop is trivially Shardable and
/// bit-identical across serial/threaded execution and eager/graph-replay
/// modes.
///
/// Conventions:
///  * NaN values and empty bins (when the caller passes an occupancy
///    mask) shade fully transparent black (0,0,0,0), the ISAAC-style
///    "nothing here" pixel.
///  * Out-of-range values clamp to the range ends.
///  * Log scaling maps values <= 0 to the bottom of the range.

#include "vpKnob.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace viz
{

/// Built-in colormaps (piecewise-linear lookup tables).
enum class Colormap : int
{
  Gray = 0, ///< black -> white
  Viridis,  ///< perceptually uniform dark-blue -> yellow
  Heat      ///< black -> red -> yellow -> white
};

/// The spellings of Colormap.
const vp::knob::Spellings &ColormapNames();

/// Parse a colormap name ("gray"/"grey", "viridis", "heat"). Throws
/// std::invalid_argument on unknown names.
Colormap ColormapFromName(const std::string &name);

/// Stable lower-case name.
const char *ColormapName(Colormap m);

/// A complete transfer-function parameterization.
struct TransferFunction
{
  Colormap Map = Colormap::Viridis;
  double Lo = 0.0;      ///< value mapped to the colormap's bottom
  double Hi = 1.0;      ///< value mapped to the colormap's top
  bool Log = false;     ///< log10 value scaling (<= 0 clamps to bottom)
  bool AutoRange = true;///< derive Lo/Hi from the grid every frame
};

/// Normalize `v` into [0, 1] under the range/scaling; NaN returns a
/// negative sentinel the shader turns into the transparent pixel.
double Normalize(double v, const TransferFunction &tf);

/// Shade one value into the 4-byte RGBA pixel at `px`.
void Shade(double v, const TransferFunction &tf, std::uint8_t *px);

/// Min/max of `grid` ignoring NaNs (deterministic left-to-right scan).
/// Degenerate ranges widen so Normalize never divides by zero. Returns
/// false (leaving lo/hi at 0/1) when no finite value exists.
bool GridRange(const double *grid, std::size_t n, double &lo, double &hi);

/// Fill the pixel range [pb, pe) of a `width` x `height` RGBA image by
/// nearest-neighbor sampling of the `gw` x `gh` scalar grid (row-major,
/// like the binning result). The building block of the Shardable render
/// kernel: disjoint pixel ranges touch disjoint framebuffer bytes.
void FillPixels(std::uint8_t *rgba, std::size_t pb, std::size_t pe,
                std::uint32_t width, std::uint32_t height, const double *grid,
                std::uint32_t gw, std::uint32_t gh,
                const TransferFunction &tf);

/// Nearest-neighbor downsample of a `sw` x `sh` RGBA image into `dst`
/// (`dw` x `dh`); used for per-viewer fidelity overrides. Only shrinking
/// is supported (dw <= sw, dh <= sh).
void Downsample(const std::uint8_t *src, std::uint32_t sw, std::uint32_t sh,
                std::uint8_t *dst, std::uint32_t dw, std::uint32_t dh);

} // namespace viz

#endif
