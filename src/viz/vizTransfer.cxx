#include "vizTransfer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace viz
{

namespace
{

/// A piecewise-linear colormap: `n` control points, equally spaced over
/// [0, 1], each an (r, g, b) triple in [0, 255].
struct Lut
{
  const std::uint8_t (*Pts)[3];
  int N;
};

constexpr std::uint8_t kGray[][3] = {{0, 0, 0}, {255, 255, 255}};

// viridis control points (matplotlib's endpoints + interior samples)
constexpr std::uint8_t kViridis[][3] = {
  {68, 1, 84},   {71, 44, 122},  {59, 81, 139},  {44, 113, 142},
  {33, 144, 141}, {39, 173, 129}, {92, 200, 99},  {170, 220, 50},
  {253, 231, 37}};

constexpr std::uint8_t kHeat[][3] = {
  {0, 0, 0}, {128, 0, 0}, {255, 0, 0}, {255, 128, 0}, {255, 255, 0},
  {255, 255, 255}};

Lut GetLut(Colormap m)
{
  switch (m)
  {
    case Colormap::Gray: return {kGray, 2};
    case Colormap::Viridis: return {kViridis, 9};
    case Colormap::Heat: return {kHeat, 6};
  }
  return {kGray, 2};
}

} // namespace

const vp::knob::Spellings &ColormapNames()
{
  static const vp::knob::Spellings names = {
    {"gray", 0}, {"grey", 0}, {"viridis", 1}, {"heat", 2}};
  return names;
}

Colormap ColormapFromName(const std::string &name)
{
  return vp::knob::FromName<Colormap>(ColormapNames(), name,
                                      "viz: unknown colormap");
}

const char *ColormapName(Colormap m)
{
  return vp::knob::NameOf(ColormapNames(), static_cast<int>(m));
}

double Normalize(double v, const TransferFunction &tf)
{
  if (std::isnan(v))
    return -1.0;
  double lo = tf.Lo, hi = tf.Hi, x = v;
  if (tf.Log)
  {
    // log scaling: the range ends are assumed positive by construction
    // (a non-positive end falls back to a tiny epsilon); values <= 0
    // clamp to the bottom of the range
    const double eps = 1e-300;
    lo = std::log10(std::max(lo, eps));
    hi = std::log10(std::max(hi, eps));
    x = v > 0.0 ? std::log10(v) : lo;
  }
  if (!(hi > lo))
    return 0.0;
  const double t = (x - lo) / (hi - lo);
  return std::min(1.0, std::max(0.0, t));
}

void Shade(double v, const TransferFunction &tf, std::uint8_t *px)
{
  const double t = Normalize(v, tf);
  if (t < 0.0)
  {
    px[0] = px[1] = px[2] = px[3] = 0; // NaN / empty bin: transparent
    return;
  }
  const Lut lut = GetLut(tf.Map);
  const double pos = t * static_cast<double>(lut.N - 1);
  const int i0 = std::min(lut.N - 2, static_cast<int>(pos));
  const double f = pos - static_cast<double>(i0);
  for (int c = 0; c < 3; ++c)
  {
    const double a = static_cast<double>(lut.Pts[i0][c]);
    const double b = static_cast<double>(lut.Pts[i0 + 1][c]);
    px[static_cast<std::size_t>(c)] =
      static_cast<std::uint8_t>(a + (b - a) * f + 0.5);
  }
  px[3] = 255;
}

bool GridRange(const double *grid, std::size_t n, double &lo, double &hi)
{
  lo = 0.0;
  hi = 1.0;
  bool any = false;
  double mn = 0.0, mx = 0.0;
  for (std::size_t i = 0; i < n; ++i)
  {
    const double v = grid[i];
    if (std::isnan(v))
      continue;
    if (!any)
    {
      mn = mx = v;
      any = true;
    }
    else
    {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
  }
  if (!any)
    return false;
  if (!(mx > mn))
    mx = mn + 1.0; // flat grid: widen so Normalize stays defined
  lo = mn;
  hi = mx;
  return true;
}

void FillPixels(std::uint8_t *rgba, std::size_t pb, std::size_t pe,
                std::uint32_t width, std::uint32_t height, const double *grid,
                std::uint32_t gw, std::uint32_t gh, const TransferFunction &tf)
{
  if (!width || !height || !gw || !gh)
    return;
  for (std::size_t p = pb; p < pe; ++p)
  {
    const std::uint32_t x = static_cast<std::uint32_t>(p % width);
    const std::uint32_t y = static_cast<std::uint32_t>(p / width);
    if (y >= height)
      break;
    // nearest-neighbor: pixel centers sample the grid uniformly
    const std::uint32_t gx =
      std::min(gw - 1, static_cast<std::uint32_t>(
                         (static_cast<std::uint64_t>(x) * gw) / width));
    const std::uint32_t gy =
      std::min(gh - 1, static_cast<std::uint32_t>(
                         (static_cast<std::uint64_t>(y) * gh) / height));
    const double v = grid[static_cast<std::size_t>(gy) * gw + gx];
    Shade(v, tf, rgba + 4 * p);
  }
}

void Downsample(const std::uint8_t *src, std::uint32_t sw, std::uint32_t sh,
                std::uint8_t *dst, std::uint32_t dw, std::uint32_t dh)
{
  if (!sw || !sh || !dw || !dh)
    return;
  for (std::uint32_t y = 0; y < dh; ++y)
  {
    const std::uint32_t sy = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(y) * sh) / dh);
    for (std::uint32_t x = 0; x < dw; ++x)
    {
      const std::uint32_t sx = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(x) * sw) / dw);
      const std::uint8_t *s =
        src + 4 * (static_cast<std::size_t>(sy) * sw + sx);
      std::uint8_t *d = dst + 4 * (static_cast<std::size_t>(y) * dw + x);
      d[0] = s[0];
      d[1] = s[1];
      d[2] = s[2];
      d[3] = s[3];
    }
  }
}

} // namespace viz
