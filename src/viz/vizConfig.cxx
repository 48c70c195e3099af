#include "vizConfig.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

namespace viz
{

namespace
{

/// Bound on the frame-age reservoir: enough samples for a stable p99,
/// small enough to never matter for memory. Once full, new samples
/// overwrite round-robin so the estimate tracks the recent window.
constexpr std::size_t kAgeReservoir = 4096;

struct Global
{
  std::mutex Mutex;
  VizConfig Config = ConfigRows().Defaults();
  VizStats Counts;
  std::vector<double> Ages;
  std::size_t AgeNext = 0;
};

Global &Self()
{
  static Global g;
  return g;
}

} // namespace

const vp::knob::Table<VizConfig> &ConfigRows()
{
  using namespace vp::knob;
  using P = cmp::Params;
  static const Table<VizConfig> rows({
    Int<&VizConfig::Width>("viz", "width", 1, 16384, "VP_VIZ_WIDTH"),
    Int<&VizConfig::Height>("viz", "height", 1, 16384, "VP_VIZ_HEIGHT"),
    Enum<&VizConfig::Map>("viz", "colormap", ColormapNames(),
                          "VP_VIZ_COLORMAP"),
    Bool<&VizConfig::Log>("viz", "log", "VP_VIZ_LOG"),
    Enum<&VizConfig::Codec, &P::Codec>("viz", "codec", cmp::CodecNames(),
                                       "VP_VIZ_CODEC"),
  });
  return rows;
}

void Configure(const VizConfig &cfg)
{
  ConfigRows().Validate(cfg);
  if (!cfg.AutoRange && !(cfg.Lo < cfg.Hi))
    throw std::invalid_argument("viz: fixed range needs lo < hi");
  if (cfg.Codec.Codec == cmp::CodecId::Quantize)
    throw std::invalid_argument(
      "viz: quantize is lossy on floats, not defined for RGBA bytes");
  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  g.Config = cfg;
}

VizConfig GetConfig()
{
  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  return g.Config;
}

VizStats Stats()
{
  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  VizStats out = g.Counts;
  if (!g.Ages.empty())
  {
    std::vector<double> sorted = g.Ages;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t ix = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(0.99 * static_cast<double>(sorted.size())));
    out.FrameAgeP99Us = static_cast<std::uint64_t>(sorted[ix] * 1e6);
  }
  return out;
}

void ResetStats()
{
  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  g.Counts = VizStats{};
  g.Ages.clear();
  g.AgeNext = 0;
}

void UpdateStats(const std::function<void(VizStats &)> &fn)
{
  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  fn(g.Counts);
}

void RecordFrameAge(double seconds)
{
  const double s = std::max(0.0, seconds);
  Global &g = Self();
  std::lock_guard<std::mutex> lock(g.Mutex);
  ++g.Counts.FrameAgeCount;
  g.Counts.FrameAgeMaxUs = std::max(
    g.Counts.FrameAgeMaxUs, static_cast<std::uint64_t>(s * 1e6));
  if (g.Ages.size() < kAgeReservoir)
  {
    g.Ages.push_back(s);
  }
  else
  {
    g.Ages[g.AgeNext] = s;
    g.AgeNext = (g.AgeNext + 1) % kAgeReservoir;
  }
}

} // namespace viz
