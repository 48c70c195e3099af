#include "layoutMapping.h"

#include <atomic>
#include <mutex>

namespace vp
{
namespace layout
{

// --- configuration -----------------------------------------------------------

namespace
{

std::mutex &StateMutex()
{
  static std::mutex m;
  return m;
}

LayoutConfig &GlobalConfig()
{
  static LayoutConfig cfg = DefaultConfig();
  return cfg;
}

struct AtomicStats
{
  std::atomic<std::uint64_t> SimdKernels{0};
  std::atomic<std::uint64_t> ScalarKernels{0};
};

AtomicStats &GlobalStats()
{
  static AtomicStats s;
  return s;
}

} // namespace

const vp::knob::Table<LayoutConfig> &ConfigRows()
{
  using namespace vp::knob;
  static const Table<LayoutConfig> rows({
    Bool<&LayoutConfig::Simd>("layout", "simd", "VP_SIMD"),
  });
  return rows;
}

LayoutConfig DefaultConfig()
{
  return ConfigRows().Defaults();
}

void Configure(const LayoutConfig &cfg)
{
  ConfigRows().Validate(cfg);
  std::lock_guard<std::mutex> lock(StateMutex());
  GlobalConfig() = cfg;
}

LayoutConfig GetConfig()
{
  std::lock_guard<std::mutex> lock(StateMutex());
  return GlobalConfig();
}

bool SimdEnabled()
{
  return GetConfig().Simd;
}

// --- counters ----------------------------------------------------------------

LayoutStats Stats()
{
  const AtomicStats &a = GlobalStats();
  LayoutStats s;
  s.SimdKernels = a.SimdKernels.load(std::memory_order_relaxed);
  s.ScalarKernels = a.ScalarKernels.load(std::memory_order_relaxed);
  return s;
}

void ResetStats()
{
  AtomicStats &a = GlobalStats();
  a.SimdKernels.store(0, std::memory_order_relaxed);
  a.ScalarKernels.store(0, std::memory_order_relaxed);
}

void NoteSimdKernel()
{
  GlobalStats().SimdKernels.fetch_add(1, std::memory_order_relaxed);
}

void NoteScalarKernel()
{
  GlobalStats().ScalarKernels.fetch_add(1, std::memory_order_relaxed);
}

} // namespace layout
} // namespace vp
