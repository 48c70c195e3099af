#include "layoutMapping.h"

#include <atomic>
#include <mutex>

namespace vp
{
namespace layout
{

// --- names -------------------------------------------------------------------

const vp::knob::Spellings &KindNames()
{
  static const vp::knob::Spellings names = {
    {"aos", 0}, {"interleaved", 0}, {"soa", 1}, {"planar", 1}};
  return names;
}

Kind KindFromName(const std::string &name)
{
  return vp::knob::FromName<Kind>(KindNames(), name,
                                  "vp::layout: unknown layout");
}

const char *KindName(Kind k)
{
  return vp::knob::NameOf(KindNames(), static_cast<int>(k));
}

// --- mapping -----------------------------------------------------------------

Mapping Mapping::AoS(std::size_t tuples, std::size_t comps)
{
  return Make(Kind::AoS, tuples, comps);
}

Mapping Mapping::SoA(std::size_t tuples, std::size_t comps)
{
  return Make(Kind::SoA, tuples, comps);
}

Mapping Mapping::Make(Kind k, std::size_t tuples, std::size_t comps)
{
  Mapping m;
  m.Layout = k;
  m.Tuples = tuples;
  m.Comps = comps ? comps : 1;
  return m;
}

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
  std::atomic<std::uint64_t> Conversions{0};
  std::atomic<std::uint64_t> BytesReordered{0};
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
  s.Conversions = a.Conversions.load(std::memory_order_relaxed);
  s.BytesReordered = a.BytesReordered.load(std::memory_order_relaxed);
  s.SimdKernels = a.SimdKernels.load(std::memory_order_relaxed);
  s.ScalarKernels = a.ScalarKernels.load(std::memory_order_relaxed);
  return s;
}

void ResetStats()
{
  AtomicStats &a = GlobalStats();
  a.Conversions.store(0, std::memory_order_relaxed);
  a.BytesReordered.store(0, std::memory_order_relaxed);
  a.SimdKernels.store(0, std::memory_order_relaxed);
  a.ScalarKernels.store(0, std::memory_order_relaxed);
}

void NoteConversion(std::size_t bytes)
{
  AtomicStats &a = GlobalStats();
  a.Conversions.fetch_add(1, std::memory_order_relaxed);
  a.BytesReordered.fetch_add(bytes, std::memory_order_relaxed);
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
