#include "layoutMapping.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

namespace vp
{
namespace layout
{

// --- names -------------------------------------------------------------------

const vp::knob::Spellings &KindNames()
{
  static const vp::knob::Spellings names = {
    {"aos", 0}, {"interleaved", 0}, {"soa", 1}, {"planar", 1}, {"aosoa", 2}};
  return names;
}

Kind KindFromName(const std::string &name, std::size_t *block)
{
  const int v = vp::knob::Lookup(KindNames(), name);
  if (v >= 0)
    return static_cast<Kind>(v);
  if (name.rfind("aosoa", 0) == 0)
  {
    const std::string tail = name.substr(5);
    for (char c : tail)
      if (!std::isdigit(static_cast<unsigned char>(c)))
        throw std::invalid_argument("vp::layout: bad layout name '" + name +
                                    "'");
    const unsigned long b = std::strtoul(tail.c_str(), nullptr, 10);
    if (b < 2 || b > 65536)
      throw std::invalid_argument("vp::layout: aosoa block size must be in "
                                  "[2, 65536], got '" + name + "'");
    if (block)
      *block = static_cast<std::size_t>(b);
    return Kind::AoSoA;
  }
  throw std::invalid_argument("vp::layout: unknown layout '" + name +
                              "' (want aos | soa | aosoa | aosoa<B>)");
}

const char *KindName(Kind k)
{
  return vp::knob::NameOf(KindNames(), static_cast<int>(k));
}

std::string KindName(Kind k, std::size_t block)
{
  if (k == Kind::AoSoA)
    return "aosoa" + std::to_string(block);
  return KindName(k);
}

// --- mapping -----------------------------------------------------------------

Mapping Mapping::AoS(std::size_t tuples, std::size_t comps)
{
  return Make(Kind::AoS, tuples, comps, 0);
}

Mapping Mapping::SoA(std::size_t tuples, std::size_t comps)
{
  return Make(Kind::SoA, tuples, comps, 0);
}

Mapping Mapping::AoSoA(std::size_t tuples, std::size_t comps,
                       std::size_t block)
{
  return Make(Kind::AoSoA, tuples, comps, block);
}

Mapping Mapping::Make(Kind k, std::size_t tuples, std::size_t comps,
                      std::size_t block)
{
  Mapping m;
  m.Layout = k;
  m.Tuples = tuples;
  m.Comps = comps ? comps : 1;
  m.Block = block ? block : GetConfig().Block;
  if (k == Kind::AoSoA && m.Block < 2)
    throw std::invalid_argument("vp::layout: AoSoA block size must be >= 2");
  return m;
}

std::size_t Mapping::Slots() const noexcept
{
  if (this->Comps == 1 || this->Layout != Kind::AoSoA)
    return this->Tuples * this->Comps;
  const std::size_t blocks = (this->Tuples + this->Block - 1) / this->Block;
  return blocks * this->Block * this->Comps;
}

std::size_t Mapping::Offset(std::size_t tuple, std::size_t comp) const noexcept
{
  if (this->Comps == 1)
    return tuple;
  switch (this->Layout)
  {
    case Kind::AoS:
      return tuple * this->Comps + comp;
    case Kind::SoA:
      return comp * this->Tuples + tuple;
    case Kind::AoSoA:
    {
      const std::size_t b = tuple / this->Block;
      const std::size_t r = tuple % this->Block;
      return b * this->Block * this->Comps + comp * this->Block + r;
    }
  }
  return tuple * this->Comps + comp;
}

Run Mapping::RunAt(std::size_t tuple, std::size_t comp) const noexcept
{
  Run run;
  run.Offset = this->Offset(tuple, comp);
  if (this->Comps == 1)
  {
    run.Count = this->Tuples - tuple;
    return run;
  }
  switch (this->Layout)
  {
    case Kind::AoS:
      run.Count = 1;
      break;
    case Kind::SoA:
      run.Count = this->Tuples - tuple;
      break;
    case Kind::AoSoA:
    {
      const std::size_t inBlock = this->Block - tuple % this->Block;
      const std::size_t left = this->Tuples - tuple;
      run.Count = inBlock < left ? inBlock : left;
      break;
    }
  }
  return run;
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
  std::atomic<std::uint64_t> RunsIterated{0};
  std::atomic<std::uint64_t> PlaneTransposes{0};
  std::atomic<std::uint64_t> PlaneBytes{0};
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
    Enum<&LayoutConfig::Default>("layout", "default", KindNames(), "VP_LAYOUT")
      .Parses([](LayoutConfig &c, const std::string &text)
              { c.Default = KindFromName(text, &c.Block); }),
    Int<&LayoutConfig::Block>("layout", "block", 2, 65536),
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

Kind DefaultKind()
{
  return GetConfig().Default;
}

std::size_t DefaultBlock()
{
  return GetConfig().Block;
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
  s.RunsIterated = a.RunsIterated.load(std::memory_order_relaxed);
  s.PlaneTransposes = a.PlaneTransposes.load(std::memory_order_relaxed);
  s.PlaneBytes = a.PlaneBytes.load(std::memory_order_relaxed);
  return s;
}

void ResetStats()
{
  AtomicStats &a = GlobalStats();
  a.Conversions.store(0, std::memory_order_relaxed);
  a.BytesReordered.store(0, std::memory_order_relaxed);
  a.SimdKernels.store(0, std::memory_order_relaxed);
  a.ScalarKernels.store(0, std::memory_order_relaxed);
  a.RunsIterated.store(0, std::memory_order_relaxed);
  a.PlaneTransposes.store(0, std::memory_order_relaxed);
  a.PlaneBytes.store(0, std::memory_order_relaxed);
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

void NoteRuns(std::size_t n)
{
  GlobalStats().RunsIterated.fetch_add(n, std::memory_order_relaxed);
}

void NotePlaneTranspose(std::size_t bytes)
{
  AtomicStats &a = GlobalStats();
  a.PlaneTransposes.fetch_add(1, std::memory_order_relaxed);
  a.PlaneBytes.fetch_add(bytes, std::memory_order_relaxed);
}

// --- byte-plane transpose ----------------------------------------------------

namespace
{
/// Elements per transpose tile: 256 elements x 8 byte planes = one 2 KiB
/// working set, well inside L1, so every source cache line is consumed
/// completely while it is resident.
constexpr std::size_t TransposeTile = 256;
} // namespace

void GatherPlanes(const std::uint8_t *src, std::size_t esize, std::size_t n,
                  std::uint8_t *dst)
{
  if (!n || !esize)
    return;
  for (std::size_t t = 0; t < n; t += TransposeTile)
  {
    const std::size_t m = n - t < TransposeTile ? n - t : TransposeTile;
    const std::uint8_t *__restrict s = src + t * esize;
    for (std::size_t b = 0; b < esize; ++b)
    {
      std::uint8_t *__restrict d = dst + b * n + t;
      for (std::size_t i = 0; i < m; ++i)
        d[i] = s[i * esize + b];
    }
  }
  NotePlaneTranspose(n * esize);
}

void ScatterPlanes(const std::uint8_t *src, std::size_t esize, std::size_t n,
                   std::uint8_t *dst)
{
  if (!n || !esize)
    return;
  for (std::size_t t = 0; t < n; t += TransposeTile)
  {
    const std::size_t m = n - t < TransposeTile ? n - t : TransposeTile;
    std::uint8_t *__restrict d = dst + t * esize;
    for (std::size_t b = 0; b < esize; ++b)
    {
      const std::uint8_t *__restrict s = src + b * n + t;
      for (std::size_t i = 0; i < m; ++i)
        d[i * esize + b] = s[i];
    }
  }
  NotePlaneTranspose(n * esize);
}

} // namespace layout
} // namespace vp
