#ifndef layoutMapping_h
#define layoutMapping_h

/// @file layoutMapping.h
/// vp::layout — the layout-polymorphic array engine (LLAMA-style).
///
/// A Mapping separates *what* an array stores (Tuples records of Comps
/// scalar components) from *where* each scalar lands in the flat
/// allocation, so the access code never hard-wires a memory layout:
///
///  * AoS    — records interleaved: [x0 y0 z0 | x1 y1 z1 | ...]. The
///             historical svtkHAMRDataArray layout; tuple access is one
///             cache line, component scans are strided.
///  * SoA    — component planes: [x0 x1 ... | y0 y1 ... | z0 z1 ...].
///             Component scans are fully contiguous — the vectorizable
///             layout for per-lane SIMD kernels and coalesced device
///             access.
///
/// An array declares its layout when it is created, and can convert at
/// any time (svtkHAMRDataArray::ConvertLayout). One-component arrays are
/// layout-invariant: both Kinds map to the identity, so the bulk of the
/// repo's columns (separate x/y/z/... arrays) pay nothing for the
/// abstraction.
///
/// The process-wide LayoutConfig (the VP_SIMD environment variable, the
/// <layout simd> SENSEI XML attribute) decides whether kernels may take
/// their vectorized (SIMD lane) variants. The scalar paths are bit-exact
/// with the seed timeline; the SIMD variants reassociate floating-point
/// accumulation and are therefore opt-in.

#include "vpKnob.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace vp
{
namespace layout
{

/// The memory layouts a Mapping can describe.
enum class Kind : int
{
  AoS = 0, ///< interleaved records (the historical layout)
  SoA      ///< one contiguous plane per component
};

/// The spellings of Kind ("aos"/"interleaved", "soa"/"planar").
const vp::knob::Spellings &KindNames();

/// Parse a Kind spelling. Throws std::invalid_argument on anything else.
Kind KindFromName(const std::string &name);

/// Stable lower-case name ("aos", "soa").
const char *KindName(Kind k);

/// Where each (tuple, component) scalar lives in the flat allocation.
struct Mapping
{
  Kind Layout = Kind::AoS;
  std::size_t Tuples = 0;
  std::size_t Comps = 1;

  static Mapping AoS(std::size_t tuples, std::size_t comps);
  static Mapping SoA(std::size_t tuples, std::size_t comps);
  static Mapping Make(Kind k, std::size_t tuples, std::size_t comps);

  /// Total scalar slots the flat allocation needs (Tuples * Comps).
  std::size_t Slots() const noexcept { return this->Tuples * this->Comps; }

  /// Flat slot of (tuple, component). No bounds checking.
  std::size_t Offset(std::size_t tuple, std::size_t comp) const noexcept
  {
    if (this->Comps == 1)
      return tuple;
    return this->Layout == Kind::SoA ? comp * this->Tuples + tuple
                                     : tuple * this->Comps + comp;
  }

  bool operator==(const Mapping &o) const noexcept
  {
    return this->Layout == o.Layout && this->Tuples == o.Tuples &&
           this->Comps == o.Comps;
  }
  bool operator!=(const Mapping &o) const noexcept { return !(*this == o); }
};

/// Element-wise reorder between two mappings of the same logical shape:
/// dst[to.Offset(t, c)] = src[from.Offset(t, c)] over tuples [tupleBegin,
/// tupleEnd). Values are moved, never recomputed, so round trips are
/// bit-exact. `src` and `dst` must not alias.
template <typename T>
void ReorderRange(const T *src, const Mapping &from, T *dst,
                  const Mapping &to, std::size_t tupleBegin,
                  std::size_t tupleEnd)
{
  for (std::size_t c = 0; c < to.Comps; ++c)
    for (std::size_t t = tupleBegin; t < tupleEnd; ++t)
      dst[to.Offset(t, c)] = src[from.Offset(t, c)];
}

// --- process-wide configuration ---------------------------------------------

/// The `<layout>` XML element / VP_SIMD environment.
struct LayoutConfig
{
  bool Simd = false; ///< allow vectorized (reassociating) kernels

  bool operator==(const LayoutConfig &o) const { return Simd == o.Simd; }
};

/// The `<layout>` rows: simd (VP_SIMD).
const vp::knob::Table<LayoutConfig> &ConfigRows();

/// The defaults with the environment applied (scalar otherwise).
LayoutConfig DefaultConfig();

/// Replace the process-wide configuration.
void Configure(const LayoutConfig &cfg);

/// The active configuration.
LayoutConfig GetConfig();

/// Shorthand for the hot paths.
bool SimdEnabled();

// --- counters ----------------------------------------------------------------

/// Aggregate engine counters (process-wide, reset with ResetStats).
struct LayoutStats
{
  std::uint64_t Conversions = 0;    ///< layout-to-layout reorders
  std::uint64_t BytesReordered = 0; ///< bytes moved by those reorders
  std::uint64_t SimdKernels = 0;    ///< vectorized kernel bodies taken
  std::uint64_t ScalarKernels = 0;  ///< scalar fallback bodies taken
};

LayoutStats Stats();
void ResetStats();

void NoteConversion(std::size_t bytes);
void NoteSimdKernel();
void NoteScalarKernel();

} // namespace layout
} // namespace vp

#endif
