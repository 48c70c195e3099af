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
///  * AoSoA  — blocked hybrid: blocks of B tuples, components
///             contiguous within a block: [x0..xB-1 y0..yB-1 ... |
///             xB..x2B-1 ...]. Runs of B elements keep SIMD width while
///             a whole record stays within one block (cache locality).
///
/// One-component arrays are layout-invariant: every Kind maps to the
/// identity and Slots() == Tuples, so the bulk of the repo's columns
/// (separate x/y/z/... arrays) pay nothing for the abstraction.
///
/// The process-wide LayoutConfig (VP_LAYOUT / VP_SIMD environment, the
/// <layout> SENSEI XML element, per-analysis overrides) selects the
/// default Kind for newly declared arrays and whether kernels may take
/// their vectorized (SIMD lane) variants. The scalar paths are
/// bit-exact with the seed timeline; the SIMD variants reassociate
/// floating-point accumulation and are therefore opt-in.

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
  SoA,     ///< one contiguous plane per component
  AoSoA    ///< blocks of `Block` tuples, component-contiguous per block
};

/// The plain spellings of Kind ("aos"/"interleaved", "soa"/"planar",
/// "aosoa"); KindFromName also takes "aosoa<B>".
const vp::knob::Spellings &KindNames();

/// Parse "aos" / "soa" / "aosoa" / "aosoa<B>" (e.g. "aosoa16"). When a
/// block size is embedded it is written to *block (left untouched
/// otherwise). Throws std::invalid_argument on anything else.
Kind KindFromName(const std::string &name, std::size_t *block = nullptr);

/// Stable lower-case base name ("aos", "soa", "aosoa").
const char *KindName(Kind k);

/// Display name carrying the block size for AoSoA ("aosoa32").
std::string KindName(Kind k, std::size_t block);

/// A contiguous run of one component's values in the flat allocation.
struct Run
{
  std::size_t Offset = 0; ///< first flat slot of the run
  std::size_t Count = 0;  ///< elements in the run (tuples covered)
};

/// Where each (tuple, component) scalar lives in the flat allocation.
struct Mapping
{
  Kind Layout = Kind::AoS;
  std::size_t Tuples = 0;
  std::size_t Comps = 1;
  std::size_t Block = 32; ///< tuples per AoSoA block

  static Mapping AoS(std::size_t tuples, std::size_t comps);
  static Mapping SoA(std::size_t tuples, std::size_t comps);
  static Mapping AoSoA(std::size_t tuples, std::size_t comps,
                       std::size_t block);
  static Mapping Make(Kind k, std::size_t tuples, std::size_t comps,
                      std::size_t block);

  /// Total scalar slots the flat allocation needs. AoS/SoA pack exactly
  /// Tuples*Comps; AoSoA pads the final partial block so every block's
  /// component runs stay `Block` apart (padding slots are zero filled
  /// by the allocation and never addressed by Offset).
  std::size_t Slots() const noexcept;

  /// Flat slot of (tuple, component). No bounds checking.
  std::size_t Offset(std::size_t tuple, std::size_t comp) const noexcept;

  /// The longest contiguous run of component `comp` starting at `tuple`
  /// (AoS: 1; SoA: Tuples - tuple; AoSoA: to the end of the block).
  Run RunAt(std::size_t tuple, std::size_t comp) const noexcept;

  bool operator==(const Mapping &o) const noexcept
  {
    return this->Layout == o.Layout && this->Tuples == o.Tuples &&
           this->Comps == o.Comps &&
           (this->Layout != Kind::AoSoA || this->Block == o.Block);
  }
  bool operator!=(const Mapping &o) const noexcept { return !(*this == o); }
};

// --- process-wide configuration ---------------------------------------------

/// The `<layout>` XML element / VP_LAYOUT, VP_SIMD environment.
struct LayoutConfig
{
  Kind Default = Kind::AoS; ///< layout for newly declared arrays
  std::size_t Block = 32;   ///< AoSoA block size
  bool Simd = false;        ///< allow vectorized (reassociating) kernels

  bool operator==(const LayoutConfig &o) const
  {
    return Default == o.Default && Block == o.Block && Simd == o.Simd;
  }
};

/// The `<layout>` rows: default (VP_LAYOUT, "aos" | "soa" | "aosoa" |
/// "aosoa<B>"; an embedded block size sets Block), block, and simd
/// (VP_SIMD).
const vp::knob::Table<LayoutConfig> &ConfigRows();

/// The defaults with the environment applied (AoS + scalar otherwise).
LayoutConfig DefaultConfig();

/// Replace the process-wide configuration. Validated: Block must be in
/// [2, 65536]. Throws std::invalid_argument otherwise.
void Configure(const LayoutConfig &cfg);

/// The active configuration.
LayoutConfig GetConfig();

/// Shorthands for the hot paths.
Kind DefaultKind();
std::size_t DefaultBlock();
bool SimdEnabled();

// --- counters ----------------------------------------------------------------

/// Aggregate engine counters (process-wide, reset with ResetStats).
struct LayoutStats
{
  std::uint64_t Conversions = 0;    ///< layout-to-layout reorders
  std::uint64_t BytesReordered = 0; ///< bytes moved by those reorders
  std::uint64_t SimdKernels = 0;    ///< vectorized kernel bodies taken
  std::uint64_t ScalarKernels = 0;  ///< scalar fallback bodies taken
  std::uint64_t RunsIterated = 0;   ///< contiguous runs handed to callers
  std::uint64_t PlaneTransposes = 0; ///< blocked byte-plane transposes
  std::uint64_t PlaneBytes = 0;      ///< bytes moved by those transposes
};

LayoutStats Stats();
void ResetStats();

void NoteConversion(std::size_t bytes);
void NoteSimdKernel();
void NoteScalarKernel();
void NoteRuns(std::size_t n);
void NotePlaneTranspose(std::size_t bytes);

// --- byte-plane transpose ----------------------------------------------------

/// Gather the `esize` byte planes of `n` interleaved elements:
/// dst[b*n + i] = src[i*esize + b]. One cache-blocked pass replaces the
/// per-plane strided sweeps of the naive shuffle (the codec's measured
/// hot loop); the output bytes are identical.
void GatherPlanes(const std::uint8_t *src, std::size_t esize, std::size_t n,
                  std::uint8_t *dst);

/// Inverse of GatherPlanes: dst[i*esize + b] = src[b*n + i].
void ScatterPlanes(const std::uint8_t *src, std::size_t esize, std::size_t n,
                   std::uint8_t *dst);

} // namespace layout
} // namespace vp

#endif
