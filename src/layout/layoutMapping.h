#ifndef layoutMapping_h
#define layoutMapping_h

/// @file layoutMapping.h
/// vp::layout — the SIMD force switch.
///
/// The process-wide LayoutConfig (the VP_SIMD environment variable, the
/// <layout simd> SENSEI XML attribute) decides whether kernels may take
/// their vectorized (SIMD lane) variants. The scalar paths are bit-exact
/// with the seed timeline; the SIMD variants reassociate floating-point
/// accumulation and are therefore opt-in. The counters record which
/// variant each dispatch took.

#include "vpKnob.h"

#include <cstdint>

namespace vp
{
namespace layout
{

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

/// Aggregate kernel-variant counters (process-wide, reset with
/// ResetStats).
struct LayoutStats
{
  std::uint64_t SimdKernels = 0;   ///< vectorized kernel bodies taken
  std::uint64_t ScalarKernels = 0; ///< scalar fallback bodies taken
};

LayoutStats Stats();
void ResetStats();

void NoteSimdKernel();
void NoteScalarKernel();

} // namespace layout
} // namespace vp

#endif
