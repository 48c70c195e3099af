#ifndef graphCapture_h
#define graphCapture_h

/// @file graphCapture.h
/// What is left of the deleted step-graph subsystem: exactly the names
/// the end-to-end benchmark (bench/e2e) still compiles against. There is
/// no library, configuration row, environment variable or state behind
/// them; Stats() always reads zero. This header exists only for the
/// benchmark's build, and the next change to the benchmark deletes it
/// together with its graph.* metrics.

#include <cstdint>

namespace vp
{
namespace graph
{

struct GraphConfig
{
};

inline void Configure(const GraphConfig &) {}

struct GraphStats
{
  std::uint64_t Captures = 0;
  std::uint64_t Replays = 0;
  std::uint64_t Invalidations = 0;
  std::uint64_t LaunchesFused = 0;
};

inline GraphStats Stats()
{
  return GraphStats();
}

inline void ResetStats() {}

} // namespace graph
} // namespace vp

#endif
