#ifndef e2eHarness_h
#define e2eHarness_h

/// @file e2eHarness.h
/// The measurement side of the end-to-end step benchmark: the wall clock,
/// percentiles, the in-memory span tracks the traced run records around
/// each public call, the Chrome trace-event export, and the report that
/// prints every metric as `workload metric value unit` followed by one
/// JSON result line.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace e2e
{

/// Real (wall-clock) seconds on the steady clock. The same clock the viz
/// endpoint stamps FrameInfo::RenderTime with, so frame ages subtract.
double WallNow();

/// Linearly interpolated p-th quantile (p in [0,1]); 0 for an empty set.
double Percentile(std::vector<double> v, double p);

inline double Median(std::vector<double> v)
{
  return Percentile(std::move(v), 0.5);
}

double Mean(const std::vector<double> &v);

/// Peak resident set size of this process, MiB (getrusage).
double PeakRssMb();
/// One recorded call: wall begin/end, virtual begin/end, and the step it
/// belongs to (-1 outside the step loop).
struct Span
{
  const char *Name = "";
  double Begin = 0.0, End = 0.0;
  double VBegin = 0.0, VEnd = 0.0;
  long Step = -1;

  double Seconds() const { return this->End - this->Begin; }
};

/// The spans of one thread of the benchmark (a rank, a tenant or a
/// viewer). Written by its owning thread only; read after it joined.
class Track
{
public:
  explicit Track(std::string name) : Name_(std::move(name)) {}

  void Add(const Span &s) { this->Spans_.push_back(s); }

  const std::string &Name() const { return this->Name_; }
  const std::vector<Span> &Spans() const { return this->Spans_; }

  /// Per step, the summed duration of the spans named `name`.
  std::map<long, double> SecondsPerStep(const std::string &name) const;

private:
  std::string Name_;
  std::vector<Span> Spans_;
};

/// Times one call into `track` on both clocks; a null track records
/// nothing (the untraced steps of a traced run, and every untraced run).
class ScopedSpan
{
public:
  ScopedSpan(Track *track, const char *name, long step);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Track *Track_;
  Span Span_;
};

/// Write `tracks` as Chrome trace-event JSON (one tid per track, complete
/// events with the virtual clock in args). Returns false on I/O failure.
bool WriteChromeTrace(const std::string &path,
                      const std::vector<const Track *> &tracks,
                      double epoch);

/// Per step, the maximum over tracks of their per-step sums of the spans
/// named in `names`: the slowest rank's time in those calls.
std::vector<double> SlowestPerStep(const std::vector<const Track *> &tracks,
                                   const std::vector<std::string> &names);

/// 1 - (time inside child spans / time inside "step" spans) over every
/// traced step of every track.
double UnattributedFraction(const std::vector<const Track *> &tracks);

/// The metrics and outcome of one workload run.
class Report
{
public:
  void Add(const std::string &name, double value, const std::string &unit);

  /// Record an output check; a failed one is printed to stderr.
  void Check(const std::string &what, bool ok);

  /// Count `n` attempted operations of which `failed` failed.
  void Operations(long n, long failed);

  bool Correct() const { return this->ChecksFailed_ == 0; }
  long Failed() const { return this->Failed_ + this->ChecksFailed_; }

  /// Print `workload metric value unit` per metric, then the JSON result
  /// line (last line of stdout).
  void Print(const std::string &workload) const;

private:
  struct Metric
  {
    std::string Name;
    double Value = 0.0;
    std::string Unit;
  };
  std::vector<Metric> Metrics_;
  long Attempted_ = 0;
  long Failed_ = 0;
  long Checks_ = 0;
  long ChecksFailed_ = 0;
};

} // namespace e2e

#endif
