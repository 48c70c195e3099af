#include "e2eHarness.h"

#include "vpClock.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>

namespace e2e
{

double WallNow()
{
  return std::chrono::duration<double>(
           std::chrono::steady_clock::now().time_since_epoch())
    .count();
}

double Percentile(std::vector<double> v, double p)
{
  if (v.empty())
    return 0.0;
  std::sort(v.begin(), v.end());
  const double at = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double> &v)
{
  double s = 0.0;
  for (double x : v)
    s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double PeakRssMb()
{
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

std::map<long, double> Track::SecondsPerStep(const std::string &name) const
{
  std::map<long, double> out;
  for (const Span &s : this->Spans_)
    if (s.Step >= 0 && name == s.Name)
      out[s.Step] += s.Seconds();
  return out;
}

ScopedSpan::ScopedSpan(Track *track, const char *name, long step)
  : Track_(track)
{
  if (!track)
    return;
  this->Span_.Name = name;
  this->Span_.Step = step;
  this->Span_.VBegin = vp::ThisClock().Now();
  this->Span_.Begin = WallNow();
}

ScopedSpan::~ScopedSpan()
{
  if (!this->Track_)
    return;
  this->Span_.End = WallNow();
  this->Span_.VEnd = vp::ThisClock().Now();
  this->Track_->Add(this->Span_);
}

bool WriteChromeTrace(const std::string &path,
                      const std::vector<const Track *> &tracks, double epoch)
{
  std::ofstream os(path);
  if (!os)
    return false;
  os.precision(15);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&]() -> std::ostream &
  {
    if (!first)
      os << ",\n";
    first = false;
    return os;
  };
  for (std::size_t t = 0; t < tracks.size(); ++t)
  {
    sep() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
          << ",\"args\":{\"name\":\"" << tracks[t]->Name() << "\"}}";
    for (const Span &s : tracks[t]->Spans())
      sep() << "{\"name\":\"" << s.Name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
            << t << ",\"ts\":" << 1e6 * (s.Begin - epoch)
            << ",\"dur\":" << 1e6 * s.Seconds() << ",\"args\":{\"step\":"
            << s.Step << ",\"virtual_begin_s\":" << s.VBegin
            << ",\"virtual_end_s\":" << s.VEnd << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

std::vector<double> SlowestPerStep(const std::vector<const Track *> &tracks,
                                   const std::vector<std::string> &names)
{
  std::map<long, double> slowest;
  for (const Track *t : tracks)
  {
    std::map<long, double> mine;
    for (const std::string &name : names)
      for (const auto &[step, sec] : t->SecondsPerStep(name))
        mine[step] += sec;
    for (const auto &[step, sec] : mine)
      slowest[step] = std::max(slowest[step], sec);
  }
  std::vector<double> out;
  out.reserve(slowest.size());
  for (const auto &kv : slowest)
    out.push_back(kv.second);
  return out;
}

double UnattributedFraction(const std::vector<const Track *> &tracks)
{
  double steps = 0.0, children = 0.0;
  for (const Track *t : tracks)
    for (const Span &s : t->Spans())
    {
      if (s.Step < 0)
        continue;
      (std::string("step") == s.Name ? steps : children) += s.Seconds();
    }
  return steps > 0.0 ? 1.0 - children / steps : 0.0;
}

void Report::Add(const std::string &name, double value,
                 const std::string &unit)
{
  if (!std::isfinite(value))
  {
    this->Check(name + " is finite", false);
    value = 0.0;
  }
  this->Metrics_.push_back(Metric{name, value, unit});
}

void Report::Check(const std::string &what, bool ok)
{
  ++this->Checks_;
  if (!ok)
  {
    ++this->ChecksFailed_;
    std::fprintf(stderr, "e2e_step: check failed: %s\n", what.c_str());
  }
}

void Report::Operations(long n, long failed)
{
  this->Attempted_ += n;
  this->Failed_ += failed;
}

void Report::Print(const std::string &workload) const
{
  for (const Metric &m : this->Metrics_)
    std::printf("%s %s %.9g %s\n", workload.c_str(), m.Name.c_str(), m.Value,
                m.Unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              this->Correct() && this->Failed() == 0 ? "true" : "false",
              std::max(1L, this->Attempted_ + this->Checks_), this->Failed());
  for (std::size_t i = 0; i < this->Metrics_.size(); ++i)
  {
    const Metric &m = this->Metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.Name.c_str(), m.Value, m.Unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace e2e
