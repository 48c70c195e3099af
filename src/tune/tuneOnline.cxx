#include "tuneOnline.h"

#include "graphCapture.h"
#include "newtonDriver.h"
#include "schedPipeline.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace tune
{

/// One candidate adjustment: how to apply it and how to undo it.
struct OnlineTuner::Move
{
  std::string Name;
  std::function<void()> Apply;
  std::function<void()> Revert;
  bool IsPolicy = false;
};

namespace
{

// the depth ladder deepening moves walk: bounded depths then unbounded
long DeeperDepth(long d, long maxDepth)
{
  if (d == 0)
    return 0; // already unbounded
  const long next = d * 2;
  return next > maxDepth ? 0 : next;
}

long ShallowerDepth(long d, long maxDepth)
{
  if (d == 0)
    return maxDepth;
  return std::max(1L, d / 2);
}

} // namespace

OnlineTuner::OnlineTuner(OnlineConfig cfg) : Cfg_(std::move(cfg))
{
  // move kinds, round-robin order: 0 deepen queue, 1 shallow queue,
  // 2 next backpressure, 3 next policy
  this->Cooldown_.assign(4, 0);
}

void OnlineTuner::Attach(newton::Driver &driver)
{
  driver.SetStepHook([this](long s) { this->OnStep(s); });
}

double OnlineTuner::CloseWindow()
{
  sensei::Profiler &prof = sensei::Profiler::Global();
  const sensei::Profiler::CounterSnapshot now = prof.Snapshot();
  double metric = 0.0;
  if (this->HaveSnap_)
  {
    const sensei::Profiler::CounterSnapshot d =
      sensei::Profiler::Delta(now, this->LastSnap_);
    auto total = [&d](const char *name)
    {
      auto it = d.find(name);
      return it == d.end() ? 0.0 : it->second.Total;
    };
    // what the simulation actually observed this window: solver time
    // plus the in situ submission/stall time on its critical path
    metric = total("driver::solver") + total("driver::insitu");
  }
  this->LastSnap_ = now;
  this->HaveSnap_ = true;

  // graph activity: replays observed in this window freeze policy moves
  const std::uint64_t replays = vp::graph::Stats().Replays;
  this->GraphActive_ = vp::graph::Enabled() && replays > this->LastReplays_;
  this->LastReplays_ = replays;
  return metric;
}

bool OnlineTuner::ProposeNext(double metric)
{
  const sched::SchedConfig sc = sched::GetConfig();

  // a move setting one row of config `cur` to `next` (named and spelled
  // as the row spells it), reverting to `cur`; none when nothing changes
  auto setRow = [](const auto &rows, const char *attribute, const auto &cur,
                   double next, auto put)
  {
    Move m;
    for (const auto &r : rows)
      if (std::strcmp(r.Attribute, attribute) == 0 && r.Get(cur) != next)
      {
        auto c = cur;
        r.Set(c, next);
        m.Name = r.Name() + " " + r.Text(r.Get(cur)) + " -> " + r.Text(next);
        m.Apply = [c, put]() { put(c); };
        m.Revert = [cur, put]() { put(cur); };
      }
    return m;
  };

  auto makeMove = [&](std::size_t kind) -> Move
  {
    const long maxDepth = this->Cfg_.MaxQueueDepth;
    switch (kind)
    {
      case 0: // deepen the queue (more in-flight payloads)
        return setRow(sched::ConfigRows(), "queue_depth", sc,
                      DeeperDepth(sc.QueueDepth, maxDepth), sched::Configure);
      case 1: // shallow the queue (less buffered memory, earlier pressure)
        return setRow(sched::ConfigRows(), "queue_depth", sc,
                      ShallowerDepth(sc.QueueDepth, maxDepth),
                      sched::Configure);
      case 2: // next backpressure mode: block -> drop-oldest -> coalesce
        return setRow(sched::ConfigRows(), "backpressure", sc,
                      (static_cast<int>(sc.Pressure) + 1) % 3,
                      sched::Configure);
      case 3: // next placement policy (frozen while graphs replay)
      {
        if (!this->Cfg_.AdaptPolicy)
          return Move();
        if (this->GraphActive_)
        {
          ++this->Stats_.PolicyFrozen;
          return Move();
        }
        Move m = setRow(sched::ConfigRows(), "policy", sc,
                        (static_cast<int>(sc.Policy) + 1) % 3,
                        sched::Configure);
        m.IsPolicy = true;
        return m;
      }
      default:
        return Move();
    }
  };

  for (std::size_t tried = 0; tried < this->Cooldown_.size(); ++tried)
  {
    const std::size_t kind = this->NextKind_;
    this->NextKind_ = (this->NextKind_ + 1) % this->Cooldown_.size();
    if (this->Cooldown_[kind] > 0)
      continue;
    Move m = makeMove(kind);
    if (!m.Apply)
      continue;

    m.Apply();
    this->TrialName_ = m.Name;
    this->TrialRevert_ = m.Revert;
    this->TrialKind_ = static_cast<int>(kind);
    this->Phase_ = Phase::Trial;
    ++this->Stats_.Trials;

    std::ostringstream os;
    os << "window " << this->Stats_.Windows << ": trial " << m.Name
       << " (baseline " << metric << "s)";
    this->Decisions_.push_back(os.str());
    return true;
  }
  return false;
}

void OnlineTuner::DecideTrial(double metric)
{
  const bool keep =
    this->HaveBaseline_ && this->Baseline_ > 0.0 &&
    metric <= this->Baseline_ * (1.0 - this->Cfg_.Hysteresis);

  std::ostringstream os;
  os << "window " << this->Stats_.Windows << ": " << this->TrialName_
     << " measured " << metric << "s vs baseline " << this->Baseline_
     << "s -> " << (keep ? "kept" : "reverted");
  this->Decisions_.push_back(os.str());

  if (keep)
  {
    ++this->Stats_.Kept;
    this->Baseline_ = metric; // the improved window is the new baseline
  }
  else
  {
    ++this->Stats_.Reverted;
    if (this->TrialRevert_)
      this->TrialRevert_();
    if (this->TrialKind_ >= 0)
      this->Cooldown_[static_cast<std::size_t>(this->TrialKind_)] =
        this->Cfg_.CooldownWindows;
  }
  this->TrialName_.clear();
  this->TrialRevert_ = nullptr;
  this->TrialKind_ = -1;
  this->Phase_ = Phase::Baseline;
}

void OnlineTuner::OnStep(long /*step*/)
{
  if (++this->StepsInWindow_ < this->Cfg_.WindowSteps)
    return;
  this->StepsInWindow_ = 0;

  const double metric = this->CloseWindow();
  const bool first = this->Stats_.Windows == 0;
  ++this->Stats_.Windows;
  for (int &c : this->Cooldown_)
    c = std::max(0, c - 1);
  if (first)
    return; // the first window only seeds the snapshot

  if (this->Phase_ == Phase::Trial)
  {
    this->DecideTrial(metric);
    return;
  }

  // baseline phase: refresh the reference (the workload may have
  // shifted under us), then put the next eligible change on trial
  this->Baseline_ = metric;
  this->HaveBaseline_ = true;
  this->ProposeNext(metric);
}

void OnlineTuner::ExportStats(sensei::Profiler &prof) const
{
  prof.Event("tune::online_windows", static_cast<double>(this->Stats_.Windows));
  prof.Event("tune::online_trials", static_cast<double>(this->Stats_.Trials));
  prof.Event("tune::online_kept", static_cast<double>(this->Stats_.Kept));
  prof.Event("tune::online_reverted",
             static_cast<double>(this->Stats_.Reverted));
  prof.Event("tune::online_policy_frozen",
             static_cast<double>(this->Stats_.PolicyFrozen));
}

} // namespace tune
