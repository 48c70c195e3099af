#include "vpFaultInjector.h"

#include <mutex>
#include <random>

namespace vp
{
namespace fault
{

namespace
{

struct Injector
{
  std::mutex Mutex;
  FaultConfig Config;
  FaultStats Counts;
  std::mt19937_64 Rng{1};
  std::uint64_t AllocN = 0;
  std::uint64_t EventN = 0;
  std::uint64_t FrameN = 0;
  std::uint64_t CrashN = 0;
};

Injector &Self()
{
  static Injector inj;
  return inj;
}

} // namespace

const vp::knob::Table<FaultConfig> &ConfigRows()
{
  using namespace vp::knob;
  using F = FaultConfig;
  static const Table<FaultConfig> rows({
    Bool<&F::Enabled>("fault", "enabled").Implies("1"),
    Int<&F::Seed>("fault", "seed", 0, kMaxInt),
    Int<&F::FailAllocNth>("fault", "fail_alloc_nth", 0, kMaxInt),
    Real<&F::FailAllocProb>("fault", "fail_alloc_prob", 0, 1),
    Int<&F::DropEventNth>("fault", "drop_event_nth", 0, kMaxInt),
    Real<&F::StreamDelaySeconds>("fault", "stream_delay", 0, kInf),
    Int<&F::DelayNode>("fault", "delay_node", -1, kMaxInt32),
    Int<&F::DelayDevice>("fault", "delay_device", -1, kMaxInt32),
    Bool<&F::PrematureReuse>("fault", "premature_reuse"),
    Int<&F::DropFrameNth>("fault", "drop_frame_nth", 0, kMaxInt),
    Int<&F::CrashSendNth>("fault", "crash_send_nth", 0, kMaxInt),
    Real<&F::FrameDelaySeconds>("fault", "frame_delay", 0, kInf),
  });
  return rows;
}

void Configure(const FaultConfig &cfg)
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  inj.Config = cfg;
  inj.Counts = FaultStats{};
  inj.Rng.seed(cfg.Seed);
  inj.AllocN = 0;
  inj.EventN = 0;
  inj.FrameN = 0;
  inj.CrashN = 0;
}

FaultConfig GetConfig()
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  return inj.Config;
}

bool Enabled()
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  return inj.Config.Enabled;
}

void Reset()
{
  Configure(FaultConfig{});
}

FaultStats Stats()
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  return inj.Counts;
}

bool ShouldFailAllocation()
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  if (!inj.Config.Enabled)
    return false;
  const std::uint64_t n = ++inj.AllocN;
  bool fail = inj.Config.FailAllocNth && n == inj.Config.FailAllocNth;
  if (!fail && inj.Config.FailAllocProb > 0.0)
  {
    // always draw so the decision stream is a pure function of the seed
    // and the allocation index, independent of which knobs are set
    std::uniform_real_distribution<double> u(0.0, 1.0);
    fail = u(inj.Rng) < inj.Config.FailAllocProb;
  }
  if (fail)
    inj.Counts.AllocFailures++;
  return fail;
}

bool ShouldDropEvent()
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  if (!inj.Config.Enabled || !inj.Config.DropEventNth)
    return false;
  const bool drop = ++inj.EventN == inj.Config.DropEventNth;
  if (drop)
    inj.Counts.EventsDropped++;
  return drop;
}

double StreamDelay(int node, DeviceId device)
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  if (!inj.Config.Enabled || inj.Config.StreamDelaySeconds <= 0.0)
    return 0.0;
  if (inj.Config.DelayNode >= 0 && inj.Config.DelayNode != node)
    return 0.0;
  if (inj.Config.DelayDevice >= 0 && inj.Config.DelayDevice != device)
    return 0.0;
  inj.Counts.DelaysApplied++;
  return inj.Config.StreamDelaySeconds;
}

bool PrematureReuseEnabled()
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  return inj.Config.Enabled && inj.Config.PrematureReuse;
}

bool ShouldDropFrame()
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  if (!inj.Config.Enabled || !inj.Config.DropFrameNth)
    return false;
  const bool drop = ++inj.FrameN == inj.Config.DropFrameNth;
  if (drop)
    inj.Counts.FramesDropped++;
  return drop;
}

bool ShouldCrashSend()
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  if (!inj.Config.Enabled || !inj.Config.CrashSendNth)
    return false;
  const bool crash = ++inj.CrashN == inj.Config.CrashSendNth;
  if (crash)
    inj.Counts.SendCrashes++;
  return crash;
}

double FrameDelay()
{
  Injector &inj = Self();
  std::lock_guard<std::mutex> lock(inj.Mutex);
  if (!inj.Config.Enabled || inj.Config.FrameDelaySeconds <= 0.0)
    return 0.0;
  inj.Counts.DelaysApplied++;
  return inj.Config.FrameDelaySeconds;
}

} // namespace fault
} // namespace vp
