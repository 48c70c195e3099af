#include "vpChecker.h"

#include "vpPlatform.h" // vp::Error (header-only); StreamState via vpStream.h

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace vp
{
namespace check
{

const char *ToString(ViolationKind k)
{
  switch (k)
  {
    case ViolationKind::UseAfterFree: return "use_after_free";
    case ViolationKind::UnsyncedHostAccess: return "unsynced_host_access";
    case ViolationKind::CrossStreamRace: return "cross_stream_race";
    case ViolationKind::DoubleFree: return "double_free";
    case ViolationKind::Leak: return "leak";
  }
  return "unknown";
}

std::string Report::Summary() const
{
  std::ostringstream os;
  os << "check: " << this->Total() << " violation(s)";
  for (int k = 0; k < 5; ++k)
    if (this->Counts[k])
      os << ' ' << ToString(static_cast<ViolationKind>(k)) << '='
         << this->Counts[k];
  os << '\n';
  for (const Violation &v : this->Violations)
    os << "  [" << ToString(v.Kind) << "] " << v.Message << '\n';
  return os.str();
}

namespace
{

/// -1 = unset (consult VP_CHECK on first query), else 0/1.
std::atomic<int> EnabledState{-1};

/// Grow-on-demand vector clock indexed by timeline id.
struct VectorClock
{
  std::vector<std::uint64_t> C;

  std::uint64_t Get(int i) const
  {
    return i >= 0 && static_cast<std::size_t>(i) < this->C.size()
             ? this->C[static_cast<std::size_t>(i)]
             : 0;
  }

  void Set(int i, std::uint64_t v)
  {
    if (static_cast<std::size_t>(i) >= this->C.size())
      this->C.resize(static_cast<std::size_t>(i) + 1, 0);
    this->C[static_cast<std::size_t>(i)] = v;
  }

  void Join(const VectorClock &o)
  {
    if (o.C.size() > this->C.size())
      this->C.resize(o.C.size(), 0);
    for (std::size_t i = 0; i < o.C.size(); ++i)
      this->C[i] = std::max(this->C[i], o.C[i]);
  }
};

/// One timeline: an executing thread or an in-order stream.
struct Timeline
{
  VectorClock VC;
  std::string Name;
  bool IsStream = false;
  int Node = 0;
  DeviceId Device = HostDevice;
};

/// A point event: timeline `Tl` at its local tick `Tick`.
struct Access
{
  int Tl = -1;
  std::uint64_t Tick = 0;
};

/// Life-cycle + access history of one tracked allocation.
struct AllocState
{
  AllocInfo Info;
  enum class St { Live, PoolCached } State = St::Live;
  Access LastWrite;
  std::vector<Access> Reads;       ///< since the last write (bounded)
  double PoolReadyAt = 0.0;        ///< stream-ordered free point
  const StreamState *PoolFreedOn = nullptr; ///< identity only, never deref'd
};

/// A recently freed range, kept so late accesses / double frees can be
/// attributed (bounded FIFO).
struct FreedRange
{
  std::size_t Bytes = 0;
  std::string Label;
  void *Owned = nullptr; ///< quarantined storage, std::freed on eviction
};

struct Checker
{
  std::mutex Mutex;
  CheckConfig Config;
  std::uint64_t Gen = 1; ///< bumped on Reset to invalidate cached thread ids
  std::vector<Timeline> Timelines;
  std::map<const void *, AllocState> Live;      ///< base ptr -> state
  std::map<const void *, FreedRange> Freed;     ///< tombstones
  std::deque<const void *> FreedOrder;          ///< eviction order
  std::size_t QuarantineBytes = 0;              ///< sum of Owned tombstones
  std::unordered_map<const StreamState *, int> StreamTl;
  std::unordered_map<std::uint64_t, VectorClock> Tokens; ///< events, forks
  std::uint64_t NextToken = 1;
  int NextThread = 0;
  std::vector<Violation> Violations;
  std::uint64_t Counts[5] = {};

  // release whatever is still quarantined behind the tombstones; without
  // this the storage survives the singleton and shows up as a leak under
  // LeakSanitizer in any process that exits with a warm quarantine
  ~Checker()
  {
    for (auto &kv : Freed)
      if (kv.second.Owned)
        std::free(kv.second.Owned);
  }
};

Checker &Self()
{
  static Checker c;
  return c;
}

constexpr std::size_t MaxTombstones = 4096;
constexpr std::size_t MaxReadsPerAlloc = 16;
constexpr std::size_t MaxQuarantineBytes = std::size_t(64) << 20;

/// Requires Self().Mutex held.
int ThreadTlLocked(Checker &c)
{
  thread_local std::uint64_t gen = 0;
  thread_local int id = -1;
  if (gen != c.Gen || id < 0)
  {
    gen = c.Gen;
    id = static_cast<int>(c.Timelines.size());
    Timeline t;
    t.Name = "thread#" + std::to_string(c.NextThread++);
    t.VC.Set(id, 1);
    c.Timelines.push_back(std::move(t));
  }
  return id;
}

/// Requires Self().Mutex held.
int StreamTlLocked(Checker &c, const StreamState *s)
{
  auto it = c.StreamTl.find(s);
  if (it != c.StreamTl.end())
    return it->second;
  const int id = static_cast<int>(c.Timelines.size());
  Timeline t;
  t.IsStream = true;
  t.Node = s->Node;
  t.Device = s->Device;
  t.Name = "stream#" + std::to_string(c.StreamTl.size()) + "(node" +
           std::to_string(s->Node) + " dev" + std::to_string(s->Device) + ")";
  t.VC.Set(id, 1);
  c.Timelines.push_back(std::move(t));
  c.StreamTl.emplace(s, id);
  return id;
}

/// True when point event `a` happened before the state of the timeline
/// whose clock is `vc`.
bool Ordered(const Access &a, const VectorClock &vc)
{
  return a.Tl < 0 || vc.Get(a.Tl) >= a.Tick;
}

// local naming helpers: the canonical vp::ToString overloads live in the
// platform library, which links *this* library — do not depend back on it
const char *SpaceName(MemSpace s)
{
  switch (s)
  {
    case MemSpace::Host: return "host";
    case MemSpace::HostPinned: return "host_pinned";
    case MemSpace::Device: return "device";
    case MemSpace::Managed: return "managed";
  }
  return "unknown";
}

const char *PmName(PmKind p)
{
  switch (p)
  {
    case PmKind::None: return "none";
    case PmKind::Cuda: return "cuda";
    case PmKind::OpenMP: return "openmp";
    case PmKind::Hip: return "hip";
    case PmKind::Sycl: return "sycl";
  }
  return "unknown";
}

std::string LabelOf(const AllocInfo &info, const void *p)
{
  std::ostringstream os;
  os << SpaceName(info.Space) << '[' << info.Bytes << "B]@" << p;
  if (info.Pm != PmKind::None)
    os << " pm=" << PmName(info.Pm);
  return os.str();
}

/// Record a violation (requires lock held). Throws when FailFast is set.
void RecordLocked(Checker &c, ViolationKind kind, const void *p,
                  const std::string &msg)
{
  c.Counts[static_cast<int>(kind)]++;
  if (c.Violations.size() < c.Config.MaxReports)
    c.Violations.push_back(Violation{kind, msg, p});
  if (c.Config.FailFast)
    throw Error("vp::check [" + std::string(ToString(kind)) + "] " + msg);
}

/// Containing-allocation lookup (requires lock held).
std::pair<const void *, AllocState *> FindLocked(Checker &c, const void *p)
{
  auto it = c.Live.upper_bound(p);
  if (it == c.Live.begin())
    return {nullptr, nullptr};
  --it;
  const char *base = static_cast<const char *>(it->first);
  const char *q = static_cast<const char *>(p);
  if (q < base + (it->second.Info.Bytes ? it->second.Info.Bytes : 1))
    return {it->first, &it->second};
  return {nullptr, nullptr};
}

/// Tombstone lookup (requires lock held).
const std::string *FindFreedLocked(Checker &c, const void *p)
{
  auto it = c.Freed.upper_bound(p);
  if (it == c.Freed.begin())
    return nullptr;
  --it;
  const char *base = static_cast<const char *>(it->first);
  const char *q = static_cast<const char *>(p);
  if (q < base + (it->second.Bytes ? it->second.Bytes : 1))
    return &it->second.Label;
  return nullptr;
}

/// Drop one tombstone, releasing quarantined storage (requires lock held).
void EraseTombstoneLocked(Checker &c,
                          std::map<const void *, FreedRange>::iterator it)
{
  if (it->second.Owned)
  {
    c.QuarantineBytes -= std::min(c.QuarantineBytes, it->second.Bytes);
    std::free(it->second.Owned);
  }
  c.Freed.erase(it);
}

/// Evict oldest tombstones past the count/byte caps (requires lock held).
void EvictTombstonesLocked(Checker &c)
{
  while (!c.FreedOrder.empty() && (c.FreedOrder.size() > MaxTombstones ||
                                   c.QuarantineBytes > MaxQuarantineBytes))
  {
    auto it = c.Freed.find(c.FreedOrder.front());
    if (it != c.Freed.end())
      EraseTombstoneLocked(c, it);
    c.FreedOrder.pop_front();
  }
}

void TombstoneLocked(Checker &c, const void *p, std::size_t bytes,
                     std::string label)
{
  c.Freed[p] = FreedRange{bytes, std::move(label), nullptr};
  c.FreedOrder.push_back(p);
  EvictTombstonesLocked(c);
}

/// Shared body of all read hooks (requires lock held). `tl` is the
/// accessing timeline at its current clock.
void ReadLocked(Checker &c, int tl, const void *p, const char *what)
{
  auto [base, st] = FindLocked(c, p);
  if (!st)
  {
    if (const std::string *label = FindFreedLocked(c, p))
      RecordLocked(c, ViolationKind::UseAfterFree, p,
                   std::string(what) + " of freed memory (" + *label +
                     ") by " + c.Timelines[static_cast<std::size_t>(tl)].Name);
    return;
  }
  Timeline &T = c.Timelines[static_cast<std::size_t>(tl)];
  if (st->State == AllocState::St::PoolCached)
  {
    RecordLocked(c, ViolationKind::UseAfterFree, base,
                 std::string(what) + " of pool-cached block " +
                   LabelOf(st->Info, base) + " by " + T.Name);
    return;
  }
  const Access &w = st->LastWrite;
  if (w.Tl >= 0 && w.Tl != tl && !Ordered(w, T.VC))
  {
    const Timeline &W = c.Timelines[static_cast<std::size_t>(w.Tl)];
    if (W.IsStream || T.IsStream)
    {
      const ViolationKind kind = T.IsStream
                                   ? ViolationKind::CrossStreamRace
                                   : ViolationKind::UnsyncedHostAccess;
      RecordLocked(c, kind, base,
                   std::string(what) + " of " + LabelOf(st->Info, base) +
                     " by " + T.Name + " while the last write by " + W.Name +
                     " is not synchronized");
    }
  }
  T.VC.Set(tl, T.VC.Get(tl) + 1);
  if (st->Reads.size() >= MaxReadsPerAlloc)
    st->Reads.erase(st->Reads.begin());
  st->Reads.push_back(Access{tl, T.VC.Get(tl)});
}

/// Shared body of all write hooks (requires lock held).
void WriteLocked(Checker &c, int tl, const void *p, const char *what)
{
  auto [base, st] = FindLocked(c, p);
  if (!st)
  {
    if (const std::string *label = FindFreedLocked(c, p))
      RecordLocked(c, ViolationKind::UseAfterFree, p,
                   std::string(what) + " to freed memory (" + *label +
                     ") by " + c.Timelines[static_cast<std::size_t>(tl)].Name);
    return;
  }
  Timeline &T = c.Timelines[static_cast<std::size_t>(tl)];
  if (st->State == AllocState::St::PoolCached)
  {
    RecordLocked(c, ViolationKind::UseAfterFree, base,
                 std::string(what) + " to pool-cached block " +
                   LabelOf(st->Info, base) + " by " + T.Name);
    return;
  }
  const Access &w = st->LastWrite;
  if (w.Tl >= 0 && w.Tl != tl && !Ordered(w, T.VC))
  {
    const Timeline &W = c.Timelines[static_cast<std::size_t>(w.Tl)];
    if (W.IsStream || T.IsStream)
      RecordLocked(c, ViolationKind::CrossStreamRace, base,
                   std::string(what) + " to " + LabelOf(st->Info, base) +
                     " by " + T.Name + " races with the write by " + W.Name +
                     " (no event edge between the streams)");
  }
  else
  {
    for (const Access &r : st->Reads)
    {
      if (r.Tl == tl || Ordered(r, T.VC))
        continue;
      const Timeline &R = c.Timelines[static_cast<std::size_t>(r.Tl)];
      if (!R.IsStream && !T.IsStream)
        continue;
      RecordLocked(c, ViolationKind::CrossStreamRace, base,
                   std::string(what) + " to " + LabelOf(st->Info, base) +
                     " by " + T.Name + " races with an unsynchronized read by " +
                     R.Name);
      break;
    }
  }
  T.VC.Set(tl, T.VC.Get(tl) + 1);
  st->LastWrite = Access{tl, T.VC.Get(tl)};
  st->Reads.clear();
}

} // namespace

// ---------------------------------------------------------------------------
const vp::knob::Table<CheckConfig> &ConfigRows()
{
  using namespace vp::knob;
  static const Table<CheckConfig> rows({
    Bool<&CheckConfig::Enabled>("check", "enabled", "VP_CHECK").Implies("1"),
    Int<&CheckConfig::MaxReports>("check", "max_reports", 0, kMaxInt),
    Bool<&CheckConfig::FailFast>("check", "fail_fast"),
  });
  return rows;
}

void Configure(const CheckConfig &cfg)
{
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  c.Config = cfg;
  EnabledState.store(cfg.Enabled ? 1 : 0, std::memory_order_relaxed);
}

CheckConfig GetConfig()
{
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  CheckConfig cfg = c.Config;
  cfg.Enabled = Enabled();
  return cfg;
}

void Enable(bool on)
{
  EnabledState.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool Enabled()
{
  int s = EnabledState.load(std::memory_order_relaxed);
  if (s < 0)
  {
    s = ConfigRows().Defaults().Enabled ? 1 : 0;
    EnabledState.store(s, std::memory_order_relaxed);
  }
  return s == 1;
}

void Reset()
{
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  c.Gen++;
  c.Timelines.clear();
  c.Live.clear();
  for (auto &kv : c.Freed)
    if (kv.second.Owned)
      std::free(kv.second.Owned);
  c.Freed.clear();
  c.FreedOrder.clear();
  c.QuarantineBytes = 0;
  c.StreamTl.clear();
  c.Tokens.clear();
  c.NextToken = 1;
  c.NextThread = 0;
  c.Violations.clear();
  for (auto &n : c.Counts)
    n = 0;
}

Report Snapshot()
{
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  Report r;
  r.Violations = c.Violations;
  for (int k = 0; k < 5; ++k)
    r.Counts[k] = c.Counts[k];
  return r;
}

Report Finalize()
{
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  if (Enabled())
  {
    for (const auto &kv : c.Live)
      if (kv.second.State == AllocState::St::Live)
        RecordLocked(c, ViolationKind::Leak, kv.first,
                     "allocation " + LabelOf(kv.second.Info, kv.first) +
                       " still live at Finalize");
  }
  Report r;
  r.Violations = c.Violations;
  for (int k = 0; k < 5; ++k)
    r.Counts[k] = c.Counts[k];
  return r;
}

// ---------------------------------------------------------------------------
void OnAlloc(void *p, const AllocInfo &info, const StreamState *s)
{
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  // the address range is live again: drop every overlapping tombstone
  // (allocators recycle ranges at different bases). Stale FreedOrder
  // entries are tolerated — eviction is best effort anyway.
  {
    const char *b = static_cast<const char *>(p);
    const char *e = b + (info.Bytes ? info.Bytes : 1);
    auto it = c.Freed.upper_bound(p);
    if (it != c.Freed.begin())
    {
      auto prev = std::prev(it);
      const char *pb = static_cast<const char *>(prev->first);
      if (pb + (prev->second.Bytes ? prev->second.Bytes : 1) > b)
      {
        it = std::next(prev);
        EraseTombstoneLocked(c, prev);
      }
    }
    while (it != c.Freed.end() && static_cast<const char *>(it->first) < e)
    {
      auto cur = it++;
      EraseTombstoneLocked(c, cur);
    }
  }
  const int tl = s ? StreamTlLocked(c, s) : ThreadTlLocked(c);
  if (s) // a stream-ordered allocation is a submission by this thread
  {
    const int tt = ThreadTlLocked(c);
    c.Timelines[static_cast<std::size_t>(tl)].VC.Join(
      c.Timelines[static_cast<std::size_t>(tt)].VC);
  }
  Timeline &T = c.Timelines[static_cast<std::size_t>(tl)];
  T.VC.Set(tl, T.VC.Get(tl) + 1);
  AllocState st;
  st.Info = info;
  st.LastWrite = Access{tl, T.VC.Get(tl)}; // zero-initialization
  c.Live[p] = std::move(st);
}

void OnFree(void *p)
{
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto it = c.Live.find(p);
  if (it == c.Live.end())
    return;
  TombstoneLocked(c, p, it->second.Info.Bytes,
                  LabelOf(it->second.Info, p));
  c.Live.erase(it);
}

bool QuarantineFree(void *p)
{
  if (!Enabled())
    return false;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto it = c.Freed.find(p);
  if (it == c.Freed.end() || it->second.Owned)
    return false;
  it->second.Owned = p;
  c.QuarantineBytes += it->second.Bytes;
  EvictTombstonesLocked(c);
  return true;
}

bool InterceptFree(void *p)
{
  if (!Enabled())
    return false;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto it = c.Live.find(p);
  if (it != c.Live.end() && it->second.State == AllocState::St::PoolCached)
  {
    RecordLocked(c, ViolationKind::DoubleFree, p,
                 "double free of " + LabelOf(it->second.Info, p) +
                   " (already returned to the memory pool)");
    return true; // swallow: the pool still owns the block
  }
  if (it == c.Live.end())
  {
    if (const std::string *label = FindFreedLocked(c, p))
    {
      RecordLocked(c, ViolationKind::DoubleFree, p,
                   "double free of already-freed " + *label);
      return true;
    }
  }
  return false;
}

void OnPoolFree(void *p, const StreamState *s, double readyAt)
{
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto it = c.Live.find(p);
  if (it == c.Live.end())
    return;
  AllocState &st = it->second;
  st.State = AllocState::St::PoolCached;
  st.PoolReadyAt = readyAt;
  st.PoolFreedOn = s;
  st.Reads.clear();
}

void OnPoolReuse(void *p, const StreamState *s, double requesterNow)
{
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto it = c.Live.find(p);
  if (it != c.Live.end() && it->second.State == AllocState::St::PoolCached)
  {
    AllocState &st = it->second;
    const bool sameStream = s && s == st.PoolFreedOn;
    if (!sameStream && requesterNow + 1e-12 < st.PoolReadyAt)
    {
      std::ostringstream os;
      os << "premature reuse of pooled block " << LabelOf(st.Info, p)
         << ": requester at t=" << requesterNow
         << " has not passed the recorded free point t=" << st.PoolReadyAt;
      if (st.PoolFreedOn)
      {
        auto fit = c.StreamTl.find(st.PoolFreedOn);
        if (fit != c.StreamTl.end())
          os << " of "
             << c.Timelines[static_cast<std::size_t>(fit->second)].Name;
      }
      RecordLocked(c, ViolationKind::UseAfterFree, p, os.str());
    }
    st.State = AllocState::St::Live;
    st.PoolFreedOn = nullptr;
  }
  // the reused block is zero-filled by the requester's timeline
  const int tl = s ? StreamTlLocked(c, s) : ThreadTlLocked(c);
  if (s)
  {
    const int tt = ThreadTlLocked(c);
    c.Timelines[static_cast<std::size_t>(tl)].VC.Join(
      c.Timelines[static_cast<std::size_t>(tt)].VC);
  }
  Timeline &T = c.Timelines[static_cast<std::size_t>(tl)];
  T.VC.Set(tl, T.VC.Get(tl) + 1);
  if (it != c.Live.end())
  {
    it->second.LastWrite = Access{tl, T.VC.Get(tl)};
    it->second.Reads.clear();
  }
}

void OnPoolRelease(void *p)
{
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto it = c.Live.find(p);
  if (it != c.Live.end())
    it->second.State = AllocState::St::Live;
}

void OnCopy(const StreamState *s, void *dst, const void *src,
            std::size_t bytes)
{
  (void)bytes;
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  const int tl = StreamTlLocked(c, s);
  const int tt = ThreadTlLocked(c);
  // submission edge: the stream inherits everything the thread knows
  c.Timelines[static_cast<std::size_t>(tl)].VC.Join(
    c.Timelines[static_cast<std::size_t>(tt)].VC);
  ReadLocked(c, tl, src, "stream read");
  WriteLocked(c, tl, dst, "stream write");
}

void OnHostCopy(void *dst, const void *src, std::size_t bytes)
{
  (void)bytes;
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  const int tt = ThreadTlLocked(c);
  ReadLocked(c, tt, src, "host read");
  WriteLocked(c, tt, dst, "host write");
}

void OnSubmit(const StreamState *s)
{
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  const int tl = StreamTlLocked(c, s);
  const int tt = ThreadTlLocked(c);
  Timeline &T = c.Timelines[static_cast<std::size_t>(tl)];
  T.VC.Join(c.Timelines[static_cast<std::size_t>(tt)].VC);
  T.VC.Set(tl, T.VC.Get(tl) + 1);
}

void OnStreamSync(const StreamState *s)
{
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  const int tl = StreamTlLocked(c, s);
  const int tt = ThreadTlLocked(c);
  c.Timelines[static_cast<std::size_t>(tt)].VC.Join(
    c.Timelines[static_cast<std::size_t>(tl)].VC);
}

void OnDeviceSync(int node, DeviceId device)
{
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  const int tt = ThreadTlLocked(c);
  VectorClock &tvc = c.Timelines[static_cast<std::size_t>(tt)].VC;
  for (std::size_t i = 0; i < c.Timelines.size(); ++i)
  {
    const Timeline &t = c.Timelines[i];
    if (t.IsStream && t.Node == node && t.Device == device)
      tvc.Join(t.VC);
  }
}

std::uint64_t OnEventRecord(const StreamState *s)
{
  if (!Enabled())
    return 0;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  const int tl = StreamTlLocked(c, s);
  const int tt = ThreadTlLocked(c);
  Timeline &T = c.Timelines[static_cast<std::size_t>(tl)];
  T.VC.Join(c.Timelines[static_cast<std::size_t>(tt)].VC);
  T.VC.Set(tl, T.VC.Get(tl) + 1);
  const std::uint64_t tok = c.NextToken++;
  c.Tokens[tok] = T.VC;
  return tok;
}

void OnStreamWaitEvent(const StreamState *s, std::uint64_t token)
{
  if (!Enabled() || !token)
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto it = c.Tokens.find(token);
  if (it == c.Tokens.end())
    return;
  const int tl = StreamTlLocked(c, s);
  const int tt = ThreadTlLocked(c);
  Timeline &T = c.Timelines[static_cast<std::size_t>(tl)];
  T.VC.Join(it->second);
  T.VC.Join(c.Timelines[static_cast<std::size_t>(tt)].VC);
}

void OnEventSync(std::uint64_t token)
{
  if (!Enabled() || !token)
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto it = c.Tokens.find(token);
  if (it == c.Tokens.end())
    return;
  const int tt = ThreadTlLocked(c);
  c.Timelines[static_cast<std::size_t>(tt)].VC.Join(it->second);
}

std::uint64_t OnThreadSpawn()
{
  if (!Enabled())
    return 0;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  const int tt = ThreadTlLocked(c);
  const std::uint64_t tok = c.NextToken++;
  c.Tokens[tok] = c.Timelines[static_cast<std::size_t>(tt)].VC;
  return tok;
}

void OnThreadStart(std::uint64_t token)
{
  if (!Enabled() || !token)
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto it = c.Tokens.find(token);
  if (it == c.Tokens.end())
    return;
  const int tt = ThreadTlLocked(c);
  c.Timelines[static_cast<std::size_t>(tt)].VC.Join(it->second);
  c.Tokens.erase(it);
}

std::uint64_t OnThreadEnd()
{
  if (!Enabled())
    return 0;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  const int tt = ThreadTlLocked(c);
  const std::uint64_t tok = c.NextToken++;
  c.Tokens[tok] = c.Timelines[static_cast<std::size_t>(tt)].VC;
  return tok;
}

void OnThreadJoin(std::uint64_t token)
{
  if (!Enabled() || !token)
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto it = c.Tokens.find(token);
  if (it == c.Tokens.end())
    return;
  const int tt = ThreadTlLocked(c);
  c.Timelines[static_cast<std::size_t>(tt)].VC.Join(it->second);
  c.Tokens.erase(it);
}

// The exec engine's deferred tasks and pool shards use the same
// fork/join vector-clock protocol as ScopedThread: a task is a
// short-lived logical thread whose lifetime is bracketed by an enqueue
// on the submitter and a fence wait on the joiner. Distinct entry
// points keep call sites self-documenting and give the engine a stable
// seam even if task edges later grow task-specific state.

std::uint64_t OnTaskSpawn()
{
  return OnThreadSpawn();
}

void OnTaskStart(std::uint64_t token)
{
  OnThreadStart(token);
}

std::uint64_t OnTaskEnd()
{
  return OnThreadEnd();
}

void OnTaskJoin(std::uint64_t token)
{
  OnThreadJoin(token);
}

void HostRead(const void *p, std::size_t bytes, const char *what)
{
  (void)bytes;
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto [base, st] = FindLocked(c, p);
  if (st && st->Info.Space == MemSpace::Device)
  {
    const int tt = ThreadTlLocked(c);
    RecordLocked(c, ViolationKind::UnsyncedHostAccess, base,
                 std::string(what) + " of device memory " +
                   LabelOf(st->Info, base) + " by " +
                   c.Timelines[static_cast<std::size_t>(tt)].Name +
                   " (device memory is not host addressable)");
    return;
  }
  ReadLocked(c, ThreadTlLocked(c), p, what);
}

void HostWrite(void *p, std::size_t bytes, const char *what)
{
  (void)bytes;
  if (!Enabled())
    return;
  Checker &c = Self();
  std::lock_guard<std::mutex> lock(c.Mutex);
  auto [base, st] = FindLocked(c, p);
  if (st && st->Info.Space == MemSpace::Device)
  {
    const int tt = ThreadTlLocked(c);
    RecordLocked(c, ViolationKind::UnsyncedHostAccess, base,
                 std::string(what) + " to device memory " +
                   LabelOf(st->Info, base) + " by " +
                   c.Timelines[static_cast<std::size_t>(tt)].Name +
                   " (device memory is not host addressable)");
    return;
  }
  WriteLocked(c, ThreadTlLocked(c), p, what);
}

} // namespace check
} // namespace vp
