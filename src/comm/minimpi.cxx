#include "minimpi.h"

#include "vpClock.h"
#include "vpPlatform.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <thread>

namespace minimpi
{

namespace
{
/// One buffered message.
struct Message
{
  std::vector<std::uint8_t> Data;
  double AvailTime = 0.0; ///< virtual time at which the payload has arrived
};

/// Process-wide single-message cap (see Communicator::SetMaxMessageBytes).
std::atomic<std::size_t> MaxMessageBytes{(std::size_t(1) << 31) - 1};

void StoreU64LE(std::uint8_t *p, std::uint64_t v)
{
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t LoadU64LE(const std::uint8_t *p)
{
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Root-rank id of the current thread in a lockstep region (-1 outside).
/// Indexed by launch rank, not per-context rank: Dup/Split children keep
/// their own numbering, but the scheduling token belongs to the thread.
thread_local int TlLockstepRank = -1;
} // namespace

/// Cooperative deterministic scheduler for LaunchOptions::Lockstep. One
/// token, one runner: a rank thread executes only while it owns the
/// token; blocking operations hand it back with a wakeup predicate, and
/// every grant re-evaluates the blocked predicates and picks the
/// lowest-numbered runnable rank. Because exactly one rank runs at a
/// time and the handoff order is a pure function of program state, the
/// order in which ranks reach shared virtual resources — and therefore
/// every virtual timestamp — is reproducible across runs.
///
/// Progress from outside the rank set (e.g. a service endpoint thread
/// delivering a message) is covered by Ping(), which re-runs the grant
/// when the token is parked. An incorrect program that deadlocks under
/// real MPI deadlocks here too (all ranks blocked, no owner) — lockstep
/// preserves hang semantics rather than masking them.
class LockstepSched
{
public:
  explicit LockstepSched(int ranks)
    : State_(static_cast<std::size_t>(ranks), Ready),
      Preds_(static_cast<std::size_t>(ranks))
  {
    std::lock_guard<std::mutex> lock(this->M_);
    this->Grant();
  }

  /// Called by rank `r`'s thread before the user function: wait for the
  /// first grant.
  void Start(int r)
  {
    std::unique_lock<std::mutex> lock(this->M_);
    this->Cv_.wait(lock, [&] { return this->Owner_ == r; });
    this->State_[static_cast<std::size_t>(r)] = Running;
  }

  /// Rank `r` finished (normally or by exception): retire it and pass
  /// the token on.
  void Finish(int r)
  {
    std::lock_guard<std::mutex> lock(this->M_);
    this->State_[static_cast<std::size_t>(r)] = Done;
    this->Owner_ = -1;
    this->Grant();
  }

  /// Block rank `r` until `pred()` holds, yielding the token while it
  /// does not. The predicate is re-evaluated under the scheduler lock by
  /// whichever thread runs the grant, so it must take any locks the
  /// state it reads needs. Re-checked after every wakeup: a concurrent
  /// consumer may have invalidated it again.
  void Wait(int r, const std::function<bool()> &pred)
  {
    std::unique_lock<std::mutex> lock(this->M_);
    while (!pred())
    {
      this->State_[static_cast<std::size_t>(r)] = Blocked;
      this->Preds_[static_cast<std::size_t>(r)] = pred;
      this->Owner_ = -1;
      this->Grant();
      this->Cv_.wait(lock, [&] { return this->Owner_ == r; });
      this->State_[static_cast<std::size_t>(r)] = Running;
    }
  }

  /// External progress (a send from a non-rank thread): re-run the grant
  /// when the token is parked with every rank blocked.
  void Ping()
  {
    std::lock_guard<std::mutex> lock(this->M_);
    if (this->Owner_ < 0)
      this->Grant();
  }

private:
  /// M_ held. Promote blocked ranks whose predicates now hold, then hand
  /// the token to the lowest-numbered runnable rank.
  void Grant()
  {
    if (this->Owner_ >= 0)
      return;
    const int n = static_cast<int>(this->State_.size());
    for (int r = 0; r < n; ++r)
    {
      auto &pred = this->Preds_[static_cast<std::size_t>(r)];
      if (this->State_[static_cast<std::size_t>(r)] == Blocked && pred &&
          pred())
      {
        this->State_[static_cast<std::size_t>(r)] = Ready;
        pred = nullptr;
      }
    }
    for (int r = 0; r < n; ++r)
      if (this->State_[static_cast<std::size_t>(r)] == Ready)
      {
        this->Owner_ = r;
        this->Cv_.notify_all();
        return;
      }
  }

  enum RankState
  {
    Ready,
    Running,
    Blocked,
    Done
  };

  std::mutex M_;
  std::condition_variable Cv_;
  int Owner_ = -1;
  std::vector<RankState> State_;
  std::vector<std::function<bool()>> Preds_;
};

/// Shared state of one rank-parallel region.
class Context
{
public:
  Context(int size, int ranksPerNode)
    : Size_(size), RanksPerNode_(ranksPerNode), InPtrs_(size),
      EntryTimes_(size)
  {
    this->Mail_.resize(static_cast<std::size_t>(size));
    for (auto &m : this->Mail_)
      m = std::make_unique<Mailbox>();
  }

  int Size() const noexcept { return this->Size_; }
  int RanksPerNode() const noexcept { return this->RanksPerNode_; }

  /// Attach the cooperative scheduler of a lockstep launch (propagated
  /// to Dup/Split children; null outside lockstep regions).
  void SetLockstep(LockstepSched *ls) { this->Ls_ = ls; }

  // --- p2p -------------------------------------------------------------------
  void Send(int src, int dest, int tag, const void *data, std::size_t bytes)
  {
    if (dest < 0 || dest >= this->Size_)
      throw std::out_of_range("minimpi::Send: invalid destination rank");

    const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
    Message msg;
    msg.Data.resize(bytes);
    if (bytes)
      std::memcpy(msg.Data.data(), data, bytes);
    msg.AvailTime = vp::ThisClock().Now() + cost.MessageLatency +
                    static_cast<double>(bytes) / cost.MessageBandwidth;

    Mailbox &mb = *this->Mail_[static_cast<std::size_t>(dest)];
    {
      std::lock_guard<std::mutex> lock(mb.Mutex);
      mb.Queue.emplace(std::make_pair(src, tag), std::move(msg));
    }
    mb.Cv.notify_all();
    if (this->Ls_ && TlLockstepRank < 0)
      this->Ls_->Ping(); // a non-rank thread made progress

    // the sender pays a small injection cost
    vp::ThisClock().Advance(cost.MessageLatency);
  }

  std::vector<std::uint8_t> Recv(int self, int src, int tag)
  {
    if (src < 0 || src >= this->Size_)
      throw std::out_of_range("minimpi::Recv: invalid source rank");

    Mailbox &mb = *this->Mail_[static_cast<std::size_t>(self)];
    const auto key = std::make_pair(src, tag);
    // lower_bound, not find: multimap::find may return any message with
    // this key, but chunked transfers need oldest-first (FIFO) delivery
    // per (source, tag). Insertion order is preserved among equal keys,
    // and lower_bound always lands on the first of them.
    auto ready = [&mb, key]
    {
      auto it = mb.Queue.lower_bound(key);
      return it != mb.Queue.end() && it->first == key;
    };

    if (this->Ls_ && TlLockstepRank >= 0)
      this->Ls_->Wait(TlLockstepRank,
                      [&mb, ready]
                      {
                        std::lock_guard<std::mutex> lock(mb.Mutex);
                        return ready();
                      });

    std::unique_lock<std::mutex> lock(mb.Mutex);
    if (!(this->Ls_ && TlLockstepRank >= 0))
      mb.Cv.wait(lock, ready);

    auto it = mb.Queue.lower_bound(key);
    Message msg = std::move(it->second);
    mb.Queue.erase(it);
    lock.unlock();

    vp::ThisClock().AdvanceTo(msg.AvailTime);
    return std::move(msg.Data);
  }

  /// Timed variant: false on a real-time timeout, nothing consumed.
  bool RecvTimed(int self, int src, int tag, std::vector<std::uint8_t> &out,
                 double timeoutSeconds)
  {
    if (src < 0 || src >= this->Size_)
      throw std::out_of_range("minimpi::Recv: invalid source rank");

    Mailbox &mb = *this->Mail_[static_cast<std::size_t>(self)];
    const auto key = std::make_pair(src, tag);

    // untimed waits join the lockstep rotation; finite timeouts keep
    // real-time semantics and stay outside the token
    if (this->Ls_ && TlLockstepRank >= 0 && timeoutSeconds < 0.0)
      this->Ls_->Wait(TlLockstepRank,
                      [&mb, key]
                      {
                        std::lock_guard<std::mutex> lock(mb.Mutex);
                        auto it = mb.Queue.lower_bound(key);
                        return it != mb.Queue.end() && it->first == key;
                      });

    std::unique_lock<std::mutex> lock(mb.Mutex);
    auto ready = [&]
    {
      auto it = mb.Queue.lower_bound(key);
      return it != mb.Queue.end() && it->first == key;
    };

    if (timeoutSeconds < 0.0)
    {
      if (!(this->Ls_ && TlLockstepRank >= 0))
        mb.Cv.wait(lock, ready);
    }
    else
    {
      const auto deadline = std::chrono::nanoseconds(
        static_cast<std::int64_t>(std::max(0.0, timeoutSeconds) * 1e9));
      if (!mb.Cv.wait_for(lock, deadline, ready))
        return false;
    }

    auto it = mb.Queue.lower_bound(key);
    Message msg = std::move(it->second);
    mb.Queue.erase(it);
    lock.unlock();

    vp::ThisClock().AdvanceTo(msg.AvailTime);
    out = std::move(msg.Data);
    return true;
  }

  // --- collectives -------------------------------------------------------------

  /// Generic two-phase collective. Every rank contributes `in`; the last
  /// arrival runs `combine` (with all input pointers valid), which fills
  /// Scratch_ and returns the collective's virtual duration. Every rank
  /// then copies the first `outBytes` of Scratch_ into `out` and leaves
  /// at the latest entry time plus that duration.
  void Collective(
    int rank, const void *in, void *out, std::size_t outBytes,
    const std::function<double(const std::vector<const void *> &)> &combine)
  {
    std::unique_lock<std::mutex> lock(this->CollMutex_);
    const std::uint64_t myGen = this->Generation_;
    this->InPtrs_[static_cast<std::size_t>(rank)] = in;
    this->EntryTimes_[static_cast<std::size_t>(rank)] = vp::ThisClock().Now();

    if (++this->Arrived_ == this->Size_)
    {
      const double entry =
        *std::max_element(this->EntryTimes_.begin(), this->EntryTimes_.end());
      this->ExitTime_ = entry + combine(this->InPtrs_);

      this->Arrived_ = 0;
      ++this->Generation_;
      this->CollCv_.notify_all();
    }
    else if (this->Ls_ && TlLockstepRank >= 0)
    {
      lock.unlock();
      this->Ls_->Wait(TlLockstepRank,
                      [this, myGen]
                      {
                        std::lock_guard<std::mutex> l(this->CollMutex_);
                        return this->Generation_ != myGen;
                      });
      lock.lock();
    }
    else
    {
      this->CollCv_.wait(lock, [&] { return this->Generation_ != myGen; });
    }

    if (out && outBytes)
      std::memcpy(out, this->Scratch_.data(), outBytes);
    vp::ThisClock().AdvanceTo(this->ExitTime_);
  }

  /// Virtual duration of a dense collective moving `bytes` per rank: a
  /// tree fan-in/out of ceil(log2(P)) steps, or on one rank the host
  /// copy of `bytes` it is.
  double TreeSeconds(std::size_t bytes) const
  {
    const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
    if (this->Size_ == 1)
      return static_cast<double>(bytes) / cost.H2HBandwidth;
    const double steps =
      std::ceil(std::log2(static_cast<double>(this->Size_)));
    return steps * (cost.MessageLatency +
                    static_cast<double>(bytes) / cost.MessageBandwidth);
  }

  std::vector<std::uint8_t> &Scratch() { return this->Scratch_; }

  /// Lazily created duplicate context #idx (thread safe; every rank
  /// resolving the same idx gets the same child).
  Context *GetDup(int idx)
  {
    std::lock_guard<std::mutex> lock(this->DupMutex_);
    auto &slot = this->Dups_[idx];
    if (!slot)
    {
      slot = std::make_unique<Context>(this->Size_, this->RanksPerNode_);
      slot->SetLockstep(this->Ls_);
    }
    return slot.get();
  }

  /// Lazily created split child for generation `idx` and `color`, sized
  /// `members` (thread safe; every same-color rank gets the same child).
  Context *GetSplit(int idx, int color, int members)
  {
    std::lock_guard<std::mutex> lock(this->DupMutex_);
    auto &slot = this->Splits_[{idx, color}];
    if (!slot)
    {
      slot = std::make_unique<Context>(members, 0);
      slot->SetLockstep(this->Ls_);
    }
    return slot.get();
  }

private:
  struct Mailbox
  {
    std::mutex Mutex;
    std::condition_variable Cv;
    std::multimap<std::pair<int, int>, Message> Queue;
  };

  int Size_ = 1;
  int RanksPerNode_ = 0;
  LockstepSched *Ls_ = nullptr;
  std::vector<std::unique_ptr<Mailbox>> Mail_;

  std::mutex CollMutex_;
  std::condition_variable CollCv_;
  int Arrived_ = 0;
  std::uint64_t Generation_ = 0;
  std::vector<const void *> InPtrs_;
  std::vector<double> EntryTimes_;
  std::vector<std::uint8_t> Scratch_;
  double ExitTime_ = 0.0;

  std::mutex DupMutex_;
  std::map<int, std::unique_ptr<Context>> Dups_;
  std::map<std::pair<int, int>, std::unique_ptr<Context>> Splits_;
};

Communicator Communicator::Dup()
{
  Context *child = this->Ctx_->GetDup(this->DupCount_++);
  return Communicator(child, this->Rank_);
}

Communicator Communicator::Split(int color)
{
  // every rank learns every color, then maps itself into its group
  std::vector<int> colors = this->Allgather(&color, 1);

  int subRank = 0;
  int members = 0;
  for (int r = 0; r < this->Size(); ++r)
  {
    if (colors[static_cast<std::size_t>(r)] != color)
      continue;
    if (r < this->Rank_)
      ++subRank;
    ++members;
  }

  Context *child = this->Ctx_->GetSplit(this->DupCount_++, color, members);
  return Communicator(child, subRank);
}

// ---------------------------------------------------------------------------
int Communicator::Size() const noexcept
{
  return this->Ctx_->Size();
}

int Communicator::Node() const noexcept
{
  const int rpn = this->Ctx_->RanksPerNode();
  return rpn > 0 ? this->Rank_ / rpn : 0;
}

int Communicator::RanksPerNode() const noexcept
{
  const int rpn = this->Ctx_->RanksPerNode();
  return rpn > 0 ? rpn : this->Ctx_->Size();
}

void Communicator::SetMaxMessageBytes(std::size_t bytes)
{
  if (!bytes)
    throw std::invalid_argument(
      "minimpi::SetMaxMessageBytes: the limit must be positive");
  MaxMessageBytes.store(bytes, std::memory_order_relaxed);
}

std::size_t Communicator::GetMaxMessageBytes() noexcept
{
  return MaxMessageBytes.load(std::memory_order_relaxed);
}

void Communicator::Send(int dest, int tag, const void *data, std::size_t bytes)
{
  const std::size_t limit = GetMaxMessageBytes();
  if (bytes > limit)
    throw std::length_error(
      "minimpi::Send: message of " + std::to_string(bytes) +
      " bytes exceeds the " + std::to_string(limit) +
      " byte single-message limit; use SendChunked");
  this->Ctx_->Send(this->Rank_, dest, tag, data, bytes);
}

std::vector<std::uint8_t> Communicator::Recv(int src, int tag)
{
  return this->Ctx_->Recv(this->Rank_, src, tag);
}

bool Communicator::Recv(int src, int tag, std::vector<std::uint8_t> &out,
                        double timeoutSeconds)
{
  return this->Ctx_->RecvTimed(this->Rank_, src, tag, out, timeoutSeconds);
}

void Communicator::SendChunked(int dest, int tag, const void *data,
                               std::size_t bytes)
{
  const std::size_t limit = GetMaxMessageBytes();
  const std::uint64_t nChunks =
    bytes ? (static_cast<std::uint64_t>(bytes) + limit - 1) / limit : 0;

  std::uint8_t header[16];
  StoreU64LE(header, static_cast<std::uint64_t>(bytes));
  StoreU64LE(header + 8, nChunks);
  this->Send(dest, tag, header, sizeof(header));

  const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
  std::size_t remaining = bytes;
  while (remaining)
  {
    const std::size_t n = std::min(remaining, limit);
    this->Send(dest, tag, p, n);
    p += n;
    remaining -= n;
  }
}

std::vector<std::uint8_t> Communicator::RecvChunked(int src, int tag)
{
  std::vector<std::uint8_t> out;
  this->RecvChunked(src, tag, out, -1.0);
  return out;
}

bool Communicator::RecvChunked(int src, int tag,
                               std::vector<std::uint8_t> &out,
                               double timeoutSeconds)
{
  std::vector<std::uint8_t> header;
  if (!this->Recv(src, tag, header, timeoutSeconds))
    return false; // nothing consumed: the transfer can be retried

  if (header.size() != 16)
    throw std::runtime_error(
      "minimpi::RecvChunked: expected a 16 byte chunk header, got " +
      std::to_string(header.size()) + " bytes");

  // bound the header before allocating: chunks are non-empty and at most
  // the message limit, so a real transfer has chunks <= total <= chunks x
  // limit (checked without overflow)
  const std::uint64_t total = LoadU64LE(header.data());
  const std::uint64_t nChunks = LoadU64LE(header.data() + 8);
  const std::uint64_t limit = GetMaxMessageBytes();
  if (nChunks > total || total / limit + (total % limit != 0) > nChunks)
    throw std::runtime_error(
      "minimpi::RecvChunked: malformed chunk header (" +
      std::to_string(total) + " bytes in " + std::to_string(nChunks) +
      " chunks of at most " + std::to_string(limit) + ")");

  out.clear();
  out.reserve(static_cast<std::size_t>(std::min(total, limit)));
  for (std::uint64_t c = 0; c < nChunks; ++c)
  {
    // once the header is consumed the stream is committed: a missing
    // chunk cannot be resynchronized, so mid-stream timeout is a short
    // read, not a retryable miss
    std::vector<std::uint8_t> chunk;
    if (!this->Recv(src, tag, chunk, timeoutSeconds))
      throw std::runtime_error(
        "minimpi::RecvChunked: short read, sender delivered " +
        std::to_string(c) + " of " + std::to_string(nChunks) + " chunks");
    if (chunk.empty() || chunk.size() > total - out.size())
      throw std::runtime_error(
        "minimpi::RecvChunked: chunk stream does not match its header");
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  if (out.size() != total)
    throw std::runtime_error(
      "minimpi::RecvChunked: reassembled " + std::to_string(out.size()) +
      " bytes, header promised " + std::to_string(total));
  return true;
}

void Communicator::Barrier()
{
  Context *ctx = this->Ctx_;
  ctx->Collective(this->Rank_, nullptr, nullptr, 0,
                  [ctx](const std::vector<const void *> &)
                  { return ctx->TreeSeconds(0); });
}

void Communicator::BcastBytes(void *data, std::size_t bytes, int root)
{
  Context *ctx = this->Ctx_;
  ctx->Collective(
    this->Rank_, data, data, bytes,
    [ctx, bytes, root](const std::vector<const void *> &in)
    {
      ctx->Scratch().resize(bytes);
      if (bytes)
        std::memcpy(ctx->Scratch().data(), in[static_cast<std::size_t>(root)],
                    bytes);
      return ctx->TreeSeconds(bytes);
    });
}

std::vector<std::uint8_t> Communicator::GatherBytes(const void *data,
                                                    std::size_t bytes, int root)
{
  std::vector<std::uint8_t> all = this->AllgatherBytes(data, bytes);
  if (this->Rank_ != root)
    return {};
  return all;
}

std::vector<std::uint8_t> Communicator::AllgatherBytes(const void *data,
                                                       std::size_t bytes)
{
  Context *ctx = this->Ctx_;
  const int size = ctx->Size();
  std::vector<std::uint8_t> out(bytes * static_cast<std::size_t>(size));
  ctx->Collective(
    this->Rank_, data, out.data(), out.size(),
    [ctx, bytes, size](const std::vector<const void *> &in)
    {
      ctx->Scratch().resize(bytes * static_cast<std::size_t>(size));
      for (int r = 0; r < size; ++r)
        if (bytes)
          std::memcpy(ctx->Scratch().data() +
                        bytes * static_cast<std::size_t>(r),
                      in[static_cast<std::size_t>(r)], bytes);
      return ctx->TreeSeconds(bytes);
    });
  return out;
}

namespace
{
template <typename T>
void ReduceInto(T *acc, const T *in, std::size_t n, Op op)
{
  switch (op)
  {
    case Op::Sum:
      for (std::size_t i = 0; i < n; ++i)
        acc[i] += in[i];
      break;
    case Op::Min:
      for (std::size_t i = 0; i < n; ++i)
        acc[i] = std::min(acc[i], in[i]);
      break;
    case Op::Max:
      for (std::size_t i = 0; i < n; ++i)
        acc[i] = std::max(acc[i], in[i]);
      break;
  }
}

template <typename T>
void AllreduceImpl(Context *ctx, int rank, T *data, std::size_t n, Op op)
{
  const std::size_t bytes = n * sizeof(T);
  ctx->Collective(
    rank, data, data, bytes,
    [ctx, n, bytes, op](const std::vector<const void *> &in)
    {
      ctx->Scratch().resize(bytes);
      T *acc = reinterpret_cast<T *>(ctx->Scratch().data());
      std::memcpy(acc, in[0], bytes);
      for (std::size_t r = 1; r < in.size(); ++r)
        ReduceInto(acc, static_cast<const T *>(in[r]), n, op);
      return ctx->TreeSeconds(bytes);
    });
}
} // namespace

void Communicator::AllreduceTyped(double *d, std::size_t n, Op op,
                                  TypeTag<double>)
{
  AllreduceImpl(this->Ctx_, this->Rank_, d, n, op);
}
void Communicator::AllreduceTyped(float *d, std::size_t n, Op op,
                                  TypeTag<float>)
{
  AllreduceImpl(this->Ctx_, this->Rank_, d, n, op);
}
void Communicator::AllreduceTyped(int *d, std::size_t n, Op op, TypeTag<int>)
{
  AllreduceImpl(this->Ctx_, this->Rank_, d, n, op);
}
void Communicator::AllreduceTyped(long long *d, std::size_t n, Op op,
                                  TypeTag<long long>)
{
  AllreduceImpl(this->Ctx_, this->Rank_, d, n, op);
}
void Communicator::AllreduceTyped(std::size_t *d, std::size_t n, Op op,
                                  TypeTag<std::size_t>)
{
  AllreduceImpl(this->Ctx_, this->Rank_, d, n, op);
}

// ---------------------------------------------------------------------------
// compact grid records
namespace
{
double Identity(Op op)
{
  const double inf = std::numeric_limits<double>::infinity();
  return op == Op::Min ? inf : (op == Op::Max ? -inf : 0.0);
}

/// The bits of word `w` that name bins of the record.
std::uint64_t WordMask(const CompactShape &shape, std::size_t w)
{
  const std::size_t rest = shape.Bins - 64 * w;
  return rest >= 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << rest) - 1;
}

/// One rank's compact record as the merge reads it.
struct CompactPart
{
  std::vector<std::uint64_t> Bitmap; ///< bits past the last bin cleared
  const double *Slots = nullptr;
  std::size_t Cap = 0;
};

/// Read a compact record, checking that its bitmap fits its capacity.
CompactPart PartOf(const CompactShape &shape, const void *compact,
                   std::size_t cap)
{
  CompactPart part;
  part.Bitmap.resize(shape.BitmapWords());
  std::memcpy(part.Bitmap.data(), compact, 8 * part.Bitmap.size());
  std::size_t held = 0;
  for (std::size_t w = 0; w < part.Bitmap.size(); ++w)
  {
    part.Bitmap[w] &= WordMask(shape, w);
    held += static_cast<std::size_t>(std::popcount(part.Bitmap[w]));
  }
  if (held > cap)
    throw std::runtime_error("minimpi: compact record names " +
                             std::to_string(held) + " bins but has " +
                             std::to_string(cap) + " slots");
  part.Slots = reinterpret_cast<const double *>(
    static_cast<const std::byte *>(compact) + 8 * part.Bitmap.size());
  part.Cap = cap;
  return part;
}

/// Write one part into the record whose segment g is seg[g] (Bins
/// doubles): its values at the bins it holds, the identity elsewhere.
void ExpandCompact(const CompactShape &shape, const CompactPart &part,
                   double *const *seg)
{
  const std::size_t nGrids = shape.Grids();
  for (std::size_t g = 0; g < nGrids; ++g)
    std::fill(seg[g], seg[g] + shape.Bins, Identity(shape.Ops[g]));
  const double *slot = part.Slots;
  for (std::size_t w = 0; w < part.Bitmap.size(); ++w)
    for (std::uint64_t bits = part.Bitmap[w]; bits; bits &= bits - 1)
    {
      const std::size_t i =
        64 * w + static_cast<std::size_t>(std::countr_zero(bits));
      for (std::size_t g = 0; g < nGrids; ++g)
        seg[g][i] = *slot++;
    }
}

/// Fold the parts exactly as Allreduce folds dense records, over the
/// union of their bitmaps (a bin no part holds is the identity in the
/// dense fold too): each union bin starts from the first part's values
/// (the identity where it holds none) and combines every later part in
/// part order through the same ReduceInto. Appends the result to `out`
/// as a compact record holding the union's bins, whose expansion is the
/// dense fold bit for bit.
void FoldCompact(const CompactShape &shape,
                 const std::vector<CompactPart> &parts,
                 std::vector<std::uint8_t> &out)
{
  const std::size_t nGrids = shape.Grids();
  const std::size_t nWords = shape.BitmapWords();
  std::vector<std::uint64_t> any(nWords, 0);
  std::size_t n = 0;
  for (std::size_t w = 0; w < nWords; ++w)
  {
    for (const CompactPart &p : parts)
      any[w] |= p.Bitmap[w];
    n += static_cast<std::size_t>(std::popcount(any[w]));
  }

  // acc and in are segment-major over the union: [g * n + j]; gather
  // writes a part's values over the union, the identity where it holds
  // none
  std::vector<double> acc(nGrids * n), in(nGrids * n);
  auto gather = [&](const CompactPart &p, std::vector<double> &dst)
  {
    const double *slot = p.Slots;
    std::size_t j = 0;
    for (std::size_t w = 0; w < nWords; ++w)
      for (std::uint64_t bits = any[w]; bits; bits &= bits - 1, ++j)
      {
        const bool mine = (p.Bitmap[w] >> std::countr_zero(bits)) & 1u;
        for (std::size_t g = 0; g < nGrids; ++g)
          dst[g * n + j] = mine ? slot[g] : Identity(shape.Ops[g]);
        slot += mine ? nGrids : 0;
      }
  };
  gather(parts[0], acc);
  for (std::size_t r = 1; r < parts.size(); ++r)
  {
    gather(parts[r], in);
    for (std::size_t g = 0; g < nGrids; ++g)
      ReduceInto(acc.data() + g * n, in.data() + g * n, n, shape.Ops[g]);
  }

  const std::size_t base = out.size();
  out.resize(base + shape.Bytes(n));
  std::memcpy(out.data() + base, any.data(), 8 * nWords);
  auto *slot = reinterpret_cast<double *>(out.data() + base + 8 * nWords);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t g = 0; g < nGrids; ++g)
      *slot++ = acc[g * n + j];
}

/// Virtual duration of a batched AllreduceCompact over the records of
/// `shapes`, record i with capacity caps[i][r] on rank r (see
/// Communicator::AllreduceCompact).
double CompactAllreduceSeconds(
  const std::vector<const CompactShape *> &shapes,
  const std::vector<std::vector<std::size_t>> &caps, std::size_t ranks)
{
  const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
  // the bytes record i moves when `slots` slots cross
  auto bytes = [&](std::size_t i, std::size_t slots)
  {
    return 8.0 * static_cast<double>(shapes[i]->BitmapWords()) +
           static_cast<double>(std::min(shapes[i]->Bins, slots) *
                               shapes[i]->Grids() * sizeof(double));
  };
  // one rank: a host copy of its records, bitmaps and slots
  if (ranks == 1)
  {
    double total = 0.0;
    for (std::size_t i = 0; i < shapes.size(); ++i)
      total += bytes(i, caps[i][0]);
    return total / cost.H2HBandwidth;
  }
  double seconds = 0.0;
  // round k (group = 2^(k-1)) sends what an aligned group of ranks holds
  // of every record, in one message
  for (std::size_t group = 1; group < ranks; group *= 2)
  {
    double total = 0.0;
    for (std::size_t i = 0; i < shapes.size(); ++i)
    {
      std::size_t slots = 0;
      for (std::size_t first = 0; first < ranks; first += group)
      {
        std::size_t sum = 0;
        for (std::size_t r = first; r < std::min(ranks, first + group); ++r)
          sum += caps[i][r];
        slots = std::max(slots, sum);
      }
      total += bytes(i, slots);
    }
    seconds += cost.MessageLatency + total / cost.MessageBandwidth;
  }
  return seconds;
}
} // namespace

void PackCompact(const CompactShape &shape, const double *dense,
                 std::size_t cap, void *out)
{
  const std::size_t nBins = shape.Bins;
  const std::size_t nGrids = shape.Grids();
  const std::size_t nWords = shape.BitmapWords();

  // occupancy, one segment at a time: a bin is held when any segment
  // differs from its identity bit for bit
  std::vector<std::uint64_t> bitmap(nWords, 0);
  for (std::size_t g = 0; g < nGrids; ++g)
  {
    const auto id = std::bit_cast<std::uint64_t>(Identity(shape.Ops[g]));
    const double *seg = dense + g * nBins;
    for (std::size_t w = 0; w < nWords; ++w)
    {
      std::uint64_t word = 0;
      const std::size_t n = std::min<std::size_t>(64, nBins - 64 * w);
      for (std::size_t b = 0; b < n; ++b)
        word |= std::uint64_t(std::bit_cast<std::uint64_t>(seg[64 * w + b]) !=
                              id)
                << b;
      bitmap[w] |= word;
    }
  }

  std::size_t held = 0;
  for (std::uint64_t word : bitmap)
    held += static_cast<std::size_t>(std::popcount(word));
  if (held > cap)
    throw std::length_error("minimpi::PackCompact: " + std::to_string(held) +
                            " occupied bins exceed the capacity of " +
                            std::to_string(cap));

  auto *bytes = static_cast<std::byte *>(out);
  std::memcpy(bytes, bitmap.data(), 8 * nWords);
  auto *slot = reinterpret_cast<double *>(bytes + 8 * nWords);
  for (std::size_t w = 0; w < nWords; ++w)
    for (std::uint64_t bits = bitmap[w]; bits; bits &= bits - 1)
    {
      const std::size_t i =
        64 * w + static_cast<std::size_t>(std::countr_zero(bits));
      for (std::size_t g = 0; g < nGrids; ++g)
        *slot++ = dense[g * nBins + i];
    }
  std::fill(slot, slot + (cap - held) * nGrids, 0.0);
}

void ResetCompacted(const CompactShape &shape, const void *compact,
                    double *dense)
{
  const std::size_t nBins = shape.Bins;
  const std::size_t nGrids = shape.Grids();
  std::vector<double> id(nGrids);
  for (std::size_t g = 0; g < nGrids; ++g)
    id[g] = Identity(shape.Ops[g]);
  for (std::size_t w = 0; w < shape.BitmapWords(); ++w)
  {
    std::uint64_t bits = 0;
    std::memcpy(&bits, static_cast<const std::byte *>(compact) + 8 * w, 8);
    for (bits &= WordMask(shape, w); bits; bits &= bits - 1)
    {
      const std::size_t i =
        64 * w + static_cast<std::size_t>(std::countr_zero(bits));
      for (std::size_t g = 0; g < nGrids; ++g)
        dense[g * nBins + i] = id[g];
    }
  }
}

namespace
{
/// The segments of the dense record `dense`.
std::vector<double *> SegmentsOf(const CompactShape &shape, double *dense)
{
  std::vector<double *> seg(shape.Grids());
  for (std::size_t g = 0; g < seg.size(); ++g)
    seg[g] = dense + g * shape.Bins;
  return seg;
}
} // namespace

void UnpackCompact(const CompactShape &shape, const void *compact,
                   std::size_t cap, double *dense)
{
  UnpackCompact(shape, compact, cap, SegmentsOf(shape, dense).data());
}

void UnpackCompact(const CompactShape &shape, const void *compact,
                   std::size_t cap, double *const *segments)
{
  ExpandCompact(shape, PartOf(shape, compact, cap), segments);
}

void Communicator::AllreduceCompact(
  const std::vector<CompactRecord> &records,
  const std::function<void(std::size_t, const void *, std::size_t)> &each)
{
  // each rank checks its own records before it enters, so a malformed one
  // throws on its rank instead of inside the last arrival's fold
  std::vector<CompactPart> mine;
  for (const CompactRecord &rec : records)
    mine.push_back(PartOf(*rec.Shape, rec.Compact, rec.Cap));
  Context *ctx = this->Ctx_;
  ctx->Collective(
    this->Rank_, &mine, nullptr, 0,
    [ctx, &records](const std::vector<const void *> &in)
    {
      std::vector<std::uint8_t> &out = ctx->Scratch();
      out.clear();
      std::vector<const CompactShape *> shapes;
      std::vector<std::vector<std::size_t>> caps;
      for (std::size_t i = 0; i < records.size(); ++i)
      {
        std::vector<CompactPart> parts;
        caps.emplace_back();
        for (const void *p : in)
        {
          parts.push_back(
            (*static_cast<const std::vector<CompactPart> *>(p))[i]);
          caps.back().push_back(parts.back().Cap);
        }
        shapes.push_back(records[i].Shape);
        FoldCompact(*shapes.back(), parts, out);
      }
      return CompactAllreduceSeconds(shapes, caps, in.size());
    });

  // the reductions stay in the scratch until every rank has entered this
  // communicator's next collective, so each rank visits them after the
  // collective's lock, alongside the other ranks
  const std::uint8_t *at = ctx->Scratch().data();
  for (std::size_t i = 0; i < records.size(); ++i)
  {
    const CompactShape &shape = *records[i].Shape;
    std::size_t held = 0;
    for (std::size_t w = 0; w < shape.BitmapWords(); ++w)
    {
      std::uint64_t bits = 0;
      std::memcpy(&bits, at + 8 * w, 8);
      held += static_cast<std::size_t>(std::popcount(bits));
    }
    each(i, at, held);
    at += shape.Bytes(held);
  }
}

// ---------------------------------------------------------------------------
double Run(const LaunchOptions &opts,
           const std::function<void(Communicator &)> &fn)
{
  if (opts.Ranks < 1)
    throw std::invalid_argument("minimpi::Run: need at least one rank");

  vp::Platform &plat = vp::Platform::Get();
  const int rpn = opts.RanksPerNode;
  if (rpn > 0)
  {
    const int nodesNeeded = (opts.Ranks + rpn - 1) / rpn;
    if (nodesNeeded > plat.NumNodes())
      throw std::invalid_argument(
        "minimpi::Run: platform has too few nodes for this rank layout");
  }

  Context ctx(opts.Ranks, rpn);
  std::unique_ptr<LockstepSched> lockstep;
  if (opts.Lockstep)
  {
    lockstep = std::make_unique<LockstepSched>(opts.Ranks);
    ctx.SetLockstep(lockstep.get());
  }
  const double start = vp::ThisClock().Now();

  std::vector<std::thread> threads;
  std::vector<double> finalTimes(static_cast<std::size_t>(opts.Ranks), 0.0);
  std::vector<std::exception_ptr> errors(
    static_cast<std::size_t>(opts.Ranks));

  threads.reserve(static_cast<std::size_t>(opts.Ranks));
  for (int r = 0; r < opts.Ranks; ++r)
  {
    threads.emplace_back(
      [&, r]()
      {
        vp::ThisClock().Set(start);
        vp::Platform::SetThisNode(rpn > 0 ? r / rpn : 0);
        Communicator comm(&ctx, r);
        if (lockstep)
        {
          TlLockstepRank = r;
          lockstep->Start(r);
        }
        try
        {
          fn(comm);
        }
        catch (...)
        {
          errors[static_cast<std::size_t>(r)] = std::current_exception();
        }
        finalTimes[static_cast<std::size_t>(r)] = vp::ThisClock().Now();
        if (lockstep)
        {
          lockstep->Finish(r);
          TlLockstepRank = -1;
        }
      });
  }
  for (auto &t : threads)
    t.join();

  for (auto &e : errors)
    if (e)
      std::rethrow_exception(e);

  const double finish =
    *std::max_element(finalTimes.begin(), finalTimes.end());
  vp::ThisClock().AdvanceTo(finish);
  return finish;
}

double Run(int ranks, const std::function<void(Communicator &)> &fn)
{
  LaunchOptions opts;
  opts.Ranks = ranks;
  return Run(opts, fn);
}

} // namespace minimpi
