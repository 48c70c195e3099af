// Unit tests for the minimpi threads-as-ranks communicator: point to
// point with tag matching, collectives (parameterized over rank counts),
// communicator duplication, node placement, virtual-time semantics,
// error propagation out of rank functions, hostile chunk headers, and
// the compact grid record's sparse allreduce (bit-exact against the
// dense fold, priced by capacities alone).

#include "minimpi.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <thread>

namespace
{
void ResetPlatform(int nodes = 1, int ranksPerNodeHint = 4)
{
  (void)ranksPerNodeHint;
  vp::PlatformConfig cfg;
  cfg.NumNodes = nodes;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
}

class MinimpiRanks : public ::testing::TestWithParam<int>
{
protected:
  void SetUp() override { ResetPlatform(); }
};
} // namespace

TEST(Minimpi, SingleRankBasics)
{
  ResetPlatform();
  minimpi::Run(1,
               [](minimpi::Communicator &comm)
               {
                 EXPECT_EQ(comm.Rank(), 0);
                 EXPECT_EQ(comm.Size(), 1);
                 comm.Barrier(); // trivially completes
                 double v = 5.0;
                 comm.Allreduce(&v, 1, minimpi::Op::Sum);
                 EXPECT_DOUBLE_EQ(v, 5.0);
               });
}

TEST(Minimpi, SendRecvMatchesSourceAndTag)
{
  ResetPlatform();
  minimpi::Run(2,
               [](minimpi::Communicator &comm)
               {
                 if (comm.Rank() == 0)
                 {
                   // send two tagged messages out of order
                   const int a = 111, b = 222;
                   comm.Send(1, /*tag=*/7, &a, sizeof(a));
                   comm.Send(1, /*tag=*/3, &b, sizeof(b));
                 }
                 else
                 {
                   // receive by tag, not arrival order
                   auto mb = comm.Recv(0, 3);
                   auto ma = comm.Recv(0, 7);
                   EXPECT_EQ(*reinterpret_cast<int *>(mb.data()), 222);
                   EXPECT_EQ(*reinterpret_cast<int *>(ma.data()), 111);
                 }
               });
}

TEST(Minimpi, TypedVectorsRoundTrip)
{
  ResetPlatform();
  minimpi::Run(2,
               [](minimpi::Communicator &comm)
               {
                 if (comm.Rank() == 0)
                 {
                   std::vector<double> v{1.5, 2.5, 3.5};
                   comm.SendVec(1, 0, v);
                 }
                 else
                 {
                   auto v = comm.RecvAs<double>(0, 0);
                   EXPECT_EQ(v, (std::vector<double>{1.5, 2.5, 3.5}));
                 }
               });
}

TEST_P(MinimpiRanks, AllreduceSumMinMax)
{
  const int P = GetParam();
  minimpi::Run(P,
               [P](minimpi::Communicator &comm)
               {
                 const double r = comm.Rank() + 1.0;
                 double s = r, mn = r, mx = r;
                 comm.Allreduce(&s, 1, minimpi::Op::Sum);
                 comm.Allreduce(&mn, 1, minimpi::Op::Min);
                 comm.Allreduce(&mx, 1, minimpi::Op::Max);
                 EXPECT_DOUBLE_EQ(s, P * (P + 1) / 2.0);
                 EXPECT_DOUBLE_EQ(mn, 1.0);
                 EXPECT_DOUBLE_EQ(mx, static_cast<double>(P));
               });
}

TEST_P(MinimpiRanks, AllreduceVectorsAndIntegers)
{
  const int P = GetParam();
  minimpi::Run(P,
               [P](minimpi::Communicator &comm)
               {
                 std::vector<int> v{comm.Rank(), 2 * comm.Rank()};
                 comm.Allreduce(v.data(), v.size(), minimpi::Op::Sum);
                 EXPECT_EQ(v[0], P * (P - 1) / 2);
                 EXPECT_EQ(v[1], P * (P - 1));

                 std::size_t n = 3;
                 comm.Allreduce(&n, 1, minimpi::Op::Sum);
                 EXPECT_EQ(n, static_cast<std::size_t>(3 * P));
               });
}

TEST_P(MinimpiRanks, BcastFromEveryRoot)
{
  const int P = GetParam();
  minimpi::Run(P,
               [P](minimpi::Communicator &comm)
               {
                 for (int root = 0; root < P; ++root)
                 {
                   double v = comm.Rank() == root ? 42.0 + root : -1.0;
                   comm.Bcast(&v, 1, root);
                   EXPECT_DOUBLE_EQ(v, 42.0 + root);
                 }
               });
}

TEST_P(MinimpiRanks, GatherAndAllgatherInRankOrder)
{
  const int P = GetParam();
  minimpi::Run(P,
               [P](minimpi::Communicator &comm)
               {
                 const double mine = 10.0 * comm.Rank();
                 std::vector<double> all = comm.Allgather(&mine, 1);
                 ASSERT_EQ(all.size(), static_cast<std::size_t>(P));
                 for (int r = 0; r < P; ++r)
                   EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], 10.0 * r);

                 std::vector<double> g = comm.Gather(&mine, 1, 0);
                 if (comm.Rank() == 0)
                   EXPECT_EQ(g, all);
                 else
                   EXPECT_TRUE(g.empty());
               });
}

TEST_P(MinimpiRanks, BarrierAlignsVirtualClocks)
{
  const int P = GetParam();
  minimpi::Run(P,
               [](minimpi::Communicator &comm)
               {
                 // rank r does r seconds of virtual work; after the
                 // barrier every clock is at least the max
                 vp::ThisClock().Advance(static_cast<double>(comm.Rank()));
                 comm.Barrier();
                 EXPECT_GE(vp::ThisClock().Now(),
                           static_cast<double>(comm.Size() - 1));
               });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MinimpiRanks, ::testing::Values(2, 3, 4, 8));

TEST(Minimpi, DupIsolatesCollectives)
{
  ResetPlatform();
  minimpi::Run(3,
               [](minimpi::Communicator &comm)
               {
                 minimpi::Communicator dup = comm.Dup();
                 EXPECT_EQ(dup.Rank(), comm.Rank());
                 EXPECT_EQ(dup.Size(), comm.Size());

                 // interleave collectives on both communicators
                 double a = 1.0, b = 2.0;
                 dup.Allreduce(&b, 1, minimpi::Op::Sum);
                 comm.Allreduce(&a, 1, minimpi::Op::Sum);
                 EXPECT_DOUBLE_EQ(a, 3.0);
                 EXPECT_DOUBLE_EQ(b, 6.0);

                 // p2p on the dup does not collide with same-tag p2p on
                 // the parent
                 const int self = comm.Rank();
                 const int next = (self + 1) % comm.Size();
                 const int prev = (self + comm.Size() - 1) % comm.Size();
                 const int vp1 = 100 + self, vp2 = 200 + self;
                 comm.Send(next, 0, &vp1, sizeof(int));
                 dup.Send(next, 0, &vp2, sizeof(int));
                 auto m1 = comm.Recv(prev, 0);
                 auto m2 = dup.Recv(prev, 0);
                 EXPECT_EQ(*reinterpret_cast<int *>(m1.data()), 100 + prev);
                 EXPECT_EQ(*reinterpret_cast<int *>(m2.data()), 200 + prev);
               });
}

TEST(Minimpi, RanksAreBoundToNodes)
{
  ResetPlatform(/*nodes=*/2);
  minimpi::LaunchOptions opts;
  opts.Ranks = 8;
  opts.RanksPerNode = 4;
  minimpi::Run(opts,
               [](minimpi::Communicator &comm)
               {
                 EXPECT_EQ(comm.Node(), comm.Rank() / 4);
                 EXPECT_EQ(vp::Platform::GetThisNode(), comm.Rank() / 4);
                 EXPECT_EQ(comm.RanksPerNode(), 4);
               });
  ResetPlatform();
}

TEST(Minimpi, TooFewNodesThrows)
{
  ResetPlatform(/*nodes=*/1);
  minimpi::LaunchOptions opts;
  opts.Ranks = 8;
  opts.RanksPerNode = 2; // needs 4 nodes
  EXPECT_THROW(minimpi::Run(opts, [](minimpi::Communicator &) {}),
               std::invalid_argument);
}

TEST(Minimpi, RankExceptionsPropagate)
{
  ResetPlatform();
  EXPECT_THROW(minimpi::Run(3,
                            [](minimpi::Communicator &comm)
                            {
                              // every rank still reaches its end state
                              if (comm.Rank() == 1)
                                throw std::runtime_error("rank 1 fails");
                            }),
               std::runtime_error);
}

TEST(Minimpi, MessageVolumeChargesVirtualTime)
{
  ResetPlatform();
  minimpi::Run(2,
               [](minimpi::Communicator &comm)
               {
                 const vp::CostModel &cost =
                   vp::Platform::Get().Config().Cost;
                 if (comm.Rank() == 0)
                 {
                   std::vector<double> big(1u << 20, 1.0); // 8 MB
                   comm.SendVec(1, 0, big);
                 }
                 else
                 {
                   const double t0 = vp::ThisClock().Now();
                   auto v = comm.RecvAs<double>(0, 0);
                   const double dt = vp::ThisClock().Now() - t0;
                   const double expected =
                     (1u << 20) * sizeof(double) / cost.MessageBandwidth;
                   EXPECT_GE(dt, 0.5 * expected);
                 }
               });
}

TEST(Minimpi, RunReturnsMaxFinalTime)
{
  ResetPlatform();
  const double start = vp::ThisClock().Now();
  const double finish = minimpi::Run(4,
                                     [](minimpi::Communicator &comm)
                                     {
                                       vp::ThisClock().Advance(
                                         comm.Rank() == 2 ? 5.0 : 1.0);
                                     });
  EXPECT_GE(finish - start, 5.0);
  EXPECT_GE(vp::ThisClock().Now(), finish);
}

TEST(Minimpi, InvalidArgumentsThrow)
{
  ResetPlatform();
  EXPECT_THROW(minimpi::Run(0, [](minimpi::Communicator &) {}),
               std::invalid_argument);
  minimpi::Run(2,
               [](minimpi::Communicator &comm)
               {
                 int v = 0;
                 EXPECT_THROW(comm.Send(5, 0, &v, sizeof(v)),
                              std::out_of_range);
                 EXPECT_THROW(comm.Recv(-1, 0), std::out_of_range);
               });
}

// --- the message-size limit and chunked transfers ---------------------------

namespace
{
/// RAII guard: shrink the process-wide single-message limit to simulate
/// the MPI 2 GiB count ceiling without allocating gigabytes.
class MessageLimitGuard
{
public:
  explicit MessageLimitGuard(std::size_t bytes)
    : Old_(minimpi::Communicator::GetMaxMessageBytes())
  {
    minimpi::Communicator::SetMaxMessageBytes(bytes);
  }
  ~MessageLimitGuard() { minimpi::Communicator::SetMaxMessageBytes(Old_); }

private:
  std::size_t Old_;
};
} // namespace

TEST(MinimpiChunked, OversizedSingleSendThrowsLoudly)
{
  ResetPlatform();
  MessageLimitGuard guard(64);
  EXPECT_EQ(minimpi::Communicator::GetMaxMessageBytes(), 64u);
  minimpi::Run(2,
               [](minimpi::Communicator &comm)
               {
                 if (comm.Rank() != 0)
                   return;
                 // the synthetic large-count path: a payload over the
                 // limit must fail loudly, not truncate or wrap
                 std::vector<std::uint8_t> big(65, 1);
                 EXPECT_THROW(comm.Send(1, 0, big.data(), big.size()),
                              std::length_error);
               });
}

TEST(MinimpiChunked, ZeroLimitIsRejected)
{
  EXPECT_THROW(minimpi::Communicator::SetMaxMessageBytes(0),
               std::invalid_argument);
}

TEST(MinimpiChunked, RoundTripSpanningManyChunks)
{
  ResetPlatform();
  MessageLimitGuard guard(1000); // 100000 bytes -> 100 chunks
  minimpi::Run(2,
               [](minimpi::Communicator &comm)
               {
                 std::vector<std::uint8_t> payload(100000);
                 for (std::size_t i = 0; i < payload.size(); ++i)
                   payload[i] = static_cast<std::uint8_t>(i * 131 + 17);

                 if (comm.Rank() == 0)
                 {
                   comm.SendChunked(1, 9, payload.data(), payload.size());
                   // empty payloads work too
                   comm.SendChunked(1, 9, nullptr, 0);
                 }
                 else
                 {
                   EXPECT_EQ(comm.RecvChunked(0, 9), payload);
                   EXPECT_TRUE(comm.RecvChunked(0, 9).empty());
                 }
               });
}

TEST(MinimpiChunked, SameTagMessagesArriveInOrder)
{
  ResetPlatform();
  // chunked transfers interleave many messages on one (src, tag) key, so
  // the mailbox must be FIFO per key — this pins that guarantee directly
  minimpi::Run(2,
               [](minimpi::Communicator &comm)
               {
                 const int n = 64;
                 if (comm.Rank() == 0)
                 {
                   for (int i = 0; i < n; ++i)
                     comm.Send(1, 4, &i, sizeof(i));
                 }
                 else
                 {
                   for (int i = 0; i < n; ++i)
                   {
                     auto m = comm.Recv(0, 4);
                     EXPECT_EQ(*reinterpret_cast<int *>(m.data()), i);
                   }
                 }
               });
}

TEST(MinimpiChunked, BackToBackChunkedTransfersDoNotInterleave)
{
  ResetPlatform();
  MessageLimitGuard guard(256);
  minimpi::Run(2,
               [](minimpi::Communicator &comm)
               {
                 std::vector<std::uint8_t> a(5000, 0xAB);
                 std::vector<std::uint8_t> b(3000, 0xCD);
                 if (comm.Rank() == 0)
                 {
                   comm.SendChunked(1, 2, a.data(), a.size());
                   comm.SendChunked(1, 2, b.data(), b.size());
                 }
                 else
                 {
                   EXPECT_EQ(comm.RecvChunked(0, 2), a);
                   EXPECT_EQ(comm.RecvChunked(0, 2), b);
                 }
               });
}

// --- timed receives ---------------------------------------------------------

TEST(MinimpiTimeout, RecvTimesOutThenSucceedsOnSameTag)
{
  ResetPlatform();
  std::atomic<bool> timedOut{false};
  minimpi::Run(2,
               [&](minimpi::Communicator &comm)
               {
                 if (comm.Rank() == 1)
                 {
                   // nothing has been sent: a short deadline elapses
                   // with an error return instead of an abort
                   std::vector<std::uint8_t> out;
                   EXPECT_FALSE(comm.Recv(0, /*tag=*/7, out, 0.02));
                   EXPECT_TRUE(out.empty());
                   timedOut.store(true);

                   // the same (src, tag) key still works afterwards —
                   // a timeout consumes nothing and poisons nothing
                   ASSERT_TRUE(comm.Recv(0, 7, out, 30.0));
                   ASSERT_EQ(out.size(), sizeof(int));
                   EXPECT_EQ(*reinterpret_cast<int *>(out.data()), 42);

                   // negative deadline means wait forever (the
                   // pre-timeout behavior, bit for bit)
                   ASSERT_TRUE(comm.Recv(0, 7, out, -1.0));
                   EXPECT_EQ(*reinterpret_cast<int *>(out.data()), 43);
                 }
                 else
                 {
                   // hold the sends until rank 1 has observed a timeout
                   while (!timedOut.load())
                     std::this_thread::sleep_for(
                       std::chrono::milliseconds(1));
                   const int a = 42, b = 43;
                   comm.Send(1, 7, &a, sizeof(a));
                   comm.Send(1, 7, &b, sizeof(b));
                 }
               });
}

TEST(MinimpiTimeout, ChunkedRecvTimesOutThenSucceeds)
{
  ResetPlatform();
  std::atomic<bool> timedOut{false};
  minimpi::Run(2,
               [&](minimpi::Communicator &comm)
               {
                 if (comm.Rank() == 1)
                 {
                   std::vector<std::uint8_t> out;
                   EXPECT_FALSE(comm.RecvChunked(0, 9, out, 0.02));
                   timedOut.store(true);
                   ASSERT_TRUE(comm.RecvChunked(0, 9, out, 30.0));
                   EXPECT_EQ(out, std::vector<std::uint8_t>(5000, 0xEE));
                 }
                 else
                 {
                   while (!timedOut.load())
                     std::this_thread::sleep_for(
                       std::chrono::milliseconds(1));
                   const std::vector<std::uint8_t> payload(5000, 0xEE);
                   comm.SendChunked(1, 9, payload.data(), payload.size());
                 }
               });
}

TEST(MinimpiTimeout, MidStreamShortReadThrows)
{
  ResetPlatform();
  // a header that promises two chunks followed by only one: the stream
  // cannot be resynchronized, so the timed receive must throw (not
  // return false — false means "retryable, nothing consumed")
  minimpi::Run(2,
               [](minimpi::Communicator &comm)
               {
                 if (comm.Rank() == 0)
                 {
                   std::uint8_t header[16] = {};
                   const std::uint64_t total = 512, nChunks = 2;
                   for (int i = 0; i < 8; ++i)
                   {
                     header[i] =
                       static_cast<std::uint8_t>((total >> (8 * i)) & 0xFF);
                     header[8 + i] = static_cast<std::uint8_t>(
                       (nChunks >> (8 * i)) & 0xFF);
                   }
                   comm.Send(1, 5, header, sizeof(header));
                   const std::vector<std::uint8_t> chunk(256, 0x11);
                   comm.Send(1, 5, chunk.data(), chunk.size());
                   // ... and the second chunk never arrives
                 }
                 else
                 {
                   std::vector<std::uint8_t> out;
                   try
                   {
                     comm.RecvChunked(0, 5, out, 0.1);
                     FAIL() << "short chunk stream did not throw";
                   }
                   catch (const std::runtime_error &e)
                   {
                     EXPECT_NE(std::string(e.what()).find("short read"),
                               std::string::npos);
                   }
                 }
               });
}

namespace
{
/// A 16-byte chunk header (u64 total, u64 chunk count, little endian).
std::vector<std::uint8_t> ChunkHeader(std::uint64_t total,
                                      std::uint64_t nChunks)
{
  std::vector<std::uint8_t> h(16);
  for (int i = 0; i < 8; ++i)
  {
    h[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(total >> (8 * i));
    h[static_cast<std::size_t>(8 + i)] =
      static_cast<std::uint8_t>(nChunks >> (8 * i));
  }
  return h;
}
} // namespace

TEST(MinimpiChunked, HostileHeadersAreRejectedBeforeAllocating)
{
  ResetPlatform();
  // one-chunk headers promising 4 GiB (once reserved up front), 4 TiB
  // (once std::bad_alloc) and 2^64 - 1 bytes (once std::length_error),
  // and a header announcing more chunks than bytes: both receive
  // overloads reject each with std::runtime_error and allocate nothing
  const std::vector<std::vector<std::uint8_t>> headers = {
    ChunkHeader(std::uint64_t(4) << 30, 1),
    ChunkHeader(std::uint64_t(4) << 40, 1),
    ChunkHeader(~std::uint64_t(0), 1), ChunkHeader(2, 3)};
  minimpi::Run(2,
               [&](minimpi::Communicator &comm)
               {
                 for (std::size_t k = 0; k < headers.size(); ++k)
                 {
                   const int tag = static_cast<int>(k);
                   if (comm.Rank() == 0)
                   {
                     comm.Send(1, tag, headers[k].data(), 16);
                     comm.Send(1, 100 + tag, headers[k].data(), 16);
                     continue;
                   }
                   EXPECT_THROW(comm.RecvChunked(0, tag), std::runtime_error)
                     << "header " << k;
                   std::vector<std::uint8_t> out;
                   EXPECT_THROW(comm.RecvChunked(0, 100 + tag, out, 5.0),
                                std::runtime_error)
                     << "header " << k;
                   EXPECT_EQ(out.capacity(), 0u) << "header " << k;
                 }
               });
}

// --- the compact grid record and its sparse allreduce -------------------------

namespace
{
/// A random grid record as a rank's binning leaves it: segment 0 counts,
/// later segments are count, sum, avg (all Sum), min or max; a bin the
/// rank did not fill holds each segment's identity. Filled bins draw
/// from values that include NaN, +-inf, -0.0 and the identities
/// themselves.
struct RandomRecord
{
  std::vector<double> Dense;
  std::size_t Cap = 0;
};

minimpi::CompactShape RandomShape(std::mt19937_64 &gen)
{
  // count, sum, avg, min, max
  const minimpi::Op kinds[] = {minimpi::Op::Sum, minimpi::Op::Sum,
                               minimpi::Op::Sum, minimpi::Op::Min,
                               minimpi::Op::Max};
  minimpi::CompactShape shape;
  shape.Bins = 1 + gen() % 300; // several bitmap words, a partial last one
  shape.Ops.push_back(minimpi::Op::Sum);
  for (std::size_t g = 1 + gen() % 6; g > 1; --g)
    shape.Ops.push_back(kinds[gen() % 5]);
  return shape;
}

double Identity(minimpi::Op op)
{
  const double inf = std::numeric_limits<double>::infinity();
  return op == minimpi::Op::Min ? inf : (op == minimpi::Op::Max ? -inf : 0.0);
}

RandomRecord MakeRecord(const minimpi::CompactShape &shape,
                        std::mt19937_64 &gen)
{
  const double inf = std::numeric_limits<double>::infinity();
  const double pool[] = {std::numeric_limits<double>::quiet_NaN(),
                         inf,
                         -inf,
                         -0.0,
                         0.0,
                         1.0,
                         -2.5,
                         1e300,
                         -1e300,
                         std::numeric_limits<double>::denorm_min()};
  std::uniform_real_distribution<double> u(-4.0, 4.0);
  RandomRecord rec;
  rec.Dense.resize(shape.Grids() * shape.Bins);
  for (std::size_t g = 0; g < shape.Grids(); ++g)
    std::fill(rec.Dense.begin() + static_cast<long>(g * shape.Bins),
              rec.Dense.begin() + static_cast<long>((g + 1) * shape.Bins),
              Identity(shape.Ops[g]));

  // empty (cap 0), full (every bin filled) or partial with empty bins
  const int mode = static_cast<int>(gen() % 3);
  rec.Cap = mode == 0 ? 0
            : mode == 1
              ? shape.Bins
              : static_cast<std::size_t>(gen() % (shape.Bins + 1));
  std::size_t filled = 0;
  for (std::size_t i = 0; i < shape.Bins && filled < rec.Cap; ++i)
  {
    if (mode == 2 && gen() % 3 == 0)
      continue;
    ++filled;
    rec.Dense[i] = static_cast<double>(1 + gen() % 9);
    for (std::size_t g = 1; g < shape.Grids(); ++g)
      rec.Dense[g * shape.Bins + i] =
        gen() % 3 ? u(gen) : pool[gen() % (sizeof(pool) / sizeof(*pool))];
  }
  return rec;
}

/// AllreduceCompact over a batch of one: the compact record `compact` of
/// capacity `cap`, its reduction expanded into `dense` (Grids() x Bins
/// doubles).
void ReduceOne(minimpi::Communicator &comm, const minimpi::CompactShape &shape,
               const void *compact, std::size_t cap, double *dense)
{
  comm.AllreduceCompact(
    {minimpi::CompactRecord{&shape, compact, cap}},
    [&](std::size_t, const void *reduced, std::size_t held)
    { minimpi::UnpackCompact(shape, reduced, held, dense); });
}

class CompactRanks : public ::testing::TestWithParam<int>
{
protected:
  void SetUp() override { ResetPlatform(); }
};
} // namespace

TEST_P(CompactRanks, MatchesDenseFoldBitForBit)
{
  // every rank's dense result equals, byte for byte, the dense fold the
  // binning used before: one Sum Allreduce over the Sum segments and a
  // Min Allreduce over the Min segments and the negated Max segments
  const int ranks = GetParam();
  for (unsigned seed = 0; seed < 40; ++seed)
  {
    std::mt19937_64 gen(seed * 131u + static_cast<unsigned>(ranks));
    const minimpi::CompactShape shape = RandomShape(gen);
    std::vector<RandomRecord> recs;
    for (int r = 0; r < ranks; ++r)
      recs.push_back(MakeRecord(shape, gen));

    minimpi::Run(
      ranks,
      [&](minimpi::Communicator &comm)
      {
        const RandomRecord &mine = recs[static_cast<std::size_t>(comm.Rank())];
        const std::size_t nBins = shape.Bins;

        std::vector<double> want = mine.Dense;
        for (std::size_t g = 0; g < shape.Grids(); ++g)
        {
          double *seg = want.data() + g * nBins;
          if (shape.Ops[g] == minimpi::Op::Sum)
          {
            comm.Allreduce(seg, nBins, minimpi::Op::Sum);
            continue;
          }
          const bool max = shape.Ops[g] == minimpi::Op::Max;
          for (std::size_t i = 0; max && i < nBins; ++i)
            seg[i] = -seg[i];
          comm.Allreduce(seg, nBins, minimpi::Op::Min);
          for (std::size_t i = 0; max && i < nBins; ++i)
            seg[i] = -seg[i];
        }

        std::vector<double> compact(shape.Bytes(mine.Cap) / sizeof(double));
        minimpi::PackCompact(shape, mine.Dense.data(), mine.Cap,
                             compact.data());

        std::vector<double> own(mine.Dense.size());
        minimpi::UnpackCompact(shape, compact.data(), mine.Cap, own.data());
        EXPECT_EQ(std::memcmp(own.data(), mine.Dense.data(),
                              own.size() * sizeof(double)),
                  0)
          << "seed " << seed << " rank " << comm.Rank() << " round trip";

        std::vector<double> got(mine.Dense.size());
        ReduceOne(comm, shape, compact.data(), mine.Cap, got.data());
        EXPECT_EQ(
          std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
          0)
          << "seed " << seed << " rank " << comm.Rank() << " bins " << nBins
          << " grids " << shape.Grids();
      });
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CompactRanks,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(CompactAllreduce, CapacityIsEnforced)
{
  ResetPlatform();
  minimpi::CompactShape shape{100, {minimpi::Op::Sum, minimpi::Op::Max}};
  std::vector<double> dense(200, 0.0);
  std::fill(dense.begin() + 100, dense.end(),
            -std::numeric_limits<double>::infinity());
  dense[3] = 1.0;
  dense[100 + 70] = 5.0; // bin 70 is held through its max segment only
  std::vector<double> compact(shape.Bytes(2) / sizeof(double));
  EXPECT_THROW(minimpi::PackCompact(shape, dense.data(), 1, compact.data()),
               std::length_error);
  minimpi::PackCompact(shape, dense.data(), 2, compact.data());

  // a bitmap naming more bins than slots is refused, not read past
  std::vector<double> back(200);
  EXPECT_THROW(minimpi::UnpackCompact(shape, compact.data(), 1, back.data()),
               std::runtime_error);
  minimpi::UnpackCompact(shape, compact.data(), 2, back.data());
  EXPECT_EQ(std::memcmp(back.data(), dense.data(), sizeof(double) * 200), 0);
}

TEST(CompactAllreduce, PricedByCapacityRoundsNotContents)
{
  // round k of R = ceil(log2(P)) charges MessageLatency plus the bitmap
  // and min(bins, largest sum of caps over an aligned 2^(k-1)-rank
  // group) slots over MessageBandwidth; contents never matter, and at
  // full capacity the price is the dense Allreduce's plus one bitmap per
  // round (one rank: CompactAllreduce.OneRankIsAHostCopy)
  ResetPlatform();
  const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
  const minimpi::CompactShape shape{
    16384, std::vector<minimpi::Op>(11, minimpi::Op::Sum)};
  const double bitmap = 16384 / 8;
  const double slotBytes = 11 * sizeof(double);

  // virtual seconds every rank spends in one collective, per rank
  auto measure = [](int ranks, const std::function<void(
                                 minimpi::Communicator &)> &collective)
  {
    std::vector<double> spent(static_cast<std::size_t>(ranks));
    vp::ThisClock().Set(0.0);
    minimpi::Run(ranks,
                 [&](minimpi::Communicator &comm)
                 {
                   comm.Barrier();
                   const double t0 = vp::ThisClock().Now();
                   collective(comm);
                   spent[static_cast<std::size_t>(comm.Rank())] =
                     vp::ThisClock().Now() - t0;
                 });
    return spent;
  };

  std::mt19937_64 gen(7);
  gen(); // the draw the one-rank case used to take
  for (int ranks : {2, 3, 5, 8, 16})
  {
    std::vector<std::size_t> caps;
    for (int r = 0; r < ranks; ++r)
      caps.push_back(gen() % 6000);

    double want = 0.0;
    int rounds = 0;
    for (int group = 1; group < std::max(ranks, 2); group *= 2, ++rounds)
    {
      std::size_t largest = 0;
      for (int first = 0; first < ranks; first += group)
      {
        std::size_t sum = 0;
        for (int r = first; r < std::min(ranks, first + group); ++r)
          sum += caps[static_cast<std::size_t>(r)];
        largest = std::max(largest, sum);
      }
      want += cost.MessageLatency +
              (bitmap + static_cast<double>(std::min<std::size_t>(
                          largest, shape.Bins)) *
                          slotBytes) /
                cost.MessageBandwidth;
    }
    EXPECT_EQ(rounds, static_cast<int>(std::ceil(
                        std::log2(static_cast<double>(std::max(ranks, 2))))));

    // identity-only records and records filled to capacity charge alike
    auto run = [&](bool fill)
    {
      return measure(
        ranks,
        [&](minimpi::Communicator &comm)
        {
          const std::size_t cap = caps[static_cast<std::size_t>(comm.Rank())];
          std::vector<double> dense(11 * shape.Bins, 0.0);
          for (std::size_t i = 0; fill && i < cap; ++i)
            for (std::size_t g = 0; g < 11; ++g)
              dense[g * shape.Bins + i] = 1.0 + static_cast<double>((i + g) % 7);
          std::vector<double> compact(shape.Bytes(cap) / sizeof(double));
          minimpi::PackCompact(shape, dense.data(), cap, compact.data());
          ReduceOne(comm, shape, compact.data(), cap, dense.data());
        });
    };
    const std::vector<double> empty = run(false), full = run(true);
    EXPECT_EQ(empty, full) << ranks << " ranks";
    for (double s : full)
      EXPECT_NEAR(s, want, 1e-12 * want) << ranks << " ranks";

    // at full capacity: the dense Allreduce plus one bitmap per round
    const std::vector<double> dense = measure(
      ranks,
      [&](minimpi::Communicator &comm)
      {
        std::vector<double> rec(11 * shape.Bins, 1.0);
        comm.Allreduce(rec.data(), rec.size(), minimpi::Op::Sum);
      });
    const std::vector<double> sparse = measure(
      ranks,
      [&](minimpi::Communicator &comm)
      {
        std::vector<double> rec(11 * shape.Bins, 1.0);
        std::vector<double> compact(shape.Bytes(shape.Bins) / sizeof(double));
        minimpi::PackCompact(shape, rec.data(), shape.Bins, compact.data());
        ReduceOne(comm, shape, compact.data(), shape.Bins, rec.data());
      });
    const double extra = rounds * bitmap / cost.MessageBandwidth;
    for (int r = 0; r < ranks; ++r)
      EXPECT_NEAR(sparse[static_cast<std::size_t>(r)],
                  dense[static_cast<std::size_t>(r)] + extra,
                  1e-12 * sparse[static_cast<std::size_t>(r)])
        << ranks << " ranks";
  }
}

TEST(CompactAllreduce, OneRankIsAHostCopy)
{
  // a one-rank collective exchanges nothing: it is priced as the host
  // copy of what it moves, bytes / H2HBandwidth with no message latency,
  // while two and four ranks keep their message rounds
  ResetPlatform();
  const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
  const minimpi::CompactShape shape{
    16384, std::vector<minimpi::Op>(11, minimpi::Op::Sum)};
  const double bitmap = 16384 / 8;
  const double slotBytes = 11 * sizeof(double);
  const double denseBytes = 11 * 16384 * sizeof(double);

  // virtual seconds rank 0 spends in one collective
  auto spent = [](int ranks,
                  const std::function<void(minimpi::Communicator &)> &fn)
  {
    double out = 0.0;
    vp::ThisClock().Set(0.0);
    minimpi::Run(ranks,
                 [&](minimpi::Communicator &comm)
                 {
                   comm.Barrier();
                   const double t0 = vp::ThisClock().Now();
                   fn(comm);
                   if (comm.Rank() == 0)
                     out = vp::ThisClock().Now() - t0;
                 });
    return out;
  };
  auto compact = [&](const std::vector<std::size_t> &caps)
  {
    return spent(static_cast<int>(caps.size()),
                 [&](minimpi::Communicator &comm)
                 {
                   const std::size_t cap =
                     caps[static_cast<std::size_t>(comm.Rank())];
                   std::vector<double> dense(11 * shape.Bins, 0.0);
                   std::vector<double> rec(shape.Bytes(cap) / sizeof(double));
                   minimpi::PackCompact(shape, dense.data(), cap, rec.data());
                   ReduceOne(comm, shape, rec.data(), cap, dense.data());
                 });
  };
  auto dense = [&](int ranks)
  {
    return spent(ranks,
                 [&](minimpi::Communicator &comm)
                 {
                   std::vector<double> rec(11 * shape.Bins, 1.0);
                   comm.Allreduce(rec.data(), rec.size(), minimpi::Op::Sum);
                 });
  };

  // one rank: the record's bitmap and slots, or the dense record, copied
  for (std::size_t cap : {std::size_t(0), std::size_t(2071), shape.Bins})
  {
    const double want =
      (bitmap + static_cast<double>(cap) * slotBytes) / cost.H2HBandwidth;
    EXPECT_NEAR(compact({cap}), want, 1e-12 * want) << "cap " << cap;
  }
  EXPECT_NEAR(dense(1), denseBytes / cost.H2HBandwidth, 1e-18);
  EXPECT_NEAR(compact({shape.Bins}),
              dense(1) + bitmap / cost.H2HBandwidth, 1e-15);
  EXPECT_EQ(spent(1, [](minimpi::Communicator &comm) { comm.Barrier(); }),
            0.0);
  // the one-rank record of a campaign_async binning (2048 rows, 128^2
  // bins, 11 grids: 182,272 B): 3.65 us where one message round charged
  // 17.19 us
  EXPECT_NEAR(compact({2048}), 3.645e-6, 0.001e-6);

  // two and four ranks: one and two message rounds, as before
  const double round2 =
    cost.MessageLatency + (bitmap + 3000 * slotBytes) / cost.MessageBandwidth;
  EXPECT_NEAR(compact({1000, 3000}), round2, 1e-12 * round2);
  const double round4 =
    2 * cost.MessageLatency +
    (2 * bitmap + (3500 + 4000) * slotBytes) / cost.MessageBandwidth;
  EXPECT_NEAR(compact({1000, 3000, 500, 3500}), round4, 1e-12 * round4);
  const double tree2 =
    cost.MessageLatency + denseBytes / cost.MessageBandwidth;
  EXPECT_NEAR(dense(2), tree2, 1e-12 * tree2);
  EXPECT_NEAR(dense(4), 2 * tree2, 1e-12 * tree2);
}

// --- several compact records in one collective ---------------------------------

namespace
{
/// One rank's record of a batch: its dense form, capacity and compact
/// form.
struct BatchRecord
{
  RandomRecord Rec;
  std::vector<double> Compact;
};

/// A batch of `n` shapes: the first has 100 bins (not a multiple of 64)
/// with a sum, a min and a max segment besides the count, the rest are
/// drawn by RandomShape.
std::vector<minimpi::CompactShape> BatchShapes(std::size_t n,
                                               std::mt19937_64 &gen)
{
  std::vector<minimpi::CompactShape> shapes = {minimpi::CompactShape{
    100,
    {minimpi::Op::Sum, minimpi::Op::Sum, minimpi::Op::Min, minimpi::Op::Max}}};
  while (shapes.size() < n)
    shapes.push_back(RandomShape(gen));
  return shapes;
}

/// Records of `shapes` for `ranks` ranks, [rank][record]; the last rank's
/// first record is empty (cap 0).
std::vector<std::vector<BatchRecord>>
BatchRecords(const std::vector<minimpi::CompactShape> &shapes, int ranks,
             std::mt19937_64 &gen)
{
  std::vector<std::vector<BatchRecord>> out(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r)
    for (std::size_t i = 0; i < shapes.size(); ++i)
    {
      const minimpi::CompactShape &shape = shapes[i];
      BatchRecord b;
      b.Rec = MakeRecord(shape, gen);
      if (r == ranks - 1 && i == 0)
      {
        for (std::size_t g = 0; g < shape.Grids(); ++g)
          std::fill_n(b.Rec.Dense.begin() + static_cast<long>(g * shape.Bins),
                      shape.Bins, Identity(shape.Ops[g]));
        b.Rec.Cap = 0;
      }
      b.Compact.resize(shape.Bytes(b.Rec.Cap) / sizeof(double));
      minimpi::PackCompact(shape, b.Rec.Dense.data(), b.Rec.Cap,
                           b.Compact.data());
      out[static_cast<std::size_t>(r)].push_back(std::move(b));
    }
  return out;
}

/// The batched call over `mine`, each record's reduction expanded into
/// out[i] (Grids() x Bins doubles); the records are visited once each,
/// in order.
void BatchReduce(minimpi::Communicator &comm,
                 const std::vector<minimpi::CompactShape> &shapes,
                 const std::vector<BatchRecord> &mine,
                 std::vector<std::vector<double>> &out)
{
  std::vector<minimpi::CompactRecord> records;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    records.push_back(minimpi::CompactRecord{
      &shapes[i], mine[i].Compact.data(), mine[i].Rec.Cap});
  out.assign(shapes.size(), {});
  std::size_t next = 0;
  comm.AllreduceCompact(
    records,
    [&](std::size_t i, const void *reduced, std::size_t held)
    {
      EXPECT_EQ(i, next++);
      out[i].resize(shapes[i].Grids() * shapes[i].Bins);
      minimpi::UnpackCompact(shapes[i], reduced, held, out[i].data());
    });
  EXPECT_EQ(next, shapes.size());
}

class CompactBatchRanks : public ::testing::TestWithParam<int>
{
protected:
  void SetUp() override { ResetPlatform(); }
};
} // namespace

TEST_P(CompactBatchRanks, MatchesOneCallPerRecordBitForBit)
{
  // batches of 1 to 4 records of different shapes: every segment a batch
  // leaves equals, byte for byte, what a batch of one per record leaves
  const int ranks = GetParam();
  for (std::size_t n = 1; n <= 4; ++n)
    for (unsigned seed = 0; seed < 10; ++seed)
    {
      std::mt19937_64 gen(seed * 977u + static_cast<unsigned>(ranks * 10 + n));
      const std::vector<minimpi::CompactShape> shapes = BatchShapes(n, gen);
      const auto recs = BatchRecords(shapes, ranks, gen);
      minimpi::Run(
        ranks,
        [&](minimpi::Communicator &comm)
        {
          const auto &mine = recs[static_cast<std::size_t>(comm.Rank())];
          std::vector<std::vector<double>> want(n);
          for (std::size_t i = 0; i < n; ++i)
          {
            want[i].resize(shapes[i].Grids() * shapes[i].Bins);
            ReduceOne(comm, shapes[i], mine[i].Compact.data(),
                      mine[i].Rec.Cap, want[i].data());
          }
          std::vector<std::vector<double>> got;
          BatchReduce(comm, shapes, mine, got);
          for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                                  got[i].size() * sizeof(double)),
                      0)
              << "seed " << seed << " rank " << comm.Rank() << " record " << i
              << " of " << n << " bins " << shapes[i].Bins;
        });
    }
}

TEST_P(CompactBatchRanks, PricedAsOneExchange)
{
  // every rank spends R = ceil(log2 P) rounds of one MessageLatency plus
  // the records' summed bytes (bitmap + min(bins, largest aligned group
  // sum of caps) slots per record) over MessageBandwidth; one rank the
  // host copy of every record
  const int ranks = GetParam();
  const vp::CostModel &cost = vp::Platform::Get().Config().Cost;
  auto spent = [ranks](const std::function<void(minimpi::Communicator &)> &fn)
  {
    std::vector<double> out(static_cast<std::size_t>(ranks));
    vp::ThisClock().Set(0.0);
    minimpi::Run(ranks,
                 [&](minimpi::Communicator &comm)
                 {
                   comm.Barrier();
                   const double t0 = vp::ThisClock().Now();
                   fn(comm);
                   out[static_cast<std::size_t>(comm.Rank())] =
                     vp::ThisClock().Now() - t0;
                 });
    return out;
  };
  for (std::size_t n = 1; n <= 4; ++n)
  {
    std::mt19937_64 gen(31u * n + static_cast<unsigned>(ranks));
    const std::vector<minimpi::CompactShape> shapes = BatchShapes(n, gen);
    const auto recs = BatchRecords(shapes, ranks, gen);

    // bytes record i moves with `slots` slots
    auto bytes = [&](std::size_t i, std::size_t slots)
    {
      return 8.0 * static_cast<double>(shapes[i].BitmapWords()) +
             static_cast<double>(std::min(slots, shapes[i].Bins) *
                                 shapes[i].Grids() * sizeof(double));
    };
    auto cap = [&](int r, std::size_t i)
    { return recs[static_cast<std::size_t>(r)][i].Rec.Cap; };
    double want = 0.0;
    if (ranks == 1)
    {
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        total += bytes(i, cap(0, i));
      want = total / cost.H2HBandwidth;
    }
    for (int group = 1; group < ranks; group *= 2)
    {
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i)
      {
        std::size_t largest = 0;
        for (int first = 0; first < ranks; first += group)
        {
          std::size_t sum = 0;
          for (int r = first; r < std::min(ranks, first + group); ++r)
            sum += cap(r, i);
          largest = std::max(largest, sum);
        }
        total += bytes(i, largest);
      }
      want += cost.MessageLatency + total / cost.MessageBandwidth;
    }

    const std::vector<double> batched = spent(
      [&](minimpi::Communicator &comm)
      {
        std::vector<std::vector<double>> dense;
        BatchReduce(comm, shapes, recs[static_cast<std::size_t>(comm.Rank())],
                    dense);
      });
    for (double s : batched)
      EXPECT_NEAR(s, want, 1e-12 * want) << n << " records";
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CompactBatchRanks,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(CompactBatch, AnOverfullRecordThrowsBeforeEntering)
{
  // a record whose bitmap names more bins than its capacity, at any
  // position of a batch of four, throws std::runtime_error on its rank
  // before the collective is entered: the rank's clock has not moved,
  // and the next collective pairs up as if the failed call never ran
  ResetPlatform();
  for (int ranks : {1, 2, 3})
    for (std::size_t bad = 0; bad < 4; ++bad)
    {
      std::mt19937_64 gen(101u + bad);
      const std::vector<minimpi::CompactShape> shapes = BatchShapes(4, gen);
      auto recs = BatchRecords(shapes, ranks, gen);
      minimpi::Run(
        ranks,
        [&](minimpi::Communicator &comm)
        {
          std::vector<BatchRecord> mine =
            recs[static_cast<std::size_t>(comm.Rank())];
          // two bins held, one slot claimed
          const minimpi::CompactShape &shape = shapes[bad];
          std::vector<double> dense(shape.Grids() * shape.Bins);
          for (std::size_t g = 0; g < shape.Grids(); ++g)
            std::fill_n(dense.begin() + static_cast<long>(g * shape.Bins),
                        shape.Bins, Identity(shape.Ops[g]));
          dense[0] = 1.0;
          dense[shape.Bins - 1] = 2.0;
          BatchRecord &b = mine[bad];
          b.Compact.assign(shape.Bytes(2) / sizeof(double), 0.0);
          minimpi::PackCompact(shape, dense.data(), 2, b.Compact.data());
          b.Rec.Cap = shape.Bins > 1 ? 1 : 0;

          std::vector<std::vector<double>> out;
          const double t0 = vp::ThisClock().Now();
          EXPECT_THROW(BatchReduce(comm, shapes, mine, out), std::runtime_error)
            << ranks << " ranks, record " << bad;
          EXPECT_EQ(vp::ThisClock().Now(), t0);

          // the good batch still reduces as a batch of one per record
          const auto &good = recs[static_cast<std::size_t>(comm.Rank())];
          BatchReduce(comm, shapes, good, out);
          for (std::size_t i = 0; i < shapes.size(); ++i)
          {
            std::vector<double> want(out[i].size());
            ReduceOne(comm, shapes[i], good[i].Compact.data(),
                      good[i].Rec.Cap, want.data());
            EXPECT_EQ(std::memcmp(out[i].data(), want.data(),
                                  want.size() * sizeof(double)),
                      0)
              << ranks << " ranks, record " << i;
          }
        });
    }
}
