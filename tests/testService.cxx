// Tests for the multi-tenant in-transit service (src/svc): the wire
// protocol and ring transport, session negotiation and capability
// exchange, per-session flow control (block / drop-oldest / coalesce),
// dispatcher placement, join/leave ordering, deterministic
// fault-injected crash-during-frame and frame-drop, heartbeat liveness
// and silent-client reaping, serial-mode determinism, the sensei glue
// (ServiceHost/ServiceClient over a ConfigurableAnalysis pool), and
// the <service> XML element with its env-var overrides.

#include "senseiDataBinning.h"
#include "senseiHistogram.h"
#include "senseiProfiler.h"
#include "senseiSerialization.h"
#include "senseiService.h"
#include "svcClient.h"
#include "svcRing.h"
#include "svcServer.h"
#include "svcSession.h"
#include "svcWire.h"
#include "svtkAOSDataArray.h"
#include "vpClock.h"
#include "vpFaultInjector.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <thread>

namespace
{

void ResetAll()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vp::fault::Reset();
  svc::Configure(svc::ServiceConfig{});
  svc::ResetStats();
}

svc::ServiceConfig FastConfig()
{
  svc::ServiceConfig cfg;
  cfg.HeartbeatMs = 20; // keep liveness tests quick
  return cfg;
}

/// Wait (bounded real time) for `pred` to become true.
template <typename Pred>
bool Eventually(Pred pred, double seconds = 5.0)
{
  const auto deadline =
    std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline)
  {
    if (pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

std::vector<std::uint8_t> Blob(std::size_t n, std::uint8_t fill)
{
  return std::vector<std::uint8_t>(n, fill);
}

svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  svtkTable *t = svtkTable::New();
  for (const char *name : {"x", "y", "m"})
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, n, 1);
    for (std::size_t i = 0; i < n; ++i)
      c->SetVariantValue(i, 0, name[0] == 'm' ? 1.0 : u(gen));
    t->AddColumn(c);
    c->Delete();
  }
  return t;
}

} // namespace

// --- wire protocol ----------------------------------------------------------

TEST(SvcWire, FrameHeaderRoundTrip)
{
  ResetAll();
  svc::FrameHeader h;
  h.Kind = svc::FrameKind::Data;
  h.Session = 42;
  h.Flags = svc::kFrameFlagCompressed;
  h.Step = 7;
  h.SendTime = 123.125;
  h.PayloadBytes = 9;
  h.RawBytes = 1000;

  std::vector<std::uint8_t> buf;
  svc::EncodeFrameHeader(h, buf);
  ASSERT_EQ(buf.size(), svc::kFrameHeaderBytes);

  const svc::FrameHeader d = svc::DecodeFrameHeader(buf.data(), buf.size());
  EXPECT_EQ(d.Kind, svc::FrameKind::Data);
  EXPECT_EQ(d.Session, 42u);
  EXPECT_EQ(d.Flags, svc::kFrameFlagCompressed);
  EXPECT_EQ(d.Step, 7u);
  EXPECT_DOUBLE_EQ(d.SendTime, 123.125);
  EXPECT_EQ(d.PayloadBytes, 9u);
  EXPECT_EQ(d.RawBytes, 1000u);

  buf[0] = 'X'; // bad magic
  EXPECT_THROW(svc::DecodeFrameHeader(buf.data(), buf.size()),
               std::runtime_error);
}

TEST(SvcWire, HelloWelcomeRoundTrip)
{
  ResetAll();
  svc::HelloInfo h;
  h.Codec.Codec = cmp::CodecId::Quantize;
  h.Codec.ErrorBound = 1e-3;
  h.WantCompression = true;
  h.MeshName = "bodies";
  const std::vector<std::uint8_t> hb = svc::EncodeHello(h);
  const svc::HelloInfo hd = svc::DecodeHello(hb.data(), hb.size());
  EXPECT_EQ(hd.Codec.Codec, cmp::CodecId::Quantize);
  EXPECT_DOUBLE_EQ(hd.Codec.ErrorBound, 1e-3);
  EXPECT_TRUE(hd.WantCompression);
  EXPECT_EQ(hd.MeshName, "bodies");

  svc::WelcomeInfo w;
  w.Session = 3;
  w.Codec.Codec = cmp::CodecId::DeltaVarint;
  w.UseCompression = true;
  w.QueueDepth = 6;
  w.Pressure = sched::Backpressure::Coalesce;
  w.HeartbeatMs = 75;
  const std::vector<std::uint8_t> wb = svc::EncodeWelcome(w);
  const svc::WelcomeInfo wd = svc::DecodeWelcome(wb.data(), wb.size());
  EXPECT_EQ(wd.Session, 3u);
  EXPECT_EQ(wd.Codec.Codec, cmp::CodecId::DeltaVarint);
  EXPECT_TRUE(wd.UseCompression);
  EXPECT_EQ(wd.QueueDepth, 6);
  EXPECT_EQ(wd.Pressure, sched::Backpressure::Coalesce);
  EXPECT_EQ(wd.HeartbeatMs, 75);
}

TEST(SvcWire, AssemblerReassemblesChunkedStream)
{
  ResetAll();
  svc::FrameHeader h;
  h.Kind = svc::FrameKind::Data;
  h.Session = 1;
  const std::vector<std::uint8_t> payload = Blob(1000, 0xAB);
  const std::vector<std::uint8_t> img =
    svc::EncodeFrame(h, payload.data(), payload.size());

  // ship it through a ring in 256-byte chunks and reassemble
  auto ch = std::make_shared<svc::Channel>(1 << 16, 64);
  svc::Port tx(ch, true), rx(ch, false);
  ASSERT_EQ(tx.SendChunked(img.data(), img.size(), 256), svc::IoStatus::Ok);

  svc::FrameAssembler asmr;
  std::vector<std::uint8_t> wire, msg;
  bool complete = false;
  while (rx.TryRecv(msg) == svc::IoStatus::Ok)
    if (asmr.Feed(std::move(msg), wire))
      complete = true;
  ASSERT_TRUE(complete);
  EXPECT_FALSE(asmr.MidMessage());

  svc::Frame f = svc::DecodeFrame(std::move(wire));
  EXPECT_EQ(f.Header.PayloadBytes, 1000u);
  EXPECT_EQ(f.Payload, payload);

  // a malformed chunk header is loudly rejected
  svc::FrameAssembler bad;
  std::vector<std::uint8_t> out;
  EXPECT_THROW(bad.Feed(Blob(7, 0), out), std::runtime_error);
}

TEST(SvcWire, AssemblerRejectsHostileChunkHeaders)
{
  ResetAll();
  // one-chunk headers promising 4 GiB (once reserved up front), 4 TiB
  // (once std::bad_alloc) and 2^64 - 1 bytes (once std::length_error),
  // and a header announcing more chunks than bytes: each is rejected
  // with std::runtime_error before anything is allocated
  const std::pair<std::uint64_t, std::uint64_t> headers[] = {
    {std::uint64_t(4) << 30, 1},
    {std::uint64_t(4) << 40, 1},
    {~std::uint64_t(0), 1},
    {2, 3}};
  for (const auto &[total, chunks] : headers)
  {
    std::vector<std::uint8_t> h(16);
    for (int i = 0; i < 8; ++i)
    {
      h[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(total >> (8 * i));
      h[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(chunks >> (8 * i));
    }
    svc::FrameAssembler asmr;
    std::vector<std::uint8_t> out;
    EXPECT_THROW(asmr.Feed(std::move(h), out), std::runtime_error)
      << total << " bytes in " << chunks << " chunks";
    EXPECT_FALSE(asmr.MidMessage());
  }
}

TEST(SvcWire, HandshakeDecodersRejectHostilePayloads)
{
  ResetAll();
  svc::HelloInfo h;
  h.MeshName = "bodies";
  svc::WelcomeInfo w;
  w.Session = 5;
  w.Columns = std::vector<std::string>{"m", "x"};
  const std::vector<std::uint8_t> hello = svc::EncodeHello(h);
  const std::vector<std::uint8_t> welcome = svc::EncodeWelcome(w);
  ASSERT_EQ(welcome.size(), 32u + 4u + 5u + 5u);

  // an out-of-range codec id or backpressure value: once a Welcome with
  // codec byte 9 decoded, and the tenant's next Send threw
  // std::invalid_argument from cmp::FindCodec
  std::vector<std::uint8_t> bad = hello;
  bad[1] = 9;
  EXPECT_THROW(svc::DecodeHello(bad.data(), bad.size()), std::runtime_error);
  bad = welcome;
  bad[4] = 9;
  EXPECT_THROW(svc::DecodeWelcome(bad.data(), bad.size()),
               std::runtime_error);
  bad = welcome;
  bad[6] = 3;
  EXPECT_THROW(svc::DecodeWelcome(bad.data(), bad.size()),
               std::runtime_error);

  // a column count of 2^32 - 1 is rejected before anything is reserved
  bad = welcome;
  for (std::size_t i = 32; i < 36; ++i)
    bad[i] = 0xFF;
  EXPECT_THROW(svc::DecodeWelcome(bad.data(), bad.size()),
               std::runtime_error);

  // a truncated name, a truncated count, and a name length past the end
  EXPECT_THROW(svc::DecodeWelcome(welcome.data(), welcome.size() - 1),
               std::runtime_error);
  EXPECT_THROW(svc::DecodeWelcome(welcome.data(), 34), std::runtime_error);
  bad = welcome;
  bad[36] = 0xFF;
  EXPECT_THROW(svc::DecodeWelcome(bad.data(), bad.size()),
               std::runtime_error);
  EXPECT_THROW(svc::DecodeHello(hello.data(), hello.size() - 1),
               std::runtime_error);

  // the intact payloads still decode
  const svc::WelcomeInfo d = svc::DecodeWelcome(welcome.data(), welcome.size());
  ASSERT_TRUE(d.Columns.has_value());
  EXPECT_EQ(*d.Columns, (std::vector<std::string>{"m", "x"}));
  EXPECT_EQ(svc::DecodeHello(hello.data(), hello.size()).MeshName, "bodies");
}

// --- ring semantics ---------------------------------------------------------

TEST(SvcRing, CapacityBlocksAndShutdownModesDiffer)
{
  ResetAll();
  svc::ShmRing ring(/*capacityBytes=*/100, /*maxMessages=*/2);
  EXPECT_EQ(ring.Push(Blob(60, 1), 0.01), svc::IoStatus::Ok);
  EXPECT_EQ(ring.Push(Blob(60, 2), 0.01), svc::IoStatus::Timeout); // over budget

  std::vector<std::uint8_t> out;
  EXPECT_EQ(ring.Pop(out, 0.0), svc::IoStatus::Ok);
  EXPECT_EQ(out.size(), 60u);
  EXPECT_EQ(ring.Pop(out, 0.0), svc::IoStatus::Timeout); // empty, alive

  EXPECT_EQ(ring.Push(Blob(10, 3), 0.01), svc::IoStatus::Ok);
  ring.Close();
  EXPECT_EQ(ring.Push(Blob(1, 4), 0.01), svc::IoStatus::Closed);
  EXPECT_EQ(ring.Pop(out, 0.0), svc::IoStatus::Ok); // drains buffered
  EXPECT_EQ(ring.Pop(out, 0.0), svc::IoStatus::Closed);

  svc::ShmRing dead(100, 2);
  EXPECT_EQ(dead.Push(Blob(5, 1), 0.01), svc::IoStatus::Ok);
  dead.MarkDead();
  EXPECT_EQ(dead.Pop(out, 0.0), svc::IoStatus::Ok);
  EXPECT_EQ(dead.Pop(out, 0.0), svc::IoStatus::Dead);
}

TEST(SvcRing, AtomicChunkedSendIsAllOrNothing)
{
  ResetAll();
  auto ch = std::make_shared<svc::Channel>(1 << 16, /*maxMessages=*/4);
  svc::Port tx(ch, /*clientSide=*/true), rx(ch, /*clientSide=*/false);

  // occupy all but one descriptor slot
  ASSERT_EQ(tx.Send(Blob(8, 1), 0.01), svc::IoStatus::Ok);
  ASSERT_EQ(tx.Send(Blob(8, 2), 0.01), svc::IoStatus::Ok);
  ASSERT_EQ(tx.Send(Blob(8, 3), 0.01), svc::IoStatus::Ok);

  // a heartbeat is two ring messages (chunk header + body); with one
  // free slot a plain SendChunked would push the header and dangle —
  // the atomic variant must refuse without pushing anything
  svc::FrameHeader h;
  h.Kind = svc::FrameKind::Heartbeat;
  const std::vector<std::uint8_t> img = svc::EncodeFrame(h, nullptr, 0);
  EXPECT_EQ(tx.SendChunkedAtomic(img.data(), img.size(), 64, 0.0),
            svc::IoStatus::Timeout);
  EXPECT_EQ(ch->ToServer.Pending(), 3u); // no dangling chunk header

  std::vector<std::uint8_t> out;
  ASSERT_EQ(rx.Recv(out, 0.0), svc::IoStatus::Ok);
  ASSERT_EQ(rx.Recv(out, 0.0), svc::IoStatus::Ok);

  // two slots free now: the whole beat goes in at once...
  EXPECT_EQ(tx.SendChunkedAtomic(img.data(), img.size(), 64, 0.0),
            svc::IoStatus::Ok);
  ASSERT_EQ(rx.Recv(out, 0.0), svc::IoStatus::Ok); // remaining filler

  // ...and reassembles into a well-formed heartbeat frame
  svc::FrameAssembler asmr;
  std::vector<std::uint8_t> wire;
  bool complete = false;
  while (rx.TryRecv(out) == svc::IoStatus::Ok)
    if (asmr.Feed(std::move(out), wire))
      complete = true;
  ASSERT_TRUE(complete);
  const svc::Frame f = svc::DecodeFrame(std::move(wire));
  EXPECT_EQ(f.Header.Kind, svc::FrameKind::Heartbeat);
}

// --- sessions ---------------------------------------------------------------

TEST(SvcSession, NegotiationGrantsConfiguredTerms)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig();
  cfg.QueueDepth = 6;
  cfg.Pressure = sched::Backpressure::Coalesce;
  svc::Server server([](int, const svc::FrameHeader &,
                        std::vector<std::uint8_t> &&) {},
                     cfg);
  server.Start();

  svc::Client client(server.Connect(), "bodies");
  cmp::Params want;
  want.Codec = cmp::CodecId::ShuffleRLE;
  ASSERT_TRUE(client.Connect(want, /*wantCompression=*/true));
  EXPECT_GE(client.SessionId(), 1u);
  EXPECT_EQ(client.Negotiated().Codec.Codec, cmp::CodecId::ShuffleRLE);
  EXPECT_TRUE(client.Negotiated().UseCompression);
  EXPECT_EQ(client.Negotiated().QueueDepth, 6);
  EXPECT_EQ(client.Negotiated().Pressure, sched::Backpressure::Coalesce);
  EXPECT_EQ(client.Negotiated().HeartbeatMs, cfg.HeartbeatMs);
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 1; }));

  client.Close();
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 0; }));
  server.Stop();
  EXPECT_EQ(server.Ended(svc::SessionEnd::Closed), 1u);
  EXPECT_EQ(svc::Stats().SessionsOpened, 1u);
  EXPECT_EQ(svc::Stats().SessionsClosed, 1u);
}

TEST(SvcSession, ServerCodecOverrideWins)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig();
  cfg.HaveCodecOverride = true;
  cfg.CodecOverride.Codec = cmp::CodecId::Quantize;
  cfg.CodecOverride.ErrorBound = 1e-2;
  svc::Server server([](int, const svc::FrameHeader &,
                        std::vector<std::uint8_t> &&) {},
                     cfg);
  server.Start();

  svc::Client client(server.Connect());
  cmp::Params want; // client asks for no compression at all
  want.Codec = cmp::CodecId::None;
  ASSERT_TRUE(client.Connect(want, /*wantCompression=*/false));
  EXPECT_EQ(client.Negotiated().Codec.Codec, cmp::CodecId::Quantize);
  EXPECT_DOUBLE_EQ(client.Negotiated().Codec.ErrorBound, 1e-2);
  EXPECT_TRUE(client.Negotiated().UseCompression);
  client.Close();
  server.Stop();
}

TEST(SvcSession, PoolFullRejectsExtraTenant)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig();
  cfg.MaxSessions = 1;
  svc::Server server([](int, const svc::FrameHeader &,
                        std::vector<std::uint8_t> &&) {},
                     cfg);
  server.Start();

  svc::Client first(server.Connect());
  ASSERT_TRUE(first.Connect(cmp::Params{}, false));

  svc::Client second(server.Connect());
  EXPECT_FALSE(second.Connect(cmp::Params{}, false, /*timeout=*/2.0));
  EXPECT_EQ(second.RejectReason(), "session pool full");
  EXPECT_EQ(svc::Stats().SessionsRejected, 1u);

  first.Close();
  server.Stop();
}

TEST(SvcSession, JoinLeaveOrderingIsObserved)
{
  ResetAll();
  std::vector<std::uint32_t> opened, closed;
  std::mutex mx;
  svc::Server server([](int, const svc::FrameHeader &,
                        std::vector<std::uint8_t> &&) {},
                     FastConfig());
  server.SetSessionCallbacks(
    [&](std::uint32_t id, const svc::HelloInfo &)
    {
      std::lock_guard<std::mutex> l(mx);
      opened.push_back(id);
    },
    [&](std::uint32_t id, svc::SessionEnd)
    {
      std::lock_guard<std::mutex> l(mx);
      closed.push_back(id);
    });
  server.Start();

  // join 1, 2, 3 in order (each Connect blocks on its Welcome, so ids
  // are assigned in join order); leave 2, 3, 1
  svc::Client c1(server.Connect()), c2(server.Connect()),
    c3(server.Connect());
  ASSERT_TRUE(c1.Connect(cmp::Params{}, false));
  ASSERT_TRUE(c2.Connect(cmp::Params{}, false));
  ASSERT_TRUE(c3.Connect(cmp::Params{}, false));
  c2.Close();
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 2; }));
  c3.Close();
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 1; }));
  c1.Close();
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 0; }));
  server.Stop();

  std::lock_guard<std::mutex> l(mx);
  ASSERT_EQ(opened.size(), 3u);
  EXPECT_EQ(opened, (std::vector<std::uint32_t>{opened[0], opened[0] + 1,
                                                opened[0] + 2}));
  ASSERT_EQ(closed.size(), 3u);
  EXPECT_EQ(closed[0], opened[1]); // 2 left first
  EXPECT_EQ(closed[1], opened[2]); // then 3
  EXPECT_EQ(closed[2], opened[0]); // then 1
}

TEST(SvcSession, MeshNameSticksToFramesAfterTheTenantLeaves)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig();
  cfg.Workers = 1;
  std::mutex mx;
  std::vector<std::string> meshes;
  std::vector<int> activeAtExec;
  svc::Server *sp = nullptr;
  svc::Server server(
    [&](int, const svc::FrameHeader &h, std::vector<std::uint8_t> &&)
    {
      // slow worker: the tenant is long gone by the time its last
      // frames execute, so the mesh must travel with the frame, not be
      // looked up against live-session state
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::lock_guard<std::mutex> l(mx);
      meshes.push_back(h.Mesh);
      activeAtExec.push_back(sp->ActiveSessions());
    },
    cfg);
  sp = &server;
  server.Start();

  svc::Client client(server.Connect(), "bodies");
  ASSERT_TRUE(client.Connect(cmp::Params{}, false));
  const std::vector<std::uint8_t> payload = Blob(64, 1);
  for (int s = 0; s < 3; ++s)
    ASSERT_TRUE(client.SendFrame(static_cast<std::uint64_t>(s),
                                 payload.data(), payload.size(),
                                 payload.size(), false));
  client.Close();

  EXPECT_TRUE(Eventually(
    [&]
    {
      std::lock_guard<std::mutex> l(mx);
      return meshes.size() == 3u;
    }));
  server.Stop();

  std::lock_guard<std::mutex> l(mx);
  for (const std::string &m : meshes)
    EXPECT_EQ(m, "bodies");
  // the closed tenant's tail frames really did run after its session
  // was reclaimed
  EXPECT_EQ(activeAtExec.back(), 0);
}

// --- frame flow and flow control -------------------------------------------

TEST(SvcFlow, FramesReachWorkersAcrossTenants)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig();
  cfg.Workers = 2;
  std::atomic<long> executed{0};
  std::atomic<long> byWorker[2] = {{0}, {0}};
  svc::Server server(
    [&](int w, const svc::FrameHeader &h, std::vector<std::uint8_t> &&p)
    {
      ASSERT_LT(w, 2);
      ASSERT_GE(h.Session, 1u);
      ASSERT_EQ(p.size(), 256u);
      byWorker[w].fetch_add(1);
      executed.fetch_add(1);
    },
    cfg);
  server.Start();

  constexpr int kClients = 3, kFrames = 8;
  std::vector<std::unique_ptr<svc::Client>> clients;
  for (int c = 0; c < kClients; ++c)
  {
    clients.emplace_back(std::make_unique<svc::Client>(server.Connect()));
    ASSERT_TRUE(clients.back()->Connect(cmp::Params{}, false));
  }
  const std::vector<std::uint8_t> payload = Blob(256, 0x5A);
  for (int s = 0; s < kFrames; ++s)
    for (auto &c : clients)
      ASSERT_TRUE(c->SendFrame(static_cast<std::uint64_t>(s), payload.data(),
                               payload.size(), payload.size(), false));
  for (auto &c : clients)
    c->Close();

  EXPECT_TRUE(
    Eventually([&] { return executed.load() == kClients * kFrames; }));
  server.Stop();
  EXPECT_EQ(svc::Stats().FramesAccepted,
            static_cast<std::uint64_t>(kClients * kFrames));
  EXPECT_EQ(svc::Stats().FramesExecuted,
            static_cast<std::uint64_t>(kClients * kFrames));
  // both workers participated (3 tenants round a 2-worker pool)
  EXPECT_GT(byWorker[0].load(), 0);
  EXPECT_GT(byWorker[1].load(), 0);
}

TEST(SvcFlow, DropOldestShedsLoadWithoutStalling)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig();
  cfg.Workers = 1;
  cfg.QueueDepth = 1;
  cfg.Pressure = sched::Backpressure::DropOldest;
  svc::Server server(
    [&](int, const svc::FrameHeader &, std::vector<std::uint8_t> &&)
    { std::this_thread::sleep_for(std::chrono::milliseconds(5)); },
    cfg);
  server.Start();

  svc::Client client(server.Connect());
  ASSERT_TRUE(client.Connect(cmp::Params{}, false));
  const std::vector<std::uint8_t> payload = Blob(64, 1);
  for (int s = 0; s < 30; ++s)
    ASSERT_TRUE(client.SendFrame(static_cast<std::uint64_t>(s),
                                 payload.data(), payload.size(),
                                 payload.size(), false));
  client.Close();
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 0; }));
  server.Stop();

  const svc::ServiceStats s = svc::Stats();
  EXPECT_EQ(s.FramesAccepted, 30u);
  EXPECT_EQ(s.FramesExecuted + s.FramesDropped, s.FramesAccepted);
  EXPECT_EQ(s.FramesCoalesced, 0u);
}

TEST(SvcFlow, CoalesceKeepsFreshest)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig();
  cfg.Workers = 1;
  cfg.QueueDepth = 1;
  cfg.Pressure = sched::Backpressure::Coalesce;
  std::atomic<std::uint64_t> lastStep{0};
  svc::Server server(
    [&](int, const svc::FrameHeader &h, std::vector<std::uint8_t> &&)
    {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      lastStep.store(h.Step);
    },
    cfg);
  server.Start();

  svc::Client client(server.Connect());
  ASSERT_TRUE(client.Connect(cmp::Params{}, false));
  const std::vector<std::uint8_t> payload = Blob(64, 1);
  constexpr int kFrames = 30;
  for (int s = 0; s < kFrames; ++s)
    ASSERT_TRUE(client.SendFrame(static_cast<std::uint64_t>(s),
                                 payload.data(), payload.size(),
                                 payload.size(), false));
  client.Close();
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 0; }));
  server.Stop();

  const svc::ServiceStats s = svc::Stats();
  EXPECT_EQ(s.FramesAccepted, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(s.FramesExecuted + s.FramesCoalesced, s.FramesAccepted);
  EXPECT_EQ(s.FramesDropped, 0u);
  // the freshest frame always survives coalescing
  EXPECT_EQ(lastStep.load(), static_cast<std::uint64_t>(kFrames - 1));
}

TEST(SvcFlow, BlockBoundsTheQueueAndLosesNothing)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig();
  cfg.Workers = 1;
  cfg.QueueDepth = 2;
  cfg.Pressure = sched::Backpressure::Block;
  cfg.RingMessages = 8; // small ring so backpressure reaches the client
  svc::Server server(
    [&](int, const svc::FrameHeader &, std::vector<std::uint8_t> &&)
    { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
    cfg);
  server.Start();

  svc::Client client(server.Connect());
  ASSERT_TRUE(client.Connect(cmp::Params{}, false));
  const std::vector<std::uint8_t> payload = Blob(64, 1);
  constexpr int kFrames = 20;
  for (int s = 0; s < kFrames; ++s)
    ASSERT_TRUE(client.SendFrame(static_cast<std::uint64_t>(s),
                                 payload.data(), payload.size(),
                                 payload.size(), false));
  client.Close();
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 0; }));
  server.Stop();

  const svc::ServiceStats s = svc::Stats();
  EXPECT_EQ(s.FramesAccepted, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(s.FramesExecuted, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(s.FramesDropped, 0u);
  EXPECT_EQ(s.FramesCoalesced, 0u);
  EXPECT_LE(s.QueueHighWater, 2u);
}

// --- fault-injected tenancy -------------------------------------------------

TEST(SvcFault, CrashDuringFrameIsAShortReadOnlyForThatTenant)
{
  ResetAll();
  vp::fault::FaultConfig fault;
  fault.Enabled = true;
  fault.CrashSendNth = 3; // the crasher's 3rd frame dies mid-send
  vp::fault::Configure(fault);

  svc::ServiceConfig cfg = FastConfig();
  cfg.Workers = 1;
  std::atomic<long> executed{0};
  svc::Server server(
    [&](int, const svc::FrameHeader &, std::vector<std::uint8_t> &&)
    { executed.fetch_add(1); },
    cfg);
  server.Start();

  svc::Client crasher(server.Connect());
  svc::Client survivor(server.Connect());
  ASSERT_TRUE(crasher.Connect(cmp::Params{}, false));
  ASSERT_TRUE(survivor.Connect(cmp::Params{}, false));

  const std::vector<std::uint8_t> payload = Blob(100000, 7); // multi-chunk
  int delivered = 0;
  for (int s = 0; s < 5; ++s)
    delivered += crasher.SendFrame(static_cast<std::uint64_t>(s),
                                   payload.data(), payload.size(),
                                   payload.size(), false)
                   ? 1
                   : 0;
  EXPECT_EQ(delivered, 2); // frames 1 and 2; the 3rd crashed mid-frame
  EXPECT_FALSE(crasher.Connected());
  EXPECT_EQ(vp::fault::Stats().SendCrashes, 1u);

  // the survivor streams on, unaffected
  for (int s = 0; s < 4; ++s)
    ASSERT_TRUE(survivor.SendFrame(static_cast<std::uint64_t>(s),
                                   payload.data(), payload.size(),
                                   payload.size(), false));
  EXPECT_TRUE(Eventually([&] { return executed.load() == 2 + 4; }));
  EXPECT_TRUE(
    Eventually([&] { return server.Ended(svc::SessionEnd::ShortRead) == 1; }));
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 1; }));

  survivor.Close();
  server.Stop();
  EXPECT_EQ(svc::Stats().ShortReads, 1u);
  EXPECT_EQ(svc::Stats().SessionsReaped, 1u);
}

TEST(SvcFault, DroppedFrameIsLostInTransitSessionSurvives)
{
  ResetAll();
  vp::fault::FaultConfig fault;
  fault.Enabled = true;
  fault.DropFrameNth = 2;
  vp::fault::Configure(fault);

  svc::ServiceConfig cfg = FastConfig();
  std::atomic<long> executed{0};
  svc::Server server(
    [&](int, const svc::FrameHeader &, std::vector<std::uint8_t> &&)
    { executed.fetch_add(1); },
    cfg);
  server.Start();

  svc::Client client(server.Connect());
  ASSERT_TRUE(client.Connect(cmp::Params{}, false));
  const std::vector<std::uint8_t> payload = Blob(64, 1);
  int delivered = 0;
  for (int s = 0; s < 4; ++s)
    delivered += client.SendFrame(static_cast<std::uint64_t>(s),
                                  payload.data(), payload.size(),
                                  payload.size(), false)
                   ? 1
                   : 0;
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(vp::fault::Stats().FramesDropped, 1u);
  EXPECT_TRUE(client.Connected()); // a lost frame is not a lost session

  EXPECT_TRUE(Eventually([&] { return executed.load() == 3; }));
  client.Close();
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 0; }));
  server.Stop();
  EXPECT_EQ(server.Ended(svc::SessionEnd::Closed), 1u);
}

TEST(SvcFault, InjectedFrameDelayIsCounted)
{
  ResetAll();
  vp::fault::FaultConfig fault;
  fault.Enabled = true;
  fault.FrameDelaySeconds = 0.001;
  vp::fault::Configure(fault);

  svc::Server server([](int, const svc::FrameHeader &,
                        std::vector<std::uint8_t> &&) {},
                     FastConfig());
  server.Start();
  svc::Client client(server.Connect());
  ASSERT_TRUE(client.Connect(cmp::Params{}, false));
  const std::vector<std::uint8_t> payload = Blob(16, 1);
  for (int s = 0; s < 3; ++s)
    ASSERT_TRUE(client.SendFrame(static_cast<std::uint64_t>(s),
                                 payload.data(), payload.size(),
                                 payload.size(), false));
  EXPECT_EQ(vp::fault::Stats().DelaysApplied, 3u);
  client.Close();
  server.Stop();
}

TEST(SvcFault, ThrowingHandlerCostsOnlyThatFrame)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig();
  cfg.Workers = 1;
  std::atomic<long> executed{0};
  svc::Server server(
    [&](int, const svc::FrameHeader &h, std::vector<std::uint8_t> &&)
    {
      // framing can't validate payload content — a garbled table
      // surfaces as the handler throwing on a worker thread
      if (h.Step == 1)
        throw std::runtime_error("garbled payload");
      executed.fetch_add(1);
    },
    cfg);
  server.Start();

  svc::Client client(server.Connect());
  ASSERT_TRUE(client.Connect(cmp::Params{}, false));
  const std::vector<std::uint8_t> payload = Blob(64, 1);
  for (int s = 0; s < 4; ++s)
    ASSERT_TRUE(client.SendFrame(static_cast<std::uint64_t>(s),
                                 payload.data(), payload.size(),
                                 payload.size(), false));
  client.Close();
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 0; }));
  EXPECT_TRUE(Eventually([&] { return executed.load() == 3; }));
  server.Stop();

  const svc::ServiceStats s = svc::Stats();
  EXPECT_EQ(s.FramesAccepted, 4u);
  EXPECT_EQ(s.FramesExecuted, 3u);
  EXPECT_EQ(s.FramesRejected, 1u);
  // the tenant (and the process!) survived its bad frame
  EXPECT_EQ(server.Ended(svc::SessionEnd::Closed), 1u);
  EXPECT_EQ(server.Ended(svc::SessionEnd::Error), 0u);
}

TEST(SvcFault, StopPreservesEndCauseOfDrainingSessions)
{
  ResetAll();
  vp::fault::FaultConfig fault;
  fault.Enabled = true;
  fault.CrashSendNth = 5; // the 5th frame dies mid-send
  vp::fault::Configure(fault);

  svc::ServiceConfig cfg = FastConfig();
  cfg.Workers = 1;
  std::atomic<bool> release{false};
  svc::Server server(
    [&](int, const svc::FrameHeader &, std::vector<std::uint8_t> &&)
    {
      while (!release.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    },
    cfg);
  server.Start();

  svc::Client client(server.Connect());
  ASSERT_TRUE(client.Connect(cmp::Params{}, false));
  const std::vector<std::uint8_t> payload = Blob(100000, 7); // multi-chunk
  for (int s = 0; s < 5; ++s)
    client.SendFrame(static_cast<std::uint64_t>(s), payload.data(),
                     payload.size(), payload.size(), false);
  // the worker is wedged on frame 0, frames 1-2 fill its inbox, frame 3
  // stays queued — the session is draining (short read) but cannot
  // finalize before Stop
  ASSERT_TRUE(Eventually([&] { return svc::Stats().ShortReads == 1; }));

  std::thread stopper([&] { server.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true);
  stopper.join();

  // shutdown must keep the already-determined cause, not report Closed
  EXPECT_EQ(server.Ended(svc::SessionEnd::ShortRead), 1u);
  EXPECT_EQ(server.Ended(svc::SessionEnd::Closed), 0u);
}

// --- liveness ---------------------------------------------------------------

TEST(SvcLiveness, HeartbeatsKeepAnIdleTenantAlive)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig(); // 20 ms beat, 5 missed = 100 ms
  svc::Server server([](int, const svc::FrameHeader &,
                        std::vector<std::uint8_t> &&) {},
                     cfg);
  server.Start();

  svc::Client client(server.Connect());
  ASSERT_TRUE(client.Connect(cmp::Params{}, false));
  client.StartHeartbeats();
  std::this_thread::sleep_for(std::chrono::milliseconds(300)); // idle
  EXPECT_EQ(server.ActiveSessions(), 1);
  EXPECT_EQ(server.Ended(svc::SessionEnd::Reaped), 0u);

  // the session still works after the idle stretch
  const std::vector<std::uint8_t> payload = Blob(32, 1);
  EXPECT_TRUE(client.SendFrame(0, payload.data(), payload.size(),
                               payload.size(), false));
  client.Close();
  server.Stop();
  EXPECT_GT(svc::Stats().Heartbeats, 0u);
}

TEST(SvcLiveness, HeartbeatsDuringFrameStreamNeverCorruptTheSession)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig();
  cfg.HeartbeatMs = 2;        // the beat thread fires every ~1 ms
  cfg.MissedHeartbeats = 500; // ~1 s budget: no legitimate reaps on a
                              // loaded box — this test is about stream
                              // atomicity, not liveness
  cfg.MaxChunkBytes = 1024;   // every frame is many ring messages
  cfg.RingMessages = 8;       // a small ring: sends regularly block partway
  cfg.Workers = 1;
  std::atomic<long> executed{0};
  svc::Server server(
    [&](int, const svc::FrameHeader &, std::vector<std::uint8_t> &&)
    { executed.fetch_add(1); },
    cfg);
  server.Start();

  svc::Client client(server.Connect());
  ASSERT_TRUE(client.Connect(cmp::Params{}, false));
  client.StartHeartbeats();

  // the app thread streams multi-chunk frames while the beat thread
  // fires as fast as it can: the two chunk streams must never
  // interleave on the ring, and a beat that only half-fits must never
  // leave a dangling announced transfer
  const std::vector<std::uint8_t> payload = Blob(8000, 3);
  constexpr int kFrames = 60;
  for (int s = 0; s < kFrames; ++s)
    ASSERT_TRUE(client.SendFrame(static_cast<std::uint64_t>(s),
                                 payload.data(), payload.size(),
                                 payload.size(), false));
  client.Close();
  EXPECT_TRUE(Eventually([&] { return server.ActiveSessions() == 0; }));
  server.Stop();

  EXPECT_EQ(executed.load(), kFrames);
  EXPECT_EQ(server.Ended(svc::SessionEnd::Error), 0u);
  EXPECT_EQ(server.Ended(svc::SessionEnd::ShortRead), 0u);
  EXPECT_EQ(server.Ended(svc::SessionEnd::Closed), 1u);
  EXPECT_EQ(svc::Stats().ShortReads, 0u);
}

TEST(SvcLiveness, SilentTenantIsReapedAndDrained)
{
  ResetAll();
  svc::ServiceConfig cfg = FastConfig(); // 100 ms liveness budget
  std::atomic<long> executed{0};
  svc::Server server(
    [&](int, const svc::FrameHeader &, std::vector<std::uint8_t> &&)
    { executed.fetch_add(1); },
    cfg);
  server.Start();

  svc::Client silent(server.Connect());
  svc::Client lively(server.Connect());
  ASSERT_TRUE(silent.Connect(cmp::Params{}, false));
  ASSERT_TRUE(lively.Connect(cmp::Params{}, false));
  lively.StartHeartbeats();

  const std::vector<std::uint8_t> payload = Blob(32, 1);
  ASSERT_TRUE(silent.SendFrame(0, payload.data(), payload.size(),
                               payload.size(), false));
  // ... and then the tenant goes silent: no beats, no goodbye

  EXPECT_TRUE(
    Eventually([&] { return server.Ended(svc::SessionEnd::Reaped) == 1; }));
  EXPECT_EQ(server.ActiveSessions(), 1); // the lively one
  EXPECT_EQ(executed.load(), 1);         // its frame was still analyzed

  lively.Close();
  server.Stop();
  EXPECT_EQ(svc::Stats().SessionsReaped, 1u);
}

// --- determinism ------------------------------------------------------------

namespace
{
/// One serial tenancy: a single client streams `frames` fixed frames
/// through a single-worker pool; returns the handler's step sequence
/// and the client's final virtual time.
std::pair<std::vector<std::uint64_t>, double> SerialRun(int frames)
{
  ResetAll();
  svc::ServiceConfig cfg;
  cfg.Workers = 1;
  cfg.HeartbeatMs = 200;
  std::vector<std::uint64_t> steps;
  std::mutex mx;
  svc::Server server(
    [&](int, const svc::FrameHeader &h, std::vector<std::uint8_t> &&)
    {
      std::lock_guard<std::mutex> l(mx);
      steps.push_back(h.Step);
    },
    cfg);
  server.Start();

  vp::ThisClock().Set(0.0);
  svc::Client client(server.Connect());
  if (!client.Connect(cmp::Params{}, false))
    throw std::runtime_error("SerialRun: connect failed");
  const std::vector<std::uint8_t> payload = Blob(512, 9);
  for (int s = 0; s < frames; ++s)
    if (!client.SendFrame(static_cast<std::uint64_t>(s), payload.data(),
                          payload.size(), payload.size(), false))
      throw std::runtime_error("SerialRun: send failed");
  const double vtime = vp::ThisClock().Now();
  client.Close();
  if (!Eventually([&] { return server.ActiveSessions() == 0; }))
    throw std::runtime_error("SerialRun: drain timed out");
  server.Stop();
  std::lock_guard<std::mutex> l(mx);
  return {steps, vtime};
}
} // namespace

TEST(SvcDeterminism, SerialTimelineAndOrderAreBitExact)
{
  const auto a = SerialRun(12);
  const auto b = SerialRun(12);
  // one tenant, one worker: frames execute in send order, every run
  ASSERT_EQ(a.first.size(), 12u);
  for (std::size_t i = 0; i < a.first.size(); ++i)
    EXPECT_EQ(a.first[i], static_cast<std::uint64_t>(i));
  EXPECT_EQ(a.first, b.first);
  // and the tenant's virtual timeline is bit-exact across runs
  EXPECT_EQ(a.second, b.second);
}

// --- sensei glue ------------------------------------------------------------

namespace
{
const char *kServiceXml = R"(
<sensei>
  <service max_sessions="4" workers="2" queue_depth="4"
           backpressure="block" policy="least-loaded" heartbeat_ms="40"/>
  <compress enabled="1" codec="quantize" error_bound="0.001"/>
  <analysis type="histogram" mesh="bodies" column="m" bins="8"
            device="host"/>
</sensei>
)";
} // namespace

TEST(SvcSensei, ServiceHostRunsAnalysesForEveryTenant)
{
  ResetAll();
  cmp::Configure(cmp::Config{}); // ServiceClient reads the <compress> element

  auto host = sensei::ServiceHost::FromString(kServiceXml);
  host->Start();

  constexpr int kClients = 2, kSteps = 4;
  std::vector<std::unique_ptr<sensei::ServiceClient>> clients;
  for (int c = 0; c < kClients; ++c)
  {
    clients.emplace_back(
      std::make_unique<sensei::ServiceClient>(host->Connect(), "bodies"));
    ASSERT_TRUE(clients.back()->Connect());
    // the <compress> element travels through the negotiation
    EXPECT_EQ(clients.back()->Raw().Negotiated().Codec.Codec,
              cmp::CodecId::Quantize);
  }

  for (int s = 0; s < kSteps; ++s)
    for (int c = 0; c < kClients; ++c)
    {
      svtkTable *t = MakeTable(200, static_cast<unsigned>(97 * c + s));
      sensei::TableAdaptor *adaptor = sensei::TableAdaptor::New("bodies");
      adaptor->SetTable(t);
      t->UnRegister();
      adaptor->SetDataTimeStep(s);
      EXPECT_TRUE(clients[static_cast<std::size_t>(c)]->Send(adaptor));
      adaptor->ReleaseData();
      adaptor->Delete();
    }

  EXPECT_TRUE(
    Eventually([&] { return host->FramesExecuted() == kClients * kSteps; }));
  for (auto &c : clients)
    c->Close();
  host->Stop();

  const svc::ServiceStats s = svc::Stats();
  EXPECT_EQ(s.FramesAccepted, static_cast<std::uint64_t>(kClients * kSteps));
  EXPECT_GT(s.BytesRaw, 0u);
  EXPECT_GT(s.BytesWire, 0u);
  EXPECT_LT(s.BytesWire, s.BytesRaw); // quantize actually compressed

  // the profiler export carries the counters
  sensei::Profiler prof;
  sensei::ExportServiceStats(prof);
  const std::string json = prof.ToJson();
  EXPECT_NE(json.find("svc::frames_accepted"), std::string::npos);
  EXPECT_NE(json.find("svc::sessions_opened"), std::string::npos);
}

TEST(SvcSensei, RawBytesAreTheShippedValueBytes)
{
  // a 3-component double column and an int column: a frame stands for
  // their value bytes, 100 x (3 x 8 + 4), compressed or not
  for (const bool compressed : {false, true})
  {
    SCOPED_TRACE(compressed);
    ResetAll();
    sensei::ResetConfig();
    auto host = sensei::ServiceHost::FromString(
      std::string("<sensei><service workers=\"1\" heartbeat_ms=\"200\"/>") +
      (compressed ? "<compress codec=\"shuffle-rle\"/>" : "") +
      "<analysis type=\"column_statistics\" mesh=\"bodies\" "
      "device=\"host\"/></sensei>");
    host->Start();
    sensei::ServiceClient tenant(host->Connect(), "bodies");
    ASSERT_TRUE(tenant.Connect());
    EXPECT_EQ(tenant.Raw().Negotiated().UseCompression, compressed);

    svtkTable *t = svtkTable::New();
    svtkAOSDoubleArray *v = svtkAOSDoubleArray::New("v", 100, 3);
    svtkAOSIntArray *id = svtkAOSIntArray::New("id", 100, 1);
    for (std::size_t i = 0; i < 100; ++i)
    {
      for (int j = 0; j < 3; ++j)
        v->SetVariantValue(i, j, 0.5 * static_cast<double>(i) + j);
      id->SetVariantValue(i, 0, static_cast<double>(i));
    }
    t->AddColumn(v);
    t->AddColumn(id);
    v->Delete();
    id->Delete();
    sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
    da->SetTable(t);
    t->UnRegister();
    EXPECT_TRUE(tenant.Send(da));
    da->ReleaseData();
    da->Delete();

    EXPECT_TRUE(Eventually([&] { return host->FramesExecuted() == 1; }));
    tenant.Close();
    host->Stop();
    EXPECT_EQ(svc::Stats().BytesRaw, 100u * (3 * sizeof(double) + sizeof(int)));
  }
  sensei::ResetConfig();
}

// --- data requirements ------------------------------------------------------

namespace
{
/// Eight columns, of which the service chain below reads four.
svtkTable *MakeWideTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::normal_distribution<double> u(0.0, 0.4);
  svtkTable *t = svtkTable::New();
  for (const char *name : {"x", "y", "z", "vx", "vy", "vz", "m", "speed"})
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, n, 1);
    for (std::size_t i = 0; i < n; ++i)
      c->SetVariantValue(i, 0, name[0] == 'm' ? 0.5 + 0.001 * i : u(gen));
    t->AddColumn(c);
    c->Delete();
  }
  return t;
}

std::string ProjectionXml(const std::string &extra = "")
{
  return R"(<sensei>
  <service workers="1" heartbeat_ms="200"/>
  <compress codec="quantize" error_bound="0.001"/>
  <analysis type="data_binning" mesh="bodies" axes="x,y"
            resolution="16,16" ops="sum,sum" values="m,speed"
            device="host"/>
  <analysis type="histogram" mesh="bodies" column="speed" bins="16"
            device="host"/>
  )" + extra + R"(
</sensei>)";
}

/// Every value the chain's binning and histogram hold, as raw bytes.
std::vector<std::uint8_t> ChainResults(sensei::ServiceHost &host)
{
  std::vector<std::uint8_t> out;
  auto put = [&out](const double *v, std::size_t n)
  {
    const auto *b = reinterpret_cast<const std::uint8_t *>(v);
    out.insert(out.end(), b, b + n * sizeof(double));
  };
  sensei::ConfigurableAnalysis *chain = host.GetChain(0);
  auto *bin = dynamic_cast<sensei::DataBinning *>(chain->GetAnalysis(0));
  auto *hist = dynamic_cast<sensei::Histogram *>(chain->GetAnalysis(1));
  EXPECT_TRUE(bin && hist);
  if (!bin || !hist)
    return out;

  svtkImageData *img = bin->GetLastResult();
  EXPECT_NE(img, nullptr);
  if (img)
  {
    for (int a = 0; a < img->GetPointData()->GetNumberOfArrays(); ++a)
    {
      const svtkDataArray *arr = img->GetPointData()->GetArray(a);
      const std::string &name = arr->GetName();
      out.insert(out.end(), name.begin(), name.end());
      for (std::size_t i = 0; i < arr->GetNumberOfTuples(); ++i)
      {
        const double v = arr->GetVariantValue(i, 0);
        put(&v, 1);
      }
    }
    img->UnRegister();
  }
  std::vector<double> counts;
  double lo = 0.0, hi = 0.0;
  EXPECT_TRUE(hist->GetLastResult(counts, lo, hi));
  put(counts.data(), counts.size());
  put(&lo, 1);
  put(&hi, 1);
  return out;
}

/// The chain's results after each of `steps` frames: projected frames
/// from a sensei::ServiceClient, or full-table frames serialized by hand
/// and sent through a raw svc::Client.
std::vector<std::vector<std::uint8_t>> RunFrames(bool projected, int steps,
                                                 std::uint64_t &wireBytes)
{
  ResetAll();
  sensei::ResetConfig();
  auto host = sensei::ServiceHost::FromString(ProjectionXml());
  host->Start();

  std::unique_ptr<sensei::ServiceClient> tenant;
  std::unique_ptr<svc::Client> raw;
  if (projected)
  {
    tenant = std::make_unique<sensei::ServiceClient>(host->Connect(), "bodies");
    EXPECT_TRUE(tenant->Connect());
  }
  else
  {
    raw = std::make_unique<svc::Client>(host->Connect(), "bodies");
    EXPECT_TRUE(raw->Connect(cmp::GetConfig().Default, true));
  }

  std::vector<std::vector<std::uint8_t>> results;
  for (int s = 0; s < steps; ++s)
  {
    svtkTable *t = MakeWideTable(3000, 400u + static_cast<unsigned>(s));
    if (projected)
    {
      sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
      da->SetTable(t);
      da->SetDataTimeStep(s);
      EXPECT_TRUE(tenant->Send(da));
      da->ReleaseData();
      da->Delete();
    }
    else
    {
      const std::vector<std::uint8_t> payload =
        sensei::SerializeTableCompressed(t, raw->Negotiated().Codec);
      EXPECT_TRUE(raw->SendFrame(static_cast<std::uint64_t>(s),
                                 payload.data(), payload.size(),
                                 3000 * 8 * sizeof(double), true));
    }
    t->UnRegister();
    EXPECT_TRUE(Eventually([&] { return host->FramesExecuted() == s + 1; }));
    results.push_back(ChainResults(*host));
  }

  if (tenant)
    tenant->Close();
  if (raw)
    raw->Close();
  host->Stop();
  wireBytes = svc::Stats().BytesWire;
  return results;
}
} // namespace

TEST(ServiceProjection, GridsAndHistogramMatchFullTableFrames)
{
  // the chain reads x, y, m and speed: a tenant granted those four ships
  // half the table, and the service computes byte-equal grids and
  // histograms from it
  std::uint64_t fullBytes = 0, projectedBytes = 0;
  const auto full = RunFrames(false, 3, fullBytes);
  const auto projected = RunFrames(true, 3, projectedBytes);
  ASSERT_EQ(full.size(), 3u);
  ASSERT_EQ(projected.size(), 3u);
  for (std::size_t s = 0; s < full.size(); ++s)
  {
    EXPECT_FALSE(full[s].empty());
    EXPECT_EQ(projected[s], full[s]) << "step " << s;
  }
  EXPECT_LT(projectedBytes, fullBytes * 3 / 4);
}

TEST(ServiceProjection, WelcomeGrantsTheChainsColumns)
{
  ResetAll();
  sensei::ResetConfig();
  auto host = sensei::ServiceHost::FromString(ProjectionXml(
    R"(<analysis type="column_statistics" mesh="bodies" columns="vz,x"/>
       <analysis type="autocorrelation" mesh="bodies" column="vy"/>)"));
  host->Start();

  sensei::ServiceClient bodies(host->Connect(), "bodies");
  ASSERT_TRUE(bodies.Connect());
  const auto &cols = bodies.Raw().Negotiated().Columns;
  ASSERT_TRUE(cols.has_value());
  EXPECT_EQ(*cols,
            (std::vector<std::string>{"m", "speed", "vy", "vz", "x", "y"}));

  // a mesh no analysis reads is granted no column, and its frames carry
  // an empty table
  sensei::ServiceClient other(host->Connect(), "other");
  ASSERT_TRUE(other.Connect());
  ASSERT_TRUE(other.Raw().Negotiated().Columns.has_value());
  EXPECT_TRUE(other.Raw().Negotiated().Columns->empty());
  svtkTable *t = MakeWideTable(100, 3u);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("other");
  da->SetTable(t);
  t->UnRegister();
  EXPECT_TRUE(other.Send(da));
  da->ReleaseData();
  da->Delete();
  EXPECT_TRUE(Eventually([&] { return host->FramesExecuted() == 1; }));
  EXPECT_LT(svc::Stats().BytesWire, 200u);

  bodies.Close();
  other.Close();
  host->Stop();
}

TEST(ServiceProjection, AnyColumnBackEndsAreGrantedEveryColumn)
{
  // back ends that read whatever the mesh holds (or may be steered to)
  // answer "any column", and one of them in the chain grants everything
  const char *anyColumn[] = {
    R"(<analysis type="posthoc_io" mesh="bodies" frequency="0"/>)",
    R"(<analysis type="render" mesh="bodies" device="host"/>)",
    R"(<analysis type="column_statistics" mesh="bodies"/>)"};
  for (const char *extra : anyColumn)
  {
    ResetAll();
    sensei::ResetConfig();
    auto host = sensei::ServiceHost::FromString(ProjectionXml(extra));
    host->Start();
    sensei::ServiceClient tenant(host->Connect(), "bodies");
    ASSERT_TRUE(tenant.Connect()) << extra;
    EXPECT_FALSE(tenant.Raw().Negotiated().Columns.has_value()) << extra;
    tenant.Close();
    host->Stop();
  }
}

TEST(ServiceProjection, ShortWelcomeGrantsEveryColumn)
{
  // a Welcome without the list (a server with no grant, or an older
  // one) ends at byte 32 and means every column
  svc::WelcomeInfo w;
  w.Session = 9;
  std::vector<std::uint8_t> b = svc::EncodeWelcome(w);
  ASSERT_EQ(b.size(), 32u);
  EXPECT_FALSE(svc::DecodeWelcome(b.data(), b.size()).Columns.has_value());

  // an empty list is not "every column"
  w.Columns.emplace();
  b = svc::EncodeWelcome(w);
  ASSERT_EQ(b.size(), 36u);
  const svc::WelcomeInfo d = svc::DecodeWelcome(b.data(), b.size());
  ASSERT_TRUE(d.Columns.has_value());
  EXPECT_TRUE(d.Columns->empty());
}

// --- XML configuration ------------------------------------------------------

TEST(SvcXml, ServiceElementConfiguresAndEnvWins)
{
  ResetAll();
  auto *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(R"(
    <sensei>
      <service max_sessions="3" workers="2" queue_depth="7"
               backpressure="drop-oldest" policy="cost-model"
               heartbeat_ms="123" codec="quantize"
               codec_error_bound="0.01"/>
    </sensei>)");
  ca->UnRegister();

  svc::ServiceConfig cfg = svc::GetConfig();
  EXPECT_EQ(cfg.MaxSessions, 3);
  EXPECT_EQ(cfg.Workers, 2);
  EXPECT_EQ(cfg.QueueDepth, 7);
  EXPECT_EQ(cfg.Pressure, sched::Backpressure::DropOldest);
  EXPECT_EQ(cfg.Policy, sched::PolicyKind::CostModel);
  EXPECT_EQ(cfg.HeartbeatMs, 123);
  ASSERT_TRUE(cfg.HaveCodecOverride);
  EXPECT_EQ(cfg.CodecOverride.Codec, cmp::CodecId::Quantize);
  EXPECT_DOUBLE_EQ(cfg.CodecOverride.ErrorBound, 0.01);

  // the environment beats the document, VP_EXEC-style
  ::setenv("VP_SVC_QUEUE_DEPTH", "9", 1);
  ::setenv("VP_SVC_BACKPRESSURE", "coalesce", 1);
  auto *ca2 = sensei::ConfigurableAnalysis::New();
  ca2->InitializeString(R"(
    <sensei>
      <service queue_depth="7" backpressure="drop-oldest"/>
    </sensei>)");
  ca2->UnRegister();
  ::unsetenv("VP_SVC_QUEUE_DEPTH");
  ::unsetenv("VP_SVC_BACKPRESSURE");

  cfg = svc::GetConfig();
  EXPECT_EQ(cfg.QueueDepth, 9);
  EXPECT_EQ(cfg.Pressure, sched::Backpressure::Coalesce);

  // nonsense is rejected loudly
  auto *ca3 = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(ca3->InitializeString(R"(
    <sensei><service max_sessions="0"/></sensei>)"),
               std::runtime_error);
  ca3->UnRegister();
}
