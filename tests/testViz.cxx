// Tests for the steerable visualization endpoint (src/viz): the
// transfer function on handcrafted grids (NaN / empty bins, log and
// linear scaling, range clamping), the steer / frame payload wire
// encodings with truncation detection, the process-wide <viz>
// configuration and the frame-age reservoir, multi-viewer fan-out over
// the service transport (drop-oldest under a slow viewer, per-viewer
// downsample/codec overrides, one crashing viewer leaving survivors
// unaffected), steer versioning with stale-command discard, the render
// analysis' bit-exact equality across serial/threads execution, steering
// applied at step boundaries, and the <viz> XML element with its
// VP_VIZ_* environment overrides.

#include "cmpCodec.h"
#include "execEngine.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataAdaptor.h"
#include "senseiProfiler.h"
#include "svcClient.h"
#include "svcServer.h"
#include "svcSession.h"
#include "svcWire.h"
#include "svtkAOSDataArray.h"
#include "svtkDataObject.h"
#include "vcuda.h"
#include "vizConfig.h"
#include "vizRender.h"
#include "vizStreamer.h"
#include "vizTransfer.h"
#include "vizWire.h"
#include "vomp.h"
#include "vpFaultInjector.h"
#include "vpLoadTracker.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace
{

const double kNaN = std::numeric_limits<double>::quiet_NaN();

void ResetViz()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vomp::SetDefaultDevice(0);
  vp::fault::Reset();
  svc::Configure(svc::ServiceConfig{});
  svc::ResetStats();
  viz::Configure(viz::VizConfig{});
  viz::ResetStats();
  vp::exec::Configure(vp::exec::ExecConfig());
}

svc::ServiceConfig FastConfig()
{
  svc::ServiceConfig cfg;
  cfg.HeartbeatMs = 20; // keep liveness-dependent tests quick
  return cfg;
}

void ConfigureThreads(std::size_t grain = 256, int threads = 3)
{
  vp::exec::ExecConfig cfg;
  cfg.ExecMode = vp::exec::Mode::Threads;
  cfg.Threads = threads;
  cfg.ShardGrain = grain;
  vp::exec::Configure(cfg);
}

void ConfigureSerial()
{
  vp::exec::Configure(vp::exec::ExecConfig());
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

/// Rows with known values: x,y uniform in [-1,1], v integer valued so
/// per-bin sums are exact in any accumulation order — framebuffer
/// equality between execution modes can be asserted bitwise.
svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);

  std::vector<double> xs(n), ys(n), vs(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    xs[i] = u(gen);
    ys[i] = u(gen);
    vs[i] = std::floor(8.0 * (xs[i] + 2.0 * ys[i]));
  }

  svtkTable *t = svtkTable::New();
  auto add = [t](const char *name, const std::vector<double> &v)
  {
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(name, v.size(), 1);
    c->GetVector() = v;
    t->AddColumn(c);
    c->Delete();
  };
  add("x", xs);
  add("y", ys);
  add("v", vs);
  return t;
}

std::vector<double> GridValues(svtkImageData *img, const std::string &name)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  EXPECT_NE(a, nullptr) << name;
  std::vector<double> out(a ? a->GetNumberOfTuples() : 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->GetVariantValue(i, 0);
  return out;
}

/// Distinct, mildly compressible RGBA pixels for streaming tests.
std::vector<std::uint8_t> Gradient(std::uint32_t w, std::uint32_t h)
{
  std::vector<std::uint8_t> px(std::size_t(4) * w * h);
  for (std::size_t i = 0; i < px.size(); ++i)
    px[i] = static_cast<std::uint8_t>((i * 31u) & 0xFF);
  return px;
}

viz::FrameInfo MakeFrame(std::uint32_t w, std::uint32_t h,
                         std::uint64_t step)
{
  viz::FrameInfo fi;
  fi.Width = w;
  fi.Height = h;
  fi.Step = step;
  fi.Map = viz::Colormap::Viridis;
  fi.Variable = "count";
  fi.RenderTime = 1.0;
  return fi;
}

} // namespace

// --- transfer function ------------------------------------------------------

TEST(VizTransfer, ColormapNamesRoundTrip)
{
  for (viz::Colormap m :
       {viz::Colormap::Gray, viz::Colormap::Viridis, viz::Colormap::Heat})
    EXPECT_EQ(viz::ColormapFromName(viz::ColormapName(m)), m);
  EXPECT_EQ(viz::ColormapFromName("grey"), viz::Colormap::Gray);
  EXPECT_THROW(viz::ColormapFromName("plasma"), std::invalid_argument);
}

TEST(VizTransfer, NormalizeClampsScalesAndFlagsNaN)
{
  viz::TransferFunction tf;
  tf.Lo = 2.0;
  tf.Hi = 6.0;

  EXPECT_LT(viz::Normalize(kNaN, tf), 0.0); // transparent sentinel
  EXPECT_DOUBLE_EQ(viz::Normalize(1.0, tf), 0.0);  // below range clamps
  EXPECT_DOUBLE_EQ(viz::Normalize(9.0, tf), 1.0);  // above range clamps
  EXPECT_DOUBLE_EQ(viz::Normalize(4.0, tf), 0.5);  // linear midpoint

  viz::TransferFunction lg;
  lg.Lo = 1.0;
  lg.Hi = 100.0;
  lg.Log = true;
  EXPECT_DOUBLE_EQ(viz::Normalize(10.0, lg), 0.5); // log midpoint
  EXPECT_DOUBLE_EQ(viz::Normalize(0.0, lg), 0.0);  // <= 0 clamps to bottom
  EXPECT_DOUBLE_EQ(viz::Normalize(-5.0, lg), 0.0);

  viz::TransferFunction flat;
  flat.Lo = 3.0;
  flat.Hi = 3.0; // degenerate range never divides by zero
  EXPECT_DOUBLE_EQ(viz::Normalize(3.0, flat), 0.0);
}

TEST(VizTransfer, ShadeEndpointsAndTransparency)
{
  std::uint8_t px[4];

  viz::TransferFunction gray;
  gray.Map = viz::Colormap::Gray;
  gray.Lo = 0.0;
  gray.Hi = 1.0;

  viz::Shade(kNaN, gray, px); // empty bin: fully transparent black
  EXPECT_EQ(px[0], 0);
  EXPECT_EQ(px[1], 0);
  EXPECT_EQ(px[2], 0);
  EXPECT_EQ(px[3], 0);

  viz::Shade(0.0, gray, px);
  EXPECT_EQ(px[0], 0);
  EXPECT_EQ(px[3], 255);
  viz::Shade(1.0, gray, px);
  EXPECT_EQ(px[0], 255);
  EXPECT_EQ(px[1], 255);
  viz::Shade(0.5, gray, px); // linear interpolation, round-to-nearest
  EXPECT_EQ(px[0], 128);

  viz::TransferFunction vir; // viridis LUT endpoints
  vir.Lo = 0.0;
  vir.Hi = 1.0;
  viz::Shade(0.0, vir, px);
  EXPECT_EQ(px[0], 68);
  EXPECT_EQ(px[1], 1);
  EXPECT_EQ(px[2], 84);
  viz::Shade(1.0, vir, px);
  EXPECT_EQ(px[0], 253);
  EXPECT_EQ(px[1], 231);
  EXPECT_EQ(px[2], 37);
}

TEST(VizTransfer, GridRangeSkipsNaNAndWidensFlat)
{
  double lo = -99.0, hi = -99.0;

  const double g1[] = {kNaN, 3.0, 1.0, 2.0};
  EXPECT_TRUE(viz::GridRange(g1, 4, lo, hi));
  EXPECT_DOUBLE_EQ(lo, 1.0);
  EXPECT_DOUBLE_EQ(hi, 3.0);

  const double g2[] = {kNaN, kNaN};
  lo = -99.0;
  hi = -99.0;
  EXPECT_FALSE(viz::GridRange(g2, 2, lo, hi));
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 1.0);

  const double g3[] = {2.0, 2.0, 2.0}; // flat grid widens
  EXPECT_TRUE(viz::GridRange(g3, 3, lo, hi));
  EXPECT_DOUBLE_EQ(lo, 2.0);
  EXPECT_GT(hi, lo);
}

TEST(VizTransfer, FillPixelsNearestSamplingAndEmptyBins)
{
  // 2x2 grid upscaled to 4x4: each quadrant samples one bin; the NaN
  // bin (bottom-right) shades fully transparent
  const double grid[] = {0.0, 1.0, 2.0, kNaN};
  viz::TransferFunction tf;
  tf.Map = viz::Colormap::Gray;
  tf.Lo = 0.0;
  tf.Hi = 2.0;

  std::vector<std::uint8_t> img(4 * 4 * 4, 0xAA);
  viz::FillPixels(img.data(), 0, 16, 4, 4, grid, 2, 2, tf);

  for (std::uint32_t y = 0; y < 4; ++y)
    for (std::uint32_t x = 0; x < 4; ++x)
    {
      const std::uint32_t gx = x * 2 / 4, gy = y * 2 / 4;
      std::uint8_t want[4];
      viz::Shade(grid[gy * 2 + gx], tf, want);
      const std::uint8_t *got = img.data() + 4 * (y * 4 + x);
      EXPECT_EQ(0, std::memcmp(got, want, 4)) << "pixel " << x << "," << y;
    }

  // the NaN quadrant really is transparent
  EXPECT_EQ(img[4 * (3 * 4 + 3) + 3], 0);

  // a partial range only touches its own bytes (shardability)
  std::vector<std::uint8_t> part(4 * 4 * 4, 0xAA);
  viz::FillPixels(part.data(), 0, 8, 4, 4, grid, 2, 2, tf);
  EXPECT_EQ(0, std::memcmp(part.data(), img.data(), 8 * 4));
  for (std::size_t i = 8 * 4; i < part.size(); ++i)
    EXPECT_EQ(part[i], 0xAA) << i;
}

TEST(VizTransfer, DownsampleNearestNeighbor)
{
  std::vector<std::uint8_t> src(4 * 4 * 4);
  for (std::size_t p = 0; p < 16; ++p)
  {
    src[4 * p + 0] = static_cast<std::uint8_t>(p);
    src[4 * p + 1] = static_cast<std::uint8_t>(p + 100);
    src[4 * p + 2] = static_cast<std::uint8_t>(p + 200);
    src[4 * p + 3] = 255;
  }

  std::vector<std::uint8_t> dst(2 * 2 * 4);
  viz::Downsample(src.data(), 4, 4, dst.data(), 2, 2);

  const std::size_t picks[] = {0, 2, 8, 10}; // sx = dx*4/2, sy = dy*4/2
  for (std::size_t d = 0; d < 4; ++d)
    EXPECT_EQ(0, std::memcmp(dst.data() + 4 * d, src.data() + 4 * picks[d],
                             4))
      << d;
}

// --- wire payloads ----------------------------------------------------------

TEST(VizWire, SteerCommandRoundTripAndTruncation)
{
  viz::SteerCommand c;
  c.Version = 9;
  c.Have = viz::kSteerImageSize | viz::kSteerBinRes | viz::kSteerVariable |
           viz::kSteerColormap | viz::kSteerLog | viz::kSteerRange |
           viz::kSteerAxes | viz::kSteerDevice;
  c.Width = 320;
  c.Height = 200;
  c.BinResolution = 48;
  c.Variable = "speed";
  c.Op = "max";
  c.Map = viz::Colormap::Heat;
  c.Log = true;
  c.Lo = -2.5;
  c.Hi = 7.25;
  c.Axes = "x,z";
  c.Device = 1;

  const std::vector<std::uint8_t> buf = viz::EncodeSteer(c);
  const viz::SteerCommand d = viz::DecodeSteer(buf.data(), buf.size());
  EXPECT_EQ(d.Version, c.Version);
  EXPECT_EQ(d.Have, c.Have);
  EXPECT_EQ(d.Width, c.Width);
  EXPECT_EQ(d.Height, c.Height);
  EXPECT_EQ(d.BinResolution, c.BinResolution);
  EXPECT_EQ(d.Variable, c.Variable);
  EXPECT_EQ(d.Op, c.Op);
  EXPECT_EQ(d.Map, c.Map);
  EXPECT_EQ(d.Log, c.Log);
  EXPECT_DOUBLE_EQ(d.Lo, c.Lo);
  EXPECT_DOUBLE_EQ(d.Hi, c.Hi);
  EXPECT_EQ(d.Axes, c.Axes);
  EXPECT_EQ(d.Device, c.Device);

  EXPECT_THROW(viz::DecodeSteer(buf.data(), 0), std::runtime_error);
  EXPECT_THROW(viz::DecodeSteer(buf.data(), 4), std::runtime_error);
  EXPECT_THROW(viz::DecodeSteer(buf.data(), buf.size() - 1),
               std::runtime_error);
}

TEST(VizWire, FramePayloadRoundTripAndTruncation)
{
  viz::FrameInfo fi;
  fi.Width = 5;
  fi.Height = 3;
  fi.Step = 77;
  fi.Version = 4;
  fi.Map = viz::Colormap::Gray;
  fi.Variable = "v_sum";
  fi.RenderTime = 12.5;

  const std::vector<std::uint8_t> px = Gradient(5, 3);
  const std::vector<std::uint8_t> buf =
    viz::EncodeFramePayload(fi, px.data(), px.size());

  std::size_t off = 0;
  const viz::FrameInfo d = viz::DecodeFrameInfo(buf.data(), buf.size(), off);
  EXPECT_EQ(d.Width, 5u);
  EXPECT_EQ(d.Height, 3u);
  EXPECT_EQ(d.Step, 77u);
  EXPECT_EQ(d.Version, 4u);
  EXPECT_EQ(d.Map, viz::Colormap::Gray);
  EXPECT_EQ(d.Variable, "v_sum");
  EXPECT_DOUBLE_EQ(d.RenderTime, 12.5);
  ASSERT_EQ(buf.size() - off, px.size());
  EXPECT_EQ(0, std::memcmp(buf.data() + off, px.data(), px.size()));

  EXPECT_THROW(viz::DecodeFrameInfo(buf.data(), 4, off), std::runtime_error);
}

// --- configuration and counters ---------------------------------------------

TEST(VizConfig, ValidatesAndRoundTrips)
{
  ResetViz();

  viz::VizConfig cfg;
  cfg.Width = 128;
  cfg.Height = 64;
  cfg.Map = viz::Colormap::Heat;
  cfg.Log = true;
  cfg.AutoRange = false;
  cfg.Lo = 0.0;
  cfg.Hi = 10.0;
  cfg.Codec.Codec = cmp::CodecId::ShuffleRLE;
  viz::ViewerOverride ov;
  ov.Width = 32;
  ov.Height = 32;
  cfg.Viewers.push_back(ov);
  viz::Configure(cfg);

  const viz::VizConfig back = viz::GetConfig();
  EXPECT_EQ(back.Width, 128u);
  EXPECT_EQ(back.Height, 64u);
  EXPECT_EQ(back.Map, viz::Colormap::Heat);
  EXPECT_TRUE(back.Log);
  EXPECT_FALSE(back.AutoRange);
  EXPECT_DOUBLE_EQ(back.Hi, 10.0);
  EXPECT_EQ(back.Codec.Codec, cmp::CodecId::ShuffleRLE);
  ASSERT_EQ(back.Viewers.size(), 1u);
  EXPECT_EQ(back.Viewers[0].Width, 32u);

  viz::VizConfig bad = back;
  bad.Width = 0;
  EXPECT_THROW(viz::Configure(bad), std::invalid_argument);

  bad = back;
  bad.AutoRange = false;
  bad.Lo = 5.0;
  bad.Hi = 5.0;
  EXPECT_THROW(viz::Configure(bad), std::invalid_argument);

  bad = back;
  bad.Codec.Codec = cmp::CodecId::Quantize; // lossy on u8 pixels: refused
  EXPECT_THROW(viz::Configure(bad), std::invalid_argument);

  viz::Configure(viz::VizConfig{});
}

TEST(VizConfig, FrameAgeReservoirComputesP99)
{
  ResetViz();

  for (int i = 1; i <= 200; ++i)
    viz::RecordFrameAge(0.001 * i); // 1ms .. 200ms

  const viz::VizStats s = viz::Stats();
  EXPECT_EQ(s.FrameAgeCount, 200u);
  EXPECT_GE(s.FrameAgeMaxUs, 199000u);
  EXPECT_LE(s.FrameAgeMaxUs, 201000u);
  EXPECT_GE(s.FrameAgeP99Us, 190000u); // sorted[p99] near the top
  EXPECT_LE(s.FrameAgeP99Us, s.FrameAgeMaxUs);

  viz::ResetStats();
  EXPECT_EQ(viz::Stats().FrameAgeCount, 0u);
  EXPECT_EQ(viz::Stats().FrameAgeP99Us, 0u);
}

// --- streaming fan-out ------------------------------------------------------

TEST(VizStreamer, FanOutDeliversToEveryViewer)
{
  ResetViz();

  viz::Streamer st(FastConfig());
  st.Start();

  std::vector<std::unique_ptr<svc::Client>> viewers;
  for (int i = 0; i < 3; ++i)
  {
    auto c = std::make_unique<svc::Client>(st.Connect(),
                                           "viz:viewer" + std::to_string(i));
    ASSERT_TRUE(c->Connect(cmp::Params{}, false));
    c->StartHeartbeats();
    viewers.push_back(std::move(c));
  }
  ASSERT_TRUE(Eventually([&] { return st.ActiveViewers() == 3; }));

  const viz::FrameInfo fi = MakeFrame(8, 8, 5);
  const std::vector<std::uint8_t> px = Gradient(8, 8);
  EXPECT_EQ(st.Publish(fi, px.data()), 3);

  for (auto &c : viewers)
  {
    svc::Frame f;
    ASSERT_TRUE(Eventually([&] { return c->Poll(f, 0.05); }));
    EXPECT_EQ(f.Header.Kind, svc::FrameKind::Push);
    EXPECT_EQ(f.Header.Step, 5u);
    EXPECT_FALSE(f.Header.Flags & svc::kFrameFlagCompressed);

    std::size_t off = 0;
    const viz::FrameInfo d =
      viz::DecodeFrameInfo(f.Payload.data(), f.Payload.size(), off);
    EXPECT_EQ(d.Width, 8u);
    EXPECT_EQ(d.Height, 8u);
    EXPECT_EQ(d.Variable, "count");
    ASSERT_EQ(f.Payload.size() - off, px.size());
    EXPECT_EQ(0, std::memcmp(f.Payload.data() + off, px.data(), px.size()));
  }

  EXPECT_EQ(viz::Stats().FramesPublished, 3u);

  // the heartbeat RTT satellite: acks flow back, the client measures the
  // round trip and reports it on the next beat, the server tracks it
  ASSERT_TRUE(Eventually(
    [&]
    {
      svc::Frame f;
      viewers[0]->Poll(f, 0.0); // absorb pending acks
      return viewers[0]->LastRttUs() > 0;
    }));
  ASSERT_TRUE(Eventually(
    [&]
    { return st.Service().SessionRttUs(viewers[0]->SessionId()) > 0; }));
  EXPECT_GE(svc::Stats().RttCount, 1u);

  for (auto &c : viewers)
    c->Close();
  st.Stop();
}

TEST(VizStreamer, SlowViewerDropsOldestAndNeverStallsThePublisher)
{
  ResetViz();

  svc::ServiceConfig cfg = FastConfig();
  cfg.PushDepth = 2;
  cfg.RingBytes = 32u * 1024;
  cfg.MaxChunkBytes = 8u * 1024;

  viz::Streamer st(cfg);
  st.Start();

  svc::Client viewer(st.Connect(), "viz:slow");
  ASSERT_TRUE(viewer.Connect(cmp::Params{}, false));
  viewer.StartHeartbeats();
  ASSERT_TRUE(Eventually([&] { return st.ActiveViewers() == 1; }));

  // a viewer that never polls: the ring fills, the outbox caps at
  // PushDepth, and every further publish drops the oldest queued frame
  // instead of blocking the publisher
  const std::vector<std::uint8_t> px = Gradient(64, 64); // 16 KiB frames
  for (std::uint64_t s = 0; s < 100; ++s)
    st.Publish(MakeFrame(64, 64, s), px.data());

  EXPECT_GT(svc::Stats().PushDrops, 0u);

  // the viewer wakes up and still converges on the freshest frame
  st.Publish(MakeFrame(64, 64, 999), px.data());
  std::uint64_t lastStep = 0;
  ASSERT_TRUE(Eventually(
    [&]
    {
      svc::Frame f;
      while (viewer.Poll(f, 0.0))
        lastStep = f.Header.Step;
      return lastStep == 999u;
    }));

  viewer.Close();
  st.Stop();
}

TEST(VizStreamer, SteerVersioningHighestWinsStaleDiscarded)
{
  ResetViz();

  viz::Streamer st(FastConfig());
  st.Start();

  svc::Client viewer(st.Connect(), "viz:pilot");
  ASSERT_TRUE(viewer.Connect(cmp::Params{}, false));
  viewer.StartHeartbeats();
  ASSERT_TRUE(Eventually([&] { return st.ActiveViewers() == 1; }));

  viz::SteerCommand c;
  c.Have = viz::kSteerBinRes;
  c.BinResolution = 8;

  // version 2 lands and is taken
  c.Version = 2;
  std::vector<std::uint8_t> buf = viz::EncodeSteer(c);
  ASSERT_TRUE(viewer.SendSteer(buf.data(), buf.size(), c.Version));
  viz::SteerCommand got;
  ASSERT_TRUE(Eventually([&] { return st.TakeSteer(got); }));
  EXPECT_EQ(got.Version, 2u);
  EXPECT_EQ(got.BinResolution, 8);
  EXPECT_EQ(st.AppliedVersion(), 2u);

  // a stale (reordered) version 1 is discarded, never taken
  c.Version = 1;
  buf = viz::EncodeSteer(c);
  ASSERT_TRUE(viewer.SendSteer(buf.data(), buf.size(), c.Version));
  ASSERT_TRUE(Eventually([&] { return viz::Stats().SteersStale >= 1; }));
  viz::SteerCommand none;
  EXPECT_FALSE(st.TakeSteer(none));

  // two quick commands: the highest version wins the pending slot
  c.Version = 3;
  c.BinResolution = 16;
  buf = viz::EncodeSteer(c);
  ASSERT_TRUE(viewer.SendSteer(buf.data(), buf.size(), c.Version));
  c.Version = 5;
  c.BinResolution = 32;
  buf = viz::EncodeSteer(c);
  ASSERT_TRUE(viewer.SendSteer(buf.data(), buf.size(), c.Version));

  viz::SteerCommand last;
  ASSERT_TRUE(Eventually(
    [&]
    {
      viz::SteerCommand t;
      if (st.TakeSteer(t))
        last = t;
      return last.Version == 5u;
    }));
  EXPECT_EQ(last.BinResolution, 32);
  EXPECT_EQ(st.AppliedVersion(), 5u);
  EXPECT_GE(svc::Stats().Steers, 4u);

  viewer.Close();
  st.Stop();
}

TEST(VizStreamer, CrashedViewerLeavesSurvivorsStreaming)
{
  ResetViz();

  viz::Streamer st(FastConfig());
  st.Start();

  auto a = std::make_unique<svc::Client>(st.Connect(), "viz:a");
  auto b = std::make_unique<svc::Client>(st.Connect(), "viz:b");
  auto c = std::make_unique<svc::Client>(st.Connect(), "viz:c");
  for (svc::Client *v : {a.get(), b.get(), c.get()})
  {
    ASSERT_TRUE(v->Connect(cmp::Params{}, false));
    v->StartHeartbeats();
  }
  ASSERT_TRUE(Eventually([&] { return st.ActiveViewers() == 3; }));

  const std::vector<std::uint8_t> px = Gradient(8, 8);
  b->Crash(); // rings die, nothing announced

  // keep publishing across the death; the survivors keep receiving
  std::uint64_t step = 0;
  auto sawFrame = [&](svc::Client &v, std::uint64_t atLeast)
  {
    svc::Frame f;
    std::uint64_t last = 0;
    return Eventually(
      [&]
      {
        st.Publish(MakeFrame(8, 8, ++step), px.data());
        while (v.Poll(f, 0.01))
          last = f.Header.Step;
        return last >= atLeast;
      });
  };
  EXPECT_TRUE(sawFrame(*a, 1));
  EXPECT_TRUE(sawFrame(*c, 1));

  // the dead viewer's slot is reclaimed on its heartbeat budget
  ASSERT_TRUE(Eventually([&] { return st.ActiveViewers() == 2; }));

  // and the survivors are still live after the reap
  const std::uint64_t mark = step + 1000;
  step = mark;
  EXPECT_TRUE(sawFrame(*a, mark + 1));
  EXPECT_TRUE(sawFrame(*c, mark + 1));

  a->Close();
  c->Close();
  st.Stop();
}

TEST(VizStreamer, PerViewerOverridesDownsampleAndCompress)
{
  ResetViz();

  viz::VizConfig vcfg;
  viz::ViewerOverride small; // first admitted viewer: quarter resolution
  small.Width = 4;
  small.Height = 4;
  vcfg.Viewers.push_back(small);
  viz::ViewerOverride packed; // second: compressed image frames
  packed.HaveCodec = true;
  packed.Codec.Codec = cmp::CodecId::ShuffleRLE;
  vcfg.Viewers.push_back(packed);
  viz::Configure(vcfg);

  viz::Streamer st(FastConfig());
  st.Start();

  // sequential connects make the admission order deterministic
  svc::Client lo(st.Connect(), "viz:lofi");
  ASSERT_TRUE(lo.Connect(cmp::Params{}, false));
  lo.StartHeartbeats();
  ASSERT_TRUE(Eventually([&] { return st.ActiveViewers() == 1; }));

  svc::Client hi(st.Connect(), "viz:packed");
  ASSERT_TRUE(hi.Connect(cmp::Params{}, false));
  hi.StartHeartbeats();
  ASSERT_TRUE(Eventually([&] { return st.ActiveViewers() == 2; }));

  const std::vector<std::uint8_t> px = Gradient(8, 8);
  EXPECT_EQ(st.Publish(MakeFrame(8, 8, 1), px.data()), 2);

  // viewer 0: downsampled to its override, raw pixels
  {
    svc::Frame f;
    ASSERT_TRUE(Eventually([&] { return lo.Poll(f, 0.05); }));
    EXPECT_FALSE(f.Header.Flags & svc::kFrameFlagCompressed);
    std::size_t off = 0;
    const viz::FrameInfo d =
      viz::DecodeFrameInfo(f.Payload.data(), f.Payload.size(), off);
    EXPECT_EQ(d.Width, 4u);
    EXPECT_EQ(d.Height, 4u);

    std::vector<std::uint8_t> want(4 * 4 * 4);
    viz::Downsample(px.data(), 8, 8, want.data(), 4, 4);
    ASSERT_EQ(f.Payload.size() - off, want.size());
    EXPECT_EQ(0,
              std::memcmp(f.Payload.data() + off, want.data(), want.size()));
  }

  // viewer 1: full resolution, pixels as one self-describing cmp chunk
  {
    svc::Frame f;
    ASSERT_TRUE(Eventually([&] { return hi.Poll(f, 0.05); }));
    EXPECT_TRUE(f.Header.Flags & svc::kFrameFlagCompressed);
    std::size_t off = 0;
    const viz::FrameInfo d =
      viz::DecodeFrameInfo(f.Payload.data(), f.Payload.size(), off);
    EXPECT_EQ(d.Width, 8u);
    EXPECT_EQ(d.Height, 8u);

    std::vector<std::uint8_t> out(px.size());
    cmp::ChunkInfo info;
    const std::size_t used =
      cmp::DecodeChunk(f.Payload.data() + off, f.Payload.size() - off,
                       out.data(), out.size(), &info);
    EXPECT_EQ(used, f.Payload.size() - off);
    EXPECT_EQ(info.RawBytes, px.size());
    EXPECT_EQ(out, px);
  }

  lo.Close();
  hi.Close();
  st.Stop();
}

// --- the render analysis ----------------------------------------------------

namespace
{

/// Configure a render analysis over the shared test table.
viz::RenderAnalysis *MakeRender(long binRes, std::uint32_t w,
                                std::uint32_t h)
{
  viz::RenderAnalysis *r = viz::RenderAnalysis::New();
  r->SetMeshName("bodies");
  r->SetAxes({"x", "y"});
  r->SetBinResolution(binRes);
  r->SetBinRange(0, -1.0, 1.0);
  r->SetBinRange(1, -1.0, 1.0);
  r->SetVariable("v", "sum");
  r->SetImageSize(w, h);
  viz::TransferFunction tf;
  tf.Map = viz::Colormap::Viridis;
  tf.AutoRange = true;
  r->SetTransfer(tf);
  return r;
}

/// Drive a render analysis for `steps` steps with a fresh table per step
/// and return each step's framebuffer.
std::vector<std::vector<std::uint8_t>> RunRenderSteps(bool threads,
                                                      int steps = 3)
{
  ResetViz();
  if (threads)
    ConfigureThreads();
  else
    ConfigureSerial();

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  viz::RenderAnalysis *r = MakeRender(16, 32, 32);
  r->SetDeviceId(0); // the device path: upload, fill, readback

  std::vector<std::vector<std::uint8_t>> out;
  for (int s = 0; s < steps; ++s)
  {
    svtkTable *t = MakeTable(2000, 90u + static_cast<unsigned>(s));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    da->SetDataTime(0.01 * s);

    EXPECT_TRUE(r->Execute(da));
    out.push_back(r->GetFramebuffer());
  }
  EXPECT_EQ(r->Finalize(), 0);

  r->Delete();
  da->ReleaseData();
  da->Delete();
  ConfigureSerial();
  return out;
}

} // namespace

TEST(VizRender, FramebufferMatchesDirectFillOfTheBinningGrid)
{
  ResetViz();
  ConfigureSerial();

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  viz::RenderAnalysis *r = MakeRender(8, 16, 16);
  r->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);

  svtkTable *t = MakeTable(2000, 7u);
  da->SetTable(t);
  t->Delete();
  da->SetDataTimeStep(0);

  ASSERT_TRUE(r->Execute(da));
  const std::vector<std::uint8_t> fb = r->GetFramebuffer();
  ASSERT_EQ(fb.size(), std::size_t(16 * 16 * 4));
  EXPECT_EQ(r->GetRenderCount(), 1u);

  // reference: pull the binning grid and shade it directly
  svtkImageData *img = r->GetBinning()->GetLastResult();
  ASSERT_NE(img, nullptr);
  const std::vector<double> grid = GridValues(img, "v_sum");
  img->UnRegister();
  ASSERT_EQ(grid.size(), std::size_t(8 * 8));

  viz::TransferFunction tf = r->GetTransfer();
  ASSERT_TRUE(tf.AutoRange);
  viz::GridRange(grid.data(), grid.size(), tf.Lo, tf.Hi);
  tf.AutoRange = false;

  std::vector<std::uint8_t> want(16 * 16 * 4);
  viz::FillPixels(want.data(), 0, 16 * 16, 16, 16, grid.data(), 8, 8, tf);
  EXPECT_EQ(fb, want);

  EXPECT_GE(viz::Stats().FramesRendered, 1u);

  EXPECT_EQ(r->Finalize(), 0);
  r->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(VizRender, HostPlacementAlsoPlacesTheBinning)
{
  // an explicit host placement, by SetDeviceId or by the XML device
  // attribute, places the render's binning too: the execute launches no
  // kernel anywhere, and the framebuffer is the direct fill of its grid
  for (const bool fromXml : {false, true})
  {
    ResetViz();
    ConfigureSerial();

    sensei::ConfigurableAnalysis *ca = nullptr;
    viz::RenderAnalysis *r = nullptr;
    if (fromXml)
    {
      ca = sensei::ConfigurableAnalysis::New();
      ca->InitializeString(R"(
        <sensei>
          <analysis type="render" mesh="bodies" axes="x,y" resolution="8"
                    variable="v" op="sum" width="16" height="16"
                    colormap="viridis" device="host"/>
        </sensei>)");
      r = dynamic_cast<viz::RenderAnalysis *>(ca->GetAnalysis(0));
      ASSERT_NE(r, nullptr);
    }
    else
    {
      r = MakeRender(8, 16, 16);
      r->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
    }

    sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
    svtkTable *t = MakeTable(2000, 11u);
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(0);

    vp::Platform::Get().Stats().Reset();
    ASSERT_TRUE(r->Execute(da)) << "xml " << fromXml;
    EXPECT_EQ(vp::Platform::Get().Stats().KernelsLaunched.load(), 0u)
      << "xml " << fromXml;
    EXPECT_EQ(r->GetBinning()->GetDeviceId(),
              sensei::AnalysisAdaptor::DEVICE_HOST);

    svtkImageData *img = r->GetBinning()->GetLastResult();
    ASSERT_NE(img, nullptr);
    const std::vector<double> grid = GridValues(img, "v_sum");
    img->UnRegister();
    ASSERT_EQ(grid.size(), std::size_t(8 * 8));
    viz::TransferFunction tf = r->GetTransfer();
    viz::GridRange(grid.data(), grid.size(), tf.Lo, tf.Hi);
    tf.AutoRange = false;
    std::vector<std::uint8_t> want(16 * 16 * 4);
    viz::FillPixels(want.data(), 0, 16 * 16, 16, 16, grid.data(), 8, 8, tf);
    EXPECT_EQ(r->GetFramebuffer(), want) << "xml " << fromXml;

    EXPECT_EQ(r->Finalize(), 0);
    if (ca)
      ca->UnRegister();
    else
      r->Delete();
    da->ReleaseData();
    da->Delete();
  }
}

TEST(VizRender, AutomaticPlacementControlsAlsoPlaceTheBinning)
{
  // device="auto" with device_start="1" on 4 devices places rank 0's
  // render on device 1 by Eq. 1, and its binning with it: both of the
  // execute's placement decisions name device 1
  ResetViz();
  ConfigureSerial();
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(R"(
    <sensei>
      <analysis type="render" mesh="bodies" axes="x,y" resolution="8"
                variable="v" op="sum" width="16" height="16"
                device="auto" device_start="1"/>
    </sensei>)");
  auto *r = dynamic_cast<viz::RenderAnalysis *>(ca->GetAnalysis(0));
  ASSERT_NE(r, nullptr);

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(2000, 13u);
  da->SetTable(t);
  t->Delete();
  da->SetDataTimeStep(0);
  ASSERT_TRUE(r->Execute(da));

  const vp::DeviceLoadTracker &load = vp::DeviceLoadTracker::Get();
  const int node = vp::Platform::GetThisNode();
  EXPECT_EQ(load.Placements(node, 1), 2u);
  EXPECT_EQ(load.Placements(node, 0), 0u);
  EXPECT_EQ(r->GetBinning()->GetDeviceStart(), 1);
  EXPECT_EQ(r->GetBinning()->GetAsynchronous(), false);

  EXPECT_EQ(ca->Finalize(), 0);
  ca->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(VizRender, BitIdenticalAcrossExecModes)
{
  const auto serial = RunRenderSteps(false);
  const auto threads = RunRenderSteps(true);

  ASSERT_EQ(serial.size(), 3u);
  for (std::size_t s = 0; s < serial.size(); ++s)
    EXPECT_EQ(serial[s], threads[s]) << "threads, step " << s;
}

TEST(VizRender, SteerAppliesAtStepBoundaryAndPublishesNewShape)
{
  ResetViz();
  ConfigureSerial();

  viz::Streamer st(FastConfig());
  st.Start();

  svc::Client viewer(st.Connect(), "viz:pilot");
  ASSERT_TRUE(viewer.Connect(cmp::Params{}, false));
  viewer.StartHeartbeats();
  ASSERT_TRUE(Eventually([&] { return st.ActiveViewers() == 1; }));

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  viz::RenderAnalysis *r = MakeRender(16, 16, 16);
  r->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
  r->SetStreamer(&st);

  auto step = [&](int s)
  {
    svtkTable *t = MakeTable(1000, 50u + static_cast<unsigned>(s));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    ASSERT_TRUE(r->Execute(da));
  };

  step(0);
  {
    svc::Frame f;
    ASSERT_TRUE(Eventually([&] { return viewer.Poll(f, 0.05); }));
    std::size_t off = 0;
    const viz::FrameInfo d =
      viz::DecodeFrameInfo(f.Payload.data(), f.Payload.size(), off);
    EXPECT_EQ(d.Width, 16u);
    EXPECT_EQ(d.Version, 0u);
    EXPECT_EQ(d.Variable, "v_sum");
  }

  // steer: larger framebuffer, coarser binning, swap to the histogram
  viz::SteerCommand c;
  c.Version = 1;
  c.Have = viz::kSteerImageSize | viz::kSteerBinRes | viz::kSteerVariable |
           viz::kSteerColormap;
  c.Width = 32;
  c.Height = 32;
  c.BinResolution = 8;
  c.Variable = ""; // count
  c.Map = viz::Colormap::Heat;
  const std::vector<std::uint8_t> buf = viz::EncodeSteer(c);
  ASSERT_TRUE(viewer.SendSteer(buf.data(), buf.size(), c.Version));
  ASSERT_TRUE(Eventually([&] { return svc::Stats().Steers >= 1; }));

  // applied at the next step boundaries (the bench gate allows <= 2)
  int applied = -1;
  for (int s = 1; s <= 4 && applied < 0; ++s)
  {
    step(s);
    if (r->GetParamVersion() == 1)
      applied = s;
  }
  ASSERT_GE(applied, 1);
  ASSERT_LE(applied, 2);
  EXPECT_EQ(r->GetWidth(), 32u);
  EXPECT_EQ(r->GetHeight(), 32u);
  EXPECT_EQ(r->GetBinResolution(), 8);
  EXPECT_EQ(r->GetVariable(), "");
  EXPECT_EQ(r->GetFramebuffer().size(), std::size_t(32 * 32 * 4));
  EXPECT_GE(viz::Stats().SteersApplied, 1u);

  // the viewer sees the new shape, version, and variable
  bool sawNew = false;
  ASSERT_TRUE(Eventually(
    [&]
    {
      svc::Frame f;
      while (viewer.Poll(f, 0.01))
      {
        std::size_t off = 0;
        const viz::FrameInfo d =
          viz::DecodeFrameInfo(f.Payload.data(), f.Payload.size(), off);
        if (d.Version == 1 && d.Width == 32 && d.Variable == "count" &&
            d.Map == viz::Colormap::Heat)
          sawNew = true;
      }
      if (!sawNew)
        step(99); // keep stepping until the steered frame lands
      return sawNew;
    }));

  // a stale replay of version 1 is discarded without touching the state
  ASSERT_TRUE(viewer.SendSteer(buf.data(), buf.size(), c.Version));
  ASSERT_TRUE(Eventually([&] { return viz::Stats().SteersStale >= 1; }));
  step(5);
  EXPECT_EQ(r->GetParamVersion(), 1u);

  EXPECT_EQ(r->Finalize(), 0);
  r->Delete();
  da->ReleaseData();
  da->Delete();
  viewer.Close();
  st.Stop();
}

// --- profiler export --------------------------------------------------------

TEST(VizProfiler, ExportsVizAndRttCounters)
{
  ResetViz();
  viz::UpdateStats([](viz::VizStats &s) { ++s.FramesRendered; });
  viz::RecordFrameAge(0.002);

  sensei::Profiler prof;
  sensei::ExportVizStats(prof);
  sensei::ExportServiceStats(prof);
  const std::string json = prof.ToJson();
  EXPECT_NE(json.find("viz::frames_rendered"), std::string::npos);
  EXPECT_NE(json.find("viz::frame_age_p99_us"), std::string::npos);
  EXPECT_NE(json.find("viz::steers_applied"), std::string::npos);
  EXPECT_NE(json.find("svc::heartbeat_rtt_us"), std::string::npos);
  EXPECT_NE(json.find("svc::push_drops"), std::string::npos);
  EXPECT_EQ(json.find("viz::recaptures"), std::string::npos); // schema /3
  EXPECT_EQ(prof.Total("viz::frames_rendered"), 1.0);
}

// --- XML configuration ------------------------------------------------------

TEST(VizXml, VizElementConfiguresAndEnvWins)
{
  ResetViz();
  for (const char *v : {"VP_VIZ_WIDTH", "VP_VIZ_HEIGHT", "VP_VIZ_COLORMAP",
                        "VP_VIZ_LOG", "VP_VIZ_CODEC"})
    ::unsetenv(v);

  auto *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(R"(
    <sensei>
      <viz width="128" height="64" colormap="heat" log="1"
           codec="shuffle-rle" range="0,10" push_depth="3">
        <viewer width="32" height="32"/>
        <viewer codec="none"/>
      </viz>
    </sensei>)");
  ca->UnRegister();

  viz::VizConfig cfg = viz::GetConfig();
  EXPECT_EQ(cfg.Width, 128u);
  EXPECT_EQ(cfg.Height, 64u);
  EXPECT_EQ(cfg.Map, viz::Colormap::Heat);
  EXPECT_TRUE(cfg.Log);
  EXPECT_FALSE(cfg.AutoRange);
  EXPECT_DOUBLE_EQ(cfg.Lo, 0.0);
  EXPECT_DOUBLE_EQ(cfg.Hi, 10.0);
  EXPECT_EQ(cfg.Codec.Codec, cmp::CodecId::ShuffleRLE);
  ASSERT_EQ(cfg.Viewers.size(), 2u);
  EXPECT_EQ(cfg.Viewers[0].Width, 32u);
  EXPECT_FALSE(cfg.Viewers[0].HaveCodec);
  EXPECT_TRUE(cfg.Viewers[1].HaveCodec);
  EXPECT_EQ(cfg.Viewers[1].Codec.Codec, cmp::CodecId::None);
  EXPECT_EQ(svc::GetConfig().PushDepth, 3);

  // the environment beats the document, VP_SVC-style
  ::setenv("VP_VIZ_WIDTH", "96", 1);
  ::setenv("VP_VIZ_COLORMAP", "gray", 1);
  auto *ca2 = sensei::ConfigurableAnalysis::New();
  ca2->InitializeString(R"(
    <sensei><viz width="128" colormap="heat"/></sensei>)");
  ca2->UnRegister();
  ::unsetenv("VP_VIZ_WIDTH");
  ::unsetenv("VP_VIZ_COLORMAP");

  cfg = viz::GetConfig();
  EXPECT_EQ(cfg.Width, 96u);
  EXPECT_EQ(cfg.Map, viz::Colormap::Gray);

  // nonsense is rejected loudly
  auto *ca3 = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(
    ca3->InitializeString(R"(<sensei><viz width="0"/></sensei>)"),
    std::runtime_error);
  ca3->UnRegister();
  auto *ca4 = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(ca4->InitializeString(
                 R"(<sensei><viz colormap="plasma"/></sensei>)"),
               std::runtime_error);
  ca4->UnRegister();

  viz::Configure(viz::VizConfig{});
  svc::Configure(svc::ServiceConfig{});
}

TEST(VizXml, RenderAnalysisBuildsAndExecutesFromXml)
{
  ResetViz();
  ConfigureSerial();

  auto *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(R"(
    <sensei>
      <analysis type="render" mesh="bodies" axes="x,y" resolution="8"
                range_0="-1,1" range_1="-1,1" variable="v" op="sum"
                width="16" height="16" colormap="viridis" device="host"/>
    </sensei>)");

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(1000, 3u);
  da->SetTable(t);
  t->Delete();
  da->SetDataTimeStep(0);

  EXPECT_TRUE(ca->Execute(da));
  EXPECT_EQ(ca->Finalize(), 0);
  EXPECT_GE(viz::Stats().FramesRendered, 1u);

  ca->UnRegister();
  da->ReleaseData();
  da->Delete();

  // an unknown colormap on the analysis element fails construction
  auto *bad = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(bad->InitializeString(R"(
    <sensei><analysis type="render" colormap="plasma"/></sensei>)"),
               std::runtime_error);
  bad->UnRegister();
}
