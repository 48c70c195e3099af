// The intransit_viz workload: two tenants stream seeded tables into a
// ServiceHost; tenant 0 also renders each table into a viz::Streamer that
// two viewer threads poll. No solver and no minimpi: svc, compress and
// viz do the work, with ingress and egress on the same transport.

#include "e2eWorkloads.h"

#include "senseiDataAdaptor.h"
#include "senseiSerialization.h"
#include "senseiService.h"
#include "svcClient.h"
#include "svtkAOSDataArray.h"
#include "vizRender.h"
#include "vizStreamer.h"
#include "vizWire.h"
#include "vpClock.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace e2e
{
namespace
{

constexpr int kTenants = 2;
constexpr int kViewers = 2;
constexpr int kTablesPerTenant = 4; ///< pre-generated, sent round robin
constexpr double kErrorBound = 1e-3;

struct Sizes
{
  std::size_t Rows = 65536;       ///< x 8 double columns = 4 MiB raw
  long ServiceBins = 256;
  long RenderBins = 256;
  std::uint32_t Image = 512;
};

std::string ServiceXml(const Sizes &z)
{
  const std::string bins = std::to_string(z.ServiceBins);
  return "<sensei>\n"
         "  <service workers=\"2\" queue_depth=\"4\" backpressure=\"block\"/>\n"
         "  <compress codec=\"quantize\" error_bound=\"1e-3\"/>\n"
         "  <analysis type=\"data_binning\" mesh=\"bodies\" axes=\"x,y\" "
         "resolution=\"" + bins + "," + bins +
         "\" ops=\"sum,sum\" values=\"m,speed\" device=\"host\"/>\n"
         "  <analysis type=\"histogram\" mesh=\"bodies\" column=\"speed\" "
         "bins=\"32\" device=\"host\"/>\n"
         "</sensei>";
}

/// A disk of bodies with their speed, seeded per (seed, tenant, index).
svtkTable *MakeTable(std::size_t rows, unsigned seed, int tenant, int index)
{
  std::mt19937_64 gen(1000003ull * seed + 101ull * tenant + index);
  std::normal_distribution<double> disk(0.0, 0.3), thin(0.0, 0.05),
    vel(0.0, 0.5);
  std::uniform_real_distribution<double> mass(0.5, 1.5);

  const char *names[8] = {"x", "y", "z", "vx", "vy", "vz", "m", "speed"};
  std::vector<std::vector<double>> cols(8, std::vector<double>(rows));
  for (std::size_t i = 0; i < rows; ++i)
  {
    cols[0][i] = disk(gen);
    cols[1][i] = disk(gen);
    cols[2][i] = thin(gen);
    cols[3][i] = vel(gen);
    cols[4][i] = vel(gen);
    cols[5][i] = vel(gen);
    cols[6][i] = mass(gen);
    cols[7][i] = std::sqrt(cols[3][i] * cols[3][i] + cols[4][i] * cols[4][i] +
                           cols[5][i] * cols[5][i]);
  }
  svtkTable *t = svtkTable::New();
  for (int c = 0; c < 8; ++c)
  {
    svtkAOSDoubleArray *a = svtkAOSDoubleArray::New(names[c], rows, 1);
    a->GetVector() = std::move(cols[static_cast<std::size_t>(c)]);
    t->AddColumn(a);
    a->UnRegister();
  }
  return t;
}

viz::RenderAnalysis *MakeRender(const Sizes &z)
{
  viz::RenderAnalysis *r = viz::RenderAnalysis::New();
  r->SetMeshName("bodies");
  r->SetAxes({"x", "y"});
  r->SetBinResolution(z.RenderBins);
  r->SetVariable("m", "sum");
  r->SetImageSize(z.Image, z.Image);
  viz::TransferFunction tf;
  tf.Map = viz::Colormap::Viridis;
  tf.AutoRange = true;
  r->SetTransfer(tf);
  r->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
  return r;
}

template <typename Pred>
bool WaitFor(Pred pred, double seconds)
{
  const double deadline = WallNow() + seconds;
  while (!pred())
  {
    if (WallNow() > deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

struct TenantRun
{
  explicit TenantRun(int i) : Spans("tenant " + std::to_string(i)) {}

  Track Spans;
  std::vector<double> Step, Send, VStep, VSend;
  bool Connected = false;
  long Sends = 0, SendFailures = 0, Renders = 0, RenderFailures = 0;
  double FirstSend = 0.0;
  int LastTable = 0;
};

struct ViewerRun
{
  explicit ViewerRun(int i) : Spans("viewer " + std::to_string(i)) {}

  Track Spans;
  std::vector<double> Ages; ///< read after the viewer thread joined
  std::atomic<bool> Admitted{false};
  std::atomic<std::size_t> Received{0};
};

/// Each tenant's pre-generated tables, sent round robin.
using Tables = std::vector<std::vector<Ref<svtkTable>>>;

Tables MakeTables(const Sizes &z, unsigned seed)
{
  Tables out(kTenants);
  for (int i = 0; i < kTenants; ++i)
    for (int k = 0; k < kTablesPerTenant; ++k)
      out[static_cast<std::size_t>(i)].emplace_back(
        MakeTable(z.Rows, seed, i, k));
  return out;
}

svtkTable *TableOf(const Tables &t, int tenant, int index)
{
  return t[static_cast<std::size_t>(tenant)][static_cast<std::size_t>(index)]
    .get();
}

/// The deployed system: service, streamer, viewers and tenants.
/// Construction is the timed set-up; the tables are inputs, made before.
class Rig
{
public:
  Rig(const Sizes &z, const Tables &tables, bool trace);
  ~Rig();

  Rig(const Rig &) = delete;
  Rig &operator=(const Rig &) = delete;

  /// Closed loop: each tenant sends (and tenant 0 renders) until
  /// `seconds` have passed since it started.
  void Run(double seconds);

  /// Graceful leave of every tenant, then stop the service (which
  /// finalizes its chains); returns the stop's wall seconds.
  double Stop();

  /// Let the viewers take what was published, then stop them.
  void StopViewers();

  sensei::ServiceHost &Host() { return *this->Host_; }
  const std::vector<std::unique_ptr<TenantRun>> &Tenants() const
  {
    return this->Tenants_;
  }
  const std::vector<std::unique_ptr<ViewerRun>> &Viewers() const
  {
    return this->Viewers_;
  }
  const viz::RenderAnalysis &Render() const { return *this->Render_; }

private:
  void TenantLoop(int i, double seconds);
  void ViewerLoop(int v);

  const Tables &Tables_;
  bool Trace_ = false;
  std::unique_ptr<sensei::ServiceHost> Host_;
  std::unique_ptr<viz::Streamer> Streamer_;
  std::vector<std::unique_ptr<sensei::ServiceClient>> Clients_;
  std::vector<Ref<sensei::TableAdaptor>> Adaptors_;
  Ref<viz::RenderAnalysis> Render_;
  std::vector<std::unique_ptr<TenantRun>> Tenants_;
  std::vector<std::unique_ptr<ViewerRun>> Viewers_;
  std::atomic<bool> ViewersDone_{false};
  bool Stopped_ = false;
  std::vector<std::thread> ViewerThreads_;
};

Rig::Rig(const Sizes &z, const Tables &tables, bool trace)
  : Tables_(tables), Trace_(trace)
{
  ResetProcessState();
  for (int i = 0; i < kTenants; ++i)
  {
    this->Tenants_.push_back(std::make_unique<TenantRun>(i));
    this->Adaptors_.emplace_back(sensei::TableAdaptor::New("bodies"));
  }

  this->Host_ = sensei::ServiceHost::FromString(ServiceXml(z));
  this->Host_->Start();
  this->Streamer_ = std::make_unique<viz::Streamer>(svc::ServiceConfig());
  this->Streamer_->Start();
  this->Render_.reset(MakeRender(z));
  this->Render_->SetStreamer(this->Streamer_.get());

  for (int i = 0; i < kTenants; ++i)
  {
    this->Clients_.push_back(std::make_unique<sensei::ServiceClient>(
      this->Host_->Connect(), "bodies"));
    this->Tenants_[static_cast<std::size_t>(i)]->Connected =
      this->Clients_.back()->Connect(5.0);
    // without beats, a render slower than the heartbeat budget would get
    // tenant 0 reaped between two sends
    this->Clients_.back()->Raw().StartHeartbeats();
  }

  // nothing below throws, so the destructor always joins these
  for (int v = 0; v < kViewers; ++v)
    this->Viewers_.push_back(std::make_unique<ViewerRun>(v));
  for (int v = 0; v < kViewers; ++v)
    this->ViewerThreads_.emplace_back([this, v] { this->ViewerLoop(v); });
  WaitFor([this] { return this->Streamer_->ActiveViewers() == kViewers; },
          5.0);
}

Rig::~Rig()
{
  this->StopViewers();
  this->Stop();
  this->Render_->Finalize();
  this->Streamer_->Stop();
}

void Rig::ViewerLoop(int v)
{
  ViewerRun &vr = *this->Viewers_[static_cast<std::size_t>(v)];
  svc::Client viewer(this->Streamer_->Connect(),
                     "viz:viewer" + std::to_string(v));
  if (!viewer.Connect(cmp::Params{}, false))
    return;
  vr.Admitted = true;
  viewer.StartHeartbeats();
  svc::Frame f;
  while (true)
  {
    if (!viewer.Poll(f, 0.01))
    {
      if (this->ViewersDone_.load())
        break;
      continue;
    }
    const double now = WallNow();
    std::size_t off = 0;
    const viz::FrameInfo fi =
      viz::DecodeFrameInfo(f.Payload.data(), f.Payload.size(), off);
    vr.Ages.push_back(now - fi.RenderTime);
    ++vr.Received;
    if (this->Trace_)
      vr.Spans.Add(Span{"viz::Streamer frame age", fi.RenderTime, now, 0.0,
                        0.0, -1});
  }
  viewer.Close();
}

void Rig::TenantLoop(int i, double seconds)
{
  TenantRun &tr = *this->Tenants_[static_cast<std::size_t>(i)];
  sensei::ServiceClient &client = *this->Clients_[static_cast<std::size_t>(i)];
  sensei::TableAdaptor *da = this->Adaptors_[static_cast<std::size_t>(i)].get();

  tr.FirstSend = WallNow();
  for (long s = 0; WallNow() - tr.FirstSend < seconds; ++s)
  {
    Track *t = this->Trace_ && s % 2 ? &tr.Spans : nullptr;
    const int k = static_cast<int>(s % kTablesPerTenant);
    da->SetTable(TableOf(this->Tables_, i, k));
    da->SetDataTimeStep(s);

    const double v0 = vp::ThisClock().Now();
    const double t0 = WallNow();
    bool ok = false;
    {
      ScopedSpan span(t, "sensei::ServiceClient::Send", s);
      ok = client.Send(da);
    }
    const double t1 = WallNow();
    const double v1 = vp::ThisClock().Now();
    ++tr.Sends;
    tr.SendFailures += !ok;
    if (i == 0)
    {
      ScopedSpan span(t, "viz::RenderAnalysis::Execute", s);
      ok = this->Render_->Execute(da);
      ++tr.Renders;
      tr.RenderFailures += !ok;
      tr.LastTable = k;
    }
    da->ReleaseData();
    const double t2 = WallNow();
    const double v2 = vp::ThisClock().Now();
    if (t)
      t->Add(Span{"step", t0, t2, v0, v2, s});
    tr.Step.push_back(t2 - t0);
    tr.Send.push_back(t1 - t0);
    tr.VStep.push_back(v2 - v0);
    tr.VSend.push_back(v1 - v0);
  }
}

void Rig::Run(double seconds)
{
  std::vector<std::thread> tenants;
  for (int i = 0; i < kTenants; ++i)
    tenants.emplace_back([this, i, seconds] { this->TenantLoop(i, seconds); });
  for (std::thread &t : tenants)
    t.join();
}

double Rig::Stop()
{
  if (this->Stopped_)
    return 0.0;
  this->Stopped_ = true;
  for (auto &c : this->Clients_)
    c->Close();
  const double t0 = WallNow();
  this->Host_->Stop();
  return WallNow() - t0;
}

void Rig::StopViewers()
{
  if (this->ViewerThreads_.empty())
    return;
  WaitFor(
    [this]
    {
      std::size_t got = 0;
      for (const auto &v : this->Viewers_)
        got += v->Received.load();
      return got + svc::Stats().PushDrops >= viz::Stats().FramesPublished;
    },
    2.0);
  this->ViewersDone_ = true;
  for (std::thread &t : this->ViewerThreads_)
    t.join();
  this->ViewerThreads_.clear();
}

/// The largest |v - v'| of a table round-tripped through the quantize
/// codec, over every double column.
double QuantizeError(const svtkTable *table)
{
  cmp::Params p;
  p.Codec = cmp::CodecId::Quantize;
  p.ErrorBound = kErrorBound;
  const std::vector<std::uint8_t> bytes =
    sensei::SerializeTableCompressed(table, p);
  const Ref<svtkTable> back(sensei::DeserializeTableCompressed(bytes));
  double err = 0.0;
  for (int c = 0; c < table->GetNumberOfColumns(); ++c)
  {
    const svtkDataArray *a = table->GetColumn(c);
    const svtkDataArray *b = back->GetColumnByName(a->GetName());
    if (!b || b->GetNumberOfValues() != a->GetNumberOfValues())
      return std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < a->GetNumberOfTuples(); ++i)
      err = std::max(err, std::fabs(a->GetVariantValue(i, 0) -
                                    b->GetVariantValue(i, 0)));
  }
  return err;
}

/// A fresh serial render of `table` (no streamer).
std::vector<std::uint8_t> ReferenceFrame(const Sizes &z, svtkTable *table)
{
  const Ref<viz::RenderAnalysis> r(MakeRender(z));
  const Ref<sensei::TableAdaptor> da(sensei::TableAdaptor::New("bodies"));
  da->SetTable(table);
  r->Execute(da.get());
  r->Finalize();
  return r->GetFramebuffer();
}

std::vector<double> Durations(const Track &t, const char *name)
{
  std::vector<double> out;
  for (const auto &kv : t.SecondsPerStep(name))
    out.push_back(kv.second);
  return out;
}

} // namespace

void RunInTransitViz(const Options &o, Report &r)
{
  Sizes z;
  if (o.Tiny)
    z = Sizes{4096, 32, 32, 64};

  const Tables tables = MakeTables(z, o.Seed);
  EndToEnd e;
  for (int i = 1; i < (o.Trace ? 1 : o.SetupReps); ++i)
  {
    const double t0 = WallNow();
    Rig rig(z, tables, false);
    e.SetupSeconds.push_back(WallNow() - t0);
  }

  const double epoch = WallNow();
  Rig rig(z, tables, o.Trace);
  e.SetupSeconds.push_back(WallNow() - epoch);

  ResetCounters();
  rig.Run(o.Seconds);

  // every delivered frame must execute, and its latency sample must land:
  // the server records it after the frame counter moves, so reading
  // Latencies() as soon as the counts match can still miss the last one
  long sent = 0, failures = 0, renders = 0;
  double firstSend = WallNow();
  for (const auto &t : rig.Tenants())
  {
    sent += t->Sends - t->SendFailures;
    failures += t->SendFailures + t->RenderFailures + !t->Connected;
    renders += t->Renders;
    firstSend = std::min(firstSend, t->FirstSend);
  }
  const bool drained =
    WaitFor([&] { return rig.Host().FramesExecuted() >= sent; }, 30.0);
  const double done = WallNow();
  const bool latenciesIn = WaitFor(
    [&]
    {
      return static_cast<long>(rig.Host().GetServer().Latencies().size()) >=
             sent;
    },
    10.0);
  const std::vector<double> latencies = rig.Host().GetServer().Latencies();
  rig.StopViewers();
  const Counters layer = Snapshot();
  const double finalizeSeconds = rig.Stop();
  const double peakRss = PeakRssMb(); // before the checks allocate

  // --- checks and operation counts -------------------------------------------
  long admitted = 0;
  std::vector<double> ages;
  for (const auto &v : rig.Viewers())
  {
    admitted += v->Admitted.load();
    ages.insert(ages.end(), v->Ages.begin(), v->Ages.end());
  }
  failures += (kViewers - admitted) +
              static_cast<long>(layer.Service.FramesRejected +
                                layer.Service.ShortReads);
  if (failures)
  {
    std::fprintf(stderr, "e2e_step: %ld failed operations:", failures);
    for (const auto &t : rig.Tenants())
      std::fprintf(stderr, " %s %s, %ld/%ld sends, %ld/%ld renders;",
                   t->Spans.Name().c_str(),
                   t->Connected ? "connected" : "NOT connected",
                   t->SendFailures, t->Sends, t->RenderFailures, t->Renders);
    std::fprintf(stderr,
                 " %ld/%d viewers admitted; %llu frames rejected, %llu "
                 "short reads, %llu sessions reaped\n",
                 admitted, kViewers,
                 static_cast<unsigned long long>(layer.Service.FramesRejected),
                 static_cast<unsigned long long>(layer.Service.ShortReads),
                 static_cast<unsigned long long>(layer.Service.SessionsReaped));
  }
  r.Operations(sent + renders + kTenants + kViewers, failures);
  r.Check("frames executed (" + std::to_string(rig.Host().FramesExecuted()) +
            ") equal frames sent (" + std::to_string(sent) + ")",
          drained && rig.Host().FramesExecuted() == sent);
  r.Check("a latency sample for every frame sent",
          latenciesIn && static_cast<long>(latencies.size()) == sent);
  r.Check("quantized table decodes within the 1e-3 error bound",
          QuantizeError(TableOf(tables, 0, 0)) <= kErrorBound);
  const TenantRun &t0 = *rig.Tenants()[0];
  r.Check("last framebuffer equals a fresh serial render of its table",
          t0.Renders > 0 &&
            rig.Render().GetFramebuffer() ==
              ReferenceFrame(z, TableOf(tables, 0, t0.LastTable)));

  // a step is tenant 0's Send + render; its in situ part is the Send
  if (!o.Trace)
  {
    std::vector<double> vSend;
    for (const auto &t : rig.Tenants())
      vSend.insert(vSend.end(), t->VSend.begin(), t->VSend.end());
    e.VirtualStepSeconds = Mean(t0.VStep);
    e.VirtualInSituSeconds = Mean(vSend);
    ReportEndToEnd(r, e);
    return;
  }

  // --- per layer ----------------------------------------------------------------
  WallClock wall;
  wall.StepSeconds = t0.Step;
  wall.InSituSeconds = t0.Send;
  wall.StepsPerSecond = static_cast<double>(sent) / (done - firstSend);
  std::vector<const Track *> tenants;
  std::vector<double> sends;
  for (const auto &t : rig.Tenants())
  {
    tenants.push_back(&t->Spans);
    const std::vector<double> d =
      Durations(t->Spans, "sensei::ServiceClient::Send");
    sends.insert(sends.end(), d.begin(), d.end());
  }
  LayerValues sl;
  sl.PeakRssMb = peakRss;
  sl.CoreFinalizeMs = 1e3 * finalizeSeconds;
  sl.SvcSendMsP50 = 1e3 * Percentile(sends, 0.5);
  sl.SvcSendMsP90 = 1e3 * Percentile(sends, 0.9);
  sl.SvcFrameLatencyMsP50 = 1e3 * Percentile(latencies, 0.5);
  sl.SvcFrameLatencyMsP90 = 1e3 * Percentile(latencies, 0.9);
  sl.VizRenderMsP50 =
    1e3 * Median(Durations(t0.Spans, "viz::RenderAnalysis::Execute"));
  sl.VizFrameAgeMsP90 = 1e3 * Percentile(ages, 0.9);
  sl.VizDeliveredFrac =
    layer.Viz.FramesPublished
      ? static_cast<double>(ages.size()) /
          static_cast<double>(layer.Viz.FramesPublished)
      : 0.0;
  sl.StepUnattributedFrac = UnattributedFraction(tenants);
  ReportPerLayer(r, sl, wall, layer, sent);

  if (!o.TraceDir.empty())
  {
    std::vector<const Track *> tracks = tenants;
    for (const auto &v : rig.Viewers())
      tracks.push_back(&v->Spans);
    const std::string path = o.TraceDir + "/trace_intransit_viz_seed" +
                             std::to_string(o.Seed) + ".json";
    r.Check("trace written to " + path,
            WriteChromeTrace(path, tracks, epoch));
  }
}

} // namespace e2e
