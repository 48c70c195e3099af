// Unit tests for the SENSEI core: the AnalysisAdaptor execution-model
// extensions (placement Eq. 1 as a parameterized sweep, execution
// methods and a switch between them), TableAdaptor, Histogram back end
// on host and device, the ConfigurableAnalysis XML front end, and the
// profiler.

#include "senseiAutocorrelation.h"
#include "senseiColumnStatistics.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataAdaptor.h"
#include "senseiHistogram.h"
#include "senseiPosthocIO.h"
#include "senseiProfiler.h"
#include "svtkAOSDataArray.h"
#include "svtkArrayUtils.h"
#include "svtkHAMRDataArray.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpPlatform.h"

#include "sxml.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <utility>

using sensei::AnalysisAdaptor;

namespace
{
void ResetPlatform(int devices = 4)
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = devices;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vomp::SetDefaultDevice(0);
}

/// A trivial adaptor counting Execute calls, for base-class testing.
class CountingAnalysis : public AnalysisAdaptor
{
public:
  static CountingAnalysis *New() { return new CountingAnalysis; }
  bool Execute(sensei::DataAdaptor *) override
  {
    ++this->Count;
    return true;
  }
  int Count = 0;
};

svtkTable *MakeTable(std::size_t n, unsigned seed = 7)
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

// --- placement: Eq. 1 ---------------------------------------------------------------

struct PlacementCase
{
  int Rank, DevicesToUse, Stride, Start, Na, Expected;
};

class PlacementEq1 : public ::testing::TestWithParam<PlacementCase>
{
};

TEST_P(PlacementEq1, MatchesFormula)
{
  const PlacementCase &c = GetParam();
  CountingAnalysis *a = CountingAnalysis::New();
  a->SetDevicesToUse(c.DevicesToUse);
  a->SetDeviceStride(c.Stride);
  a->SetDeviceStart(c.Start);
  EXPECT_EQ(a->GetPlacementDevice(c.Rank, c.Na), c.Expected);
  a->Delete();
}

INSTANTIATE_TEST_SUITE_P(
  Sweep, PlacementEq1,
  ::testing::Values(
    // defaults: n_u = n_a, s = 1, d0 = 0 -> d = r mod n_a
    PlacementCase{0, 0, 1, 0, 4, 0}, PlacementCase{1, 0, 1, 0, 4, 1},
    PlacementCase{5, 0, 1, 0, 4, 1}, PlacementCase{7, 0, 1, 0, 4, 3},
    // the paper's 1-dedicated-device config: n_u=1, d0=3 -> always 3
    PlacementCase{0, 1, 1, 3, 4, 3}, PlacementCase{1, 1, 1, 3, 4, 3},
    PlacementCase{2, 1, 1, 3, 4, 3}, PlacementCase{299, 1, 1, 3, 4, 3},
    // the 2-dedicated-devices config: n_u=2, d0=2 -> 2 or 3 paired by rank
    PlacementCase{0, 2, 1, 2, 4, 2}, PlacementCase{1, 2, 1, 2, 4, 3},
    PlacementCase{2, 2, 1, 2, 4, 2}, PlacementCase{3, 2, 1, 2, 4, 3},
    // stride spreads ranks across devices
    PlacementCase{1, 2, 2, 0, 4, 2}, PlacementCase{3, 4, 2, 1, 8, 7},
    // wraparound through mod n_a
    PlacementCase{3, 4, 2, 3, 4, 1}));

TEST(Placement, ExplicitAndHostSelection)
{
  CountingAnalysis *a = CountingAnalysis::New();

  a->SetDeviceId(2);
  EXPECT_EQ(a->GetPlacementDevice(17, 4), 2);
  a->SetDeviceId(6); // out of range ids wrap
  EXPECT_EQ(a->GetPlacementDevice(0, 4), 2);

  a->SetDeviceId(AnalysisAdaptor::DEVICE_HOST);
  EXPECT_EQ(a->GetPlacementDevice(17, 4), AnalysisAdaptor::DEVICE_HOST);

  a->SetDeviceId(AnalysisAdaptor::DEVICE_AUTO);
  EXPECT_EQ(a->GetPlacementDevice(5, 0), AnalysisAdaptor::DEVICE_HOST)
    << "no accelerators -> host";

  a->Delete();
}

TEST(Placement, ExecutionMethodToggles)
{
  CountingAnalysis *a = CountingAnalysis::New();
  EXPECT_EQ(a->GetExecutionMethod(), sensei::ExecutionMethod::Lockstep);
  a->SetAsynchronous(true);
  EXPECT_TRUE(a->GetAsynchronous());
  a->SetExecutionMethod(sensei::ExecutionMethod::Lockstep);
  EXPECT_FALSE(a->GetAsynchronous());
  a->Delete();
}

// --- TableAdaptor ----------------------------------------------------------------------

TEST(TableAdaptor, SharesTableZeroCopy)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(10);
  da->SetTable(t);

  EXPECT_EQ(da->GetMeshNames(), std::vector<std::string>{"bodies"});
  svtkDataObject *mesh = da->GetMesh("bodies");
  EXPECT_EQ(mesh, t); // the very same object
  mesh->UnRegister();

  EXPECT_EQ(da->GetMesh("wrong"), nullptr);

  da->SetDataTime(1.5);
  da->SetDataTimeStep(3);
  EXPECT_DOUBLE_EQ(da->GetDataTime(), 1.5);
  EXPECT_EQ(da->GetDataTimeStep(), 3);

  da->ReleaseData();
  EXPECT_EQ(da->GetMesh("bodies"), nullptr);

  t->Delete();
  da->Delete();
}

// --- Histogram -----------------------------------------------------------------------

namespace
{
void CheckUniformHistogram(const std::vector<double> &counts, std::size_t n)
{
  double total = 0;
  for (double c : counts)
    total += c;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(n));
  // uniform data: every bin within 5 sigma of the mean
  const double mean = total / static_cast<double>(counts.size());
  for (double c : counts)
    EXPECT_NEAR(c, mean, 5.0 * std::sqrt(mean));
}
} // namespace

TEST(Histogram, HostAndDeviceAgree)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(20000);
  da->SetTable(t);
  t->Delete();

  auto runWith = [da](int deviceId) -> std::vector<double>
  {
    sensei::Histogram *h = sensei::Histogram::New();
    h->SetMeshName("bodies");
    h->SetColumn("x");
    h->SetBins(32);
    h->SetDeviceId(deviceId);
    EXPECT_TRUE(h->Execute(da));
    std::vector<double> counts;
    double lo = 0, hi = 0;
    EXPECT_TRUE(h->GetLastResult(counts, lo, hi));
    EXPECT_LT(lo, hi);
    h->Delete();
    return counts;
  };

  const std::vector<double> host = runWith(AnalysisAdaptor::DEVICE_HOST);
  const std::vector<double> dev = runWith(2);
  EXPECT_EQ(host, dev);
  CheckUniformHistogram(host, 20000);

  da->ReleaseData();
  da->Delete();
}

TEST(Histogram, FixedRangeClampsOutliers)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(1000);
  da->SetTable(t);
  t->Delete();

  sensei::Histogram *h = sensei::Histogram::New();
  h->SetMeshName("bodies");
  h->SetColumn("x");
  h->SetBins(4);
  h->SetRange(-0.5, 0.5); // half the data is outside and clamps to edges
  ASSERT_TRUE(h->Execute(da));

  std::vector<double> counts;
  double lo = 0, hi = 0;
  ASSERT_TRUE(h->GetLastResult(counts, lo, hi));
  EXPECT_DOUBLE_EQ(lo, -0.5);
  EXPECT_DOUBLE_EQ(hi, 0.5);
  double total = 0;
  for (double c : counts)
    total += c;
  EXPECT_DOUBLE_EQ(total, 1000.0);
  // edge bins hold the clamped outliers
  EXPECT_GT(counts.front(), counts[1]);
  EXPECT_GT(counts.back(), counts[2]);

  h->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(Histogram, AsynchronousMatchesLockstep)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(5000);
  da->SetTable(t);
  t->Delete();

  sensei::Histogram *sync = sensei::Histogram::New();
  sync->SetMeshName("bodies");
  sync->SetColumn("x");
  sync->SetBins(16);

  sensei::Histogram *async = sensei::Histogram::New();
  async->SetMeshName("bodies");
  async->SetColumn("x");
  async->SetBins(16);
  async->SetAsynchronous(true);

  ASSERT_TRUE(sync->Execute(da));
  ASSERT_TRUE(async->Execute(da));
  async->Finalize(); // drain the thread

  std::vector<double> a, b;
  double lo, hi;
  ASSERT_TRUE(sync->GetLastResult(a, lo, hi));
  ASSERT_TRUE(async->GetLastResult(b, lo, hi));
  EXPECT_EQ(a, b);

  sync->Delete();
  async->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(Histogram, MultiRankReductionMatchesSerial)
{
  ResetPlatform();

  // serial reference over the union of three per-rank tables
  svtkTable *parts[3] = {MakeTable(1000, 61), MakeTable(1500, 62),
                        MakeTable(500, 63)};
  std::vector<double> ref(16, 0.0);
  double lo = 1e300, hi = -1e300;
  for (svtkTable *t : parts)
    for (std::size_t i = 0; i < t->GetNumberOfRows(); ++i)
    {
      const double v = t->GetColumnByName("x")->GetVariantValue(i, 0);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  for (svtkTable *t : parts)
    for (std::size_t i = 0; i < t->GetNumberOfRows(); ++i)
    {
      const double v = t->GetColumnByName("x")->GetVariantValue(i, 0);
      long b = static_cast<long>((v - lo) / (hi - lo) * 16);
      b = std::clamp(b, 0L, 15L);
      ref[static_cast<std::size_t>(b)] += 1.0;
    }

  std::vector<double> got;
  minimpi::Run(3,
               [&](minimpi::Communicator &comm)
               {
                 sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
                 da->SetTable(parts[comm.Rank()]);
                 da->SetCommunicator(&comm);

                 sensei::Histogram *h = sensei::Histogram::New();
                 h->SetMeshName("bodies");
                 h->SetColumn("x");
                 h->SetBins(16);
                 EXPECT_TRUE(h->Execute(da));

                 if (comm.Rank() == 0)
                 {
                   double l, u;
                   EXPECT_TRUE(h->GetLastResult(got, l, u));
                   EXPECT_DOUBLE_EQ(l, lo);
                   EXPECT_DOUBLE_EQ(u, hi);
                 }
                 h->Delete();
                 da->ReleaseData();
                 da->Delete();
               });

  EXPECT_EQ(got, ref);
  for (svtkTable *t : parts)
    t->Delete();
}

TEST(Histogram, MissingColumnFailsGracefully)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(10);
  da->SetTable(t);
  t->Delete();

  sensei::Histogram *h = sensei::Histogram::New();
  h->SetMeshName("bodies");
  h->SetColumn("nonexistent");
  EXPECT_FALSE(h->Execute(da));
  h->SetColumn("");
  EXPECT_FALSE(h->Execute(da));
  h->SetMeshName("wrong");
  h->SetColumn("x");
  EXPECT_FALSE(h->Execute(da));

  h->Delete();
  da->ReleaseData();
  da->Delete();
}

namespace
{
/// MakeTable's columns as HAMR arrays resident on `device`.
svtkTable *MakeDeviceTable(std::size_t n, unsigned seed, int device)
{
  svtkTable *host = MakeTable(n, seed);
  svtkTable *t = svtkTable::New();
  vcuda::SetDevice(device);
  for (int c = 0; c < host->GetNumberOfColumns(); ++c)
  {
    const svtkDataArray *src = host->GetColumn(c);
    const std::vector<double> v = svtkToDoubleVector(src);
    svtkHAMRDoubleArray *a =
      svtkHAMRDoubleArray::New(src->GetName(), n, 1, svtkAllocator::cuda);
    a->GetBuffer().assign(v.data(), n);
    t->AddColumn(a);
    a->Delete();
  }
  vcuda::SetDevice(0);
  host->Delete();
  return t;
}
} // namespace

TEST(Histogram, HostPlacementMovesADeviceColumnOnce)
{
  // a host histogram of a device-resident column takes one host view of
  // it per execute, for the range scan and the accumulation alike
  ResetPlatform();
  svtkTable *t = MakeDeviceTable(4000, 71, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  sensei::Histogram *h = sensei::Histogram::New();
  h->SetMeshName("bodies");
  h->SetColumn("x");
  h->SetBins(16);
  h->SetDeviceId(AnalysisAdaptor::DEVICE_HOST);

  for (long step = 0; step < 3; ++step)
  {
    da->SetTable(t);
    da->SetDataTimeStep(step);
    vp::Platform::Get().Stats().Reset();
    ASSERT_TRUE(h->Execute(da));
    EXPECT_EQ(vp::Platform::Get().Stats().Copies(vp::CopyKind::DeviceToHost),
              1u)
      << "step " << step;
    da->ReleaseData();

    std::vector<double> counts;
    double lo = 0, hi = 0;
    ASSERT_TRUE(h->GetLastResult(counts, lo, hi));
    double total = 0;
    for (double c : counts)
      total += c;
    EXPECT_EQ(total, 4000.0);
  }

  h->Delete();
  da->Delete();
  t->Delete();
}

TEST(Histogram, RejectsAnEmptyOrInvertedRange)
{
  // an empty range would put every value in bin 0 and an inverted one
  // would reverse the bins; both are errors (in a configuration too:
  // ConfigurableAnalysis.RejectsBadConfigs), and the histogram keeps
  // binning over the data's range
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(1000);
  da->SetTable(t);
  t->Delete();

  sensei::Histogram *h = sensei::Histogram::New();
  h->SetMeshName("bodies");
  h->SetColumn("x");
  h->SetBins(4);
  EXPECT_THROW(h->SetRange(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(h->SetRange(2.0, 0.0), std::invalid_argument);
  ASSERT_TRUE(h->Execute(da));
  std::vector<double> counts;
  double lo = 0, hi = 0;
  ASSERT_TRUE(h->GetLastResult(counts, lo, hi));
  EXPECT_LT(lo, -0.99);
  EXPECT_GT(hi, 0.99);
  h->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(Histogram, AsyncDeviceHistogramIsCheckerClean)
{
  // asynchronous histograms on the column's device and on another one,
  // over a device-resident table the simulation rewrites between steps:
  // the checker sees no violation, and the counts match a lockstep host
  // histogram of the same steps
  ResetPlatform();
  vp::check::Reset();
  vp::check::Enable(true);

  svtkTable *t = MakeDeviceTable(3000, 72, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  sensei::Histogram *hs[3];
  const int devices[3] = {0, 2, AnalysisAdaptor::DEVICE_HOST};
  for (int i = 0; i < 3; ++i)
  {
    hs[i] = sensei::Histogram::New();
    hs[i]->SetMeshName("bodies");
    hs[i]->SetColumn("x");
    hs[i]->SetBins(16);
    hs[i]->SetDeviceId(devices[i]);
    hs[i]->SetAsynchronous(devices[i] >= 0);
  }

  std::vector<std::vector<double>> got[3];
  for (long step = 0; step < 3; ++step)
  {
    if (step)
    {
      auto *x = dynamic_cast<svtkHAMRDoubleArray *>(t->GetColumnByName("x"));
      ASSERT_NE(x, nullptr);
      std::vector<double> v = x->ToVector();
      for (double &e : v)
        e = 0.5 * e + 0.25;
      x->GetBuffer().assign(v.data(), v.size());
    }
    da->SetTable(t);
    da->SetDataTimeStep(step);
    for (sensei::Histogram *h : hs)
      ASSERT_TRUE(h->Execute(da));
    for (sensei::Histogram *h : hs)
      h->DrainAsync();
    da->ReleaseData();
    for (int i = 0; i < 3; ++i)
    {
      std::vector<double> counts;
      double lo = 0, hi = 0;
      ASSERT_TRUE(hs[i]->GetLastResult(counts, lo, hi));
      got[i].push_back(counts);
    }
  }
  for (sensei::Histogram *h : hs)
  {
    EXPECT_EQ(h->Finalize(), 0);
    h->Delete();
  }
  da->Delete();
  t->Delete();

  EXPECT_EQ(got[0], got[2]);
  EXPECT_EQ(got[1], got[2]);
  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
}

// --- ConfigurableAnalysis ----------------------------------------------------------------

TEST(ConfigurableAnalysis, BuildsChainFromXml)
{
  ResetPlatform();
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(R"(<sensei>
    <analysis type="histogram" mesh="bodies" column="x" bins="8"
              device="host" async="1"/>
    <analysis type="histogram" mesh="bodies" column="y" bins="16"
              device="2"/>
    <analysis type="histogram" mesh="bodies" column="m" enabled="0"/>
    <analysis type="data_binning" mesh="bodies" axes="x,y"
              resolution="32,32" ops="sum" values="m"
              device="auto" devices_to_use="1" device_start="3"/>
  </sensei>)");

  ASSERT_EQ(ca->GetNumberOfAnalyses(), 3); // the disabled one is skipped

  AnalysisAdaptor *h0 = ca->GetAnalysis(0);
  EXPECT_STREQ(h0->GetClassName(), "sensei::Histogram");
  EXPECT_TRUE(h0->GetAsynchronous());
  EXPECT_EQ(h0->GetDeviceId(), AnalysisAdaptor::DEVICE_HOST);

  AnalysisAdaptor *h1 = ca->GetAnalysis(1);
  EXPECT_EQ(h1->GetDeviceId(), 2);
  EXPECT_FALSE(h1->GetAsynchronous());

  AnalysisAdaptor *b = ca->GetAnalysis(2);
  EXPECT_STREQ(b->GetClassName(), "sensei::DataBinning");
  EXPECT_EQ(b->GetDeviceId(), AnalysisAdaptor::DEVICE_AUTO);
  EXPECT_EQ(b->GetDevicesToUse(), 1);
  EXPECT_EQ(b->GetDeviceStart(), 3);
  EXPECT_EQ(b->GetPlacementDevice(1, 4), 3);

  EXPECT_EQ(ca->GetAnalysis(7), nullptr);
  ca->Delete();
}

TEST(ConfigurableAnalysis, ExecutesAllBackEnds)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(2000);
  da->SetTable(t);
  t->Delete();

  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(R"(<sensei>
    <analysis type="histogram" mesh="bodies" column="x" bins="8"/>
    <analysis type="histogram" mesh="bodies" column="y" bins="8"/>
  </sensei>)");

  EXPECT_TRUE(ca->Execute(da));
  EXPECT_EQ(ca->Finalize(), 0);

  std::vector<double> counts;
  double lo, hi;
  auto *h = dynamic_cast<sensei::Histogram *>(ca->GetAnalysis(1));
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->GetLastResult(counts, lo, hi));

  ca->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(ConfigurableAnalysis, RejectsBadConfigs)
{
  ResetPlatform();
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  EXPECT_THROW(ca->InitializeString("<wrong/>"), std::runtime_error);
  EXPECT_THROW(ca->InitializeString(
                 "<sensei><analysis type='bogus'/></sensei>"),
               std::runtime_error);
  EXPECT_THROW(ca->InitializeString(
                 "<sensei><analysis type='data_binning' axes='x' "
                 "range_0='1'/></sensei>"),
               std::runtime_error);
  EXPECT_THROW(ca->InitializeString("not xml"), sxml::ParseError);

  // a malformed per-analysis attribute is an error naming the analysis
  // type and the attribute, not a silent default
  const std::pair<const char *, const char *> bad[] = {
    {"histogram", "async='ture'"},
    {"histogram", "enabled='nope'"},
    {"histogram", "device='gpu1'"},
    {"histogram", "devices_to_use='two'"},
    {"histogram", "device_start='first'"},
    {"histogram", "device_stride='1.5'"},
    {"histogram", "bins='abc'"},
    {"histogram", "range='1,1'"},
    {"histogram", "range='2,0'"},
    {"histogram", "range='0,1x'"},
    {"histogram", "verbose='loud'"},
    {"data_binning", "resolution='abc'"},
    {"data_binning", "resolution='16x'"},
    {"data_binning", "range_0='0,1x'"},
    {"data_binning", "ops='median'"},
    {"data_binning", "axes='x,y,z,w'"},
    {"data_binning", "ops='sum'"},
    {"data_binning", "gpu_strategy='fastest'"},
    {"data_binning", "out_freq='often' out_dir='.'"},
    {"render", "resolution='fine'"},
    {"render", "width='wide'"},
    {"render", "height='-4'"},
    {"render", "log='maybe'"},
    {"render", "range='0,1x'"},
    {"render", "range_0='0,1x'"},
    {"render", "axes='x,y,z,w'"},
    {"render", "colormap='bogus'"},
    {"render", "op='median'"},
    {"autocorrelation", "window='0'"},
    {"posthoc_io", "frequency='-1'"},
    {"posthoc_io", "format='sbim'"}};
  for (const auto &[type, attr] : bad)
  {
    const std::string doc = std::string("<sensei><analysis type='") + type +
                            "' column='x' " + attr + "/></sensei>";
    const std::string name(attr, std::strchr(attr, '='));
    try
    {
      ca->InitializeString(doc);
      ADD_FAILURE() << doc << " loaded";
    }
    catch (const std::runtime_error &e)
    {
      const std::string what = e.what();
      EXPECT_NE(what.find(type), std::string::npos) << what;
      EXPECT_NE(what.find(name + "="), std::string::npos) << what;
    }
  }
  ca->Delete();
}

// --- execution method switch ---------------------------------------------------------

namespace
{
/// What a histogram, a column statistics and an autocorrelation keep
/// after two steps on different data (of one size: the autocorrelation
/// multiplies rows of one step with the same rows of the other).
struct SwitchResults
{
  std::vector<double> Counts;
  double Lo = 0.0, Hi = 0.0;
  double Count = 0.0, Mean = 0.0, M2 = 0.0;
  std::vector<double> Acf;
};

/// Run the three back ends over steps 1 and 2, step 1 asynchronously
/// when `firstAsync`, step 2 lockstep, then finalize, with coalescing
/// backpressure.
SwitchResults RunMethodSwitch(bool firstAsync)
{
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(R"(<sensei>
    <sched backpressure="coalesce"/>
    <analysis type="histogram" mesh="bodies" column="x" bins="8"/>
    <analysis type="column_statistics" mesh="bodies" columns="x"/>
    <analysis type="autocorrelation" mesh="bodies" column="x" window="4"/>
  </sensei>)");
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  for (long step : {1L, 2L})
  {
    for (int i = 0; i < ca->GetNumberOfAnalyses(); ++i)
      ca->GetAnalysis(i)->SetAsynchronous(firstAsync && step == 1);
    svtkTable *t = MakeTable(800, static_cast<unsigned>(10 + step));
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(step);
    EXPECT_TRUE(ca->Execute(da));
    da->ReleaseData();
  }
  EXPECT_EQ(ca->Finalize(), 0);

  SwitchResults r;
  auto *h = dynamic_cast<sensei::Histogram *>(ca->GetAnalysis(0));
  auto *s = dynamic_cast<sensei::ColumnStatistics *>(ca->GetAnalysis(1));
  auto *a = dynamic_cast<sensei::Autocorrelation *>(ca->GetAnalysis(2));
  EXPECT_TRUE(h && s && a);
  if (h && s && a)
  {
    EXPECT_TRUE(h->GetLastResult(r.Counts, r.Lo, r.Hi));
    const sensei::ColumnMoments x = s->GetLastResult()["x"];
    r.Count = x.Count;
    r.Mean = x.Mean;
    r.M2 = x.M2;
    r.Acf = a->GetLastResult();
  }
  ca->Delete();
  da->Delete();
  sensei::ResetConfig({"sched"});
  return r;
}
} // namespace

TEST(AnalysisMethodSwitch, LockstepAfterAsyncKeepsTheNewerResult)
{
  // coalescing backpressure defers the asynchronous step-1 task until the
  // pipeline is next entered; the lockstep step-2 execute must drain it
  // before it runs, or Finalize's drain runs it last and step 1's result
  // overwrites step 2's
  ResetPlatform();
  const SwitchResults ref = RunMethodSwitch(false);
  ASSERT_EQ(ref.Count, 800.0);
  ASSERT_EQ(ref.Acf.size(), 2u);

  const SwitchResults got = RunMethodSwitch(true);
  EXPECT_EQ(got.Counts, ref.Counts) << "histogram kept step 1's result";
  EXPECT_EQ(got.Lo, ref.Lo);
  EXPECT_EQ(got.Hi, ref.Hi);
  EXPECT_EQ(got.Mean, ref.Mean) << "column statistics kept step 1's result";
  EXPECT_EQ(got.M2, ref.M2);
  EXPECT_EQ(got.Acf, ref.Acf) << "autocorrelation kept step 1's result";
}

// --- PosthocIO -----------------------------------------------------------------------

TEST(PosthocIO, WritesAtConfiguredFrequency)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(8);
  da->SetTable(t);
  t->Delete();

  sensei::PosthocIO *io = sensei::PosthocIO::New();
  io->SetMeshName("bodies");
  io->SetOutputDir(::testing::TempDir());
  io->SetPrefix("ph_test");
  io->SetFrequency(2);

  for (long s = 0; s < 4; ++s)
  {
    da->SetDataTimeStep(s);
    EXPECT_TRUE(io->Execute(da));
  }
  io->Finalize();
  EXPECT_EQ(io->GetWriteCount(), 2); // steps 0 and 2

  for (long s : {0L, 2L})
  {
    const std::string f =
      ::testing::TempDir() + "/ph_test_r0_s" + std::to_string(s) + ".csv";
    std::ifstream check(f);
    EXPECT_TRUE(check.good()) << f;
    std::remove(f.c_str());
  }

  io->Delete();
  da->ReleaseData();
  da->Delete();
}

// --- profiler -------------------------------------------------------------------------

TEST(Profiler, AccumulatesAndSummarizes)
{
  sensei::Profiler p;
  p.Event("solver", 2.0);
  p.Event("solver", 4.0);
  p.Event("insitu", 1.0);

  EXPECT_DOUBLE_EQ(p.Total("solver"), 6.0);
  EXPECT_EQ(p.Count("solver"), 2);
  EXPECT_DOUBLE_EQ(p.Mean("solver"), 3.0);
  EXPECT_DOUBLE_EQ(p.Max("solver"), 4.0);
  EXPECT_DOUBLE_EQ(p.Total("unknown"), 0.0);
  EXPECT_EQ(p.Names(), (std::vector<std::string>{"insitu", "solver"}));

  p.Clear();
  EXPECT_EQ(p.Count("solver"), 0);
}

TEST(Profiler, ScopedEventMeasuresVirtualTime)
{
  sensei::Profiler p;
  {
    sensei::ScopedEvent ev(p, "span");
    vp::ThisClock().Advance(1.5);
  }
  EXPECT_DOUBLE_EQ(p.Total("span"), 1.5);
}
