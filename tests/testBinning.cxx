// Unit tests for the data binning analysis: correctness of every
// reduction against a straightforward reference, host/device path
// equivalence (parameterized), fixed and automatic ranges, 1D/2D/3D
// meshes, bit-exact multi-rank reduction through minimpi, the launch and
// readback counts of the packed grid record and the size of its compact
// readback, asynchronous execution and the data adaptor's per-step
// snapshot it copies through (and whose gather folds its axes' ranges),
// the per-step axis-range table lockstep binnings share, the record each
// binning keeps across steps (reset by its compaction, reallocated on a
// new shape), and file output.

#include "campaign.h"
#include "execEngine.h"
#include "minimpi.h"
#include "newtonDriver.h"
#include "schedPipeline.h"
#include "senseiAutocorrelation.h"
#include "senseiConfigurableAnalysis.h"
#include "senseiDataBinning.h"
#include "senseiDataAdaptor.h"
#include "svtkAOSDataArray.h"
#include "svtkArrayUtils.h"
#include "vcuda.h"
#include "vomp.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpLoadTracker.h"
#include "vpPlatform.h"
#include "vizRender.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <thread>

using sensei::AnalysisAdaptor;
using sensei::BinningOp;
using sensei::DataBinning;

namespace
{
void ResetPlatform(int nodes = 1)
{
  vp::PlatformConfig cfg;
  cfg.NumNodes = nodes;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
  vomp::SetDefaultDevice(0);
}

/// Rows with known values: x,y uniform in [-1,1], v = x + 2y, m = 1.
svtkTable *MakeTable(std::size_t n, unsigned seed)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);

  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i)
  {
    xs[i] = u(gen);
    ys[i] = u(gen);
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
  std::vector<double> vs(n), ms(n, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    vs[i] = xs[i] + 2.0 * ys[i];
  add("v", vs);
  add("m", ms);
  return t;
}

/// Reference 2D binning with fixed range [-1,1]^2.
struct Reference
{
  std::vector<double> Count, Sum, Min, Max;
  long Res;

  Reference(const svtkTable *t, long res) : Res(res)
  {
    const std::size_t nb = static_cast<std::size_t>(res * res);
    Count.assign(nb, 0.0);
    Sum.assign(nb, 0.0);
    Min.assign(nb, std::numeric_limits<double>::infinity());
    Max.assign(nb, -std::numeric_limits<double>::infinity());

    const svtkDataArray *x = t->GetColumnByName("x");
    const svtkDataArray *y = t->GetColumnByName("y");
    const svtkDataArray *v = t->GetColumnByName("v");
    const std::size_t n = t->GetNumberOfRows();
    for (std::size_t i = 0; i < n; ++i)
    {
      auto bin = [res](double c)
      {
        long b = static_cast<long>((c + 1.0) / 2.0 * res);
        return std::clamp(b, 0L, res - 1);
      };
      const std::size_t idx =
        static_cast<std::size_t>(bin(x->GetVariantValue(i, 0))) +
        static_cast<std::size_t>(res) *
          static_cast<std::size_t>(bin(y->GetVariantValue(i, 0)));
      const double vi = v->GetVariantValue(i, 0);
      Count[idx] += 1.0;
      Sum[idx] += vi;
      Min[idx] = std::min(Min[idx], vi);
      Max[idx] = std::max(Max[idx], vi);
    }
    for (std::size_t i = 0; i < nb; ++i)
      if (Count[i] == 0.0)
      {
        Min[i] = 0.0;
        Max[i] = 0.0;
      }
  }
};

std::vector<double> GridValues(svtkImageData *img, const std::string &name)
{
  const svtkDataArray *a = img->GetPointData()->GetArray(name);
  EXPECT_NE(a, nullptr) << name;
  std::vector<double> out(a->GetNumberOfTuples());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->GetVariantValue(i, 0);
  return out;
}

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

/// Overwrite a HAMR column in place (same array, same storage) with
/// `scale` times its values plus `shift`.
void Rescale(svtkTable *t, const char *name, double scale, double shift)
{
  auto *a = dynamic_cast<svtkHAMRDoubleArray *>(t->GetColumnByName(name));
  ASSERT_NE(a, nullptr) << name;
  std::vector<double> v = a->ToVector();
  for (double &x : v)
    x = scale * x + shift;
  const double *before = a->GetData();
  a->GetBuffer().assign(v.data(), v.size());
  ASSERT_EQ(a->GetData(), before) << name;
}

/// Every point-data array of a binning's last result, in order.
std::vector<std::vector<double>> AllGrids(DataBinning *b)
{
  std::vector<std::vector<double>> out;
  svtkImageData *img = b->GetLastResult();
  EXPECT_NE(img, nullptr);
  if (!img)
    return out;
  svtkFieldData *pd = img->GetPointData();
  for (int a = 0; a < pd->GetNumberOfArrays(); ++a)
    out.push_back(GridValues(img, pd->GetArray(a)->GetName()));
  img->UnRegister();
  return out;
}

DataBinning *MakeBinning(int deviceId, long res = 16)
{
  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({res});
  b->SetRange(0, -1.0, 1.0);
  b->SetRange(1, -1.0, 1.0);
  b->AddOperation("v", BinningOp::Sum);
  b->AddOperation("v", BinningOp::Min);
  b->AddOperation("v", BinningOp::Max);
  b->AddOperation("v", BinningOp::Average);
  b->SetDeviceId(deviceId);
  return b;
}
} // namespace

// --- op names -------------------------------------------------------------------------

TEST(BinningOps, NamesRoundTrip)
{
  for (BinningOp op : {BinningOp::Count, BinningOp::Sum, BinningOp::Min,
                       BinningOp::Max, BinningOp::Average})
    EXPECT_EQ(sensei::BinningOpFromName(sensei::BinningOpName(op)), op);
  EXPECT_EQ(sensei::BinningOpFromName("avg"), BinningOp::Average);
  EXPECT_THROW(sensei::BinningOpFromName("median"), std::invalid_argument);
}

// --- correctness, host vs device paths (parameterized) --------------------------------------

class BinningPlacement : public ::testing::TestWithParam<int>
{
protected:
  void SetUp() override { ResetPlatform(); }
};

TEST_P(BinningPlacement, MatchesReference)
{
  const int device = GetParam();

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(5000, 3);
  da->SetTable(t);

  DataBinning *b = MakeBinning(device);
  ASSERT_TRUE(b->Execute(da));
  ASSERT_EQ(b->Finalize(), 0);

  svtkImageData *img = b->GetLastResult();
  ASSERT_NE(img, nullptr);

  const Reference ref(t, 16);
  EXPECT_EQ(GridValues(img, "count"), ref.Count);

  const std::vector<double> sum = GridValues(img, "v_sum");
  const std::vector<double> mn = GridValues(img, "v_min");
  const std::vector<double> mx = GridValues(img, "v_max");
  const std::vector<double> avg = GridValues(img, "v_avg");
  for (std::size_t i = 0; i < sum.size(); ++i)
  {
    EXPECT_NEAR(sum[i], ref.Sum[i], 1e-12);
    EXPECT_DOUBLE_EQ(mn[i], ref.Min[i]);
    EXPECT_DOUBLE_EQ(mx[i], ref.Max[i]);
    if (ref.Count[i] > 0)
      EXPECT_NEAR(avg[i], ref.Sum[i] / ref.Count[i], 1e-12);
    else
      EXPECT_DOUBLE_EQ(avg[i], 0.0);
  }

  img->UnRegister();
  b->Delete();
  t->Delete();
  da->ReleaseData();
  da->Delete();
}

INSTANTIATE_TEST_SUITE_P(HostAndDevices, BinningPlacement,
                         ::testing::Values(AnalysisAdaptor::DEVICE_HOST, 0, 1,
                                           3),
                         [](const ::testing::TestParamInfo<int> &info)
                         {
                           return info.param < 0
                                    ? std::string("host")
                                    : "device" + std::to_string(info.param);
                         });

// --- geometry / ranges ------------------------------------------------------------------

TEST(Binning, AutoRangeFollowsData)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(2000, 11);
  da->SetTable(t);
  t->Delete();

  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({8});
  b->AddOperation("m", BinningOp::Sum);
  ASSERT_TRUE(b->Execute(da));

  svtkImageData *img = b->GetLastResult();
  double origin[3], spacing[3];
  img->GetOrigin(origin);
  img->GetSpacing(spacing);
  // bounds hug the data inside [-1,1]
  EXPECT_GE(origin[0], -1.0);
  EXPECT_LE(origin[0] + 8 * spacing[0], 1.0 + 1e-12);

  // every body lands somewhere
  double total = 0;
  for (double c : GridValues(img, "count"))
    total += c;
  EXPECT_DOUBLE_EQ(total, 2000.0);

  img->UnRegister();
  b->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(Binning, OneAndThreeDimensionalMeshes)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(3000, 5);
  da->SetTable(t);
  t->Delete();

  // 1D
  {
    DataBinning *b = DataBinning::New();
    b->SetMeshName("bodies");
    b->SetAxes({"x"});
    b->SetResolution({64});
    ASSERT_TRUE(b->Execute(da));
    svtkImageData *img = b->GetLastResult();
    int dims[3];
    img->GetDimensions(dims);
    EXPECT_EQ(dims[0], 64);
    EXPECT_EQ(dims[1], 1);
    double total = 0;
    for (double c : GridValues(img, "count"))
      total += c;
    EXPECT_DOUBLE_EQ(total, 3000.0);
    img->UnRegister();
    b->Delete();
  }

  // 3D over (x, y, v)
  {
    DataBinning *b = DataBinning::New();
    b->SetMeshName("bodies");
    b->SetAxes({"x", "y", "v"});
    b->SetResolution({8, 8, 4});
    b->AddOperation("m", BinningOp::Sum);
    ASSERT_TRUE(b->Execute(da));
    svtkImageData *img = b->GetLastResult();
    int dims[3];
    img->GetDimensions(dims);
    EXPECT_EQ(dims[2], 4);
    // mass 1 per body: sum of m == count everywhere
    EXPECT_EQ(GridValues(img, "count"), GridValues(img, "m_sum"));
    img->UnRegister();
    b->Delete();
  }

  da->ReleaseData();
  da->Delete();
}

TEST(Binning, ConfigurationErrors)
{
  ResetPlatform();
  DataBinning *b = DataBinning::New();
  EXPECT_THROW(b->SetAxes({}), std::invalid_argument);
  EXPECT_THROW(b->SetAxes({"a", "b", "c", "d"}), std::invalid_argument);
  EXPECT_THROW(b->SetResolution({4}), std::logic_error); // axes first
  b->SetAxes({"x", "y"});
  EXPECT_THROW(b->SetResolution({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(b->SetResolution({0}), std::invalid_argument);
  EXPECT_THROW(b->SetRange(5, 0, 1), std::out_of_range);
  EXPECT_THROW(b->SetRange(0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(b->AddOperation("", BinningOp::Sum), std::invalid_argument);
  EXPECT_NO_THROW(b->AddOperation("", BinningOp::Count));
  b->Delete();
}

TEST(Binning, MissingColumnsFailGracefully)
{
  // a binning over a missing axis, a missing reduction column (in both
  // methods) or a missing mesh fails without being placed: the load the
  // placement policies read is left as it was
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(10, 1);
  da->SetTable(t);
  t->Delete();
  const std::vector<std::uint64_t> placed =
    vp::DeviceLoadTracker::Get().PlacementTotals();

  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "nope"});
  EXPECT_FALSE(b->Execute(da));
  b->Delete();

  for (bool async : {false, true})
  {
    DataBinning *v = DataBinning::New();
    v->SetMeshName("bodies");
    v->SetAxes({"x", "y"});
    v->AddOperation("nope", BinningOp::Sum);
    v->SetAsynchronous(async);
    EXPECT_FALSE(v->Execute(da)) << "async " << async;
    v->Delete();
  }

  DataBinning *c = DataBinning::New();
  c->SetMeshName("wrong_mesh");
  c->SetAxes({"x", "y"});
  EXPECT_FALSE(c->Execute(da));
  c->Delete();

  EXPECT_EQ(vp::DeviceLoadTracker::Get().PlacementTotals(), placed);
  da->ReleaseData();
  da->Delete();
}

// --- async == lockstep -----------------------------------------------------------------

TEST(Binning, AsynchronousMatchesLockstep)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(4000, 21);
  da->SetTable(t);
  t->Delete();

  DataBinning *sync = MakeBinning(AnalysisAdaptor::DEVICE_HOST);
  DataBinning *async = MakeBinning(1);
  async->SetAsynchronous(true);

  ASSERT_TRUE(sync->Execute(da));
  ASSERT_TRUE(async->Execute(da));
  sync->Finalize();
  async->Finalize();

  svtkImageData *a = sync->GetLastResult();
  svtkImageData *b = async->GetLastResult();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(GridValues(a, "count"), GridValues(b, "count"));
  EXPECT_EQ(GridValues(a, "v_sum"), GridValues(b, "v_sum"));

  a->UnRegister();
  b->UnRegister();
  sync->Delete();
  async->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(Binning, AsyncDeepCopyDecouplesFromMutation)
{
  // after an async Execute returns, mutating the simulation's table must
  // not change the analysis result — the deep copy protects it
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(2000, 33);
  da->SetTable(t);

  DataBinning *lock = MakeBinning(AnalysisAdaptor::DEVICE_HOST);
  ASSERT_TRUE(lock->Execute(da));
  svtkImageData *expected = lock->GetLastResult();
  lock->Delete();

  DataBinning *async = MakeBinning(AnalysisAdaptor::DEVICE_HOST);
  async->SetAsynchronous(true);
  ASSERT_TRUE(async->Execute(da));

  // clobber the source data while (or after) the thread runs
  auto *x = dynamic_cast<svtkAOSDoubleArray *>(t->GetColumnByName("x"));
  ASSERT_NE(x, nullptr);
  std::fill(x->GetVector().begin(), x->GetVector().end(), 0.0);

  async->Finalize();
  svtkImageData *got = async->GetLastResult();
  EXPECT_EQ(GridValues(got, "count"), GridValues(expected, "count"));

  got->UnRegister();
  expected->UnRegister();
  async->Delete();
  t->Delete();
  da->ReleaseData();
  da->Delete();
}

// --- GPU strategy (the paper's future-work optimization) ----------------------------------

TEST(Binning, PrivatizedStrategyMatchesGlobalAtomics)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(4000, 77);
  da->SetTable(t);
  t->Delete();

  DataBinning *naive = MakeBinning(1);
  naive->SetGpuStrategy(sensei::GpuBinningStrategy::GlobalAtomics);
  ASSERT_TRUE(naive->Execute(da));

  DataBinning *priv = MakeBinning(1);
  priv->SetGpuStrategy(sensei::GpuBinningStrategy::Privatized);
  ASSERT_TRUE(priv->Execute(da));

  svtkImageData *a = naive->GetLastResult();
  svtkImageData *b = priv->GetLastResult();
  EXPECT_EQ(GridValues(a, "count"), GridValues(b, "count"));
  EXPECT_EQ(GridValues(a, "v_sum"), GridValues(b, "v_sum"));
  EXPECT_EQ(GridValues(a, "v_min"), GridValues(b, "v_min"));

  a->UnRegister();
  b->UnRegister();
  naive->Delete();
  priv->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(Binning, PrivatizedStrategyIsFasterOnDevice)
{
  // the whole point of the optimization: with the data already resident
  // on the device (the paper's zero-copy deployment), the privatized
  // device path beats both the naive device path and the host path
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");

  // device-resident copy of the synthetic table
  svtkTable *aos = MakeTable(1 << 20, 78);
  svtkTable *t = svtkTable::New();
  vcuda::SetDevice(0);
  for (int c = 0; c < aos->GetNumberOfColumns(); ++c)
  {
    const auto *src =
      dynamic_cast<const svtkAOSDoubleArray *>(aos->GetColumn(c));
    svtkHAMRDoubleArray *h = svtkHAMRDoubleArray::New(
      src->GetName(), src->GetNumberOfTuples(), 1, svtkAllocator::cuda);
    h->GetBuffer().assign(src->GetVector().data(), src->GetVector().size());
    t->AddColumn(h);
    h->Delete();
  }
  aos->Delete();
  da->SetTable(t);
  t->Delete();

  auto timeOf = [da](int device, sensei::GpuBinningStrategy s) -> double
  {
    DataBinning *b = MakeBinning(device, 256);
    b->SetGpuStrategy(s);
    const double t0 = vp::ThisClock().Now();
    EXPECT_TRUE(b->Execute(da));
    const double dt = vp::ThisClock().Now() - t0;
    b->Delete();
    return dt;
  };

  const double host =
    timeOf(AnalysisAdaptor::DEVICE_HOST,
           sensei::GpuBinningStrategy::GlobalAtomics);
  const double naive =
    timeOf(0, sensei::GpuBinningStrategy::GlobalAtomics);
  const double privatized =
    timeOf(0, sensei::GpuBinningStrategy::Privatized);

  EXPECT_LT(privatized, naive);
  EXPECT_LT(privatized, host);

  da->ReleaseData();
  da->Delete();
}

TEST(Binning, GpuStrategyNamesParse)
{
  EXPECT_EQ(sensei::GpuBinningStrategyFromName("privatized"),
            sensei::GpuBinningStrategy::Privatized);
  EXPECT_EQ(sensei::GpuBinningStrategyFromName("global_atomics"),
            sensei::GpuBinningStrategy::GlobalAtomics);
  EXPECT_EQ(sensei::GpuBinningStrategyFromName(""),
            sensei::GpuBinningStrategy::GlobalAtomics);
  EXPECT_THROW(sensei::GpuBinningStrategyFromName("warp_magic"),
               std::invalid_argument);
}

// --- multi-rank reduction ----------------------------------------------------------------

TEST(Binning, MultiRankReductionMatchesSerial)
{
  // 4 ranks, host and device, both GPU strategies; ops in an order that
  // differs from the packed segment order (sum/avg, then min, then max),
  // with column v used twice: every rank's result must equal, bit for
  // bit, a serial fold of each rank's row-order grids in rank order
  constexpr int Ranks = 4;
  constexpr long Res = 16;
  const std::vector<std::pair<std::string, BinningOp>> ops = {
    {"v", BinningOp::Max}, {"v", BinningOp::Sum}, {"y", BinningOp::Min},
    {"x", BinningOp::Average}};
  auto fold = [](BinningOp op, double &acc, double v)
  {
    if (op == BinningOp::Min)
      acc = std::min(acc, v);
    else if (op == BinningOp::Max)
      acc = std::max(acc, v);
    else
      acc += v;
  };
  auto column = [](svtkTable *t, const std::string &name)
  {
    return dynamic_cast<svtkAOSDoubleArray *>(t->GetColumnByName(name))
      ->GetVector();
  };
  auto bin = [](double c) // the kernel's index math over [-1, 1]
  {
    return static_cast<std::size_t>(std::clamp(
      static_cast<long>((c - -1.0) * (static_cast<double>(Res) / 2.0)), 0L,
      Res - 1));
  };

  // ref[0] counts, ref[1 + k] the grid of ops[k]
  std::vector<svtkTable *> tables;
  std::vector<std::vector<double>> ref;
  for (int r = 0; r < Ranks; ++r)
  {
    tables.push_back(MakeTable(1200 + 100 * r, 200u + r));
    const auto x = column(tables[r], "x"), y = column(tables[r], "y");
    std::vector<std::vector<double>> g(1, std::vector<double>(Res * Res));
    std::vector<std::vector<double>> vals;
    for (const auto &op : ops)
    {
      const double inf = std::numeric_limits<double>::infinity();
      g.emplace_back(Res * Res, op.second == BinningOp::Min   ? inf
                                : op.second == BinningOp::Max ? -inf
                                                              : 0.0);
      vals.push_back(column(tables[r], op.first));
    }
    for (std::size_t i = 0; i < x.size(); ++i)
    {
      const std::size_t idx = bin(x[i]) + Res * bin(y[i]);
      g[0][idx] += 1.0;
      for (std::size_t k = 0; k < ops.size(); ++k)
        fold(ops[k].second, g[1 + k][idx], vals[k][i]);
    }
    for (std::size_t k = 0; r && k < g.size(); ++k)
      for (std::size_t i = 0; i < g[k].size(); ++i)
        fold(k ? ops[k - 1].second : BinningOp::Sum, ref[k][i], g[k][i]);
    if (!r)
      ref = g;
  }
  for (std::size_t k = 0; k < ops.size(); ++k)
    for (std::size_t i = 0; i < ref[0].size(); ++i)
      if (ops[k].second == BinningOp::Average)
        ref[1 + k][i] = ref[0][i] > 0.0 ? ref[1 + k][i] / ref[0][i] : 0.0;
      else if (ref[0][i] == 0.0)
        ref[1 + k][i] = 0.0;

  for (int device : {AnalysisAdaptor::DEVICE_HOST, 0})
    for (auto strat : {sensei::GpuBinningStrategy::GlobalAtomics,
                       sensei::GpuBinningStrategy::Privatized})
    {
      ResetPlatform();
      minimpi::Run(
        Ranks,
        [&](minimpi::Communicator &comm)
        {
          const int r = comm.Rank();
          sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
          da->SetTable(tables[r]);
          da->SetCommunicator(&comm);
          DataBinning *b = DataBinning::New();
          b->SetMeshName("bodies");
          b->SetAxes({"x", "y"});
          b->SetResolution({Res});
          b->SetRange(0, -1.0, 1.0);
          b->SetRange(1, -1.0, 1.0);
          for (const auto &op : ops)
            b->AddOperation(op.first, op.second);
          b->SetDeviceId(device < 0 ? device : r);
          b->SetGpuStrategy(strat);
          EXPECT_TRUE(b->Execute(da));

          svtkImageData *img = b->GetLastResult();
          for (std::size_t k = 0; k <= ops.size(); ++k)
            EXPECT_EQ(GridValues(img, k ? ops[k - 1].first + "_" +
                                            BinningOpName(ops[k - 1].second)
                                        : std::string("count")),
                      ref[k])
              << "device " << device << " strategy " << int(strat)
              << " rank " << r << " grid " << k;
          img->UnRegister();
          b->Delete();
          da->ReleaseData();
          da->Delete();
        });
    }

  for (svtkTable *t : tables)
    t->Delete();
}

TEST(BinningPacked, DeviceExecuteIsFourLaunchesAndTwoReadbacks)
{
  // one device Execute of a 10-sum binning with auto ranges: the range
  // scan, one packed init, one accumulation and one compaction; the
  // range readback and one compact record readback. 2000 rows over 256
  // bins fill the capacity, so every bin has a slot.
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(2000, 12);
  da->SetTable(t);
  t->Delete();

  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({16});
  for (int k = 0; k < 10; ++k)
    b->AddOperation(k % 2 ? "v" : "m", BinningOp::Sum);
  b->SetDeviceId(0);

  vp::PlatformStats &stats = vp::Platform::Get().Stats();
  stats.Reset();
  ASSERT_TRUE(b->Execute(da));
  EXPECT_EQ(stats.KernelsLaunched.load(), 4u);
  EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToHost), 2u);
  // [lo, hi] of 2 axes, then 4 bitmap words and 256 slots of 11 grids
  EXPECT_EQ(stats.Bytes(vp::CopyKind::DeviceToHost),
            2u * 2 * 8 + 4 * 8 + 256 * 11 * 8);

  b->Delete();
  da->ReleaseData();
  da->Delete();
}

TEST(BinningPacked, FewRowsReadBackOnlyTheirSlots)
{
  // 40 rows over 128 x 128 bins: the device reads back the bitmap plus
  // 40 slots of 5 grids (5.6 KB, not the 655 KB record), and its grids
  // match the host path's bit for bit
  ResetPlatform();
  svtkTable *t = MakeTable(40, 5);
  std::vector<std::vector<double>> grids[2];
  for (int device : {AnalysisAdaptor::DEVICE_HOST, 0})
  {
    sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
    da->SetTable(t);
    DataBinning *b = MakeBinning(device, 128);

    vp::PlatformStats &stats = vp::Platform::Get().Stats();
    stats.Reset();
    ASSERT_TRUE(b->Execute(da));
    if (device == 0)
    {
      EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToHost), 1u);
      EXPECT_EQ(stats.Bytes(vp::CopyKind::DeviceToHost),
                128u * 128 / 8 + 40 * 5 * 8);
    }

    svtkImageData *img = b->GetLastResult();
    for (const char *name : {"count", "v_sum", "v_min", "v_max", "v_avg"})
      grids[device == 0].push_back(GridValues(img, name));
    img->UnRegister();
    b->Delete();
    da->ReleaseData();
    da->Delete();
  }
  EXPECT_EQ(grids[0], grids[1]);
  t->Delete();
}

TEST(BinningPacked, TimingOnlyChargesWhatExecutingCharges)
{
  // the compact record's readback and exchange are sized from capacities
  // (rows binned), never from contents, so a timing-only run (kernel
  // bodies and copies skipped) charges every rank the same virtual time
  // as an executing one
  constexpr int Ranks = 4;
  std::vector<svtkTable *> tables;
  for (int r = 0; r < Ranks; ++r)
    tables.push_back(MakeTable(30 + 200 * static_cast<std::size_t>(r),
                               40u + static_cast<unsigned>(r)));
  std::vector<double> spent[2];
  for (bool execute : {false, true})
  {
    vp::PlatformConfig cfg;
    cfg.DevicesPerNode = 4;
    cfg.HostCoresPerNode = 8;
    cfg.ExecuteKernels = execute;
    vp::Platform::Initialize(cfg);
    vp::ThisClock().Set(0.0);
    spent[execute].assign(Ranks, 0.0);
    minimpi::LaunchOptions lo;
    lo.Ranks = Ranks;
    lo.Lockstep = true;
    minimpi::Run(lo,
                 [&](minimpi::Communicator &comm)
                 {
                   const int r = comm.Rank();
                   sensei::TableAdaptor *da =
                     sensei::TableAdaptor::New("bodies");
                   da->SetTable(tables[static_cast<std::size_t>(r)]);
                   da->SetCommunicator(&comm);
                   DataBinning *b = MakeBinning(r, 128);
                   const double t0 = vp::ThisClock().Now();
                   EXPECT_TRUE(b->Execute(da));
                   spent[execute][static_cast<std::size_t>(r)] =
                     vp::ThisClock().Now() - t0;
                   b->Delete();
                   da->ReleaseData();
                   da->Delete();
                 });
  }
  EXPECT_EQ(spent[0], spent[1]);
  for (svtkTable *t : tables)
    t->Delete();
}

// --- file output ---------------------------------------------------------------------------

TEST(Binning, WritesVtiAtFrequency)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkTable *t = MakeTable(100, 9);
  da->SetTable(t);
  t->Delete();

  DataBinning *b = MakeBinning(AnalysisAdaptor::DEVICE_HOST, 8);
  b->SetOutput(::testing::TempDir(), "bin_test", 2);

  for (long s = 0; s < 4; ++s)
  {
    da->SetDataTimeStep(s);
    ASSERT_TRUE(b->Execute(da));
  }
  b->Finalize();

  for (long s : {0L, 2L})
  {
    const std::string f =
      ::testing::TempDir() + "/bin_test_" + std::to_string(s) + ".vti";
    std::ifstream check(f);
    EXPECT_TRUE(check.good()) << f;
    std::remove(f.c_str());
  }
  for (long s : {1L, 3L})
  {
    const std::string f =
      ::testing::TempDir() + "/bin_test_" + std::to_string(s) + ".vti";
    std::ifstream check(f);
    EXPECT_FALSE(check.good()) << f;
  }

  EXPECT_EQ(b->GetExecuteCount(), 4);
  b->Delete();
  da->ReleaseData();
  da->Delete();
}

// --- the data adaptor's per-step snapshot (asynchronous deep copies) ------------------

namespace
{
/// Three binnings over overlapping columns: four distinct (x, y, v, m)
/// between them, each binning naming three or four.
std::vector<DataBinning *> OverlappingBinnings(int device, bool async)
{
  const std::vector<std::vector<std::string>> axes = {
    {"x", "y"}, {"x", "v"}, {"y", "m"}};
  const std::vector<std::vector<std::pair<std::string, BinningOp>>> ops = {
    {{"v", BinningOp::Sum}, {"m", BinningOp::Min}},
    {{"m", BinningOp::Sum}, {"y", BinningOp::Max}},
    {{"x", BinningOp::Average}, {"v", BinningOp::Sum}}};
  std::vector<DataBinning *> out;
  for (std::size_t i = 0; i < axes.size(); ++i)
  {
    DataBinning *b = DataBinning::New();
    b->SetMeshName("bodies");
    b->SetAxes(axes[i]);
    b->SetResolution({16});
    for (const auto &[col, op] : ops[i])
      b->AddOperation(col, op);
    b->SetDeviceId(device);
    b->SetAsynchronous(async);
    out.push_back(b);
  }
  return out;
}
} // namespace

TEST(BinningSnapshot, AsyncBinningsShareOneCopyPerColumn)
{
  // three async binnings on a dedicated device over columns resident on
  // device 0: each step copies every distinct column once, in one packed
  // peer transfer straight onto device 3 (the first binning names all
  // four), the tasks move nothing, and the grids match lockstep bit for
  // bit, also after the source changes in place between steps
  ResetPlatform();
  constexpr std::size_t N = 3000;
  svtkTable *t = MakeDeviceTable(N, 61, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  std::vector<DataBinning *> async = OverlappingBinnings(3, true);
  std::vector<DataBinning *> lock = OverlappingBinnings(3, false);

  vp::PlatformStats &stats = vp::Platform::Get().Stats();
  for (long step = 0; step < 3; ++step)
  {
    if (step)
    {
      Rescale(t, "x", 0.5, 0.25);
      Rescale(t, "v", -1.0, 0.0);
    }
    da->SetTable(t);
    da->SetDataTimeStep(step);
    stats.Reset();
    for (DataBinning *b : async)
      ASSERT_TRUE(b->Execute(da));
    for (DataBinning *b : async)
      b->DrainAsync();
    EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToDevice), 1u) << step;
    EXPECT_EQ(stats.Bytes(vp::CopyKind::DeviceToDevice), 4u * N * 8) << step;
    EXPECT_EQ(stats.Copies(vp::CopyKind::OnDevice), 0u) << step;
    EXPECT_EQ(stats.Copies(vp::CopyKind::HostToDevice), 0u) << step;

    for (DataBinning *b : lock)
      ASSERT_TRUE(b->Execute(da));
    for (std::size_t i = 0; i < async.size(); ++i)
      EXPECT_EQ(AllGrids(async[i]), AllGrids(lock[i]))
        << "binning " << i << " step " << step;
    da->ReleaseData();
  }

  for (DataBinning *b : async)
    b->Delete();
  for (DataBinning *b : lock)
    b->Delete();
  t->Delete();
  da->Delete();
}

TEST(BinningSnapshot, HostPlacementCopiesStraightToHost)
{
  // an async binning on the host over device-resident columns packs its
  // distinct columns (x, y, v) on their device and moves them in one
  // direct D2H copy, with no device-to-device copy
  ResetPlatform();
  constexpr std::size_t N = 2000;
  svtkTable *t = MakeDeviceTable(N, 62, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  da->SetTable(t);

  DataBinning *async = MakeBinning(AnalysisAdaptor::DEVICE_HOST);
  async->SetAsynchronous(true);
  vp::PlatformStats &stats = vp::Platform::Get().Stats();
  stats.Reset();
  ASSERT_TRUE(async->Execute(da));
  async->Finalize();
  EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToHost), 1u);
  EXPECT_EQ(stats.Bytes(vp::CopyKind::DeviceToHost), 3u * N * 8);
  EXPECT_EQ(stats.Copies(vp::CopyKind::OnDevice), 0u);
  EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToDevice), 0u);

  DataBinning *lock = MakeBinning(AnalysisAdaptor::DEVICE_HOST);
  ASSERT_TRUE(lock->Execute(da));
  EXPECT_EQ(AllGrids(async), AllGrids(lock));

  async->Delete();
  lock->Delete();
  da->ReleaseData();
  t->Delete();
  da->Delete();
}

TEST(BinningSnapshot, DataChangedAfterReleaseReachesTheNextStep)
{
  // the step index stays put, so only ReleaseData separates the steps:
  // two async binnings share the copies of step 1 (held to ReleaseData,
  // no count yet); step 2 runs one of them (fewer requests than
  // expected, so held to ReleaseData again); step 3 runs both. Each
  // step's source changes in place after the previous ReleaseData, and a
  // step-index change without ReleaseData invalidates the copies too.
  ResetPlatform();
  svtkTable *t = MakeDeviceTable(1500, 63, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  da->SetTable(t);
  std::vector<DataBinning *> async, lock;
  for (bool a : {true, false})
    for (int i = 0; i < 2; ++i)
    {
      DataBinning *b = MakeBinning(1);
      b->SetAsynchronous(a);
      (a ? async : lock).push_back(b);
    }

  const std::vector<std::size_t> running[] = {{0, 1}, {0}, {0, 1}, {1}};
  for (std::size_t step = 0; step < 4; ++step)
  {
    if (step)
      Rescale(t, "v", 1.5, -0.125 * static_cast<double>(step));
    if (step == 3)
      da->SetDataTimeStep(1); // no ReleaseData before this step
    for (std::size_t i : running[step])
    {
      ASSERT_TRUE(async[i]->Execute(da));
      async[i]->DrainAsync();
      ASSERT_TRUE(lock[i]->Execute(da));
      da->FinishLockstep();
      EXPECT_EQ(AllGrids(async[i]), AllGrids(lock[i]))
        << "binning " << i << " step " << step;
    }
    if (step < 2)
    {
      da->ReleaseData();
      da->SetTable(t);
    }
  }

  for (DataBinning *b : async)
    b->Delete();
  for (DataBinning *b : lock)
    b->Delete();
  da->ReleaseData();
  t->Delete();
  da->Delete();
}

TEST(BinningSnapshot, HoldsACopyOnlyWhileAnotherRequestIsExpected)
{
  // requests in one step share one copy per (column, device); the
  // adaptor keeps its own reference until ReleaseData while it has no
  // count, and afterwards drops it at the request that reaches the
  // previous step's count
  ResetPlatform();
  svtkTable *t = MakeDeviceTable(500, 64, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  svtkDataArray *x = t->GetColumnByName("x");
  const std::vector<double> xs = svtkToDoubleVector(x);

  // step 1: two requests on device 2 share, one on device 1 does not
  da->SetTable(t);
  auto a = da->Snapshot({x}, 2).front();
  auto b = da->Snapshot({x}, 2).front();
  auto c = da->Snapshot({x}, 1).front();
  EXPECT_EQ(a.Get(), b.Get());
  EXPECT_NE(a.Get(), c.Get());
  EXPECT_TRUE(a->DeviceAccessible(2));
  EXPECT_TRUE(c->DeviceAccessible(1));
  EXPECT_EQ(a->GetReferenceCount(), 3); // a, b and the adaptor
  EXPECT_EQ(c->GetReferenceCount(), 2);
  EXPECT_EQ(a->ToVector(), xs);
  EXPECT_EQ(c->ToVector(), xs);
  da->ReleaseData();
  EXPECT_EQ(a->GetReferenceCount(), 2);
  EXPECT_EQ(c->GetReferenceCount(), 1);

  // step 2: two requests expected on device 2; one on device 1
  da->SetTable(t);
  auto d = da->Snapshot({x}, 2).front();
  EXPECT_NE(d.Get(), a.Get()); // never reused after ReleaseData
  EXPECT_EQ(d->GetReferenceCount(), 2);
  auto e = da->Snapshot({x}, 2).front();
  EXPECT_EQ(e.Get(), d.Get());
  EXPECT_EQ(d->GetReferenceCount(), 2); // d and e: the adaptor let go
  EXPECT_EQ(da->Snapshot({x}, 1).front()->GetReferenceCount(), 1);
  da->ReleaseData();

  // step 3: one request where two were expected: held to ReleaseData
  da->SetTable(t);
  auto f = da->Snapshot({x}, 2).front();
  EXPECT_EQ(f->GetReferenceCount(), 2);
  da->ReleaseData();
  EXPECT_EQ(f->GetReferenceCount(), 1);

  // step 4 on: one consumer, and the adaptor holds nothing after it
  for (int step = 0; step < 2; ++step)
  {
    da->SetTable(t);
    auto g = da->Snapshot({x}, 2).front();
    EXPECT_EQ(g->GetReferenceCount(), 1);
    EXPECT_EQ(g->ToVector(), xs);
    da->ReleaseData();
  }

  t->Delete();
  da->Delete();
}

TEST(BinningSnapshot, ConvertedColumnIsAdoptedNotCopiedAgain)
{
  // a non-HAMR column is a private array once converted: on the host the
  // snapshot is that conversion (one host copy in all), on a device it
  // is one H2D copy of it
  ResetPlatform();
  svtkTable *t = MakeTable(1000, 65);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  da->SetTable(t);
  svtkDataArray *v = t->GetColumnByName("v");
  const std::vector<double> vs = svtkToDoubleVector(v);

  vp::PlatformStats &stats = vp::Platform::Get().Stats();
  stats.Reset();
  auto host = da->Snapshot({v}, AnalysisAdaptor::DEVICE_HOST).front();
  EXPECT_EQ(stats.Copies(vp::CopyKind::HostToHost), 1u);
  EXPECT_EQ(stats.Copies(vp::CopyKind::HostToDevice), 0u);
  EXPECT_TRUE(host->HostAccessible());

  stats.Reset();
  auto dev = da->Snapshot({v}, 1).front();
  EXPECT_EQ(stats.Copies(vp::CopyKind::HostToHost), 1u);
  EXPECT_EQ(stats.Copies(vp::CopyKind::HostToDevice), 1u);
  EXPECT_TRUE(dev->DeviceAccessible(1));

  EXPECT_EQ(host->ToVector(), vs);
  EXPECT_EQ(dev->ToVector(), vs);
  da->ReleaseData();
  t->Delete();
  da->Delete();
}

TEST(BinningSnapshot, SharedCopiesAreCheckerCleanUnderExecThreads)
{
  // the sharing case on real threads: with <exec mode="threads"> every
  // async binning has its own consumer thread, and the last reference to
  // a shared copy drops on whichever finishes last while the simulation
  // thread drops the snapshot's; the checker sees no violation and the
  // grids match lockstep. scripts/run_campaign.sh runs this under
  // VP_CHECK=1 in the tsan section.
  ResetPlatform();
  vp::check::Reset();
  vp::check::Enable(true);
  const char *binnings[] = {
    R"(axes="x,y" ops="sum,min" values="v,m")",
    R"(axes="x,v" ops="sum,max" values="m,y")",
    R"(axes="y,m" ops="avg,sum" values="x,v")"};
  std::string xml = "<sensei>\n  <exec mode=\"threads\" threads=\"2\"/>\n";
  for (const char *async : {"1", "0"})
    for (const char *b : binnings)
      xml += std::string("  <analysis type=\"data_binning\" mesh=\"bodies\" ") +
             b + " resolution=\"16\" device=\"3\" async=\"" + async +
             "\"/>\n";
  xml += "</sensei>";

  sensei::ConfigurableAnalysis *chain = sensei::ConfigurableAnalysis::New();
  chain->InitializeString(xml);
  ASSERT_TRUE(vp::exec::ThreadsEnabled());
  svtkTable *t = MakeDeviceTable(2500, 66, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  for (long step = 0; step < 4; ++step)
  {
    if (step)
      Rescale(t, "m", 2.0, 0.5);
    da->SetTable(t);
    da->SetDataTimeStep(step);
    ASSERT_TRUE(chain->Execute(da));
    da->ReleaseData();
  }
  EXPECT_EQ(chain->Finalize(), 0);

  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(AllGrids(dynamic_cast<DataBinning *>(chain->GetAnalysis(i))),
              AllGrids(dynamic_cast<DataBinning *>(chain->GetAnalysis(i + 3))))
      << "binning " << i;
  chain->Delete();
  t->Delete();
  da->Delete();

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
  vp::exec::Configure(vp::exec::ExecConfig());
}

TEST(BinningSnapshot, SimulationWritesAfterTheSnapshotDoNotReachIt)
{
  // under threaded execution (<exec mode="threads">) the snapshot's
  // copies of device-0 columns are queued on the columns' stream (device
  // 0's default) behind the simulation's step, a kernel still running
  // on its worker when Execute is called, and are still in flight when
  // Execute returns. A kernel the simulation queues there right after
  // Execute, rewriting every column, runs after them. Async binnings on
  // a dedicated device and on the data's device must bin exactly the
  // step's data: they match lockstep binnings of a host table holding
  // it, and the checker sees no unordered access. scripts/run_campaign.sh
  // runs this under VP_CHECK=1 in the tsan section.
  ResetPlatform();
  vp::check::Reset();
  vp::check::Enable(true);
  vp::exec::ExecConfig ec;
  ec.ExecMode = vp::exec::Mode::Threads;
  ec.Threads = 2;
  vp::exec::Configure(ec);

  constexpr std::size_t N = 2500;
  svtkTable *t = MakeDeviceTable(N, 67, 0);
  std::vector<double *> cols;
  std::vector<std::vector<double>> mirror; // the columns' values, on the host
  for (int c = 0; c < t->GetNumberOfColumns(); ++c)
  {
    auto *a = dynamic_cast<svtkHAMRDoubleArray *>(t->GetColumn(c));
    cols.push_back(a->GetData());
    mirror.push_back(a->ToVector());
  }
  // x -> scale * x + shift over every column, on device 0's default
  // stream; the simulation's step also takes real time on its worker
  const vp::Stream strm = vp::Platform::Get().DefaultStream(0);
  auto rewrite = [&](double scale, double shift, bool slow)
  {
    vcuda::LaunchN(strm, N,
                   [cols, scale, shift, slow](std::size_t b, std::size_t e)
                   {
                     if (slow)
                       std::this_thread::sleep_for(
                         std::chrono::milliseconds(20));
                     for (double *p : cols)
                       for (std::size_t i = b; i < e; ++i)
                         p[i] = scale * p[i] + shift;
                   },
                   {50.0, 0.0, "simulation_rewrite", false});
    for (std::vector<double> &m : mirror)
      for (double &x : m)
        x = scale * x + shift;
  };

  std::vector<DataBinning *> async = OverlappingBinnings(3, true);
  for (DataBinning *b : OverlappingBinnings(0, true))
    async.push_back(b);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  for (long step = 0; step < 3; ++step)
  {
    const double shift = 0.125 * static_cast<double>(step + 1);
    rewrite(0.75, shift, true); // the step, still running
    svtkTable *host = svtkTable::New();
    for (std::size_t c = 0; c < cols.size(); ++c)
    {
      svtkAOSDoubleArray *a = svtkAOSDoubleArray::New(
        t->GetColumn(static_cast<int>(c))->GetName(), N, 1);
      a->GetVector() = mirror[c];
      host->AddColumn(a);
      a->Delete();
    }

    da->SetTable(t);
    da->SetDataTimeStep(step);
    for (DataBinning *b : async)
      ASSERT_TRUE(b->Execute(da));
    rewrite(-0.5, shift, false); // right after Execute

    sensei::TableAdaptor *ref = sensei::TableAdaptor::New("bodies");
    ref->SetTable(host);
    std::vector<DataBinning *> lock =
      OverlappingBinnings(AnalysisAdaptor::DEVICE_HOST, false);
    for (std::size_t i = 0; i < async.size(); ++i)
    {
      DataBinning *want = lock[i % lock.size()];
      if (i < lock.size())
        ASSERT_TRUE(want->Execute(ref));
      async[i]->DrainAsync();
      EXPECT_EQ(AllGrids(async[i]), AllGrids(want))
        << "binning " << i << " step " << step;
    }
    for (DataBinning *b : lock)
      b->Delete();
    ref->ReleaseData();
    ref->Delete();
    host->Delete();
    da->ReleaseData();
  }
  for (DataBinning *b : async)
  {
    EXPECT_EQ(b->Finalize(), 0);
    b->Delete();
  }
  t->Delete();
  da->Delete();

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
  vp::exec::Configure(vp::exec::ExecConfig());
}

namespace
{
/// Ten device-0 columns "c0".."c9" of n rows; `values` receives them.
svtkTable *TenDeviceColumns(std::size_t n, unsigned seed,
                            std::vector<std::vector<double>> &values)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  svtkTable *t = svtkTable::New();
  values.clear();
  for (int c = 0; c < 10; ++c)
  {
    std::vector<double> v(n);
    for (double &x : v)
      x = u(gen);
    svtkHAMRDoubleArray *a = svtkHAMRDoubleArray::New(
      "c" + std::to_string(c), n, 1, svtkAllocator::cuda);
    a->GetBuffer().assign(v.data(), n);
    t->AddColumn(a);
    a->Delete();
    values.push_back(std::move(v));
  }
  return t;
}
} // namespace

TEST(BinningSnapshot, FirstExecuteCostsTheSpawnAndTheSubmissions)
{
  // what the simulation sees of an async binning's executes over ten
  // device-0 columns placed on device 3, with a long kernel pending on
  // the columns' stream. The first starts the binning's consumer (one
  // thread launch) and snapshots the ten columns in one packed copy:
  // a gather kernel and a transfer, each with its stream-ordered
  // allocation and submission, and the submission of the readback of
  // the ranges the gather folds for the auto-ranged axes. A second
  // execute in the same step shares that snapshot and only hands its
  // task to the running consumer. Nothing waits for the kernel or for a
  // transfer.
  ResetPlatform();
  sched::SchedConfig deep;
  deep.QueueDepth = 2; // the second task queues behind the first
  sched::Configure(deep);
  constexpr std::size_t N = 4096;
  std::vector<std::vector<double>> values;
  svtkTable *t = TenDeviceColumns(N, 68, values);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  da->SetTable(t);

  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"c0", "c1"});
  b->SetResolution({32});
  for (int c = 2; c < 10; ++c)
    b->AddOperation("c" + std::to_string(c), BinningOp::Sum);
  b->SetDeviceId(3);
  b->SetAsynchronous(true);

  vp::Platform &plat = vp::Platform::Get();
  vcuda::LaunchN(plat.DefaultStream(0), N, vp::KernelFn(),
                 {1.0e5, 0.0, "simulation_pending", false});
  const double kernelEnd = plat.DefaultStream(0).Get()->Completion();
  const vp::CostModel &cost = plat.Config().Cost;
  double t0 = vp::ThisClock().Now();
  ASSERT_TRUE(b->Execute(da));
  EXPECT_NEAR(vp::ThisClock().Now() - t0,
              cost.ThreadSpawnCost +
                2.0 * (cost.AsyncAllocLatency + cost.KernelSubmitOverhead) +
                cost.KernelSubmitOverhead,
              1e-12);
  t0 = vp::ThisClock().Now();
  ASSERT_TRUE(b->Execute(da));
  EXPECT_NEAR(vp::ThisClock().Now() - t0, cost.KernelSubmitOverhead, 1e-12);
  EXPECT_LT(vp::ThisClock().Now(), kernelEnd);
  EXPECT_EQ(b->Finalize(), 0);
  EXPECT_EQ(b->GetExecuteCount(), 2);

  b->Delete();
  da->ReleaseData();
  t->Delete();
  da->Delete();
  sched::Configure(sched::SchedConfig());
}

TEST(BinningSnapshot, OneTransferPerColumnSet)
{
  // ten device-0 columns requested together, behind a long kernel on
  // their stream: onto device 3 they cost one gather kernel and one
  // transfer of all their bytes, onto device 0 itself one kernel and no
  // transfer. Each snapshot is a slice of the one block, waits for the
  // block's transfer, and reads its column's values, also once its nine
  // siblings and the adaptor's references are gone. Under
  // <exec mode="threads"> with the checker on, so the gather and the
  // transfer really run later on workers (scripts/run_campaign.sh runs
  // it under VP_CHECK=1 in the tsan section).
  ResetPlatform();
  vp::check::Reset();
  vp::check::Enable(true);
  vp::exec::ExecConfig threads;
  threads.ExecMode = vp::exec::Mode::Threads;
  threads.Threads = 2;
  vp::exec::Configure(threads);
  constexpr std::size_t N = 3000;
  std::vector<std::vector<double>> values;
  svtkTable *t = TenDeviceColumns(N, 69, values);
  std::vector<svtkDataArray *> cols;
  for (int c = 0; c < 10; ++c)
    cols.push_back(t->GetColumn(c));
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");

  vp::Platform &plat = vp::Platform::Get();
  const vp::CostModel &cost = plat.Config().Cost;
  vp::PlatformStats &stats = plat.Stats();
  const vp::Stream strm = plat.DefaultStream(0);
  long step = 0;
  for (int target : {3, 0})
  {
    vcuda::LaunchN(strm, N, vp::KernelFn(),
                   {1.0e5, 0.0, "simulation_pending", false});
    const double kernelEnd = strm.Get()->Completion();
    da->SetTable(t);
    da->SetDataTimeStep(step++);
    stats.Reset();
    const double t0 = vp::ThisClock().Now();
    std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> snaps =
      da->Snapshot(cols, target);
    const double hops = target == 0 ? 1.0 : 2.0;
    EXPECT_NEAR(vp::ThisClock().Now() - t0,
                hops * (cost.AsyncAllocLatency + cost.KernelSubmitOverhead),
                1e-12)
      << target;
    EXPECT_LT(vp::ThisClock().Now(), kernelEnd) << target;
    EXPECT_EQ(stats.KernelsLaunched, 1u) << target;
    std::uint64_t copies = 0;
    for (vp::CopyKind k :
         {vp::CopyKind::HostToDevice, vp::CopyKind::DeviceToHost,
          vp::CopyKind::DeviceToDevice, vp::CopyKind::OnDevice,
          vp::CopyKind::HostToHost})
      copies += stats.Copies(k);
    EXPECT_EQ(copies, target == 0 ? 0u : 1u) << target;
    EXPECT_EQ(stats.Bytes(vp::CopyKind::DeviceToDevice),
              target == 0 ? 0u : 10u * N * 8);
    ASSERT_EQ(snaps.size(), 10u);
    for (std::size_t k = 0; k < snaps.size(); ++k)
    {
      EXPECT_TRUE(snaps[k]->DeviceAccessible(target)) << k;
      EXPECT_EQ(snaps[k]->GetName(), cols[k]->GetName());
      EXPECT_EQ(snaps[k]->GetData(), snaps[0]->GetData() + k * N) << k;
    }
    const double transferEnd = strm.Get()->Completion();

    svtkSmartPtr<const svtkHAMRDoubleArray> kept = snaps[7];
    snaps.clear();
    da->ReleaseData();
    EXPECT_EQ(kept->GetReferenceCount(), 1) << target;
    kept->Synchronize();
    EXPECT_GE(vp::ThisClock().Now(), transferEnd) << target;
    EXPECT_EQ(kept->ToVector(), values[7]) << target;
  }
  t->Delete();
  da->Delete();

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
  vp::exec::Configure(vp::exec::ExecConfig());
}

TEST(BinningSnapshot, AWindowKeepsItsColumnAlone)
{
  // an asynchronous binning on device 0 takes the step's snapshot of x,
  // y, v and m first, as one packed block, so the asynchronous
  // autocorrelation of m on the same device is handed a slice of it;
  // its window keeps a copy of m alone, and once the binning and the
  // adaptor let go the device holds the window's W x N values and no
  // more (a window of slices would hold W blocks of four columns)
  ResetPlatform();
  constexpr std::size_t N = 1000;
  constexpr long W = 3;
  svtkTable *t = MakeDeviceTable(N, 72, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({16});
  b->AddOperation("v", BinningOp::Sum);
  b->AddOperation("m", BinningOp::Sum);
  b->SetDeviceId(0);
  b->SetAsynchronous(true);
  sensei::Autocorrelation *ac = sensei::Autocorrelation::New();
  ac->SetMeshName("bodies");
  ac->SetColumn("m");
  ac->SetWindow(W);
  ac->SetDeviceId(0);
  ac->SetAsynchronous(true);

  auto deviceBytes = []()
  { return vp::Platform::Get().Registry().BytesIn(vp::MemSpace::Device, 0); };
  const std::size_t idle = deviceBytes();
  for (long step = 0; step < W + 2; ++step)
  {
    da->SetTable(t);
    da->SetDataTimeStep(step);
    ASSERT_TRUE(b->Execute(da));
    ASSERT_TRUE(ac->Execute(da));
    da->ReleaseData();
  }
  EXPECT_EQ(b->Finalize(), 0);
  EXPECT_EQ(ac->Finalize(), 0);
  EXPECT_EQ(deviceBytes() - idle, W * N * sizeof(double));
  EXPECT_EQ(ac->GetLastResult(), std::vector<double>(W, 1.0)); // m is 1

  ac->Delete();
  EXPECT_EQ(deviceBytes(), idle);
  b->Delete();
  da->Delete();
  t->Delete();
}

// --- the data adaptor's per-step axis-range table (lockstep binnings) -----------------

namespace
{
/// The paper's nine coordinate systems over six axis columns, and the ten
/// variables every system sums.
const std::vector<std::pair<std::string, std::string>> kSystems = {
  {"x", "y"},   {"x", "z"},   {"y", "z"},   {"vx", "vy"}, {"vx", "vz"},
  {"vy", "vz"}, {"x", "vx"},  {"y", "vy"},  {"z", "vz"}};
const std::vector<std::string> kVariables = {
  "x", "y", "z", "vx", "vy", "vz", "m", "speed", "ke", "r"};

/// A column placement for MakeColumns: a device id, DEVICE_HOST for a
/// host HAMR array, or PlainHost for a plain (non-HAMR) host array.
constexpr int PlainHost = -100;

/// kVariables as columns of n rows placed by `where(name)`. Column k
/// holds `scale` times uniform [-1, 1] values plus 0.25 k, so every column
/// has its own range.
svtkTable *MakeColumns(std::size_t n, unsigned seed, double scale,
                       const std::function<int(const std::string &)> &where)
{
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  svtkTable *t = svtkTable::New();
  for (std::size_t k = 0; k < kVariables.size(); ++k)
  {
    std::vector<double> v(n);
    for (double &x : v)
      x = scale * u(gen) + 0.25 * static_cast<double>(k);
    const int at = where(kVariables[k]);
    if (at == PlainHost)
    {
      svtkAOSDoubleArray *c = svtkAOSDoubleArray::New(kVariables[k], n, 1);
      c->GetVector() = v;
      t->AddColumn(c);
      c->Delete();
      continue;
    }
    if (at >= 0)
      vcuda::SetDevice(at);
    svtkHAMRDoubleArray *c = svtkHAMRDoubleArray::New(
      kVariables[k], n, 1,
      at >= 0 ? svtkAllocator::cuda : svtkAllocator::malloc_);
    c->GetBuffer().assign(v.data(), n);
    t->AddColumn(c);
    c->Delete();
  }
  vcuda::SetDevice(0);
  return t;
}

/// Change every column of `t` in place (same arrays, same storage).
void ChangeInPlace(svtkTable *t, double scale, double shift)
{
  for (int c = 0; c < t->GetNumberOfColumns(); ++c)
  {
    svtkDataArray *col = t->GetColumn(c);
    if (auto *aos = dynamic_cast<svtkAOSDoubleArray *>(col))
    {
      for (double &x : aos->GetVector())
        x = scale * x + shift;
      continue;
    }
    Rescale(t, col->GetName().c_str(), scale, shift);
  }
}

/// A lockstep binning of coordinate system `s` summing every variable.
DataBinning *SystemBinning(std::size_t s, int device)
{
  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({kSystems[s].first, kSystems[s].second});
  b->SetResolution({16});
  for (const std::string &v : kVariables)
    b->AddOperation(v, BinningOp::Sum);
  b->SetDeviceId(device);
  return b;
}

/// A binning's last result bit for bit: origin, spacing, then every grid.
std::vector<std::uint64_t> ResultBits(DataBinning *b)
{
  std::vector<double> v(6, 0.0);
  svtkImageData *img = b->GetLastResult();
  EXPECT_NE(img, nullptr);
  if (!img)
    return {};
  img->GetOrigin(v.data());
  img->GetSpacing(v.data() + 3);
  img->UnRegister();
  for (const std::vector<double> &g : AllGrids(b))
    v.insert(v.end(), g.begin(), g.end());
  std::vector<std::uint64_t> bits(v.size());
  std::memcpy(bits.data(), v.data(), 8 * v.size());
  return bits;
}

/// Presents any mesh object (a table or a multi-block set) as "bodies".
class MeshAdaptor : public sensei::DataAdaptor
{
public:
  static MeshAdaptor *New() { return new MeshAdaptor; }

  std::vector<std::string> GetMeshNames() override { return {"bodies"}; }

  svtkDataObject *GetMesh(const std::string &name) override
  {
    if (name != "bodies" || !this->Mesh_)
      return nullptr;
    this->Mesh_->Register();
    return this->Mesh_;
  }

  void ReleaseData() override
  {
    this->DataAdaptor::ReleaseData();
    this->SetMesh(nullptr);
  }

  /// Share `mesh` as this step's data (takes a reference).
  void SetMesh(svtkDataObject *mesh)
  {
    if (mesh)
      mesh->Register();
    if (this->Mesh_)
      this->Mesh_->UnRegister();
    this->Mesh_ = mesh;
  }

protected:
  ~MeshAdaptor() override { this->SetMesh(nullptr); }

private:
  svtkDataObject *Mesh_ = nullptr;
};

/// A binning of one rank.
using BinningFactory = std::function<DataBinning *(int rank)>;

/// Run lockstep binnings on `ranks` lockstep ranks for `steps` steps, all
/// of a rank's executes on one adaptor, and expect every result to equal,
/// bit for bit, the same binning run on a fresh adaptor. `mesh(rank,
/// step)` is the step's mesh (a new reference); step s runs the binnings
/// `running[s]`, in that order.
void ExpectSharedMatchesFresh(int ranks,
                              const std::vector<BinningFactory> &binnings,
                              const std::function<svtkDataObject *(int, long)> &mesh,
                              const std::vector<std::vector<std::size_t>> &running)
{
  minimpi::LaunchOptions lo;
  lo.Ranks = ranks;
  lo.Lockstep = true;
  minimpi::Run(
    lo,
    [&](minimpi::Communicator &comm)
    {
      const int r = comm.Rank();
      std::vector<DataBinning *> shared;
      for (const BinningFactory &make : binnings)
        shared.push_back(make(r));
      MeshAdaptor *da = MeshAdaptor::New();
      da->SetCommunicator(&comm);
      for (long step = 0; step < static_cast<long>(running.size()); ++step)
      {
        svtkDataObject *m = mesh(r, step);
        da->SetMesh(m);
        da->SetDataTimeStep(step);
        for (std::size_t i : running[static_cast<std::size_t>(step)])
        {
          EXPECT_TRUE(shared[i]->Execute(da));
          MeshAdaptor *fresh = MeshAdaptor::New();
          fresh->SetMesh(m);
          fresh->SetCommunicator(&comm);
          fresh->SetDataTimeStep(step);
          DataBinning *ref = binnings[i](r);
          EXPECT_TRUE(ref->Execute(fresh));
          da->FinishLockstep();
          EXPECT_EQ(ResultBits(shared[i]), ResultBits(ref))
            << "rank " << r << " step " << step << " binning " << i;
          ref->Delete();
          fresh->ReleaseData();
          fresh->Delete();
        }
        da->ReleaseData();
        m->UnRegister();
      }
      for (DataBinning *b : shared)
        b->Delete();
      da->Delete();
    });
}

/// The nine-system campaign chain on `device(rank)`.
std::vector<BinningFactory> CampaignChain(const std::function<int(int)> &device)
{
  std::vector<BinningFactory> chain;
  for (std::size_t s = 0; s < kSystems.size(); ++s)
    chain.push_back([s, device](int r) { return SystemBinning(s, device(r)); });
  return chain;
}

/// The nine-system chain split across two devices per rank: systems 0-4
/// on the rank's device, 5-8 on the next rank's.
std::vector<BinningFactory> SplitCampaignChain()
{
  std::vector<BinningFactory> chain;
  for (std::size_t s = 0; s < kSystems.size(); ++s)
    chain.push_back([s](int r)
                    { return SystemBinning(s, s < 5 ? r : (r + 1) % 4); });
  return chain;
}

/// One table per rank, made at step 0 by `make(rank)` and changed in
/// place at every later step.
std::function<svtkDataObject *(int, long)>
InPlaceTables(int ranks, std::vector<svtkTable *> &tables,
              const std::function<svtkTable *(int)> &make)
{
  tables.assign(static_cast<std::size_t>(ranks), nullptr);
  return [&tables, make](int r, long step) -> svtkDataObject *
  {
    svtkTable *&t = tables[static_cast<std::size_t>(r)];
    if (!t)
      t = make(r);
    else
      ChangeInPlace(t, 1.25, -0.125 * static_cast<double>(step));
    t->Register();
    return t;
  };
}

void DeleteAll(std::vector<svtkTable *> &tables)
{
  for (svtkTable *t : tables)
    if (t)
      t->Delete();
  tables.clear();
}

/// Three binnings over x, y, z and vx on `device(rank)`: A (x, y),
/// B (x, z), C (vx, y).
std::vector<BinningFactory> ThreeBinnings(const std::function<int(int)> &device)
{
  const std::vector<std::pair<std::string, std::string>> axes = {
    {"x", "y"}, {"x", "z"}, {"vx", "y"}};
  std::vector<BinningFactory> out;
  for (const auto &[a0, a1] : axes)
    out.push_back(
      [a0, a1, device](int r)
      {
        DataBinning *b = DataBinning::New();
        b->SetMeshName("bodies");
        b->SetAxes({a0, a1});
        b->SetResolution({16});
        b->AddOperation("m", BinningOp::Sum);
        b->AddOperation("ke", BinningOp::Max);
        b->SetDeviceId(device(r));
        return b;
      });
  return out;
}

int RankDevice(int r) { return r; }

/// Every column of a rank on the rank's device; rank r's data spans
/// 1 + r times the range of rank 0's.
std::function<svtkTable *(int)> OnRankDevice(std::size_t rows)
{
  return [rows](int r)
  {
    return MakeColumns(rows + 37 * static_cast<std::size_t>(r),
                       300u + static_cast<unsigned>(r), 1.0 + r,
                       [r](const std::string &) { return r; });
  };
}

/// A placement where the columns a fill covers besides its own axes are
/// resident on rank 0's binning device only: rank 1 keeps x and y on its
/// binning device and the rest on another, rank 2 bins on the host over
/// device columns, rank 3 bins on a device over plain host columns.
int MixedBinningDevice(int r)
{
  return r == 2 ? AnalysisAdaptor::DEVICE_HOST : r;
}

/// The mixed placement's columns; rank 3 holds the widest data, so a
/// range that missed its columns would show in every grid.
std::function<svtkTable *(int)> MixedTables(std::size_t rows)
{
  return [rows](int r)
  {
    auto where = [r](const std::string &name)
    {
      switch (r)
      {
        case 0: return 0;
        case 1: return name == "x" || name == "y" ? 1 : 2;
        case 2: return 2;
        default: return PlainHost;
      }
    };
    return MakeColumns(rows + 50 * static_cast<std::size_t>(r),
                       310u + static_cast<unsigned>(r), 1.0 + r, where);
  };
}
} // namespace

TEST(BinningSharedRange, CampaignChainMatchesFreshAdaptors)
{
  // 4 lockstep ranks run the nine-system chain for 4 steps, the columns
  // changed in place between steps, on the data's device and split
  // across two devices (the second device's executes read the columns
  // the first device's scanned): every grid, origin and spacing equals
  // the same binning run on a fresh adaptor
  for (const std::vector<BinningFactory> &chain :
       {CampaignChain(RankDevice), SplitCampaignChain()})
  {
    ResetPlatform();
    std::vector<svtkTable *> tables;
    ExpectSharedMatchesFresh(4, chain,
                             InPlaceTables(4, tables, OnRankDevice(600)),
                             {{0, 1, 2, 3, 4, 5, 6, 7, 8},
                              {0, 1, 2, 3, 4, 5, 6, 7, 8},
                              {0, 1, 2, 3, 4, 5, 6, 7, 8},
                              {0, 1, 2, 3, 4, 5, 6, 7, 8}});
    DeleteAll(tables);
  }
}

namespace
{
/// Per-step platform counts of 4 lockstep ranks running `binnings` in
/// order, one chain per rank, for 4 steps over tables of 500 rows on each
/// rank's device changed in place: kernels, device-to-host copies and
/// every other copy, summed over the ranks.
struct StepCounts
{
  std::vector<std::uint64_t> Kernels, D2H, Others;
};

StepCounts CountChainSteps(const std::vector<BinningFactory> &binnings)
{
  constexpr int Ranks = 4;
  constexpr long Steps = 4;
  std::vector<svtkTable *> tables;
  auto mesh = InPlaceTables(Ranks, tables, OnRankDevice(500));
  StepCounts out;
  out.Kernels.resize(Steps);
  out.D2H.resize(Steps);
  out.Others.resize(Steps);
  vp::PlatformStats &stats = vp::Platform::Get().Stats();

  minimpi::LaunchOptions lo;
  lo.Ranks = Ranks;
  lo.Lockstep = true;
  minimpi::Run(
    lo,
    [&](minimpi::Communicator &comm)
    {
      const int r = comm.Rank();
      std::vector<DataBinning *> chain;
      for (const BinningFactory &make : binnings)
        chain.push_back(make(r));
      MeshAdaptor *da = MeshAdaptor::New();
      da->SetCommunicator(&comm);
      for (long step = 0; step < Steps; ++step)
      {
        svtkDataObject *m = mesh(r, step);
        da->SetMesh(m);
        m->UnRegister();
        da->SetDataTimeStep(step);
        comm.Barrier();
        if (r == 0)
          stats.Reset();
        comm.Barrier();
        for (DataBinning *b : chain)
          EXPECT_TRUE(b->Execute(da));
        comm.Barrier();
        if (r == 0)
        {
          const auto s = static_cast<std::size_t>(step);
          out.Kernels[s] = stats.KernelsLaunched.load();
          out.D2H[s] = stats.Copies(vp::CopyKind::DeviceToHost);
          out.Others[s] = stats.Copies(vp::CopyKind::HostToDevice) +
                          stats.Copies(vp::CopyKind::DeviceToDevice) +
                          stats.Copies(vp::CopyKind::OnDevice);
        }
        comm.Barrier();
        da->ReleaseData();
      }
      for (DataBinning *b : chain)
        b->Delete();
      da->Delete();
    });
  DeleteAll(tables);
  return out;
}
} // namespace

TEST(BinningSharedRange, SteadyStateIsOneRangeKernelAndReadbackPerRank)
{
  // 9 device binnings per rank over columns resident on the binning
  // device. The first step expects no lockstep execute, so each binning
  // completes alone as a batch of one that scans its own two axes: its
  // range kernel, its record's init, accumulate and compact, 9 x 4 = 36
  // kernels, and its range readback and its record's, 9 x 2 = 18
  // device-to-host copies. From then on the records are resident and
  // the ninth execute completes the step's batch, which scans the six
  // axis columns once: per rank and step 1 range kernel plus one
  // accumulate and one compact for all nine = 3 kernels, and the range
  // readback plus the batch's one readback = 2 device-to-host copies.
  // Split across two devices per rank, the first device's executes read
  // all six columns first, so the scan stays one kernel there, and the
  // chain takes one launch set and one readback per device: 1 + 2 x 2 =
  // 5 kernels and 1 + 2 = 3 copies, and the columns move to the second
  // device
  constexpr std::uint64_t Ranks = 4;
  ResetPlatform();
  const StepCounts one = CountChainSteps(CampaignChain(RankDevice));
  ResetPlatform();
  const StepCounts two = CountChainSteps(SplitCampaignChain());
  for (const StepCounts *c : {&one, &two})
  {
    EXPECT_EQ(c->Kernels[0], Ranks * 36u);
    EXPECT_EQ(c->D2H[0], Ranks * 18u);
  }
  for (std::size_t step = 1; step < one.Kernels.size(); ++step)
  {
    EXPECT_EQ(one.Kernels[step], Ranks * 3u) << "step " << step;
    EXPECT_EQ(one.D2H[step], Ranks * 2u) << "step " << step;
    EXPECT_EQ(two.Kernels[step], Ranks * 5u) << "step " << step;
    EXPECT_EQ(two.D2H[step], Ranks * 3u) << "step " << step;
    EXPECT_GT(two.Others[step], 0u) << "step " << step;
  }
  for (std::size_t step = 0; step < one.Others.size(); ++step)
    EXPECT_EQ(one.Others[step], 0u) << "step " << step;
}

TEST(BinningSharedRange, MixedPlacementMatchesFreshAdaptors)
{
  // the nine-system chain over the mixed placement: every rank's batch
  // reduces the same six slots wherever its columns live and wherever
  // it scans them (rank 2 on the host, the others on their binning
  // device), so the collectives match
  ResetPlatform();
  std::vector<svtkTable *> tables;
  ExpectSharedMatchesFresh(4, CampaignChain(MixedBinningDevice),
                           InPlaceTables(4, tables, MixedTables(400)),
                           {{0, 1, 2, 3, 4, 5, 6, 7, 8},
                            {0, 1, 2, 3, 4, 5, 6, 7, 8},
                            {0, 1, 2, 3, 4, 5, 6, 7, 8}});
  DeleteAll(tables);
}

TEST(BinningSharedRange, NewAxisAppearingMidRun)
{
  // C (vx, y) joins at step 2, which expects two executes: A and B
  // complete as one batch and C as another that scans its own axes; from
  // step 3 on one batch of all three scans x, y, z and vx once
  ResetPlatform();
  std::vector<svtkTable *> tables;
  ExpectSharedMatchesFresh(4, ThreeBinnings(RankDevice),
                           InPlaceTables(4, tables, OnRankDevice(300)),
                           {{0, 1}, {0, 1}, {0, 1, 2}, {2, 0, 1}});
  DeleteAll(tables);
}

TEST(BinningSharedRange, StepWithFewerExecutes)
{
  // a step that runs fewer binnings than the step before stays queued
  // until ReleaseData, whose batch scans only the axes of what ran, over
  // the mixed placement: A alone at step 1, C alone at step 3
  ResetPlatform();
  std::vector<svtkTable *> tables;
  ExpectSharedMatchesFresh(4, ThreeBinnings(MixedBinningDevice),
                           InPlaceTables(4, tables, MixedTables(300)),
                           {{0, 1, 2}, {0}, {0, 1, 2}, {2}});
  DeleteAll(tables);
}

TEST(BinningSharedRange, FixedAndAutoAxesMixed)
{
  // a fixed axis takes no slot in the batch's range pass; the auto axis
  // beside it does
  ResetPlatform();
  auto binning = [](std::vector<std::string> axes, int fixedAxis)
  {
    return [axes, fixedAxis](int r)
    {
      DataBinning *b = DataBinning::New();
      b->SetMeshName("bodies");
      b->SetAxes(axes);
      b->SetResolution({8});
      if (fixedAxis >= 0)
        b->SetRange(fixedAxis, -2.0, 3.0);
      b->AddOperation("speed", BinningOp::Average);
      b->SetDeviceId(r % 2 ? r : AnalysisAdaptor::DEVICE_HOST);
      return b;
    };
  };
  std::vector<svtkTable *> tables;
  ExpectSharedMatchesFresh(
    4,
    {binning({"x", "y"}, 0), binning({"x", "z"}, -1), binning({"y", "x"}, 1),
     binning({"z", "x", "vz"}, 2)},
    InPlaceTables(4, tables, OnRankDevice(250)),
    {{0, 1, 2, 3}, {0, 1, 2, 3}, {3, 2, 1, 0}});
  DeleteAll(tables);
}

TEST(BinningSharedRange, MultiBlockMeshWithAnEmptyBlock)
{
  // each rank's mesh is three table blocks, the middle one with no rows,
  // and a null slot: every block's column is a scan unit of its slot,
  // folded in block order, and the empty one adds none
  ResetPlatform();
  constexpr int Ranks = 4;
  std::vector<std::vector<svtkTable *>> blocks(Ranks);
  auto mesh = [&blocks](int r, long step) -> svtkDataObject *
  {
    std::vector<svtkTable *> &bl = blocks[static_cast<std::size_t>(r)];
    if (bl.empty())
      for (std::size_t n : {200u, 0u, 150u})
        bl.push_back(MakeColumns(n, 320u + 7 * bl.size() + r, 1.0 + r,
                                 [r](const std::string &) { return r; }));
    else
      for (svtkTable *t : bl)
        ChangeInPlace(t, 0.75, 0.0625 * static_cast<double>(step));
    svtkMultiBlockDataSet *mb = svtkMultiBlockDataSet::New();
    mb->SetBlock(0, bl[0]);
    mb->SetBlock(1, bl[1]);
    mb->SetBlock(3, bl[2]); // slot 2 stays null
    return mb;
  };
  ExpectSharedMatchesFresh(Ranks, CampaignChain(RankDevice), mesh,
                           {{0, 1, 2, 3, 4, 5, 6, 7, 8},
                            {0, 1, 2, 3, 4, 5, 6, 7, 8},
                            {8, 7, 6, 5, 4, 3, 2, 1, 0}});
  for (auto &bl : blocks)
    for (svtkTable *t : bl)
      t->Delete();
}

TEST(BinningSharedRange, ColumnMissingOnOneRank)
{
  // step 0 runs A (x, y) and B (x, z); from step 1 on only A runs, and
  // rank 2 no longer has z: a batch covers the axes its executes read,
  // never what an earlier step read, so every rank issues the same
  // collective
  ResetPlatform();
  constexpr int Ranks = 4;
  std::vector<svtkTable *> full(Ranks), partial(Ranks);
  auto mesh = [&](int r, long step) -> svtkDataObject *
  {
    svtkTable *&t = full[static_cast<std::size_t>(r)];
    if (!t)
    {
      t = MakeColumns(300 + 20 * static_cast<std::size_t>(r),
                      330u + static_cast<unsigned>(r), 1.0 + r,
                      [r](const std::string &) { return r; });
      svtkTable *&p = partial[static_cast<std::size_t>(r)];
      p = svtkTable::New();
      for (int c = 0; c < t->GetNumberOfColumns(); ++c)
        if (std::string(t->GetColumn(c)->GetName()) != "z")
          p->AddColumn(t->GetColumn(c));
    }
    else
    {
      ChangeInPlace(t, 1.5, 0.25);
    }
    svtkTable *m = step && r == 2 ? partial[2] : t;
    m->Register();
    return m;
  };
  auto binning = [](const char *a0, const char *a1)
  {
    return [a0, a1](int r)
    {
      DataBinning *b = DataBinning::New();
      b->SetMeshName("bodies");
      b->SetAxes({a0, a1});
      b->SetResolution({16});
      b->AddOperation("m", BinningOp::Sum);
      b->SetDeviceId(r);
      return b;
    };
  };
  ExpectSharedMatchesFresh(Ranks, {binning("x", "y"), binning("x", "z")},
                           mesh, {{0, 1}, {0}, {0}, {0}});
  for (svtkTable *t : full)
    t->Delete();
  for (svtkTable *t : partial)
    t->Delete();
}

TEST(BinningSharedRange, ReleaseDataEndsTheStepWithoutAStepChange)
{
  // the step index never changes: ReleaseData alone ends the step, so x
  // scaled in place after it reaches the next execute's origin and
  // spacing
  ResetPlatform();
  svtkTable *t = MakeDeviceTable(800, 67, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  auto make = []()
  {
    DataBinning *b = DataBinning::New();
    b->SetMeshName("bodies");
    b->SetAxes({"x", "y"});
    b->SetResolution({16});
    b->AddOperation("v", BinningOp::Sum);
    b->SetDeviceId(0);
    return b;
  };
  DataBinning *shared = make();
  for (int k = 0; k < 3; ++k)
  {
    if (k)
      Rescale(t, "x", 3.0, 1.0);
    da->SetTable(t);
    ASSERT_TRUE(shared->Execute(da));

    sensei::TableAdaptor *fresh = sensei::TableAdaptor::New("bodies");
    fresh->SetTable(t);
    DataBinning *ref = make();
    ASSERT_TRUE(ref->Execute(fresh));
    EXPECT_EQ(ResultBits(shared), ResultBits(ref)) << "release " << k;
    ref->Delete();
    fresh->ReleaseData();
    fresh->Delete();

    const std::vector<double> xs =
      svtkToDoubleVector(t->GetColumnByName("x"));
    svtkImageData *img = shared->GetLastResult();
    double origin[3];
    img->GetOrigin(origin);
    img->UnRegister();
    EXPECT_EQ(origin[0], *std::min_element(xs.begin(), xs.end()));
    da->ReleaseData();
  }
  shared->Delete();
  t->Delete();
  da->Delete();
}

TEST(BinningSharedRange, AsyncAndLockstepExecutesInOneStep)
{
  // asynchronous and lockstep binnings alternate in one step. An
  // asynchronous task is a batch of one that takes its axes' ranges from
  // the step's snapshot: the first packs the step's snapshot of x, y and
  // v, folding their ranges in the gather kernel (4 kernels at step 0,
  // with no range kernel of its own), the second reads the ranges the
  // snapshot it shares folded (3). A lockstep batch scans its axes: at
  // step 0 each lockstep execute completes alone (range kernel, init,
  // accumulate, compact: 4). Each count includes the record's init at
  // step 0 only. From step 1 on the step expects two lockstep executes:
  // the first only queues (0 kernels), and the second completes both
  // with one range kernel, one accumulate and one compact launch (3), so
  // a steady step still launches 3 + 0 + 2 + 3 = 8 kernels
  ResetPlatform();
  svtkTable *t = MakeDeviceTable(900, 68, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  auto make = [](bool async)
  {
    DataBinning *b = DataBinning::New();
    b->SetMeshName("bodies");
    b->SetAxes({"x", "y"});
    b->SetResolution({16});
    b->AddOperation("v", BinningOp::Sum);
    b->SetDeviceId(0);
    b->SetAsynchronous(async);
    return b;
  };
  DataBinning *chain[] = {make(true), make(false), make(true), make(false)};
  const std::uint64_t kernels[2][4] = {{4, 4, 3, 4}, {3, 0, 2, 3}};
  vp::PlatformStats &stats = vp::Platform::Get().Stats();
  for (long step = 0; step < 3; ++step)
  {
    if (step)
      Rescale(t, "y", -2.0, 0.5);
    da->SetTable(t);
    da->SetDataTimeStep(step);
    std::uint64_t total = 0;
    for (int i = 0; i < 4; ++i)
    {
      stats.Reset();
      ASSERT_TRUE(chain[i]->Execute(da));
      chain[i]->DrainAsync();
      EXPECT_EQ(stats.KernelsLaunched.load(), kernels[step ? 1 : 0][i])
        << "binning " << i << " step " << step;
      total += stats.KernelsLaunched.load();
    }
    if (step)
      EXPECT_EQ(total, 8u) << "step " << step;
    for (int i = 1; i < 4; ++i)
      EXPECT_EQ(ResultBits(chain[i]), ResultBits(chain[0]))
        << "binning " << i << " step " << step;
    da->ReleaseData();
  }
  for (DataBinning *b : chain)
    b->Delete();
  t->Delete();
  da->Delete();
}

TEST(BinningSharedRange, CheckerCleanUnderExecThreads)
{
  // the batch's range pass on real threads: with <exec mode="threads">
  // two free-running ranks each run the nine-system chain on their
  // rank's device over the mixed placement (rank 1's views of the
  // columns that live on another device are moved copies), one batch per
  // step; the checker sees no violation and the grids match a chain run
  // on a fresh adaptor every step. scripts/run_campaign.sh runs this
  // under VP_CHECK=1 in the tsan section.
  ResetPlatform();
  vp::check::Reset();
  vp::check::Enable(true);
  std::string xml = "<sensei>\n  <exec mode=\"threads\" threads=\"2\"/>\n";
  for (const auto &[a0, a1] : kSystems)
  {
    xml += "  <analysis type=\"data_binning\" mesh=\"bodies\" axes=\"" + a0 +
           "," + a1 + "\" resolution=\"16\" ops=\"sum,max\" values=\"m,ke\"/>\n";
  }
  xml += "</sensei>";

  constexpr int Ranks = 2;
  std::vector<svtkTable *> tables;
  auto mesh = InPlaceTables(Ranks, tables, MixedTables(700));
  minimpi::Run(
    Ranks,
    [&](minimpi::Communicator &comm)
    {
      sensei::ConfigurableAnalysis *shared =
        sensei::ConfigurableAnalysis::New();
      shared->InitializeString(xml);
      sensei::ConfigurableAnalysis *fresh =
        sensei::ConfigurableAnalysis::New();
      fresh->InitializeString(xml);
      MeshAdaptor *da = MeshAdaptor::New();
      da->SetCommunicator(&comm);
      for (long step = 0; step < 3; ++step)
      {
        svtkDataObject *m = mesh(comm.Rank(), step);
        da->SetMesh(m);
        da->SetDataTimeStep(step);
        EXPECT_TRUE(shared->Execute(da));
        da->ReleaseData();

        MeshAdaptor *once = MeshAdaptor::New();
        once->SetMesh(m);
        once->SetCommunicator(&comm);
        EXPECT_TRUE(fresh->Execute(once));
        once->ReleaseData();
        once->Delete();
        m->UnRegister();
        for (int i = 0; i < shared->GetNumberOfAnalyses(); ++i)
          EXPECT_EQ(
            ResultBits(dynamic_cast<DataBinning *>(shared->GetAnalysis(i))),
            ResultBits(dynamic_cast<DataBinning *>(fresh->GetAnalysis(i))))
            << "rank " << comm.Rank() << " step " << step << " binning " << i;
      }
      EXPECT_EQ(shared->Finalize(), 0);
      EXPECT_EQ(fresh->Finalize(), 0);
      shared->Delete();
      fresh->Delete();
      da->Delete();
    });
  DeleteAll(tables);

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
  vp::exec::Configure(vp::exec::ExecConfig());
}

TEST(BinningSnapshot, AsyncRangesRideTheSnapshot)
{
  // nine asynchronous binnings of the paper's coordinate systems on
  // device 3 over ten device-0 columns, x rescaled between steps. Per
  // step the first snapshot packs the ten columns with one gather kernel
  // that also folds their ranges, one transfer moves the block and one
  // readback of 16 B per column brings the ranges to the host; the
  // others share it. Every task reduces its axes from those ranges, so
  // it launches only its accumulation and compaction and reads back only
  // its compact record: 1 + 2 x 9 kernels (and the records' nine inits
  // at step 0) and 11 copies. A binning of x alone on device 2 gets a
  // lone deep copy, which folds no range, so its task scans x (a range
  // kernel and readback of its own), and a host binning takes the ranges
  // of a snapshot read back to the host with no host range pass. Every
  // grid, origin and spacing equals a lockstep binning's of the same
  // table, under serial and threads exec.
  constexpr std::size_t N = 1500;
  constexpr std::size_t Systems = 9;
  for (vp::exec::Mode mode : {vp::exec::Mode::Serial, vp::exec::Mode::Threads})
  {
    ResetPlatform();
    vp::exec::ExecConfig ec;
    ec.ExecMode = mode;
    ec.Threads = 2;
    vp::exec::Configure(ec);
    svtkTable *t =
      MakeColumns(N, 340, 1.0, [](const std::string &) { return 0; });
    sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
    std::vector<DataBinning *> async, lock;
    for (std::size_t s = 0; s < Systems; ++s)
    {
      async.push_back(SystemBinning(s, 3));
      async.back()->SetAsynchronous(true);
      lock.push_back(SystemBinning(s, 3));
    }
    auto alone = [](int device, bool isAsync)
    {
      DataBinning *b = DataBinning::New();
      b->SetMeshName("bodies");
      b->SetAxes({"x"});
      b->SetResolution({32});
      b->SetDeviceId(device);
      b->SetAsynchronous(isAsync);
      return b;
    };
    DataBinning *lone[] = {alone(2, true), alone(2, false)};
    DataBinning *host[] = {SystemBinning(0, AnalysisAdaptor::DEVICE_HOST),
                           SystemBinning(0, AnalysisAdaptor::DEVICE_HOST)};
    host[0]->SetAsynchronous(true);

    vp::PlatformStats &stats = vp::Platform::Get().Stats();
    auto copies = [&stats]()
    {
      std::uint64_t n = 0;
      for (vp::CopyKind k :
           {vp::CopyKind::HostToDevice, vp::CopyKind::DeviceToHost,
            vp::CopyKind::DeviceToDevice, vp::CopyKind::OnDevice,
            vp::CopyKind::HostToHost})
        n += stats.Copies(k);
      return n;
    };
    for (long step = 0; step < 3; ++step)
    {
      if (step)
        Rescale(t, "x", 1.5, -0.25 * static_cast<double>(step));
      da->SetTable(t);
      da->SetDataTimeStep(step);
      const std::uint64_t inits = step ? 0u : 1u;

      stats.Reset();
      for (DataBinning *b : async)
        ASSERT_TRUE(b->Execute(da));
      for (DataBinning *b : async)
        b->DrainAsync();
      EXPECT_EQ(stats.KernelsLaunched.load(), 1u + (2u + inits) * Systems)
        << "step " << step;
      EXPECT_EQ(copies(), 11u) << "step " << step;
      EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToDevice), 1u);
      EXPECT_EQ(stats.Bytes(vp::CopyKind::DeviceToDevice), 10u * N * 8);
      EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToHost), 1u + Systems);

      stats.Reset();
      ASSERT_TRUE(lone[0]->Execute(da));
      lone[0]->DrainAsync();
      EXPECT_EQ(stats.KernelsLaunched.load(), 3u + inits) << "step " << step;
      EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToHost), 2u);

      stats.Reset();
      ASSERT_TRUE(host[0]->Execute(da));
      host[0]->DrainAsync();
      EXPECT_EQ(stats.KernelsLaunched.load(), 1u) << "step " << step;
      EXPECT_EQ(stats.HostRegions.load(), 1u) << "step " << step;
      EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToHost), 2u);

      for (DataBinning *b : lock)
        ASSERT_TRUE(b->Execute(da));
      ASSERT_TRUE(lone[1]->Execute(da));
      ASSERT_TRUE(host[1]->Execute(da));
      for (std::size_t s = 0; s < Systems; ++s)
        EXPECT_EQ(ResultBits(async[s]), ResultBits(lock[s]))
          << "system " << s << " step " << step;
      EXPECT_EQ(ResultBits(lone[0]), ResultBits(lone[1])) << "step " << step;
      EXPECT_EQ(ResultBits(host[0]), ResultBits(host[1])) << "step " << step;
      da->ReleaseData();
    }

    for (DataBinning *b : async)
      b->Delete();
    for (DataBinning *b : lock)
      b->Delete();
    for (DataBinning *b : {lone[0], lone[1], host[0], host[1]})
      b->Delete();
    t->Delete();
    da->Delete();
    vp::exec::Configure(vp::exec::ExecConfig());
  }
}

// --- the resident record: allocated once, reset by its compaction ------------------------

namespace
{
/// Plant NaN, +inf, -inf and -0.0 in place among ke's values, at rows
/// that move with `step`, so every step's special values land in other
/// bins than the last step's.
void PlantSpecials(svtkTable *t, long step)
{
  auto *a = dynamic_cast<svtkHAMRDoubleArray *>(t->GetColumnByName("ke"));
  ASSERT_NE(a, nullptr);
  std::vector<double> v = a->ToVector();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::nan(""), inf, -inf, -0.0};
  for (std::size_t i = static_cast<std::size_t>(step) % 5; i < v.size();
       i += 5)
    v[i] = specials[(i / 5 + static_cast<std::size_t>(step)) % 4];
  a->GetBuffer().assign(v.data(), v.size());
}

/// ke's sum, min, max and average and m's sum over auto-ranged (x, y)
/// in 32 x 32 bins: fewer rows than bins, so each compaction packs a
/// part of the record.
DataBinning *ResidentBinning(int device, sensei::GpuBinningStrategy strat,
                             bool async)
{
  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({32});
  b->AddOperation("ke", BinningOp::Sum);
  b->AddOperation("ke", BinningOp::Min);
  b->AddOperation("ke", BinningOp::Max);
  b->AddOperation("ke", BinningOp::Average);
  b->AddOperation("m", BinningOp::Sum);
  b->SetDeviceId(device);
  b->SetGpuStrategy(strat);
  b->SetAsynchronous(async);
  return b;
}

/// Six steps of one `make(rank)` binning per rank on 4 ranks (scheduled
/// in lockstep unless exec threads are on), over each rank's table
/// changed in place every step, specials planted: after every execute
/// the grids equal, bit for bit, a fresh binning's on a fresh adaptor.
void ExpectResidentMatchesFresh(const BinningFactory &make,
                                const std::string &what)
{
  constexpr int Ranks = 4;
  std::vector<svtkTable *> tables;
  auto mesh = InPlaceTables(Ranks, tables, OnRankDevice(300));
  minimpi::LaunchOptions lo;
  lo.Ranks = Ranks;
  lo.Lockstep = !vp::exec::ThreadsEnabled();
  minimpi::Run(
    lo,
    [&](minimpi::Communicator &comm)
    {
      const int r = comm.Rank();
      DataBinning *shared = make(r);
      MeshAdaptor *da = MeshAdaptor::New();
      da->SetCommunicator(&comm);
      for (long step = 0; step < 6; ++step)
      {
        svtkDataObject *m = mesh(r, step);
        PlantSpecials(static_cast<svtkTable *>(m), step);
        da->SetMesh(m);
        da->SetDataTimeStep(step);
        EXPECT_TRUE(shared->Execute(da));
        shared->DrainAsync();

        MeshAdaptor *fresh = MeshAdaptor::New();
        fresh->SetMesh(m);
        fresh->SetCommunicator(&comm);
        fresh->SetDataTimeStep(step);
        DataBinning *ref = make(r);
        EXPECT_TRUE(ref->Execute(fresh));
        ref->DrainAsync();
        EXPECT_EQ(ResultBits(shared), ResultBits(ref))
          << what << " rank " << r << " step " << step;
        ref->Delete();
        fresh->ReleaseData();
        fresh->Delete();
        da->ReleaseData();
        m->UnRegister();
      }
      EXPECT_EQ(shared->Finalize(), 0);
      shared->Delete();
      da->Delete();
    });
  DeleteAll(tables);
}

/// Run `body(what)` in every exec mode for both GPU strategies,
/// restoring serial execution afterwards.
void ForEachExecStrategy(
  const std::function<void(sensei::GpuBinningStrategy, const std::string &)>
    &body)
{
  for (bool threads : {false, true})
    for (auto strat : {sensei::GpuBinningStrategy::GlobalAtomics,
                       sensei::GpuBinningStrategy::Privatized})
    {
      ResetPlatform();
      vp::exec::ExecConfig ec;
      if (threads)
      {
        ec.ExecMode = vp::exec::Mode::Threads;
        ec.Threads = 2;
      }
      vp::exec::Configure(ec);
      body(strat, std::string(threads ? "threads" : "serial") +
                    " strategy " + std::to_string(static_cast<int>(strat)));
    }
  vp::exec::Configure(vp::exec::ExecConfig());
}

std::size_t DeviceBytes(int device)
{
  return vp::Platform::Get().Registry().BytesIn(vp::MemSpace::Device, device);
}
} // namespace

TEST(BinningResident, NextStepIsThreeLaunchesAndNoAllocation)
{
  // the binning of BinningPacked.DeviceExecuteIsFourLaunchesAndTwoReadbacks
  // over device-resident columns: the first execute initializes the
  // record (4 launches); the next step's is the range scan, the
  // accumulation and the compaction, and leaves the device's allocated
  // bytes as they were
  ResetPlatform();
  svtkTable *t = MakeDeviceTable(2000, 12, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({16});
  for (int k = 0; k < 10; ++k)
    b->AddOperation(k % 2 ? "v" : "m", BinningOp::Sum);
  b->SetDeviceId(0);

  vp::PlatformStats &stats = vp::Platform::Get().Stats();
  for (long step = 0; step < 3; ++step)
  {
    da->SetTable(t);
    da->SetDataTimeStep(step);
    stats.Reset();
    const std::size_t before = DeviceBytes(0);
    ASSERT_TRUE(b->Execute(da));
    EXPECT_EQ(stats.KernelsLaunched.load(), step ? 3u : 4u) << step;
    EXPECT_EQ(stats.Copies(vp::CopyKind::DeviceToHost), 2u) << step;
    if (step)
      EXPECT_EQ(DeviceBytes(0), before) << step;
    else
      EXPECT_GT(DeviceBytes(0), before);
    da->ReleaseData();
  }

  b->Delete();
  da->Delete();
  t->Delete();
}

TEST(BinningResident, RangeScanAllocatesOnlyOnTheFirstStep)
{
  // the range scan's device scratch stays with the record: from step 1
  // on a lockstep fill allocates no device memory, and an asynchronous
  // execute allocates only the step's snapshot (one packed block holding
  // x, y and v), while the ranges still follow the data
  for (bool async : {false, true})
  {
    ResetPlatform();
    svtkTable *t = MakeDeviceTable(1200, 31, 0);
    sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
    DataBinning *b = DataBinning::New();
    b->SetMeshName("bodies");
    b->SetAxes({"x", "y"});
    b->SetResolution({16});
    b->AddOperation("v", BinningOp::Sum);
    b->SetDeviceId(0);
    b->SetAsynchronous(async);

    const std::size_t idle = DeviceBytes(0);
    const std::uint64_t snapshot = async ? 1 : 0;
    vp::PlatformStats &stats = vp::Platform::Get().Stats();
    for (long step = 0; step < 4; ++step)
    {
      if (step)
        Rescale(t, "y", -2.0, 0.5);
      da->SetTable(t);
      da->SetDataTimeStep(step);
      stats.Reset();
      ASSERT_TRUE(b->Execute(da));
      b->DrainAsync();
      const std::uint64_t allocs = stats.Allocations(vp::MemSpace::Device);
      if (step)
        EXPECT_EQ(allocs, snapshot) << "async " << async << " step " << step;
      else
        EXPECT_GT(allocs, snapshot) << "async " << async;

      DataBinning *ref = DataBinning::New();
      ref->SetMeshName("bodies");
      ref->SetAxes({"x", "y"});
      ref->SetResolution({16});
      ref->AddOperation("v", BinningOp::Sum);
      ref->SetDeviceId(0);
      sensei::TableAdaptor *fresh = sensei::TableAdaptor::New("bodies");
      fresh->SetTable(t);
      fresh->SetDataTimeStep(step);
      ASSERT_TRUE(ref->Execute(fresh));
      EXPECT_EQ(ResultBits(b), ResultBits(ref))
        << "async " << async << " step " << step;
      ref->Delete();
      fresh->ReleaseData();
      fresh->Delete();
      da->ReleaseData();
    }
    EXPECT_EQ(b->Finalize(), 0);
    EXPECT_EQ(DeviceBytes(0), idle) << "async " << async;
    b->Delete();
    da->Delete();
    t->Delete();
  }
}

TEST(BinningResident, LockstepMatchesFreshEveryStep)
{
  ForEachExecStrategy(
    [](sensei::GpuBinningStrategy strat, const std::string &what)
    {
      ExpectResidentMatchesFresh(
        [strat](int r) { return ResidentBinning(r, strat, false); },
        "lockstep " + what);
    });
}

TEST(BinningResident, AsyncMatchesFreshEveryStep)
{
  ForEachExecStrategy(
    [](sensei::GpuBinningStrategy strat, const std::string &what)
    {
      ExpectResidentMatchesFresh(
        [strat](int r) { return ResidentBinning(r, strat, true); },
        "async " + what);
    });
}

TEST(BinningResident, ChangesReallocateOnlyWhatTheyMust)
{
  // fixed ranges, so a steady execute is the accumulation and the
  // compaction: a new resolution, new segment kinds and a new device
  // each reallocate and initialize (one more launch), new columns of the
  // same kinds do not, and every step equals a fresh binning
  ResetPlatform();
  svtkTable *t = MakeDeviceTable(700, 21, 0);
  struct Config
  {
    long Res;
    std::vector<std::pair<std::string, BinningOp>> Ops;
    int Device;
    bool Init;
  };
  const std::vector<Config> steps = {
    {16, {{"v", BinningOp::Sum}, {"v", BinningOp::Max}}, 0, true},
    {16, {{"v", BinningOp::Sum}, {"v", BinningOp::Max}}, 0, false},
    {24, {{"v", BinningOp::Sum}, {"v", BinningOp::Max}}, 0, true},
    {24, {{"m", BinningOp::Sum}, {"x", BinningOp::Max}}, 0, false},
    {24, {{"v", BinningOp::Min}, {"v", BinningOp::Average}}, 0, true},
    {24, {{"v", BinningOp::Min}, {"v", BinningOp::Average}}, 2, true},
    {8, {{"v", BinningOp::Min}, {"v", BinningOp::Average}}, 2, true},
    {8, {{"v", BinningOp::Min}, {"v", BinningOp::Average}}, 2, false}};
  auto configure = [](DataBinning *b, const Config &c)
  {
    b->SetResolution({c.Res});
    b->ClearOperations();
    for (const auto &[col, op] : c.Ops)
      b->AddOperation(col, op);
    b->SetDeviceId(c.Device);
  };
  auto make = [&configure](const Config &c)
  {
    DataBinning *b = DataBinning::New();
    b->SetMeshName("bodies");
    b->SetAxes({"x", "y"});
    b->SetRange(0, -1.0, 1.0);
    b->SetRange(1, -1.0, 1.0);
    configure(b, c);
    return b;
  };

  const std::size_t idle = DeviceBytes(0);
  DataBinning *shared = make(steps[0]);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  vp::PlatformStats &stats = vp::Platform::Get().Stats();
  for (std::size_t s = 0; s < steps.size(); ++s)
  {
    Rescale(t, "v", 1.5, -0.25);
    configure(shared, steps[s]);
    da->SetTable(t);
    da->SetDataTimeStep(static_cast<long>(s));
    stats.Reset();
    ASSERT_TRUE(shared->Execute(da));
    EXPECT_EQ(stats.KernelsLaunched.load(), steps[s].Init ? 3u : 2u)
      << "step " << s;

    sensei::TableAdaptor *fresh = sensei::TableAdaptor::New("bodies");
    fresh->SetTable(t);
    DataBinning *ref = make(steps[s]);
    ASSERT_TRUE(ref->Execute(fresh));
    EXPECT_EQ(ResultBits(shared), ResultBits(ref)) << "step " << s;
    ref->Delete();
    fresh->ReleaseData();
    fresh->Delete();
    da->ReleaseData();
    if (steps[s].Device != 0)
    {
      EXPECT_EQ(DeviceBytes(0), idle) << "device 0 still holds a record";
    }
  }
  shared->Delete();
  da->Delete();
  t->Delete();
}

TEST(BinningResident, FinalizeReleasesTheRecord)
{
  // a lockstep and an asynchronous binning hold their records between
  // steps; Finalize gives the device its bytes back, so the platform can
  // be initialized again while both objects live
  ResetPlatform();
  svtkTable *t = MakeTable(900, 33);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  DataBinning *binnings[] = {MakeBinning(1), MakeBinning(1)};
  binnings[1]->SetAsynchronous(true);

  const std::size_t idle = DeviceBytes(1);
  for (long step = 0; step < 2; ++step)
  {
    da->SetTable(t);
    da->SetDataTimeStep(step);
    for (DataBinning *b : binnings)
      ASSERT_TRUE(b->Execute(da));
    for (DataBinning *b : binnings)
      b->DrainAsync();
    da->ReleaseData();
    EXPECT_GT(DeviceBytes(1), idle) << "step " << step;
  }
  for (DataBinning *b : binnings)
    EXPECT_EQ(b->Finalize(), 0);
  EXPECT_EQ(DeviceBytes(1), idle);

  da->Delete();
  t->Delete();
  EXPECT_NO_THROW(ResetPlatform());
  for (DataBinning *b : binnings)
  {
    EXPECT_EQ(b->GetExecuteCount(), 2);
    b->Delete();
  }
}

TEST(BinningResident, CheckerCleanUnderExecThreads)
{
  // asynchronous and lockstep binnings of both strategies reuse their
  // records for 5 steps on real threads, the (x, y) pair reallocating
  // for a new resolution at step 3: the checker sees no violation, and
  // the grids of each asynchronous binning equal its lockstep twin's.
  // scripts/run_campaign.sh runs this under VP_CHECK=1 in the tsan
  // section.
  ResetPlatform();
  vp::check::Reset();
  vp::check::Enable(true);
  const char *binnings[] = {
    R"(axes="x,y" ops="sum,min,max" values="v,v,m" resolution="32")",
    R"(axes="x,v" ops="avg,sum" values="m,y" resolution="16")"
    R"( gpu_strategy="privatized")"};
  std::string xml = "<sensei>\n  <exec mode=\"threads\" threads=\"2\"/>\n";
  for (const char *async : {"1", "0"})
    for (const char *b : binnings)
      xml += std::string("  <analysis type=\"data_binning\" mesh=\"bodies\" ") +
             b + " device=\"2\" async=\"" + async + "\"/>\n";
  xml += "</sensei>";

  sensei::ConfigurableAnalysis *chain = sensei::ConfigurableAnalysis::New();
  chain->InitializeString(xml);
  ASSERT_TRUE(vp::exec::ThreadsEnabled());
  auto binning = [chain](int i)
  { return dynamic_cast<DataBinning *>(chain->GetAnalysis(i)); };
  svtkTable *t = MakeDeviceTable(1500, 70, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  for (long step = 0; step < 5; ++step)
  {
    if (step)
      Rescale(t, "v", -1.5, 0.25);
    if (step == 3)
      for (int i : {0, 2})
      {
        binning(i)->DrainAsync();
        binning(i)->SetResolution({20});
      }
    da->SetTable(t);
    da->SetDataTimeStep(step);
    ASSERT_TRUE(chain->Execute(da));
    for (int i = 0; i < 2; ++i)
      binning(i)->DrainAsync();
    for (int i = 0; i < 2; ++i)
      EXPECT_EQ(ResultBits(binning(i)), ResultBits(binning(i + 2)))
        << "binning " << i << " step " << step;
    da->ReleaseData();
  }
  EXPECT_EQ(chain->Finalize(), 0);
  chain->Delete();
  t->Delete();
  da->Delete();

  const vp::check::Report r = vp::check::Snapshot();
  EXPECT_EQ(r.Total(), 0u) << r.Summary();
  vp::check::Enable(false);
  vp::exec::Configure(vp::exec::ExecConfig());
}

// --- the lockstep batch -------------------------------------------------------

namespace
{
/// Run `binnings` on `ranks` ranks (scheduled in lockstep unless exec
/// threads are on), step s running the binnings `running[s]` in that
/// order, twice per rank: a batched chain that executes them and then
/// releases the step, and a chain on its own adaptor that calls
/// FinishLockstep() after every execute. After each step every grid,
/// origin and spacing of the batched chain equals the finished chain's
/// bit for bit, and a step's first execute is still queued after it
/// returns when the previous step ran more than one.
void ExpectBatchMatchesFinished(
  int ranks, const std::vector<BinningFactory> &binnings,
  const std::function<svtkDataObject *(int, long)> &mesh,
  const std::vector<std::vector<std::size_t>> &running,
  const std::string &what)
{
  minimpi::LaunchOptions lo;
  lo.Ranks = ranks;
  lo.Lockstep = !vp::exec::ThreadsEnabled();
  minimpi::Run(
    lo,
    [&](minimpi::Communicator &comm)
    {
      const int r = comm.Rank();
      std::vector<DataBinning *> batched, finished;
      for (const BinningFactory &make : binnings)
      {
        batched.push_back(make(r));
        finished.push_back(make(r));
      }
      MeshAdaptor *batch = MeshAdaptor::New();
      MeshAdaptor *each = MeshAdaptor::New();
      for (MeshAdaptor *da : {batch, each})
        da->SetCommunicator(&comm);
      for (long step = 0; step < static_cast<long>(running.size()); ++step)
      {
        const std::vector<std::size_t> &run =
          running[static_cast<std::size_t>(step)];
        svtkDataObject *m = mesh(r, step);
        for (MeshAdaptor *da : {batch, each})
        {
          da->SetMesh(m);
          da->SetDataTimeStep(step);
        }
        for (std::size_t i : run)
        {
          EXPECT_TRUE(batched[i]->Execute(batch));
          if (i == run[0] && step &&
              running[static_cast<std::size_t>(step - 1)].size() > 1)
          {
            EXPECT_THROW(batched[i]->GetLastResult(), std::logic_error)
              << what << " rank " << r << " step " << step;
          }
        }
        batch->ReleaseData();
        for (std::size_t i : run)
        {
          EXPECT_TRUE(finished[i]->Execute(each));
          each->FinishLockstep();
        }
        each->ReleaseData();
        m->UnRegister();
        for (std::size_t i : run)
          EXPECT_EQ(ResultBits(batched[i]), ResultBits(finished[i]))
            << what << " rank " << r << " step " << step << " binning " << i;
      }
      for (DataBinning *b : batched)
        b->Delete();
      for (DataBinning *b : finished)
        b->Delete();
      batch->Delete();
      each->Delete();
    });
}

/// Run `body(what)` in every exec mode, restoring serial execution
/// afterwards.
void ForEachExec(const std::function<void(const std::string &)> &body)
{
  for (bool threads : {false, true})
  {
    ResetPlatform();
    vp::exec::ExecConfig ec;
    if (threads)
    {
      ec.ExecMode = vp::exec::Mode::Threads;
      ec.Threads = 2;
    }
    vp::exec::Configure(ec);
    body(threads ? "threads" : "serial");
  }
  vp::exec::Configure(vp::exec::ExecConfig());
}
} // namespace

TEST(BinningBatch, CampaignChainMatchesFinishingEveryExecute)
{
  // 4 ranks run the nine-system chain on the data's device for 4 steps,
  // the columns changed in place between steps: the batch completes the
  // chain at its ninth execute, and its grids equal the chain's that
  // completes every execute at once, bit for bit, in every exec mode.
  // So do they with the chain split across two devices per rank, one
  // launch set per device
  ForEachExec(
    [](const std::string &what)
    {
      const std::vector<std::size_t> all = {0, 1, 2, 3, 4, 5, 6, 7, 8};
      for (const auto &chain : {CampaignChain(RankDevice), SplitCampaignChain()})
      {
        std::vector<svtkTable *> tables;
        ExpectBatchMatchesFinished(4, chain,
                                   InPlaceTables(4, tables, OnRankDevice(600)),
                                   {all, all, all, all}, what);
        DeleteAll(tables);
      }
    });
}

TEST(BinningBatch, MixedPlacementMatchesFinishingEveryExecute)
{
  // rank 2 bins on the host while the others bin on their devices: every
  // rank queues alike, so the deferred collectives meet and the chain
  // completes without a hang. Then three binnings, C (vx, y) joining at
  // step 1 between A and B: C's fill of vx runs at its launch, after A's
  // completion was queued on every rank, so a rank that completed A at
  // once would meet the others' fill with A's reduction
  ForEachExec(
    [](const std::string &what)
    {
      const std::vector<std::size_t> all = {0, 1, 2, 3, 4, 5, 6, 7, 8};
      std::vector<svtkTable *> tables;
      ExpectBatchMatchesFinished(4, CampaignChain(MixedBinningDevice),
                                 InPlaceTables(4, tables, MixedTables(400)),
                                 {all, all, all, all}, what);
      DeleteAll(tables);
      ExpectBatchMatchesFinished(4, ThreeBinnings(MixedBinningDevice),
                                 InPlaceTables(4, tables, MixedTables(300)),
                                 {{0, 1}, {0, 2, 1}, {2, 0, 1}}, what);
      DeleteAll(tables);
    });
}

TEST(BinningBatch, RenderBesideASiblingRendersItsOwnStep)
{
  // a render and a sibling lockstep binning on each of 4 ranks, the
  // render first or last: the render's binning is queued behind or ahead
  // of its sibling, and every frame equals a render of the same step on
  // a fresh adaptor, whose lone binning completes inside its execute.
  // Each step's tables are new, so a frame of the previous step's grid
  // would differ
  ResetPlatform();
  auto makeRender = [](int r)
  {
    viz::RenderAnalysis *v = viz::RenderAnalysis::New();
    v->SetMeshName("bodies");
    v->SetAxes({"x", "y"});
    v->SetBinResolution(16);
    v->SetVariable("m", "sum");
    v->SetImageSize(32, 32);
    v->SetDeviceId(r);
    return v;
  };
  for (bool renderFirst : {true, false})
  {
    minimpi::LaunchOptions lo;
    lo.Ranks = 4;
    lo.Lockstep = true;
    minimpi::Run(
      lo,
      [&](minimpi::Communicator &comm)
      {
        const int r = comm.Rank();
        viz::RenderAnalysis *render = makeRender(r);
        DataBinning *sibling = SystemBinning(1, r);
        MeshAdaptor *da = MeshAdaptor::New();
        da->SetCommunicator(&comm);
        for (long step = 0; step < 4; ++step)
        {
          svtkTable *t = MakeColumns(300 + 20 * static_cast<std::size_t>(r),
                                     500u + 10u * static_cast<unsigned>(step) +
                                       static_cast<unsigned>(r),
                                     1.0 + r,
                                     [r](const std::string &) { return r; });
          da->SetMesh(t);
          da->SetDataTimeStep(step);
          if (renderFirst)
          {
            EXPECT_TRUE(render->Execute(da));
          }
          EXPECT_TRUE(sibling->Execute(da));
          if (!renderFirst)
          {
            EXPECT_TRUE(render->Execute(da));
          }
          da->ReleaseData();

          MeshAdaptor *fresh = MeshAdaptor::New();
          fresh->SetMesh(t);
          fresh->SetCommunicator(&comm);
          fresh->SetDataTimeStep(step);
          viz::RenderAnalysis *ref = makeRender(r);
          EXPECT_TRUE(ref->Execute(fresh));
          EXPECT_EQ(render->GetFramebuffer(), ref->GetFramebuffer())
            << "rank " << r << " step " << step << " render first "
            << renderFirst;
          EXPECT_EQ(ResultBits(render->GetBinning()),
                    ResultBits(ref->GetBinning()))
            << "rank " << r << " step " << step;
          ref->Delete();
          fresh->ReleaseData();
          fresh->Delete();
          t->Delete();
        }
        render->Delete();
        sibling->Delete();
        da->Delete();
      });
  }
}

TEST(BinningBatch, ALoneBinningCompletesInsideItsExecute)
{
  // one lockstep binning per step: the expected count is 1, so its
  // result is ready when Execute returns, every step
  ResetPlatform();
  svtkTable *t = MakeDeviceTable(700, 81, 0);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  DataBinning *b = DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({16});
  b->AddOperation("v", BinningOp::Sum);
  b->SetDeviceId(0);
  for (long step = 0; step < 4; ++step)
  {
    Rescale(t, "x", 1.5, 0.25);
    da->SetTable(t);
    da->SetDataTimeStep(step);
    ASSERT_TRUE(b->Execute(da));
    EXPECT_EQ(b->GetExecuteCount(), step + 1);
    svtkImageData *img = b->GetLastResult();
    ASSERT_NE(img, nullptr);
    double origin[3];
    img->GetOrigin(origin);
    img->UnRegister();
    const std::vector<double> xs = svtkToDoubleVector(t->GetColumnByName("x"));
    EXPECT_EQ(origin[0], *std::min_element(xs.begin(), xs.end()));
    da->ReleaseData();
  }
  b->Delete();
  t->Delete();
  da->Delete();
}

TEST(BinningBatch, FewerExecutesThanExpectedCompleteAtReleaseData)
{
  // step 0 runs A, B and C, so step 1 expects three lockstep binning
  // executes: A and B alone stay queued (their results throw) until
  // ReleaseData completes them, in order, and step 2 expects two
  ResetPlatform();
  svtkTable *t = MakeDeviceTable(900, 82, 1);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  std::vector<DataBinning *> chain = {MakeBinning(1), MakeBinning(1),
                                      MakeBinning(AnalysisAdaptor::DEVICE_HOST)};
  const std::vector<std::size_t> running[] = {{0, 1, 2}, {0, 1}, {0, 1}};
  for (long step = 0; step < 3; ++step)
  {
    Rescale(t, "y", -1.25, 0.5);
    da->SetTable(t);
    da->SetDataTimeStep(step);
    for (std::size_t i : running[step])
      ASSERT_TRUE(chain[i]->Execute(da));
    const bool queued = step == 1;
    for (std::size_t i : running[step])
    {
      if (queued)
      {
        EXPECT_THROW(chain[i]->GetLastResult(), std::logic_error) << i;
      }
      else
      {
        EXPECT_NO_THROW(chain[i]->GetLastResult()->UnRegister()) << i;
      }
      EXPECT_EQ(chain[i]->GetExecuteCount(), step + (queued ? 0 : 1)) << i;
    }
    da->ReleaseData();
    sensei::TableAdaptor *fresh = sensei::TableAdaptor::New("bodies");
    fresh->SetTable(t);
    DataBinning *ref = MakeBinning(1);
    ASSERT_TRUE(ref->Execute(fresh));
    for (std::size_t i : running[step])
    {
      EXPECT_EQ(chain[i]->GetExecuteCount(), step + 1) << i;
      EXPECT_EQ(ResultBits(chain[i]), ResultBits(ref))
        << "step " << step << " binning " << i;
    }
    ref->Delete();
    fresh->ReleaseData();
    fresh->Delete();
  }
  for (DataBinning *b : chain)
    b->Delete();
  t->Delete();
  da->Delete();
}

TEST(BinningBatch, GetLastResultThrowsWhileQueued)
{
  // from step 1 on, the first of two lockstep binnings is queued after
  // its execute: GetLastResult throws instead of returning step 0's
  // grid, and FinishLockstep() completes it
  ResetPlatform();
  svtkTable *t = MakeDeviceTable(800, 83, 2);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  DataBinning *a = MakeBinning(2), *b = MakeBinning(2);
  for (long step = 0; step < 3; ++step)
  {
    Rescale(t, "v", 2.0, -1.0);
    da->SetTable(t);
    da->SetDataTimeStep(step);
    ASSERT_TRUE(a->Execute(da));
    if (step)
    {
      EXPECT_THROW(a->GetLastResult(), std::logic_error);
      EXPECT_EQ(a->GetExecuteCount(), step);
      da->FinishLockstep();
    }
    EXPECT_EQ(a->GetExecuteCount(), step + 1);
    std::vector<std::uint64_t> bits = ResultBits(a);
    ASSERT_TRUE(b->Execute(da));
    EXPECT_EQ(ResultBits(b), bits) << "step " << step;
    da->ReleaseData();
  }
  a->Delete();
  b->Delete();
  t->Delete();
  da->Delete();
}

TEST(BinningBatch, FinalizeBeforeReleaseDataCompletesTheQueue)
{
  // under <exec mode="threads"> the queued binnings' readbacks may still
  // be in flight on the device workers. Step 0 runs A, B, C and D; at
  // step 1 A and B are queued, and A's Finalize, before ReleaseData,
  // runs the queue (its completion and B's) before it frees its record.
  // C is queued next, and deleting it completes it first: it writes its
  // step-1 file. Every result is this step's, and an ASan build sees no
  // access to a freed record
  ResetPlatform();
  vp::exec::ExecConfig ec;
  ec.ExecMode = vp::exec::Mode::Threads;
  ec.Threads = 2;
  vp::exec::Configure(ec);
  const std::string dir = ::testing::TempDir();
  std::remove((dir + "/batch_c_1.vti").c_str());
  svtkTable *t = MakeDeviceTable(5000, 84, 3);
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
  std::vector<DataBinning *> chain;
  for (int i = 0; i < 4; ++i)
    chain.push_back(MakeBinning(3, 64));
  chain[2]->SetOutput(dir, "batch_c", 1);
  for (long step = 0; step < 2; ++step)
  {
    Rescale(t, "x", 0.5, 0.125);
    da->SetTable(t);
    da->SetDataTimeStep(step);
    ASSERT_TRUE(chain[0]->Execute(da));
    ASSERT_TRUE(chain[1]->Execute(da));
    if (!step)
    {
      ASSERT_TRUE(chain[2]->Execute(da));
      ASSERT_TRUE(chain[3]->Execute(da));
      da->ReleaseData();
      continue;
    }
    EXPECT_THROW(chain[0]->GetLastResult(), std::logic_error);
    EXPECT_THROW(chain[1]->GetLastResult(), std::logic_error);
    EXPECT_EQ(chain[0]->Finalize(), 0);
    EXPECT_EQ(chain[0]->GetExecuteCount(), 2);
    EXPECT_EQ(chain[1]->GetExecuteCount(), 2);
    ASSERT_TRUE(chain[2]->Execute(da));
    EXPECT_THROW(chain[2]->GetLastResult(), std::logic_error);
    chain[2]->Delete();
    EXPECT_TRUE(std::ifstream(dir + "/batch_c_1.vti").good());

    sensei::TableAdaptor *fresh = sensei::TableAdaptor::New("bodies");
    fresh->SetTable(t);
    DataBinning *ref = MakeBinning(3, 64);
    ASSERT_TRUE(ref->Execute(fresh));
    for (std::size_t i = 0; i < 2; ++i)
      EXPECT_EQ(ResultBits(chain[i]), ResultBits(ref)) << "binning " << i;
    ref->Delete();
    fresh->ReleaseData();
    fresh->Delete();
    da->ReleaseData();
  }
  std::remove((dir + "/batch_c_0.vti").c_str());
  std::remove((dir + "/batch_c_1.vti").c_str());
  for (std::size_t i : {0, 1, 3})
    chain[i]->Delete();
  t->Delete();
  da->Delete();
  vp::exec::Configure(vp::exec::ExecConfig());
}

TEST(BinningBatch, DriverPinsTheLockstepCampaignsInSituStep)
{
  // newton::Driver::Run(6) of the 4-rank, 1024-body same-device lockstep
  // campaign (the nine-system chain, 10 sums at 128^2), in lockstep
  // launch: each rank runs the nine binnings' host halves back to back
  // and the last completes them all with one range scan, one accumulate
  // and one compact launch, one range and one record readback and two
  // collectives, and the step's virtual in situ time is pinned. With
  // each execute completing inside itself the same run reads 357.3 us,
  // and with each execute of the batch keeping its own launches,
  // readback and collective 224.481 us. Step 0 expects no lockstep
  // execute, so each of its nine batches of one scans its own axes:
  // 600.6 us, where the step's first fill covering the axes of later
  // executes read 498.0 us (199.569 us per step); every later step reads
  // what it did then.
  vp::exec::Configure(vp::exec::ExecConfig());
  vp::PlatformConfig plat;
  plat.DevicesPerNode = 4;
  plat.HostCoresPerNode = 64;
  vp::Platform::Initialize(plat);
  vp::ThisClock().Set(0.0);

  campaign::CampaignConfig g;
  g.Resolution = 128;
  const std::string xml =
    campaign::BuildXml({campaign::Placement::SameDevice, false}, g);
  newton::Config sim;
  sim.TotalBodies = 1024;
  sim.Ic = newton::InitialCondition::Galaxy;
  sim.CentralMass = 200.0;
  sim.Dt = 5e-4;
  sim.Seed = 1;
  sim.Repartition = false;

  std::vector<double> insitu(4, 0.0);
  minimpi::LaunchOptions lo;
  lo.Ranks = 4;
  lo.RanksPerNode = 4;
  lo.Lockstep = true;
  minimpi::Run(lo,
               [&](minimpi::Communicator &comm)
               {
                 sensei::ConfigurableAnalysis *chain =
                   sensei::ConfigurableAnalysis::New();
                 chain->InitializeString(xml);
                 newton::Driver driver(&comm, sim, chain);
                 driver.Initialize();
                 driver.Run(6);
                 insitu[static_cast<std::size_t>(comm.Rank())] =
                   driver.MeanInSituSeconds();
                 chain->Delete();
               });
  const double slowest = *std::max_element(insitu.begin(), insitu.end());
  EXPECT_NEAR(slowest, 216.666e-6, 0.001e-6);
}
