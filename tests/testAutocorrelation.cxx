// Tests for the Autocorrelation back end: known signals (constant,
// alternating, sinusoidal) produce the analytic ACF; the window slides;
// host/device placements agree; multi-rank results match the serial
// union; async matches lockstep; XML configuration works.

#include "minimpi.h"
#include "senseiAutocorrelation.h"
#include "senseiConfigurableAnalysis.h"
#include "svtkAOSDataArray.h"
#include "vcuda.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using sensei::Autocorrelation;

namespace
{
void ResetPlatform()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  vcuda::SetDevice(0);
}

/// Set a single-column table whose every element is `value`.
void SetStep(sensei::TableAdaptor *da, std::size_t n, double value, long step)
{
  svtkTable *t = svtkTable::New();
  svtkAOSDoubleArray *c = svtkAOSDoubleArray::New("v", n, 1);
  for (std::size_t i = 0; i < n; ++i)
    c->SetVariantValue(i, 0, value);
  t->AddColumn(c);
  c->Delete();
  da->SetTable(t);
  t->Delete();
  da->SetDataTimeStep(step);
}
} // namespace

TEST(Autocorrelation, ConstantSignalGivesConstantAcf)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  Autocorrelation *ac = Autocorrelation::New();
  ac->SetMeshName("t");
  ac->SetColumn("v");
  ac->SetWindow(4);

  for (long s = 0; s < 6; ++s)
  {
    SetStep(da, 100, 3.0, s);
    ASSERT_TRUE(ac->Execute(da));
    da->ReleaseData();
  }

  const std::vector<double> acf = ac->GetLastResult();
  ASSERT_EQ(acf.size(), 4u); // window filled and slid
  for (double v : acf)
    EXPECT_DOUBLE_EQ(v, 9.0); // 3 * 3 at every lag

  ac->Delete();
  da->Delete();
}

TEST(Autocorrelation, AlternatingSignalAlternatesSign)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  Autocorrelation *ac = Autocorrelation::New();
  ac->SetMeshName("t");
  ac->SetColumn("v");
  ac->SetWindow(4);

  for (long s = 0; s < 8; ++s)
  {
    SetStep(da, 64, s % 2 ? 1.0 : -1.0, s);
    ASSERT_TRUE(ac->Execute(da));
    da->ReleaseData();
  }

  const std::vector<double> acf = ac->GetLastResult();
  ASSERT_EQ(acf.size(), 4u);
  // v(T)=1: lag 0 -> +1, lag 1 -> -1, lag 2 -> +1, lag 3 -> -1
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
  EXPECT_DOUBLE_EQ(acf[1], -1.0);
  EXPECT_DOUBLE_EQ(acf[2], 1.0);
  EXPECT_DOUBLE_EQ(acf[3], -1.0);

  ac->Delete();
  da->Delete();
}

TEST(Autocorrelation, SinusoidMatchesCosineLaw)
{
  // v_i(t) = sin(w t + phi_i) with phases uniform over the elements:
  // ACF(tau) ~ cos(w tau) / 2
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  Autocorrelation *ac = Autocorrelation::New();
  ac->SetMeshName("t");
  ac->SetColumn("v");
  ac->SetWindow(6);

  const std::size_t n = 4096;
  const double w = 0.4;
  for (long s = 0; s < 12; ++s)
  {
    svtkTable *t = svtkTable::New();
    svtkAOSDoubleArray *c = svtkAOSDoubleArray::New("v", n, 1);
    for (std::size_t i = 0; i < n; ++i)
    {
      const double phi = 2.0 * M_PI * static_cast<double>(i) / n;
      c->SetVariantValue(i, 0, std::sin(w * s + phi));
    }
    t->AddColumn(c);
    c->Delete();
    da->SetTable(t);
    t->Delete();
    da->SetDataTimeStep(s);
    ASSERT_TRUE(ac->Execute(da));
    da->ReleaseData();
  }

  const std::vector<double> acf = ac->GetLastResult();
  ASSERT_EQ(acf.size(), 6u);
  for (std::size_t tau = 0; tau < acf.size(); ++tau)
    EXPECT_NEAR(acf[tau], 0.5 * std::cos(w * static_cast<double>(tau)), 1e-3)
      << "lag " << tau;

  ac->Delete();
  da->Delete();
}

TEST(Autocorrelation, WindowGrowsThenSlides)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  Autocorrelation *ac = Autocorrelation::New();
  ac->SetMeshName("t");
  ac->SetColumn("v");
  ac->SetWindow(3);

  SetStep(da, 8, 1.0, 0);
  ASSERT_TRUE(ac->Execute(da));
  EXPECT_EQ(ac->GetLastResult().size(), 1u);
  da->ReleaseData();

  SetStep(da, 8, 2.0, 1);
  ASSERT_TRUE(ac->Execute(da));
  EXPECT_EQ(ac->GetLastResult().size(), 2u);
  da->ReleaseData();

  for (long s = 2; s < 5; ++s)
  {
    SetStep(da, 8, 1.0, s);
    ASSERT_TRUE(ac->Execute(da));
    da->ReleaseData();
  }
  EXPECT_EQ(ac->GetLastResult().size(), 3u); // clamped at the window

  ac->Delete();
  da->Delete();
}

TEST(Autocorrelation, DevicePlacementMatchesHost)
{
  ResetPlatform();

  auto run = [](int device) -> std::vector<double>
  {
    sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
    Autocorrelation *ac = Autocorrelation::New();
    ac->SetMeshName("t");
    ac->SetColumn("v");
    ac->SetWindow(4);
    ac->SetDeviceId(device);
    for (long s = 0; s < 5; ++s)
    {
      SetStep(da, 256, 1.0 + 0.5 * s, s);
      EXPECT_TRUE(ac->Execute(da));
      da->ReleaseData();
    }
    std::vector<double> out = ac->GetLastResult();
    ac->Delete();
    da->Delete();
    return out;
  };

  EXPECT_EQ(run(sensei::AnalysisAdaptor::DEVICE_HOST), run(2));
}

TEST(Autocorrelation, AsyncMatchesLockstepAndMultiRankSums)
{
  ResetPlatform();

  std::vector<double> lockstep, async;
  for (int mode = 0; mode < 2; ++mode)
  {
    std::vector<double> got;
    minimpi::Run(3,
                 [&](minimpi::Communicator &comm)
                 {
                   sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
                   da->SetCommunicator(&comm);
                   Autocorrelation *ac = Autocorrelation::New();
                   ac->SetMeshName("t");
                   ac->SetColumn("v");
                   ac->SetWindow(3);
                   ac->SetAsynchronous(mode == 1);

                   for (long s = 0; s < 5; ++s)
                   {
                     // rank-dependent constant: ACF is the mean of squares
                     SetStep(da, 100,
                             static_cast<double>(comm.Rank() + 1), s);
                     EXPECT_TRUE(ac->Execute(da));
                     da->ReleaseData();
                   }
                   ac->Finalize();
                   if (comm.Rank() == 0)
                     got = ac->GetLastResult();
                   ac->Delete();
                   da->Delete();
                 });
    (mode ? async : lockstep) = got;
  }

  ASSERT_EQ(lockstep.size(), 3u);
  // mean over ranks of (1^2, 2^2, 3^2) = 14/3
  for (double v : lockstep)
    EXPECT_NEAR(v, 14.0 / 3.0, 1e-12);
  EXPECT_EQ(lockstep, async);
}

TEST(Autocorrelation, GrowingRowCountStaysInBounds)
{
  // a rank's row count may change between steps (nbody_insitu
  // repartitions every step): each lag sums over the rows both window
  // entries hold and divides by the global count of those rows. The
  // values are small integers, so every sum is exact
  ResetPlatform();
  const std::size_t rows[2][3] = {{500, 800, 900}, {300, 300, 700}};
  auto value = [](int rank, long step, std::size_t i)
  { return static_cast<double>((i + 3 * step + rank) % 5) - 2.0; };

  // the reference: ACF(tau) of the last step over the rows both steps hold
  const long last = 2;
  std::vector<double> want(3, 0.0);
  for (long tau = 0; tau <= last; ++tau)
  {
    double sum = 0.0, count = 0.0;
    for (int rank = 0; rank < 2; ++rank)
    {
      const std::size_t n = std::min(rows[rank][last], rows[rank][last - tau]);
      for (std::size_t i = 0; i < n; ++i)
        sum += value(rank, last, i) * value(rank, last - tau, i);
      count += static_cast<double>(n);
    }
    want[static_cast<std::size_t>(tau)] = sum / count;
  }

  std::vector<double> got;
  minimpi::Run(2,
               [&](minimpi::Communicator &comm)
               {
                 const int rank = comm.Rank();
                 sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
                 da->SetCommunicator(&comm);
                 Autocorrelation *ac = Autocorrelation::New();
                 ac->SetMeshName("t");
                 ac->SetColumn("v");
                 ac->SetWindow(3);
                 ac->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
                 for (long s = 0; s <= last; ++s)
                 {
                   const std::size_t n = rows[rank][s];
                   svtkTable *t = svtkTable::New();
                   svtkAOSDoubleArray *c = svtkAOSDoubleArray::New("v", n, 1);
                   for (std::size_t i = 0; i < n; ++i)
                     c->SetVariantValue(i, 0, value(rank, s, i));
                   t->AddColumn(c);
                   c->Delete();
                   da->SetTable(t);
                   t->Delete();
                   da->SetDataTimeStep(s);
                   EXPECT_TRUE(ac->Execute(da));
                   da->ReleaseData();
                 }
                 ac->Finalize();
                 if (rank == 0)
                   got = ac->GetLastResult();
                 ac->Delete();
                 da->Delete();
               });
  EXPECT_EQ(got, want);
}

TEST(Autocorrelation, XmlConfigured)
{
  ResetPlatform();
  sensei::ConfigurableAnalysis *ca = sensei::ConfigurableAnalysis::New();
  ca->InitializeString(R"(<sensei>
    <analysis type="autocorrelation" mesh="t" column="v" window="5"
              device="host" async="1"/>
  </sensei>)");
  ASSERT_EQ(ca->GetNumberOfAnalyses(), 1);

  auto *ac = dynamic_cast<Autocorrelation *>(ca->GetAnalysis(0));
  ASSERT_NE(ac, nullptr);
  EXPECT_EQ(ac->GetWindow(), 5);
  EXPECT_TRUE(ac->GetAsynchronous());

  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  SetStep(da, 16, 2.0, 0);
  EXPECT_TRUE(ca->Execute(da));
  ca->Finalize();
  EXPECT_EQ(ac->GetLastResult(), std::vector<double>{4.0});

  da->ReleaseData();
  da->Delete();
  ca->Delete();
}

TEST(Autocorrelation, MissingInputsFailGracefully)
{
  ResetPlatform();
  sensei::TableAdaptor *da = sensei::TableAdaptor::New("t");
  SetStep(da, 8, 1.0, 0);

  Autocorrelation *ac = Autocorrelation::New();
  ac->SetMeshName("t");
  EXPECT_FALSE(ac->Execute(da)); // no column configured
  ac->SetColumn("nope");
  EXPECT_FALSE(ac->Execute(da));
  ac->SetMeshName("wrong");
  ac->SetColumn("v");
  EXPECT_FALSE(ac->Execute(da));

  ac->Delete();
  da->ReleaseData();
  da->Delete();
}
