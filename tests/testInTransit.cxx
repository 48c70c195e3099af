// Tests for the in transit substrate: communicator splitting, table
// serialization round trips, the M-to-N layout map, the full
// sender/endpoint pipeline — whose binning result must equal an in situ
// run over the same data — and its per-frame failure contract.

#include "minimpi.h"
#include "senseiDataBinning.h"
#include "senseiInTransit.h"
#include "senseiSerialization.h"
#include "svtkAOSDataArray.h"
#include "svtkHAMRDataArray.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>

using sensei::InTransitEndpoint;
using sensei::InTransitLayout;
using sensei::InTransitSender;

namespace
{
void ResetPlatform()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
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

// --- Split ------------------------------------------------------------------------

TEST(CommSplit, PartitionsByColorInRankOrder)
{
  ResetPlatform();
  minimpi::Run(6,
               [](minimpi::Communicator &comm)
               {
                 const int color = comm.Rank() % 2;
                 minimpi::Communicator sub = comm.Split(color);

                 EXPECT_EQ(sub.Size(), 3);
                 EXPECT_EQ(sub.Rank(), comm.Rank() / 2);

                 // collectives stay inside the group
                 double v = 1.0;
                 sub.Allreduce(&v, 1, minimpi::Op::Sum);
                 EXPECT_DOUBLE_EQ(v, 3.0);

                 // p2p within the subgroup, ring
                 const int next = (sub.Rank() + 1) % sub.Size();
                 const int prev = (sub.Rank() + sub.Size() - 1) % sub.Size();
                 const int payload = 100 * color + sub.Rank();
                 sub.Send(next, 5, &payload, sizeof(payload));
                 auto msg = sub.Recv(prev, 5);
                 EXPECT_EQ(*reinterpret_cast<int *>(msg.data()),
                           100 * color + prev);
               });
}

TEST(CommSplit, UnevenGroups)
{
  ResetPlatform();
  minimpi::Run(5,
               [](minimpi::Communicator &comm)
               {
                 // ranks 0..3 are color 0, rank 4 is color 1
                 const int color = comm.Rank() == 4 ? 1 : 0;
                 minimpi::Communicator sub = comm.Split(color);
                 if (color == 0)
                 {
                   EXPECT_EQ(sub.Size(), 4);
                   EXPECT_EQ(sub.Rank(), comm.Rank());
                 }
                 else
                 {
                   EXPECT_EQ(sub.Size(), 1);
                   EXPECT_EQ(sub.Rank(), 0);
                 }
                 sub.Barrier();
               });
}

// --- serialization ------------------------------------------------------------------

namespace
{
/// Serialize `t` uncompressed (codec `none`) and decode it again.
svtkTable *PlainRoundTrip(const svtkTable *t)
{
  return sensei::DeserializeTableCompressed(
    sensei::SerializeTableCompressed(t, {cmp::CodecId::None}));
}
} // namespace

TEST(Serialization, TableRoundTrip)
{
  ResetPlatform();
  svtkTable *t = MakeTable(37, 5);
  svtkTable *back = PlainRoundTrip(t);
  ASSERT_EQ(back->GetNumberOfColumns(), 3);
  ASSERT_EQ(back->GetNumberOfRows(), 37u);
  for (int c = 0; c < 3; ++c)
  {
    EXPECT_EQ(back->GetColumn(c)->GetName(), t->GetColumn(c)->GetName());
    EXPECT_EQ(back->GetColumn(c)->GetScalarType(), svtkScalarType::Float64);
    for (std::size_t r = 0; r < 37; ++r)
      EXPECT_DOUBLE_EQ(back->GetColumn(c)->GetVariantValue(r, 0),
                       t->GetColumn(c)->GetVariantValue(r, 0));
  }
  back->UnRegister();
  t->Delete();
}

TEST(Serialization, DeviceColumnsSerializeViaHostPath)
{
  ResetPlatform();
  svtkTable *t = svtkTable::New();
  svtkHAMRDoubleArray *d = svtkHAMRDoubleArray::New(
    "dev", 8, 1, svtkAllocator::cuda, svtkStream(), svtkStreamMode::sync, 2.5);
  t->AddColumn(d);
  d->Delete();

  svtkTable *back = PlainRoundTrip(t);
  for (std::size_t r = 0; r < 8; ++r)
    EXPECT_DOUBLE_EQ(back->GetColumn(0)->GetVariantValue(r, 0), 2.5);
  back->UnRegister();
  t->Delete();
}

TEST(Serialization, MultiComponentAndEmpty)
{
  ResetPlatform();
  svtkTable *t = svtkTable::New();
  svtkAOSDoubleArray *v = svtkAOSDoubleArray::New("vec", 4, 3);
  for (std::size_t i = 0; i < 4; ++i)
    for (int j = 0; j < 3; ++j)
      v->SetVariantValue(i, j, 10.0 * i + j);
  t->AddColumn(v);
  v->Delete();
  svtkAOSFloatArray *f = svtkAOSFloatArray::New("f32", 4, 1);
  svtkAOSLongArray *l = svtkAOSLongArray::New("i64", 4, 1);
  for (std::size_t i = 0; i < 4; ++i)
  {
    f->SetVariantValue(i, 0, 0.25 * static_cast<double>(i));
    l->SetVariantValue(i, 0, static_cast<double>(1 << 20) * i);
  }
  t->AddColumn(f);
  t->AddColumn(l);
  f->Delete();
  l->Delete();

  // every column keeps its native type and shape
  svtkTable *back = PlainRoundTrip(t);
  ASSERT_EQ(back->GetNumberOfColumns(), 3);
  EXPECT_EQ(back->GetColumn(0)->GetScalarType(), svtkScalarType::Float64);
  EXPECT_EQ(back->GetColumn(0)->GetNumberOfComponents(), 3);
  EXPECT_DOUBLE_EQ(back->GetColumn(0)->GetVariantValue(2, 1), 21.0);
  EXPECT_EQ(back->GetColumn(1)->GetScalarType(), svtkScalarType::Float32);
  EXPECT_DOUBLE_EQ(back->GetColumn(1)->GetVariantValue(3, 0), 0.75);
  EXPECT_EQ(back->GetColumn(2)->GetScalarType(), svtkScalarType::Int64);
  EXPECT_DOUBLE_EQ(back->GetColumn(2)->GetVariantValue(3, 0),
                   3.0 * (1 << 20));
  back->UnRegister();
  t->Delete();

  // empty table
  svtkTable *empty = svtkTable::New();
  svtkTable *back2 = PlainRoundTrip(empty);
  EXPECT_EQ(back2->GetNumberOfColumns(), 0);
  back2->UnRegister();
  empty->Delete();
}

TEST(Serialization, MalformedInputThrows)
{
  ResetPlatform();
  const std::uint8_t junk[4] = {1, 2, 3, 4};
  EXPECT_THROW(sensei::DeserializeTableCompressed(junk, sizeof(junk)),
               std::runtime_error);

  svtkTable *t = MakeTable(5, 1);
  std::vector<std::uint8_t> bytes =
    sensei::SerializeTableCompressed(t, {cmp::CodecId::None});
  bytes.resize(bytes.size() / 2); // truncate mid-column
  EXPECT_THROW(sensei::DeserializeTableCompressed(bytes), std::runtime_error);
  t->Delete();
}

TEST(Serialization, ConcatenateChecksSchema)
{
  ResetPlatform();
  svtkTable *a = MakeTable(3, 1);
  svtkTable *b = MakeTable(5, 2);
  svtkTable *merged = sensei::ConcatenateTables({a, b});
  EXPECT_EQ(merged->GetNumberOfRows(), 8u);
  EXPECT_EQ(merged->GetNumberOfColumns(), 3);
  merged->UnRegister();

  svtkTable *bad = svtkTable::New();
  svtkAOSDoubleArray *other = svtkAOSDoubleArray::New("zzz", 2, 1);
  bad->AddColumn(other);
  other->Delete();
  EXPECT_THROW(sensei::ConcatenateTables({a, bad}), std::runtime_error);
  bad->Delete();
  a->Delete();
  b->Delete();
}

// --- layout -------------------------------------------------------------------------

TEST(InTransitLayout, MToNMapIsConsistent)
{
  const InTransitLayout layout(8, 3); // 5 senders, 3 endpoints
  EXPECT_EQ(layout.Senders(), 5);
  EXPECT_FALSE(layout.IsEndpoint(4));
  EXPECT_TRUE(layout.IsEndpoint(5));

  // every sender maps to an endpoint that lists it
  for (int s = 0; s < 5; ++s)
  {
    const int e = layout.EndpointOf(s);
    EXPECT_TRUE(layout.IsEndpoint(e));
    const std::vector<int> senders = layout.SendersOf(e);
    EXPECT_NE(std::find(senders.begin(), senders.end(), s), senders.end());
  }

  // the sender lists partition the senders
  std::size_t total = 0;
  for (int e = 5; e < 8; ++e)
    total += layout.SendersOf(e).size();
  EXPECT_EQ(total, 5u);

  EXPECT_THROW(InTransitLayout(4, 0), std::invalid_argument);
  EXPECT_THROW(InTransitLayout(4, 4), std::invalid_argument);
}

// --- the full pipeline ----------------------------------------------------------------

TEST(InTransit, EndpointBinningMatchesInSitu)
{
  ResetPlatform();

  const int senders = 3;
  const int endpoints = 2;
  const long steps = 3;
  const std::size_t rowsPerSender = 500;

  // reference: in situ binning over the union of the senders' tables
  std::vector<double> reference;
  {
    std::vector<svtkTable *> parts;
    for (int s = 0; s < senders; ++s)
      parts.push_back(MakeTable(rowsPerSender, 100 + s));
    svtkTable *all = sensei::ConcatenateTables(parts);
    for (svtkTable *p : parts)
      p->Delete();

    sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
    da->SetTable(all);
    all->UnRegister();

    sensei::DataBinning *b = sensei::DataBinning::New();
    b->SetMeshName("bodies");
    b->SetAxes({"x", "y"});
    b->SetResolution({16});
    b->SetRange(0, -1, 1);
    b->SetRange(1, -1, 1);
    b->AddOperation("m", sensei::BinningOp::Sum);
    b->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
    EXPECT_TRUE(b->Execute(da));

    svtkImageData *img = b->GetLastResult();
    const svtkDataArray *g = img->GetPointData()->GetArray("m_sum");
    reference.resize(g->GetNumberOfTuples());
    for (std::size_t i = 0; i < reference.size(); ++i)
      reference[i] = g->GetVariantValue(i, 0);
    img->UnRegister();
    b->Delete();
    da->ReleaseData();
    da->Delete();
  }

  // in transit: 3 senders ship to 2 endpoints that bin across the
  // endpoint group
  std::vector<double> got;
  long endpointSteps = -1;

  minimpi::Run(senders + endpoints,
               [&](minimpi::Communicator &world)
               {
                 const InTransitLayout layout(world.Size(), endpoints);
                 const bool isEp = layout.IsEndpoint(world.Rank());
                 minimpi::Communicator group = world.Split(isEp ? 1 : 0);

                 if (!isEp)
                 {
                   InTransitSender sender(&world, layout, "bodies");
                   sensei::TableAdaptor *da =
                     sensei::TableAdaptor::New("bodies");
                   svtkTable *mine =
                     MakeTable(rowsPerSender, 100 + world.Rank());
                   da->SetTable(mine);
                   mine->Delete();

                   for (long s = 0; s < steps; ++s)
                   {
                     da->SetDataTimeStep(s);
                     EXPECT_TRUE(sender.Send(da));
                   }
                   sender.Close();
                   da->ReleaseData();
                   da->Delete();
                   return;
                 }

                 sensei::DataBinning *b = sensei::DataBinning::New();
                 b->SetMeshName("bodies");
                 b->SetAxes({"x", "y"});
                 b->SetResolution({16});
                 b->SetRange(0, -1, 1);
                 b->SetRange(1, -1, 1);
                 b->AddOperation("m", sensei::BinningOp::Sum);
                 b->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);

                 InTransitEndpoint endpoint(&world, &group, layout, "bodies");
                 const long n = endpoint.Run(b);

                 if (group.Rank() == 0)
                 {
                   endpointSteps = n;
                   svtkImageData *img = b->GetLastResult();
                   const svtkDataArray *g =
                     img->GetPointData()->GetArray("m_sum");
                   got.resize(g->GetNumberOfTuples());
                   for (std::size_t i = 0; i < got.size(); ++i)
                     got[i] = g->GetVariantValue(i, 0);
                   img->UnRegister();
                 }
                 b->Delete();
               });

  EXPECT_EQ(endpointSteps, steps);
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], reference[i], 1e-12) << "bin " << i;
}

namespace
{
/// Records the scalar type and values of every column of the step's
/// "bodies" table.
class ColumnRecorder : public sensei::AnalysisAdaptor
{
public:
  static ColumnRecorder *New() { return new ColumnRecorder; }
  bool Execute(sensei::DataAdaptor *data) override
  {
    auto *t = dynamic_cast<svtkTable *>(data->GetMesh("bodies"));
    if (!t)
      return false;
    for (int c = 0; c < t->GetNumberOfColumns(); ++c)
    {
      const svtkDataArray *col = t->GetColumn(c);
      this->Types[col->GetName()] = col->GetScalarType();
      std::vector<double> &v = this->Values[col->GetName()];
      v.clear();
      for (std::size_t i = 0; i < col->GetNumberOfTuples(); ++i)
        v.push_back(col->GetVariantValue(i, 0));
    }
    t->UnRegister();
    return true;
  }
  std::map<std::string, svtkScalarType> Types;
  std::map<std::string, std::vector<double>> Values;
};

/// A column of `n` values v(i) held as T.
template <typename T>
svtkDataArray *TypedColumn(const char *name, std::size_t n,
                           const std::function<double(std::size_t)> &v)
{
  auto *c = svtkAOSDataArray<T>::New(name, n, 1);
  for (std::size_t i = 0; i < n; ++i)
    c->GetVector()[i] = static_cast<T>(v(i));
  return c;
}
} // namespace

TEST(InTransit, EndpointKeepsNativeColumnTypes)
{
  // two senders ship a float32 column f and an int64 column i, and a
  // column w that is float32 on sender 0 and int32 on sender 1: the
  // endpoint's analysis sees f as Float32 and i as Int64 with the values
  // sent, and w widened to Float64
  ResetPlatform();
  constexpr std::size_t Rows = 40;
  auto f = [](int s) { return [s](std::size_t k) { return 0.25 * k - s; }; };
  auto i = [](int s)
  { return [s](std::size_t k) { return 1e12 + 3.0 * k + 1000.0 * s; }; };
  auto w = [](int s) { return [s](std::size_t k) { return 2.0 * k + s; }; };

  std::map<std::string, svtkScalarType> types;
  std::map<std::string, std::vector<double>> values;
  minimpi::Run(3,
               [&](minimpi::Communicator &world)
               {
                 const InTransitLayout layout(world.Size(), 1);
                 const bool isEp = layout.IsEndpoint(world.Rank());
                 minimpi::Communicator group = world.Split(isEp ? 1 : 0);
                 if (!isEp)
                 {
                   const int s = world.Rank();
                   svtkTable *t = svtkTable::New();
                   for (svtkDataArray *c :
                        {TypedColumn<float>("f", Rows, f(s)),
                         TypedColumn<long long>("i", Rows, i(s)),
                         s ? TypedColumn<int>("w", Rows, w(s))
                           : TypedColumn<float>("w", Rows, w(s))})
                   {
                     t->AddColumn(c);
                     c->Delete();
                   }
                   InTransitSender sender(&world, layout, "bodies");
                   sensei::TableAdaptor *da =
                     sensei::TableAdaptor::New("bodies");
                   da->SetTable(t);
                   t->Delete();
                   EXPECT_TRUE(sender.Send(da));
                   sender.Close();
                   da->ReleaseData();
                   da->Delete();
                   return;
                 }
                 ColumnRecorder *rec = ColumnRecorder::New();
                 InTransitEndpoint endpoint(&world, &group, layout, "bodies");
                 EXPECT_EQ(endpoint.Run(rec), 1);
                 types = rec->Types;
                 values = rec->Values;
                 rec->Delete();
               });

  EXPECT_EQ(types["f"], svtkScalarType::Float32);
  EXPECT_EQ(types["i"], svtkScalarType::Int64);
  EXPECT_EQ(types["w"], svtkScalarType::Float64);
  for (const auto &[name, gen] :
       std::vector<std::pair<std::string,
                             std::function<std::function<double(std::size_t)>(
                               int)>>>{{"f", f}, {"i", i}, {"w", w}})
  {
    std::vector<double> want;
    for (int s = 0; s < 2; ++s)
      for (std::size_t k = 0; k < Rows; ++k)
        want.push_back(gen(s)(k));
    EXPECT_EQ(values[name], want) << name;
  }
}

TEST(InTransit, MisuseIsRejected)
{
  ResetPlatform();
  minimpi::Run(3,
               [](minimpi::Communicator &world)
               {
                 const InTransitLayout layout(3, 1);
                 minimpi::Communicator group =
                   world.Split(layout.IsEndpoint(world.Rank()) ? 1 : 0);

                 if (layout.IsEndpoint(world.Rank()))
                 {
                   EXPECT_THROW(InTransitSender(&world, layout),
                                std::logic_error);
                   InTransitEndpoint ep(&world, &group, layout);
                   EXPECT_THROW(ep.Run(nullptr), std::invalid_argument);
                   // drain the closes the senders are about to send
                   sensei::DataBinning *b = sensei::DataBinning::New();
                   b->SetMeshName("bodies");
                   b->SetAxes({"x", "y"});
                   EXPECT_EQ(ep.Run(b), 0); // only closes arrive
                   b->Delete();
                 }
                 else
                 {
                   EXPECT_THROW(InTransitEndpoint(&world, &group, layout),
                                std::logic_error);
                   InTransitSender sender(&world, layout);
                   sender.Close();
                   sender.Close(); // idempotent
                 }
               });
}

// --- per-frame failure contract ---------------------------------------------

namespace
{
// the endpoint transport tag (senseiInTransit.cxx's TagTransport) and
// frame kind bytes, reproduced here to inject corruption at the wire
constexpr int kTransportTag = 7000;
constexpr std::uint8_t kFrameData = 0;

/// A 91-byte table stream whose one column claims `count` doubles behind
/// a 2-byte shuffle-rle payload (one run token) with a valid checksum.
std::vector<std::uint8_t> HostileTableStream(std::uint64_t count)
{
  std::vector<std::uint8_t> s = {'S', 'T', 'B', 'C', 1, 0, 0, 0};
  cmp::PutLE64(s, 1); // columns
  cmp::PutLE64(s, 1); // name length
  s.push_back('x');
  cmp::PutLE64(s, count); // tuples
  cmp::PutLE64(s, 1);     // components
  const std::uint8_t payload[2] = {0xFF, 0}; // a run of 130 zeros
  s.insert(s.end(), {'S', 'C', 'M', 'P', 1,
                     static_cast<std::uint8_t>(cmp::CodecId::ShuffleRLE),
                     static_cast<std::uint8_t>(cmp::DType::F64), 1});
  cmp::PutLE64(s, count);
  cmp::PutLE64(s, count * sizeof(double));
  cmp::PutLE64(s, sizeof(payload));
  cmp::PutLE64(s, cmp::Fnv1a(payload, sizeof(payload)));
  cmp::PutLE64(s, 0); // error bound
  s.insert(s.end(), payload, payload + sizeof(payload));
  return s;
}

/// A freshly constructed binning analysis on the "bodies" mesh.
sensei::DataBinning *MakeBinning()
{
  sensei::DataBinning *b = sensei::DataBinning::New();
  b->SetMeshName("bodies");
  b->SetAxes({"x", "y"});
  b->SetResolution({16});
  b->SetRange(0, -1, 1);
  b->SetRange(1, -1, 1);
  b->AddOperation("m", sensei::BinningOp::Sum);
  b->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
  return b;
}
} // namespace

TEST(InTransitFault, CorruptFrameIsACleanPerFrameFailure)
{
  ResetPlatform();
  long steps = -1, frameErrors = -1, deadSenders = -1;
  minimpi::Run(2,
               [&](minimpi::Communicator &world)
               {
                 const InTransitLayout layout(2, 1);
                 minimpi::Communicator group =
                   world.Split(layout.IsEndpoint(world.Rank()) ? 1 : 0);

                 if (!layout.IsEndpoint(world.Rank()))
                 {
                   InTransitSender sender(&world, layout, "bodies");
                   sensei::TableAdaptor *da =
                     sensei::TableAdaptor::New("bodies");
                   svtkTable *mine = MakeTable(200, 11);
                   da->SetTable(mine);
                   mine->Delete();

                   da->SetDataTimeStep(0);
                   EXPECT_TRUE(sender.Send(da));

                   // a frame whose kind and step are plausible but whose
                   // payload is garbage: deserialization must fail, the
                   // session must not
                   std::vector<std::uint8_t> corrupt;
                   corrupt.push_back(kFrameData);
                   cmp::PutLE64(corrupt, 1);
                   for (int i = 0; i < 100; ++i)
                     corrupt.push_back(0xDE);
                   world.SendChunked(layout.EndpointOf(world.Rank()),
                                     kTransportTag, corrupt.data(),
                                     corrupt.size());

                   da->SetDataTimeStep(1);
                   EXPECT_TRUE(sender.Send(da));
                   sender.Close();
                   da->ReleaseData();
                   da->Delete();
                   return;
                 }

                 sensei::DataBinning *b = MakeBinning();
                 InTransitEndpoint ep(&world, &group, layout, "bodies");
                 steps = ep.Run(b);
                 frameErrors = ep.FrameErrors();
                 deadSenders = ep.DeadSenders();
                 b->Delete();
               });

  // the corrupt frame was skipped and counted; both good frames around
  // it were analyzed and the sender was never written off
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(frameErrors, 1);
  EXPECT_EQ(deadSenders, 0);
}

TEST(InTransitFault, HostileChunkHeaderStrikesItsSender)
{
  ResetPlatform();
  long steps = -1, frameErrors = -1, deadSenders = -1;
  minimpi::Run(2,
               [&](minimpi::Communicator &world)
               {
                 const InTransitLayout layout(2, 1);
                 minimpi::Communicator group =
                   world.Split(layout.IsEndpoint(world.Rank()) ? 1 : 0);

                 if (!layout.IsEndpoint(world.Rank()))
                 {
                   InTransitSender sender(&world, layout, "bodies");
                   sensei::TableAdaptor *da =
                     sensei::TableAdaptor::New("bodies");
                   svtkTable *mine = MakeTable(200, 12);
                   da->SetTable(mine);
                   mine->Delete();

                   da->SetDataTimeStep(0);
                   EXPECT_TRUE(sender.Send(da));

                   // a frame whose table claims 2^40 doubles (8 TiB) in
                   // 91 bytes: the chunk header check must reject it
                   // before anything is allocated
                   std::vector<std::uint8_t> hostile;
                   hostile.push_back(kFrameData);
                   cmp::PutLE64(hostile, 1);
                   const std::vector<std::uint8_t> table =
                     HostileTableStream(std::uint64_t(1) << 40);
                   hostile.insert(hostile.end(), table.begin(), table.end());
                   world.SendChunked(layout.EndpointOf(world.Rank()),
                                     kTransportTag, hostile.data(),
                                     hostile.size());

                   da->SetDataTimeStep(2);
                   EXPECT_TRUE(sender.Send(da));
                   sender.Close();
                   da->ReleaseData();
                   da->Delete();
                   return;
                 }

                 sensei::DataBinning *b = MakeBinning();
                 InTransitEndpoint ep(&world, &group, layout, "bodies");
                 steps = ep.Run(b);
                 frameErrors = ep.FrameErrors();
                 deadSenders = ep.DeadSenders();
                 b->Delete();
               });

  EXPECT_EQ(steps, 2);
  EXPECT_EQ(frameErrors, 1);
  EXPECT_EQ(deadSenders, 0);
}

TEST(InTransitFault, StruckOutSenderIsDeclaredDeadOthersKeepFlowing)
{
  ResetPlatform();
  long steps = -1, frameErrors = -1, deadSenders = -1;
  minimpi::Run(3,
               [&](minimpi::Communicator &world)
               {
                 const InTransitLayout layout(3, 1);
                 minimpi::Communicator group =
                   world.Split(layout.IsEndpoint(world.Rank()) ? 1 : 0);

                 if (world.Rank() == 0)
                 {
                   // the dying sender: one good frame, then a frame that
                   // is cut off mid-stream (a chunk header promising two
                   // chunks, one chunk delivered, then silence — the
                   // short read a killed process leaves behind)
                   InTransitSender sender(&world, layout, "bodies");
                   sensei::TableAdaptor *da =
                     sensei::TableAdaptor::New("bodies");
                   svtkTable *mine = MakeTable(200, 21);
                   da->SetTable(mine);
                   mine->Delete();
                   da->SetDataTimeStep(0);
                   EXPECT_TRUE(sender.Send(da));
                   da->ReleaseData();
                   da->Delete();

                   std::uint8_t header[16] = {};
                   const std::uint64_t total = 512, nChunks = 2;
                   for (int i = 0; i < 8; ++i)
                   {
                     header[i] =
                       static_cast<std::uint8_t>((total >> (8 * i)) & 0xFF);
                     header[8 + i] = static_cast<std::uint8_t>(
                       (nChunks >> (8 * i)) & 0xFF);
                   }
                   const int ep = layout.EndpointOf(world.Rank());
                   world.Send(ep, kTransportTag, header, sizeof(header));
                   const std::vector<std::uint8_t> chunk(256, 0x22);
                   world.Send(ep, kTransportTag, chunk.data(), chunk.size());
                   return; // no Close, no more frames: the sender is gone
                 }

                 if (!layout.IsEndpoint(world.Rank()))
                 {
                   // the healthy sender streams three steps and leaves
                   InTransitSender sender(&world, layout, "bodies");
                   sensei::TableAdaptor *da =
                     sensei::TableAdaptor::New("bodies");
                   svtkTable *mine = MakeTable(200, 22);
                   da->SetTable(mine);
                   mine->Delete();
                   for (long s = 0; s < 3; ++s)
                   {
                     da->SetDataTimeStep(s);
                     EXPECT_TRUE(sender.Send(da));
                   }
                   sender.Close();
                   da->ReleaseData();
                   da->Delete();
                   return;
                 }

                 sensei::DataBinning *b = MakeBinning();
                 InTransitEndpoint ep(&world, &group, layout, "bodies");
                 ep.SetRecvTimeout(0.05);
                 ep.SetMaxFrameErrors(2);
                 EXPECT_THROW(ep.SetMaxFrameErrors(0), std::invalid_argument);
                 steps = ep.Run(b);
                 frameErrors = ep.FrameErrors();
                 deadSenders = ep.DeadSenders();
                 b->Delete();
               });

  // round 1 is whole; the dead sender then strikes out (short read,
  // then a missed deadline) while the healthy sender's remaining steps
  // keep being analyzed — the endpoint never stalls on the corpse
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(frameErrors, 2);
  EXPECT_EQ(deadSenders, 1);
}
