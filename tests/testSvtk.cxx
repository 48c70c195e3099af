// Unit tests for the SENSEI data model: reference counting, the
// svtkDataArray hierarchy (host-only AOS arrays and heterogeneous HAMR
// arrays), containers (field data, table, image), and the HDA
// heterogeneous extension APIs the paper introduces.

#include "svtkAOSDataArray.h"
#include "svtkArrayUtils.h"
#include "svtkDataObject.h"
#include "svtkHAMRDataArray.h"

#include "vcuda.h"
#include "vomp.h"
#include "vpPlatform.h"

#include <gtest/gtest.h>

namespace
{
class SvtkTest : public ::testing::Test
{
protected:
  void SetUp() override
  {
    vp::PlatformConfig cfg;
    cfg.DevicesPerNode = 4;
    cfg.HostCoresPerNode = 8;
    vp::Platform::Initialize(cfg);
    vcuda::SetDevice(0);
    vomp::SetDefaultDevice(0);
  }
};
} // namespace

// --- reference counting -----------------------------------------------------------

TEST_F(SvtkTest, NewStartsAtOneRegisterAndDelete)
{
  svtkAOSDoubleArray *a = svtkAOSDoubleArray::New("a");
  EXPECT_EQ(a->GetReferenceCount(), 1);
  a->Register();
  EXPECT_EQ(a->GetReferenceCount(), 2);
  a->UnRegister();
  EXPECT_EQ(a->GetReferenceCount(), 1);
  a->Delete(); // destroys
}

TEST_F(SvtkTest, SmartPtrManagesReferences)
{
  svtkAOSDoubleArray *raw = svtkAOSDoubleArray::New("a");
  {
    auto sp = svtkSmartPtr<svtkAOSDoubleArray>::Take(raw);
    EXPECT_EQ(raw->GetReferenceCount(), 1);
    {
      svtkSmartPtr<svtkAOSDoubleArray> sp2(sp);
      EXPECT_EQ(raw->GetReferenceCount(), 2);
    }
    EXPECT_EQ(raw->GetReferenceCount(), 1);
  }
  // destroyed: if this leaked, Platform::Initialize in the next test's
  // SetUp would throw (HAMR arrays) — for AOS we just trust ASAN/valgrind
}

// --- field data / table / image ------------------------------------------------------

TEST_F(SvtkTest, FieldDataAddGetRemove)
{
  svtkFieldData *fd = svtkFieldData::New();

  svtkAOSDoubleArray *a = svtkAOSDoubleArray::New("alpha", 4, 1);
  svtkAOSDoubleArray *b = svtkAOSDoubleArray::New("beta", 4, 1);
  fd->AddArray(a);
  fd->AddArray(b);
  a->Delete();
  b->Delete();

  EXPECT_EQ(fd->GetNumberOfArrays(), 2);
  EXPECT_EQ(fd->GetArray("alpha"), a);
  EXPECT_EQ(fd->GetArray(1), b);
  EXPECT_EQ(fd->GetArray("gamma"), nullptr);
  EXPECT_EQ(fd->GetArray(5), nullptr);
  EXPECT_TRUE(fd->HasArray("beta"));

  // adding a same-named array replaces it
  svtkAOSDoubleArray *a2 = svtkAOSDoubleArray::New("alpha", 8, 1);
  fd->AddArray(a2);
  a2->Delete();
  EXPECT_EQ(fd->GetNumberOfArrays(), 2);
  EXPECT_EQ(fd->GetArray("alpha"), a2);

  fd->RemoveArray("beta");
  EXPECT_EQ(fd->GetNumberOfArrays(), 1);
  fd->Delete();
}

TEST_F(SvtkTest, TableColumnsAndRows)
{
  svtkTable *t = svtkTable::New();
  EXPECT_EQ(t->GetNumberOfRows(), 0u);

  svtkAOSDoubleArray *x = svtkAOSDoubleArray::New("x", 10, 1);
  t->AddColumn(x);
  x->Delete();

  EXPECT_EQ(t->GetNumberOfColumns(), 1);
  EXPECT_EQ(t->GetNumberOfRows(), 10u);
  EXPECT_EQ(t->GetColumnByName("x"), x);
  t->Delete();
}

TEST_F(SvtkTest, ImageDataGeometry)
{
  svtkImageData *img = svtkImageData::New();
  img->SetDimensions(16, 8, 1);
  img->SetOrigin(-1.0, -2.0, 0.0);
  img->SetSpacing(0.125, 0.5, 1.0);

  int dims[3];
  img->GetDimensions(dims);
  EXPECT_EQ(dims[0], 16);
  EXPECT_EQ(dims[1], 8);
  EXPECT_EQ(dims[2], 1);
  EXPECT_EQ(img->GetNumberOfPoints(), 128u);
  EXPECT_EQ(img->GetNumberOfCells(), 15u * 7u);

  double o[3];
  img->GetOrigin(o);
  EXPECT_DOUBLE_EQ(o[1], -2.0);
  img->Delete();
}

// --- AOS arrays -------------------------------------------------------------------

TEST_F(SvtkTest, AOSVariantAccess)
{
  svtkAOSDataArray<float> *a = svtkAOSDataArray<float>::New("f", 4, 2);
  EXPECT_EQ(a->GetScalarType(), svtkScalarType::Float32);
  EXPECT_EQ(a->GetNumberOfTuples(), 4u);
  EXPECT_EQ(a->GetNumberOfComponents(), 2);
  EXPECT_EQ(a->GetNumberOfValues(), 8u);

  a->SetVariantValue(2, 1, 7.5);
  EXPECT_DOUBLE_EQ(a->GetVariantValue(2, 1), 7.5);

  a->SetNumberOfTuples(6);
  EXPECT_EQ(a->GetNumberOfTuples(), 6u);
  EXPECT_DOUBLE_EQ(a->GetVariantValue(2, 1), 7.5); // preserved
  a->Delete();
}

TEST_F(SvtkTest, DeepCopyConvertsTypes)
{
  svtkAOSDataArray<int> *src = svtkAOSDataArray<int>::New("i", 3, 1);
  src->SetVariantValue(0, 0, 1);
  src->SetVariantValue(1, 0, 2);
  src->SetVariantValue(2, 0, 3);

  svtkAOSDoubleArray *dst = svtkAOSDoubleArray::New("d");
  dst->DeepCopy(src);
  EXPECT_EQ(dst->GetName(), "i");
  EXPECT_EQ(dst->GetNumberOfTuples(), 3u);
  EXPECT_DOUBLE_EQ(dst->GetVariantValue(1, 0), 2.0);

  src->Delete();
  dst->Delete();
}

// --- svtkHAMRDataArray ----------------------------------------------------------------

TEST_F(SvtkTest, HDAConstructionOnDevice)
{
  // paper Listing 3: result allocated with the cuda_async allocator
  vcuda::SetDevice(2);
  vcuda::stream_t strm = vcuda::StreamCreate();
  svtkHAMRDoubleArray *sum = svtkHAMRDoubleArray::New(
    "sum", 100, 1, svtkAllocator::cuda_async, strm, svtkStreamMode::async);

  EXPECT_EQ(sum->GetNumberOfTuples(), 100u);
  EXPECT_EQ(sum->GetOwner(), 2);
  EXPECT_FALSE(sum->HostAccessible());
  EXPECT_TRUE(sum->DeviceAccessible(2));
  EXPECT_FALSE(sum->DeviceAccessible(1));

  // direct access since location and PM are known
  double *p = sum->GetData();
  ASSERT_NE(p, nullptr);

  sum->Delete();
  vcuda::SetDevice(0);
}

TEST_F(SvtkTest, HDAZeroCopyListing1)
{
  // paper Listing 1, line for line: allocate with OpenMP on a device,
  // initialize there, wrap in a shared_ptr, zero-copy construct
  const int devId = 1;
  const std::size_t nElem = 200;

  vomp::SetDefaultDevice(devId);
  auto *devPtr =
    static_cast<double *>(vomp::TargetAlloc(nElem * sizeof(double), devId));

  std::shared_ptr<double> spDev(
    devPtr, [devId](double *ptr) { vomp::TargetFree(ptr, devId); });

  vomp::TargetParallelFor(devId, nElem,
                          [devPtr](std::size_t b, std::size_t e)
                          {
                            for (std::size_t i = b; i < e; ++i)
                              devPtr[i] = -3.14;
                          });

  svtkHAMRDoubleArray *simData = svtkHAMRDoubleArray::New(
    "simData", spDev, nElem, 1, svtkAllocator::openmp, svtkStream(),
    svtkStreamMode::async, devId);

  EXPECT_EQ(simData->GetData(), devPtr); // zero copy
  EXPECT_EQ(simData->GetOwner(), devId);
  EXPECT_EQ(simData->GetName(), "simData");

  spDev.reset();
  EXPECT_DOUBLE_EQ(simData->GetVariantValue(0, 0), -3.14);

  simData->Delete();
  EXPECT_EQ(
    vp::Platform::Get().Registry().BytesIn(vp::MemSpace::Device, devId), 0u);
  vomp::SetDefaultDevice(0);
}

TEST_F(SvtkTest, HDAAccessorsMoveOnlyWhenNeeded)
{
  vcuda::SetDevice(0);
  svtkHAMRDoubleArray *a =
    svtkHAMRDoubleArray::New("a", 64, 1, svtkAllocator::cuda, svtkStream(),
                            svtkStreamMode::sync, 1.25);

  vp::Platform::Get().Stats().Reset();

  // same-device access: zero copy
  auto dv = a->GetCUDAAccessible();
  EXPECT_EQ(dv.get(), a->GetData());

  // host access: one D2H move
  auto hv = a->GetHostAccessible();
  a->Synchronize();
  EXPECT_NE(hv.get(), a->GetData());
  EXPECT_EQ(vp::Platform::Get().Stats().Copies(vp::CopyKind::DeviceToHost),
            1u);
  for (int i = 0; i < 64; ++i)
    ASSERT_DOUBLE_EQ(hv.get()[i], 1.25);

  a->Delete();
}

TEST_F(SvtkTest, HDAVariantInterface)
{
  svtkHAMRDoubleArray *a = svtkHAMRDoubleArray::New(
    "a", 10, 2, svtkAllocator::cuda, svtkStream(), svtkStreamMode::sync);
  EXPECT_EQ(a->GetNumberOfComponents(), 2);
  a->SetVariantValue(4, 1, 8.5);
  EXPECT_DOUBLE_EQ(a->GetVariantValue(4, 1), 8.5);
  EXPECT_EQ(a->GetScalarType(), svtkScalarType::Float64);

  a->SetNumberOfTuples(20);
  EXPECT_EQ(a->GetNumberOfTuples(), 20u);
  EXPECT_DOUBLE_EQ(a->GetVariantValue(4, 1), 8.5);
  a->Delete();
}

TEST_F(SvtkTest, HDADeepCopyPreservesLocation)
{
  vcuda::SetDevice(3);
  svtkHAMRDoubleArray *a =
    svtkHAMRDoubleArray::New("a", 32, 1, svtkAllocator::cuda, svtkStream(),
                            svtkStreamMode::sync, 2.0);
  vcuda::SetDevice(0); // the copy must not follow the current device

  svtkHAMRDoubleArray *b = a->NewDeepCopy();
  EXPECT_EQ(b->GetOwner(), 3);
  EXPECT_EQ(b->GetAllocator(), hamr::allocator::device);
  EXPECT_NE(b->GetData(), a->GetData());
  EXPECT_EQ(b->ToVector(), a->ToVector());

  a->Delete();
  b->Delete();
}

TEST_F(SvtkTest, HDAMultiComponentTuplesSurviveResizeAndDeepCopies)
{
  // tuples are interleaved (component c of tuple t is element t*3 + c),
  // so a resize and every deep copy keep each tuple whole
  vcuda::SetDevice(2);
  svtkHAMRDoubleArray *a = svtkHAMRDoubleArray::New(
    "xyz", 40, 3, svtkAllocator::cuda, svtkStream(), svtkStreamMode::sync);
  vcuda::SetDevice(0);
  auto value = [](std::size_t t, int c)
  { return static_cast<double>(t * 10 + static_cast<std::size_t>(c)) + 0.25; };
  for (std::size_t t = 0; t < 40; ++t)
    for (int c = 0; c < 3; ++c)
      a->SetVariantValue(t, c, value(t, c));

  a->SetNumberOfTuples(25); // shrinking keeps the leading tuples

  auto expectTuples = [&value](const svtkHAMRDoubleArray *b, int owner)
  {
    EXPECT_EQ(b->GetOwner(), owner);
    EXPECT_EQ(b->GetNumberOfComponents(), 3);
    ASSERT_EQ(b->GetNumberOfTuples(), 25u);
    const std::vector<double> flat = b->ToVector();
    for (std::size_t t = 0; t < 25; ++t)
      for (int c = 0; c < 3; ++c)
      {
        EXPECT_EQ(b->GetVariantValue(t, c), value(t, c))
          << "owner " << owner << " tuple " << t << " component " << c;
        EXPECT_EQ(flat[t * 3 + static_cast<std::size_t>(c)], value(t, c));
      }
  };
  expectTuples(a, 2);

  svtkHAMRDoubleArray *same = a->NewDeepCopy();
  svtkHAMRDoubleArray *dev1 = a->NewDeepCopy(1);
  svtkHAMRDoubleArray *host = a->NewDeepCopy(vp::HostDevice);
  expectTuples(same, 2);
  expectTuples(dev1, 1);
  expectTuples(host, vp::HostDevice);

  same->Delete();
  dev1->Delete();
  host->Delete();
  a->Delete();
}

TEST_F(SvtkTest, HDANewInstanceIsEmptySameConfig)
{
  svtkHAMRDoubleArray *a = svtkHAMRDoubleArray::New(
    "a", 8, 3, svtkAllocator::openmp, svtkStream(), svtkStreamMode::sync);
  svtkDataArray *b = a->NewInstance();
  EXPECT_EQ(b->GetNumberOfTuples(), 0u);
  EXPECT_EQ(b->GetNumberOfComponents(), 3);
  a->Delete();
  b->Delete();
}

TEST_F(SvtkTest, StreamConvertsToAndFromNative)
{
  // the paper's Listing 3, line 5: "cudaStream_t strm = svtkStream();" —
  // svtkStream has automatic conversions to and from the PM native
  // stream type so the two can be used interchangeably
  vcuda::stream_t native = svtkStream(); // native <- null svtk stream
  EXPECT_FALSE(static_cast<bool>(native));

  vcuda::stream_t created = vcuda::StreamCreate();
  svtkStream wrapped = created; // svtk <- native
  EXPECT_TRUE(static_cast<bool>(wrapped));
  vcuda::stream_t back = wrapped; // native <- svtk
  EXPECT_TRUE(back == created);   // the same queue

  // and the wrapped stream orders data-model operations
  svtkHAMRDoubleArray *a = svtkHAMRDoubleArray::New(
    "a", 1 << 16, 1, svtkAllocator::cuda_async, wrapped,
    svtkStreamMode::async, 2.0);
  EXPECT_TRUE(a->GetStream() == wrapped);
  a->Synchronize();
  EXPECT_DOUBLE_EQ(a->GetVariantValue(0, 0), 2.0);
  a->Delete();
}

// --- enums / names -------------------------------------------------------------------

TEST_F(SvtkTest, AllocatorNamesRoundTrip)
{
  const svtkAllocator all[] = {
    svtkAllocator::malloc_,    svtkAllocator::cpp,
    svtkAllocator::cuda_host_pinned, svtkAllocator::cuda,
    svtkAllocator::cuda_async, svtkAllocator::cuda_uva,
    svtkAllocator::hip,        svtkAllocator::hip_async,
    svtkAllocator::openmp,
  };
  for (svtkAllocator a : all)
    EXPECT_EQ(svtkAllocatorFromName(svtkAllocatorName(a)), a);
  EXPECT_EQ(svtkAllocatorFromName("bogus"), svtkAllocator::none);
  EXPECT_EQ(svtkAllocatorFromName(nullptr), svtkAllocator::none);
}

TEST_F(SvtkTest, ScalarTypeNamesAndSizes)
{
  EXPECT_EQ(svtkScalarSize(svtkScalarType::Float64), sizeof(double));
  EXPECT_EQ(svtkScalarSize(svtkScalarType::Int32), sizeof(int));
  EXPECT_STREQ(svtkScalarName(svtkScalarType::Float32), "float32");
}

// --- array utils ----------------------------------------------------------------------

TEST_F(SvtkTest, ToDoubleVectorFastAndSlowPaths)
{
  svtkAOSDataArray<int> *ai = svtkAOSDataArray<int>::New("i", 3, 1);
  ai->SetVariantValue(0, 0, 4);
  ai->SetVariantValue(1, 0, 5);
  ai->SetVariantValue(2, 0, 6);
  EXPECT_EQ(svtkToDoubleVector(ai), (std::vector<double>{4, 5, 6}));
  ai->Delete();

  svtkHAMRDoubleArray *h = svtkHAMRDoubleArray::New(
    "h", 2, 1, svtkAllocator::cuda, svtkStream(), svtkStreamMode::sync, 9.0);
  EXPECT_EQ(svtkToDoubleVector(h), (std::vector<double>{9, 9}));
  h->Delete();
}

TEST_F(SvtkTest, AsHAMRDoubleZeroCopyForHamr)
{
  svtkHAMRDoubleArray *h = svtkHAMRDoubleArray::New(
    "h", 4, 1, svtkAllocator::cuda, svtkStream(), svtkStreamMode::sync, 1.0);
  svtkHAMRDoubleArray *view = svtkAsHAMRDouble(h);
  EXPECT_EQ(view, h); // same object, extra reference
  EXPECT_EQ(h->GetReferenceCount(), 2);
  view->UnRegister();
  h->Delete();
}

TEST_F(SvtkTest, AsHAMRDoubleConvertsAOS)
{
  svtkAOSDataArray<float> *f = svtkAOSDataArray<float>::New("f", 2, 1);
  f->SetVariantValue(0, 0, 1.5);
  f->SetVariantValue(1, 0, 2.5);
  svtkHAMRDoubleArray *h = svtkAsHAMRDouble(f);
  EXPECT_EQ(h->ToVector(), (std::vector<double>{1.5, 2.5}));
  EXPECT_TRUE(h->HostAccessible());
  h->Delete();
  f->Delete();
}
