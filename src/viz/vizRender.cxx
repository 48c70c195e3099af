#include "vizRender.h"

#include "graphCapture.h"
#include "senseiProfiler.h"
#include "svtkAOSDataArray.h"
#include "vcuda.h"
#include "vizConfig.h"
#include "vizStreamer.h"
#include "vpClock.h"
#include "vpLoadTracker.h"
#include "vpPlatform.h"

#include <chrono>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace viz
{

namespace
{

double RealNow()
{
  return std::chrono::duration<double>(
           std::chrono::steady_clock::now().time_since_epoch())
    .count();
}

/// Per-pixel cost of the fill: normalize (a few flops, or a log) plus
/// the LUT lerp. No atomics — pixels are disjoint.
constexpr double kRenderOpsPerPixel = 12.0;

std::vector<std::string> SplitAxes(const std::string &csv)
{
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ','))
    if (!tok.empty())
      out.push_back(tok);
  return out;
}

} // namespace

RenderAnalysis::RenderAnalysis()
{
  this->Binning_ = sensei::DataBinning::New();
}

RenderAnalysis::~RenderAnalysis()
{
  this->Binning_->UnRegister();
}

void RenderAnalysis::SetMeshName(const std::string &name)
{
  this->Binning_->SetMeshName(name);
}

void RenderAnalysis::SetAxes(const std::vector<std::string> &axes)
{
  this->Binning_->SetAxes(axes);
  // SetAxes resets the binning's resolution; keep the configured ladder
  if (this->BinRes_ > 0)
    this->Binning_->SetResolution({this->BinRes_});
}

void RenderAnalysis::SetBinResolution(long res)
{
  this->Binning_->SetResolution({res});
  this->BinRes_ = res;
}

void RenderAnalysis::SetBinRange(int axis, double lo, double hi)
{
  this->Binning_->SetRange(axis, lo, hi);
}

void RenderAnalysis::SetVariable(const std::string &column,
                                 const std::string &op)
{
  this->Variable_ = column;
  this->Op_ = column.empty() ? sensei::BinningOp::Count
                             : sensei::BinningOpFromName(op);
  this->Binning_->ClearOperations();
  if (!column.empty())
    this->Binning_->AddOperation(column, this->Op_);
}

void RenderAnalysis::SetImageSize(std::uint32_t width, std::uint32_t height)
{
  if (!width || !height)
    throw std::invalid_argument("viz: framebuffer size must be positive");
  this->Width_ = width;
  this->Height_ = height;
}

void RenderAnalysis::ApplySteer(const SteerCommand &cmd)
{
  bool reshape = false;
  try
  {
    if (cmd.Have & kSteerImageSize)
    {
      this->SetImageSize(cmd.Width, cmd.Height);
      reshape = true;
    }
    if (cmd.Have & kSteerAxes)
    {
      this->SetAxes(SplitAxes(cmd.Axes));
      reshape = true;
    }
    if (cmd.Have & kSteerBinRes)
    {
      this->SetBinResolution(static_cast<long>(cmd.BinResolution));
      reshape = true;
    }
    if (cmd.Have & kSteerVariable)
      this->SetVariable(cmd.Variable, cmd.Op.empty() ? "sum" : cmd.Op);
    if (cmd.Have & kSteerColormap)
      this->Tf_.Map = cmd.Map;
    if (cmd.Have & kSteerLog)
      this->Tf_.Log = cmd.Log;
    if (cmd.Have & kSteerRange)
    {
      this->Tf_.Lo = cmd.Lo;
      this->Tf_.Hi = cmd.Hi;
      this->Tf_.AutoRange = false;
    }
    if (cmd.Have & kSteerAutoRange)
      this->Tf_.AutoRange = true;
    if (cmd.Have & kSteerDevice)
    {
      this->SetDeviceId(cmd.Device);
      reshape = true; // placement moves: the pinned graph is stale
    }
  }
  catch (const std::exception &e)
  {
    // a bad command must never kill the session or the simulation:
    // whatever applied before the throw stands, the rest is skipped
    std::cerr << "viz: steer v" << cmd.Version << " partially applied: "
              << e.what() << std::endl;
  }

  this->ParamVersion_ = cmd.Version;
  UpdateStats([](VizStats &s) { ++s.SteersApplied; });

  if (reshape && this->GraphSession_ && this->GraphSession_->Armed())
  {
    // the armed render graph recorded the old shape; drop it so the
    // next step recaptures instead of dying on a replay mismatch
    this->GraphSession_->Drop();
    this->GraphDevice_ = DEVICE_AUTO;
    UpdateStats([](VizStats &s) { ++s.Recaptures; });
  }
}

int RenderAnalysis::PlaceRender(sensei::DataAdaptor *data,
                                std::size_t gridBytes)
{
  sched::WorkHint hint;
  hint.Elements = static_cast<std::size_t>(this->Width_) * this->Height_;
  hint.OpsPerElement = kRenderOpsPerPixel;
  hint.AtomicFraction = 0.0;
  hint.MoveBytes = gridBytes + 4 * hint.Elements;
  hint.Latency = sched::LatencyClass::Interactive;

  // an armed graph pins the capture-time device: moving the render
  // would invalidate it anyway
  const bool armed = this->GraphSession_ && this->GraphSession_->Armed();
  if (armed && this->GraphDevice_ >= 0 &&
      this->GetDeviceId() == DEVICE_AUTO)
  {
    vp::DeviceLoadTracker::Get().RecordPlacement(vp::Platform::GetThisNode(),
                                                 this->GraphDevice_);
    return this->GraphDevice_;
  }
  return this->GraphDevice_ = this->GetPlacementDevice(data, hint);
}

void RenderAnalysis::Render(const double *grid, std::uint32_t gw,
                            std::uint32_t gh, int device)
{
  const std::size_t n =
    static_cast<std::size_t>(this->Width_) * this->Height_;
  this->Fb_.resize(4 * n);

  // resolve auto-range outside the kernel so every shard shades against
  // the same bounds (and the same ones a serial run would use)
  TransferFunction tf = this->Tf_;
  if (tf.AutoRange)
  {
    double lo = 0.0, hi = 1.0;
    GridRange(grid, static_cast<std::size_t>(gw) * gh, lo, hi);
    tf.Lo = lo;
    tf.Hi = hi;
  }

  const std::uint32_t w = this->Width_, h = this->Height_;

  if (device < 0)
  {
    std::uint8_t *fb = this->Fb_.data();
    vp::Platform::Get().HostParallelFor(
      vp::KernelDesc{n, kRenderOpsPerPixel, 0.0, "viz::render", true},
      [fb, w, h, grid, gw, gh, tf](std::size_t b, std::size_t e)
      { FillPixels(fb, b, e, w, h, grid, gw, gh, tf); });
    return;
  }

  vcuda::SetDevice(device);
  vcuda::stream_t strm = vcuda::StreamCreate();

  // captured step-graph session: upload, fill, readback is the whole
  // recurring step shape; capture once, replay on later steps
  std::optional<vp::graph::StepScope> graphScope;
  if (vp::graph::Enabled())
  {
    if (!this->GraphSession_)
      this->GraphSession_ = std::make_unique<vp::graph::Session>();
    graphScope.emplace(*this->GraphSession_);
  }

  const std::size_t gridBytes =
    static_cast<std::size_t>(gw) * gh * sizeof(double);
  auto *dGrid = static_cast<double *>(vcuda::MallocAsync(gridBytes, strm));
  auto *dFb = static_cast<std::uint8_t *>(vcuda::MallocAsync(4 * n, strm));

  vcuda::MemcpyAsync(dGrid, grid, gridBytes, strm);
  vcuda::LaunchN(strm, n,
                 [dFb, w, h, dGrid, gw, gh, tf](std::size_t b, std::size_t e)
                 { FillPixels(dFb, b, e, w, h, dGrid, gw, gh, tf); },
                 {kRenderOpsPerPixel, 0.0, "viz::render", true});
  vcuda::MemcpyAsync(this->Fb_.data(), dFb, 4 * n, strm);
  // settle the step before releasing the device buffers: FreeAsync frees
  // immediately, which would yank them out from under deferred shards or
  // a capturing graph
  vcuda::StreamSynchronize(strm);
  vcuda::Free(dGrid);
  vcuda::Free(dFb);
}

bool RenderAnalysis::Execute(sensei::DataAdaptor *data)
{
  sensei::ScopedEvent ev("viz::execute");

  // steering applies atomically at the step boundary, never mid-render
  if (this->Streamer_)
  {
    SteerCommand cmd;
    while (this->Streamer_->TakeSteer(cmd))
      this->ApplySteer(cmd);
  }

  const double renderBegin = RealNow();

  // one placement for the render and its binning: the device id (set,
  // configured or steered) and the automatic placement's controls place
  // both. Not the method: the render reads the grid in this execute
  this->PassPlacement(*this->Binning_);
  const bool binned = this->Binning_->Execute(data);
  // a lockstep binning's completion may wait in the step's batch
  if (data)
    data->FinishLockstep();
  if (!binned)
    return false;

  svtkImageData *img = this->Binning_->GetLastResult();
  if (!img)
    return true; // asynchronous binning: nothing completed yet

  int dims[3] = {1, 1, 1};
  img->GetDimensions(dims);
  const std::uint32_t gw = static_cast<std::uint32_t>(std::max(1, dims[0]));
  const std::uint32_t gh = static_cast<std::uint32_t>(std::max(1, dims[1]));

  // the rendered array: the configured reduction, or the histogram;
  // fall back to the histogram when a steered variable does not exist
  std::string name = "count";
  if (!this->Variable_.empty())
    name = this->Variable_ + "_" + sensei::BinningOpName(this->Op_);
  const svtkDataArray *arr = img->GetPointData()->GetArray(name);
  if (!arr && name != "count")
  {
    arr = img->GetPointData()->GetArray("count");
    name = "count";
  }
  if (!arr)
  {
    img->UnRegister();
    return false;
  }

  // a 3-axis grid renders its z = 0 slice (the first gw x gh values)
  std::vector<double> grid(static_cast<std::size_t>(gw) * gh, 0.0);
  const std::size_t have =
    std::min(grid.size(), static_cast<std::size_t>(arr->GetNumberOfTuples()));
  if (const auto *aos = dynamic_cast<const svtkAOSDoubleArray *>(arr))
  {
    const double *p = aos->GetData();
    std::copy(p, p + have, grid.begin());
  }
  else
  {
    for (std::size_t i = 0; i < have; ++i)
      grid[i] = arr->GetVariantValue(i, 0);
  }
  img->UnRegister();

  const int device = this->PlaceRender(data, grid.size() * sizeof(double));
  this->Render(grid.data(), gw, gh, device);
  ++this->Renders_;
  UpdateStats([](VizStats &s) { ++s.FramesRendered; });

  if (this->Streamer_)
  {
    FrameInfo info;
    info.Width = this->Width_;
    info.Height = this->Height_;
    info.Step = static_cast<std::uint64_t>(data->GetDataTimeStep());
    info.Version = this->ParamVersion_;
    info.Map = this->Tf_.Map;
    info.Variable = name;
    info.RenderTime = renderBegin;
    this->Streamer_->Publish(info, this->Fb_.data());
  }
  return true;
}

int RenderAnalysis::Finalize()
{
  return this->Binning_->Finalize();
}

} // namespace viz
