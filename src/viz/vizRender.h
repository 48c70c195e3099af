#ifndef vizRender_h
#define vizRender_h

/// @file vizRender.h
/// The steerable in situ rendering analysis. RenderAnalysis owns a
/// sensei::DataBinning and, every step, maps its binned grid through a
/// transfer function (colormap, value range, log/linear) into an RGBA
/// framebuffer at a steerable resolution. The per-pixel fill is a
/// Shardable kernel: under VP_EXEC=threads it shards across host lanes,
/// on a device it launches through vcuda on a private stream, and because
/// each pixel is a pure function of the grid the framebuffer is
/// bit-identical across serial and threads execution.
///
/// When a Streamer is attached the framebuffer fans out to every
/// admitted viewer after each render, and pending steering commands are
/// drained at the next step boundary — parameters never change
/// mid-render, so a steer that changes the framebuffer or binning
/// resolution takes effect whole at the next step.
///
/// The binning runs where the render does: the render's placement
/// controls (device id, devices_to_use, device_start, device_stride and
/// policy) are the binning's at every execute. Its execution method is
/// not: the binning runs lockstep, since the render reads its grid in the
/// same execute.

#include "senseiAnalysisAdaptor.h"
#include "senseiDataBinning.h"
#include "vizTransfer.h"
#include "vizWire.h"

#include <cstdint>
#include <string>
#include <vector>

namespace viz
{

class Streamer;

class RenderAnalysis : public sensei::AnalysisAdaptor
{
public:
  static RenderAnalysis *New() { return new RenderAnalysis; }

  const char *GetClassName() const override { return "viz::RenderAnalysis"; }

  // --- binning configuration (forwarded) -------------------------------------

  void SetMeshName(const std::string &name);
  void SetAxes(const std::vector<std::string> &axes);

  /// Bins per axis (broadcast; the steerable "bin resolution").
  void SetBinResolution(long res);
  long GetBinResolution() const { return this->BinRes_; }

  /// Fix a coordinate axis' bounds instead of scanning the data.
  void SetBinRange(int axis, double lo, double hi);

  /// The rendered variable: a reduction "<column>_<op>" of the binning,
  /// or the implicit histogram when `column` is empty ("count").
  void SetVariable(const std::string &column, const std::string &op = "sum");
  const std::string &GetVariable() const { return this->Variable_; }

  /// The binning this analysis drives (owned; for tests/diagnostics).
  sensei::DataBinning *GetBinning() { return this->Binning_; }

  // --- render configuration --------------------------------------------------

  /// Framebuffer resolution (steerable).
  void SetImageSize(std::uint32_t width, std::uint32_t height);
  std::uint32_t GetWidth() const { return this->Width_; }
  std::uint32_t GetHeight() const { return this->Height_; }

  void SetTransfer(const TransferFunction &tf) { this->Tf_ = tf; }
  const TransferFunction &GetTransfer() const { return this->Tf_; }

  /// Attach the fan-out/steering endpoint (not owned; may be null for a
  /// render-only analysis). The streamer must outlive this analysis.
  void SetStreamer(Streamer *s) { this->Streamer_ = s; }

  // --- framework interface ---------------------------------------------------

  bool Execute(sensei::DataAdaptor *data) override;
  int Finalize() override;

  /// The last rendered framebuffer (Width * Height RGBA bytes; empty
  /// before the first render).
  const std::vector<std::uint8_t> &GetFramebuffer() const
  {
    return this->Fb_;
  }

  /// Completed renders.
  std::uint64_t GetRenderCount() const { return this->Renders_; }

  /// Parameter version currently in effect (last applied steer).
  std::uint64_t GetParamVersion() const { return this->ParamVersion_; }

protected:
  RenderAnalysis();
  ~RenderAnalysis() override;

private:
  /// Apply one steering command at a step boundary. Invalid fields are
  /// reported and skipped; the session survives.
  void ApplySteer(const SteerCommand &cmd);

  /// Rasterize `grid` (gw x gh doubles) into Fb_ on `device`
  /// (DEVICE_HOST or a device id).
  void Render(const double *grid, std::uint32_t gw, std::uint32_t gh,
              int device);

  /// Placement for the render kernel.
  int PlaceRender(sensei::DataAdaptor *data, std::size_t gridBytes);

  sensei::DataBinning *Binning_;
  Streamer *Streamer_ = nullptr;

  std::string Variable_;                              ///< "" = count
  sensei::BinningOp Op_ = sensei::BinningOp::Sum;
  long BinRes_ = 0; ///< last explicit bin resolution (0 = binning default)

  std::uint32_t Width_ = 256, Height_ = 256;
  TransferFunction Tf_;
  std::vector<std::uint8_t> Fb_;

  std::uint64_t Renders_ = 0;
  std::uint64_t ParamVersion_ = 0;
};

} // namespace viz

#endif
