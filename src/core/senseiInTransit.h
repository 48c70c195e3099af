#ifndef senseiInTransit_h
#define senseiInTransit_h

/// @file senseiInTransit.h
/// In transit data movement: M-to-N redistribution of simulation data to
/// a dedicated group of endpoint ranks that run the analyses. SENSEI's
/// in transit mode (the paper cites its HDF5 transport [5] and the
/// M-to-N redistribution work [13]) trades on-node interference for
/// off-node data movement: the simulation serializes its mesh, ships it
/// to an assigned endpoint, and continues; endpoints assemble the blocks
/// they receive and drive an AnalysisAdaptor chain against the union,
/// reducing across the endpoint group only.
///
/// Usage: split the world into N senders and M endpoints (world rank >=
/// N is an endpoint by convention of InTransitLayout), then on sender
/// ranks drive InTransitSender per step and Close() at the end; on
/// endpoint ranks call InTransitEndpoint::Run once — it loops until all
/// of its senders close.

#include "cmpCodec.h"
#include "minimpi.h"
#include "senseiAnalysisAdaptor.h"
#include "senseiDataAdaptor.h"

#include <string>
#include <vector>

namespace sensei
{

/// How world ranks divide into senders (simulation) and endpoints.
struct InTransitLayout
{
  int WorldSize = 0;
  int Endpoints = 0;

  InTransitLayout(int worldSize, int endpoints)
    : WorldSize(worldSize), Endpoints(endpoints)
  {
    if (endpoints < 1 || endpoints >= worldSize)
      throw std::invalid_argument(
        "InTransitLayout: need 1 <= endpoints < worldSize");
  }

  int Senders() const { return this->WorldSize - this->Endpoints; }

  /// True when `worldRank` is an endpoint (the last `Endpoints` ranks).
  bool IsEndpoint(int worldRank) const
  {
    return worldRank >= this->Senders();
  }

  /// The endpoint (world rank) a sender ships to: round robin over the
  /// endpoint group — the M-to-N map.
  int EndpointOf(int senderWorldRank) const
  {
    return this->Senders() + senderWorldRank % this->Endpoints;
  }

  /// The sender world ranks assigned to an endpoint.
  std::vector<int> SendersOf(int endpointWorldRank) const
  {
    std::vector<int> out;
    const int e = endpointWorldRank - this->Senders();
    for (int s = 0; s < this->Senders(); ++s)
      if (s % this->Endpoints == e)
        out.push_back(s);
    return out;
  }
};

/// Simulation-side transport: serialize and ship the mesh each step.
class InTransitSender
{
public:
  /// `world` must outlive the sender; the calling rank must be a sender.
  /// Shipped tables request the run-wide codec (cmp::DefaultRequest:
  /// `none` unless <compress> is enabled).
  InTransitSender(minimpi::Communicator *world, const InTransitLayout &layout,
                  std::string meshName = "table");

  /// Request a specific codec for shipped tables (negotiated per column
  /// dtype); CodecId::None ships the raw values. Overrides the run-wide
  /// request for this sender.
  void SetCompression(const cmp::Params &params) { this->Compress_ = params; }

  /// Serialize the named mesh from `data` and ship it to the assigned
  /// endpoint, tagged with the adaptor's time step. Returns false when
  /// the mesh is unavailable.
  bool Send(DataAdaptor *data);

  /// Tell the endpoint this sender is done (collective over nothing —
  /// call once per sender).
  void Close();

private:
  minimpi::Communicator *World_;
  InTransitLayout Layout_;
  std::string MeshName_;
  cmp::Params Compress_ = cmp::DefaultRequest();
  bool Closed_ = false;
};

/// Endpoint-side transport: receive, assemble, analyze.
class InTransitEndpoint
{
public:
  /// `world` and `endpointComm` (the Split of the endpoint group) must
  /// outlive the endpoint; the calling rank must be an endpoint.
  InTransitEndpoint(minimpi::Communicator *world,
                    minimpi::Communicator *endpointComm,
                    const InTransitLayout &layout,
                    std::string meshName = "table");

  /// Receive step after step until every assigned sender closes, driving
  /// `analysis` once per assembled step with a TableAdaptor whose
  /// communicator is the endpoint group. Returns the number of steps
  /// processed. A reference is taken on the analysis for the call.
  ///
  /// A partial frame (short read), a corrupt frame, or a frame missing
  /// the receive deadline is a clean per-frame failure: the frame is
  /// skipped, the session keeps running, and the failure is counted in
  /// FrameErrors(). A sender failing MaxFrameErrors consecutive frames
  /// is declared dead and removed from the round (DeadSenders()) so the
  /// remaining senders keep flowing.
  long Run(AnalysisAdaptor *analysis);

  /// Bound the real time Run waits for any one frame. Negative (the
  /// default) blocks forever — the original, bit-exact behavior.
  void SetRecvTimeout(double seconds) { this->RecvTimeout_ = seconds; }

  /// Consecutive per-frame failures before a sender is declared dead
  /// (default 3; minimum 1).
  void SetMaxFrameErrors(long strikes);

  /// Per-frame failures survived across Run calls.
  long FrameErrors() const { return this->FrameErrors_; }

  /// Senders dropped after striking out.
  long DeadSenders() const { return this->DeadSenders_; }

private:
  minimpi::Communicator *World_;
  minimpi::Communicator *EndpointComm_;
  InTransitLayout Layout_;
  std::string MeshName_;
  double RecvTimeout_ = -1.0;
  long MaxFrameErrors_ = 3;
  long FrameErrors_ = 0;
  long DeadSenders_ = 0;
};

} // namespace sensei

#endif
