#include "senseiInTransit.h"

#include "senseiSerialization.h"
#include "vpPlatform.h"

#include <cstring>
#include <map>
#include <stdexcept>

namespace sensei
{

namespace
{
constexpr int TagTransport = 7000;
constexpr std::uint8_t FrameData = 0;
constexpr std::uint8_t FrameClose = 1;
} // namespace

// ---------------------------------------------------------------------------
InTransitSender::InTransitSender(minimpi::Communicator *world,
                                 const InTransitLayout &layout,
                                 std::string meshName)
  : World_(world), Layout_(layout), MeshName_(std::move(meshName))
{
  if (!world)
    throw std::invalid_argument("InTransitSender: null communicator");
  if (this->Layout_.IsEndpoint(world->Rank()))
    throw std::logic_error("InTransitSender: this rank is an endpoint");
}

bool InTransitSender::Send(DataAdaptor *data)
{
  if (this->Closed_)
    throw std::logic_error("InTransitSender::Send after Close");

  svtkDataObject *obj = data->GetMesh(this->MeshName_);
  auto *table = dynamic_cast<svtkTable *>(obj);
  if (!table)
  {
    if (obj)
      obj->UnRegister();
    return false;
  }

  // frame: kind byte, step (u64 LE), serialized table
  std::vector<std::uint8_t> frame;
  frame.push_back(FrameData);
  cmp::PutLE64(frame, static_cast<std::uint64_t>(data->GetDataTimeStep()));

  const std::vector<std::uint8_t> payload =
    SerializeTableCompressed(table, this->Compress_);
  frame.insert(frame.end(), payload.begin(), payload.end());
  table->UnRegister();

  // serialization is host memory-bandwidth work the sender pays for
  vp::Platform &plat = vp::Platform::Get();
  plat.HostCompute(static_cast<double>(frame.size()) /
                   plat.Config().Cost.H2HBandwidth);

  this->World_->SendChunked(this->Layout_.EndpointOf(this->World_->Rank()),
                            TagTransport, frame.data(), frame.size());
  return true;
}

void InTransitSender::Close()
{
  if (this->Closed_)
    return;
  const std::uint8_t frame[1] = {FrameClose};
  this->World_->SendChunked(this->Layout_.EndpointOf(this->World_->Rank()),
                            TagTransport, frame, sizeof(frame));
  this->Closed_ = true;
}

// ---------------------------------------------------------------------------
InTransitEndpoint::InTransitEndpoint(minimpi::Communicator *world,
                                     minimpi::Communicator *endpointComm,
                                     const InTransitLayout &layout,
                                     std::string meshName)
  : World_(world), EndpointComm_(endpointComm), Layout_(layout),
    MeshName_(std::move(meshName))
{
  if (!world || !endpointComm)
    throw std::invalid_argument("InTransitEndpoint: null communicator");
  if (!this->Layout_.IsEndpoint(world->Rank()))
    throw std::logic_error("InTransitEndpoint: this rank is a sender");
}

void InTransitEndpoint::SetMaxFrameErrors(long strikes)
{
  if (strikes < 1)
    throw std::invalid_argument(
      "InTransitEndpoint::SetMaxFrameErrors: strikes must be >= 1");
  this->MaxFrameErrors_ = strikes;
}

long InTransitEndpoint::Run(AnalysisAdaptor *analysis)
{
  if (!analysis)
    throw std::invalid_argument("InTransitEndpoint::Run: null analysis");
  analysis->Register();

  std::vector<int> open = this->Layout_.SendersOf(this->World_->Rank());
  std::map<int, long> strikes; // consecutive per-sender frame failures
  long steps = 0;

  while (!open.empty())
  {
    // one round: a frame from every still-open sender
    std::vector<svtkTable *> blocks;
    std::uint64_t step = 0;
    std::vector<int> stillOpen;

    for (int sender : open)
    {
      // receive and decode under a per-frame failure contract: a short
      // read, a corrupt frame, or a missed deadline skips this frame
      // and strikes the sender; the session keeps running
      std::vector<std::uint8_t> frame;
      bool good = true;
      try
      {
        if (this->RecvTimeout_ < 0.0)
          frame = this->World_->RecvChunked(sender, TagTransport);
        else
          good = this->World_->RecvChunked(sender, TagTransport, frame,
                                           this->RecvTimeout_);
      }
      catch (const std::runtime_error &)
      {
        good = false; // short read / malformed chunk stream
      }

      if (good && (frame.empty() || frame[0] == FrameClose))
        continue; // sender is done

      if (good)
      {
        try
        {
          if (frame.size() < 1 + sizeof(std::uint64_t) ||
              frame[0] != FrameData)
            throw std::runtime_error("InTransitEndpoint: malformed frame");
          step = cmp::LoadLE64(frame.data() + 1);
          // the table's chunk headers name their codecs, so senders
          // with different codecs can share an endpoint
          blocks.push_back(DeserializeTableCompressed(
            frame.data() + 1 + sizeof(std::uint64_t),
            frame.size() - 1 - sizeof(std::uint64_t)));
        }
        catch (const std::runtime_error &)
        {
          good = false; // corrupt frame or payload
        }
      }

      if (!good)
      {
        ++this->FrameErrors_;
        if (++strikes[sender] >= this->MaxFrameErrors_)
        {
          ++this->DeadSenders_; // struck out: stop waiting on this sender
          continue;
        }
        stillOpen.push_back(sender);
        continue;
      }

      strikes[sender] = 0;
      stillOpen.push_back(sender);
    }
    open.swap(stillOpen);

    if (blocks.empty())
    {
      if (open.empty())
        break; // everything closed (or struck out) in this round
      continue; // a round of failures with live senders: keep receiving
    }

    svtkTable *assembled = ConcatenateTables(blocks);
    for (svtkTable *b : blocks)
      b->UnRegister();

    TableAdaptor *adaptor = TableAdaptor::New(this->MeshName_);
    adaptor->SetTable(assembled);
    assembled->UnRegister();
    adaptor->SetCommunicator(this->EndpointComm_);
    adaptor->SetDataTimeStep(static_cast<long>(step));

    analysis->Execute(adaptor);
    adaptor->ReleaseData();
    adaptor->Delete();
    ++steps;
  }

  analysis->Finalize();
  analysis->UnRegister();
  return steps;
}

} // namespace sensei
