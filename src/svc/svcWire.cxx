#include "svcWire.h"

#include "svcSession.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace svc
{

namespace
{
constexpr std::uint8_t kMagic[4] = {'S', 'V', 'C', 'F'};

void PutU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t GetU32(const std::uint8_t *p)
{
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

void PutF64(std::vector<std::uint8_t> &out, double v)
{
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  cmp::PutLE64(out, bits);
}

double GetF64(const std::uint8_t *p)
{
  const std::uint64_t bits = cmp::LoadLE64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void PutString(std::vector<std::uint8_t> &out, const std::string &s)
{
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::string GetString(const std::uint8_t *&p, const std::uint8_t *end)
{
  if (end - p < 4)
    throw std::runtime_error("svc: truncated string field");
  const std::uint32_t n = GetU32(p);
  p += 4;
  if (static_cast<std::size_t>(end - p) < n)
    throw std::runtime_error("svc: truncated string field");
  std::string s(reinterpret_cast<const char *>(p), n);
  p += n;
  return s;
}

cmp::CodecId GetCodec(std::uint8_t b)
{
  if (b > static_cast<std::uint8_t>(cmp::CodecId::Quantize))
    throw std::runtime_error("svc: unknown codec id " + std::to_string(b));
  return static_cast<cmp::CodecId>(b);
}
} // namespace

const char *FrameKindName(FrameKind k)
{
  switch (k)
  {
    case FrameKind::Hello: return "hello";
    case FrameKind::Welcome: return "welcome";
    case FrameKind::Reject: return "reject";
    case FrameKind::Data: return "data";
    case FrameKind::Heartbeat: return "heartbeat";
    case FrameKind::Goodbye: return "goodbye";
    case FrameKind::Steer: return "steer";
    case FrameKind::Push: return "push";
    case FrameKind::HeartbeatAck: return "heartbeat-ack";
  }
  return "unknown";
}

void EncodeFrameHeader(const FrameHeader &h, std::vector<std::uint8_t> &out)
{
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(h.Kind));
  out.push_back(0);
  out.push_back(0);
  PutU32(out, h.Session);
  PutU32(out, h.Flags);
  cmp::PutLE64(out, h.Step);
  PutF64(out, h.SendTime);
  cmp::PutLE64(out, h.PayloadBytes);
  cmp::PutLE64(out, h.RawBytes);
}

FrameHeader DecodeFrameHeader(const std::uint8_t *bytes, std::size_t size)
{
  if (size < kFrameHeaderBytes)
    throw std::runtime_error("svc: frame shorter than its header");
  if (std::memcmp(bytes, kMagic, 4) != 0)
    throw std::runtime_error("svc: bad frame magic");
  if (bytes[4] != kProtocolVersion)
    throw std::runtime_error("svc: unsupported protocol version " +
                             std::to_string(bytes[4]));
  if (bytes[5] > static_cast<std::uint8_t>(FrameKind::HeartbeatAck))
    throw std::runtime_error("svc: unknown frame kind " +
                             std::to_string(bytes[5]));

  FrameHeader h;
  h.Kind = static_cast<FrameKind>(bytes[5]);
  h.Session = GetU32(bytes + 8);
  h.Flags = GetU32(bytes + 12);
  h.Step = cmp::LoadLE64(bytes + 16);
  h.SendTime = GetF64(bytes + 24);
  h.PayloadBytes = cmp::LoadLE64(bytes + 32);
  h.RawBytes = cmp::LoadLE64(bytes + 40);
  return h;
}

std::vector<std::uint8_t> EncodeHello(const HelloInfo &h)
{
  std::vector<std::uint8_t> out;
  out.push_back(h.Protocol);
  out.push_back(static_cast<std::uint8_t>(h.Codec.Codec));
  out.push_back(h.WantCompression ? 1 : 0);
  out.insert(out.end(), 5, 0); // reserved
  PutF64(out, h.Codec.ErrorBound);
  PutString(out, h.MeshName);
  return out;
}

HelloInfo DecodeHello(const std::uint8_t *bytes, std::size_t size)
{
  if (size < 16)
    throw std::runtime_error("svc: truncated hello payload");
  HelloInfo h;
  h.Protocol = bytes[0];
  h.Codec.Codec = GetCodec(bytes[1]);
  h.WantCompression = bytes[2] != 0;
  h.Codec.ErrorBound = GetF64(bytes + 8);
  const std::uint8_t *p = bytes + 16;
  h.MeshName = GetString(p, bytes + size);
  return h;
}

std::vector<std::uint8_t> EncodeWelcome(const WelcomeInfo &w)
{
  std::vector<std::uint8_t> out;
  PutU32(out, w.Session);
  out.push_back(static_cast<std::uint8_t>(w.Codec.Codec));
  out.push_back(w.UseCompression ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(w.Pressure));
  out.insert(out.end(), 5, 0); // reserved
  PutF64(out, w.Codec.ErrorBound);
  cmp::PutLE64(out, static_cast<std::uint64_t>(w.QueueDepth));
  PutU32(out, static_cast<std::uint32_t>(w.HeartbeatMs));
  if (w.Columns)
  {
    PutU32(out, static_cast<std::uint32_t>(w.Columns->size()));
    for (const std::string &c : *w.Columns)
      PutString(out, c);
  }
  return out;
}

WelcomeInfo DecodeWelcome(const std::uint8_t *bytes, std::size_t size)
{
  if (size < 32)
    throw std::runtime_error("svc: truncated welcome payload");
  WelcomeInfo w;
  w.Session = GetU32(bytes);
  w.Codec.Codec = GetCodec(bytes[4]);
  w.UseCompression = bytes[5] != 0;
  if (bytes[6] > static_cast<std::uint8_t>(sched::Backpressure::Coalesce))
    throw std::runtime_error("svc: unknown backpressure " +
                             std::to_string(bytes[6]));
  w.Pressure = static_cast<sched::Backpressure>(bytes[6]);
  w.Codec.ErrorBound = GetF64(bytes + 12);
  w.QueueDepth = static_cast<long>(cmp::LoadLE64(bytes + 20));
  w.HeartbeatMs = static_cast<int>(GetU32(bytes + 28));
  if (size == 32)
    return w; // no list: every column

  const std::uint8_t *p = bytes + 32;
  const std::uint8_t *end = bytes + size;
  if (end - p < 4)
    throw std::runtime_error("svc: truncated welcome column count");
  const std::uint32_t n = GetU32(p);
  p += 4;
  // every name takes at least its 4-byte length
  if (n > static_cast<std::size_t>(end - p) / 4)
    throw std::runtime_error("svc: welcome names " + std::to_string(n) +
                             " columns in " + std::to_string(end - p) +
                             " bytes");
  w.Columns.emplace();
  w.Columns->reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    w.Columns->push_back(GetString(p, end));
  return w;
}

std::vector<std::uint8_t> EncodeFrame(const FrameHeader &h,
                                      const void *payload,
                                      std::size_t payloadBytes)
{
  FrameHeader hh = h;
  hh.PayloadBytes = payloadBytes;
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payloadBytes);
  EncodeFrameHeader(hh, out);
  if (payloadBytes)
    out.insert(out.end(), static_cast<const std::uint8_t *>(payload),
               static_cast<const std::uint8_t *>(payload) + payloadBytes);
  return out;
}

Frame DecodeFrame(std::vector<std::uint8_t> &&wire)
{
  Frame f;
  f.Header = DecodeFrameHeader(wire.data(), wire.size());
  if (wire.size() - kFrameHeaderBytes != f.Header.PayloadBytes)
    throw std::runtime_error(
      "svc: frame body of " +
      std::to_string(wire.size() - kFrameHeaderBytes) +
      " bytes, header promised " + std::to_string(f.Header.PayloadBytes));
  f.Payload.assign(wire.begin() +
                     static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
                   wire.end());
  return f;
}

bool FrameAssembler::Feed(std::vector<std::uint8_t> &&msg,
                          std::vector<std::uint8_t> &out)
{
  if (this->ChunksLeft_ == 0)
  {
    // expecting a 16-byte chunk header (u64 total, u64 chunk count)
    if (msg.size() != 16)
      throw std::runtime_error(
        "svc: expected a 16 byte chunk header, got " +
        std::to_string(msg.size()) + " bytes");
    // bound the header before allocating: chunks are non-empty and at
    // most the chunk limit, so a real transfer has chunks <= total <=
    // chunks x limit (checked without overflow)
    const std::uint64_t total = cmp::LoadLE64(msg.data());
    const std::uint64_t chunks = cmp::LoadLE64(msg.data() + 8);
    const std::uint64_t limit = GetConfig().MaxChunkBytes;
    if (chunks > total || total / limit + (total % limit != 0) > chunks)
      throw std::runtime_error(
        "svc: malformed chunk header (" + std::to_string(total) +
        " bytes in " + std::to_string(chunks) + " chunks of at most " +
        std::to_string(limit) + ")");
    this->TotalBytes_ = total;
    this->ChunksLeft_ = chunks;
    this->Buffer_.clear();
    this->Buffer_.reserve(static_cast<std::size_t>(std::min(total, limit)));
    if (this->ChunksLeft_ == 0)
    {
      out.clear(); // zero-byte transfer completes immediately
      return true;
    }
    return false;
  }

  if (msg.empty() || msg.size() > this->TotalBytes_ - this->Buffer_.size())
    throw std::runtime_error("svc: chunk stream does not match its header");
  this->Buffer_.insert(this->Buffer_.end(), msg.begin(), msg.end());
  if (--this->ChunksLeft_ == 0)
  {
    if (this->Buffer_.size() != this->TotalBytes_)
      throw std::runtime_error(
        "svc: reassembled " + std::to_string(this->Buffer_.size()) +
        " bytes, chunk header promised " + std::to_string(this->TotalBytes_));
    out = std::move(this->Buffer_);
    this->Buffer_.clear();
    return true;
  }
  return false;
}

void FrameAssembler::Reset()
{
  this->Buffer_.clear();
  this->TotalBytes_ = 0;
  this->ChunksLeft_ = 0;
}

} // namespace svc
