// Microbenchmark / ablation for the array compression subsystem
// (src/compress): per-codec encode/decode cost and ratio on
// binning-shaped data, the payload-byte reduction on the in transit
// binning path (the headline: quantize at an analysis-safe bound must
// at least halve the bytes shipped), and the eight-case Table 1
// campaign run with and without compression enabled to show the
// subsystem costs nothing where it is not used. "Time" is virtual
// seconds from the platform's discrete-event clock (UseManualTime).
//
// Beyond the google-benchmark output, main() runs the campaigns and
// writes BENCH_compress.json into the working directory
// (scripts/run_campaign.sh collects it under results/): per-codec wire
// sizes and ratios, the in transit reduction, the campaign on/off
// totals, and the codec counters via the profiler.

#include "campaign.h"
#include "cmpCodec.h"
#include "minimpi.h"
#include "senseiDataBinning.h"
#include "senseiInTransit.h"
#include "senseiProfiler.h"
#include "senseiSerialization.h"
#include "svtkAOSDataArray.h"
#include "vpChecker.h"
#include "vpClock.h"
#include "vpPlatform.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

namespace
{

constexpr std::size_t kRows = 1 << 17; // rows per sender table
constexpr double kErrorBound = 1.0e-3; // safe for 128^2 bins over [-1,1]

void Reset()
{
  vp::PlatformConfig cfg;
  cfg.DevicesPerNode = 4;
  cfg.HostCoresPerNode = 8;
  vp::Platform::Initialize(cfg);
  cmp::Configure(cmp::Config());
  cmp::ResetStats();
  vp::check::Reset();
  vp::ThisClock().Set(0.0);
}

/// Binning-shaped table: x/y coordinates in [-1,1], unit masses.
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

cmp::Params CodecParams(cmp::CodecId id)
{
  cmp::Params p;
  p.Codec = id;
  p.ErrorBound = id == cmp::CodecId::Quantize ? kErrorBound : 0.0;
  return p;
}

// ---- codec sweep --------------------------------------------------------

struct CodecResult
{
  std::string Label;
  std::size_t RawWireBytes = 0;
  std::size_t WireBytes = 0;
  double Ratio = 0.0;          ///< raw / encoded, wire to wire
  double EncodeSeconds = 0.0;  ///< virtual host seconds
  double DecodeSeconds = 0.0;
  std::uint64_t Fallbacks = 0;
};

CodecResult RunCodec(cmp::CodecId id)
{
  Reset();
  svtkTable *t = MakeTable(kRows, 21);
  const std::size_t raw =
    sensei::SerializeTableCompressed(t, CodecParams(cmp::CodecId::None))
      .size();

  cmp::ResetStats();
  const std::vector<std::uint8_t> wire =
    sensei::SerializeTableCompressed(t, CodecParams(id));
  svtkTable *back = sensei::DeserializeTableCompressed(wire);
  back->UnRegister();
  t->Delete();

  const cmp::CodecStats s = cmp::Stats();
  CodecResult r;
  r.Label = cmp::CodecName(id);
  r.RawWireBytes = raw;
  r.WireBytes = wire.size();
  r.Ratio = static_cast<double>(raw) / static_cast<double>(wire.size());
  r.EncodeSeconds = s.EncodeSeconds;
  r.DecodeSeconds = s.DecodeSeconds;
  r.Fallbacks = s.Fallbacks;
  return r;
}

// ---- in transit payload experiment --------------------------------------

struct InTransitResult
{
  std::string Label;
  std::size_t WireBytes = 0;   ///< frame payload bytes shipped
  double TotalSeconds = 0.0;   ///< virtual completion time of the run
};

/// Two senders ship 3 steps each to one binning endpoint; the frames'
/// payload bytes are what compression is supposed to shrink.
InTransitResult RunInTransit(bool compressed)
{
  Reset();
  const int senders = 2, endpoints = 1;
  const long steps = 3;

  // the frame payloads, measured exactly as the sender builds them
  std::size_t wire = 0;
  for (int s = 0; s < senders; ++s)
  {
    svtkTable *t = MakeTable(kRows, 30 + s);
    const std::size_t perStep =
      sensei::SerializeTableCompressed(
        t, CodecParams(compressed ? cmp::CodecId::Quantize
                                  : cmp::CodecId::None))
        .size();
    wire += static_cast<std::size_t>(steps) * perStep;
    t->Delete();
  }

  cmp::ResetStats();
  vp::ThisClock().Set(0.0);
  const double finish = minimpi::Run(
    senders + endpoints,
    [&](minimpi::Communicator &world)
    {
      const sensei::InTransitLayout layout(world.Size(), endpoints);
      const bool isEp = layout.IsEndpoint(world.Rank());
      minimpi::Communicator group = world.Split(isEp ? 1 : 0);

      if (!isEp)
      {
        sensei::InTransitSender sender(&world, layout, "bodies");
        if (compressed)
          sender.SetCompression(CodecParams(cmp::CodecId::Quantize));
        sensei::TableAdaptor *da = sensei::TableAdaptor::New("bodies");
        svtkTable *mine = MakeTable(kRows, 30 + world.Rank());
        da->SetTable(mine);
        mine->Delete();
        for (long s = 0; s < steps; ++s)
        {
          da->SetDataTimeStep(s);
          sender.Send(da);
        }
        sender.Close();
        da->ReleaseData();
        da->Delete();
        return;
      }

      sensei::DataBinning *b = sensei::DataBinning::New();
      b->SetMeshName("bodies");
      b->SetAxes({"x", "y"});
      b->SetResolution({128});
      b->SetRange(0, -1, 1);
      b->SetRange(1, -1, 1);
      b->AddOperation("m", sensei::BinningOp::Sum);
      b->SetDeviceId(sensei::AnalysisAdaptor::DEVICE_HOST);
      sensei::InTransitEndpoint ep(&world, &group, layout, "bodies");
      ep.Run(b);
      b->Delete();
    });

  InTransitResult r;
  r.Label = compressed ? "quantize" : "uncompressed";
  r.WireBytes = wire;
  r.TotalSeconds = finish;
  return r;
}

// ---- the eight-case campaign, compression off vs on ---------------------

struct CampaignPair
{
  std::string Label;
  double OffSeconds = 0.0;
  double OnSeconds = 0.0;
};

std::vector<CampaignPair> RunCampaignOnOff()
{
  campaign::CampaignConfig g; // the default reduced-size timing campaign
  const std::vector<campaign::CaseConfig> cases = campaign::AllCases();

  std::vector<CampaignPair> out;
  for (const campaign::CaseConfig &c : cases)
  {
    CampaignPair p;
    p.Label = std::string(campaign::PlacementName(c.Place)) +
              (c.Asynchronous ? "/async" : "/lockstep");

    Reset();
    p.OffSeconds = campaign::RunCase(c, g).TotalSeconds;

    Reset();
    cmp::Config on;
    on.Enabled = true;
    on.Default = CodecParams(cmp::CodecId::Quantize);
    cmp::Configure(on);
    p.OnSeconds = campaign::RunCase(c, g).TotalSeconds;
    cmp::Configure(cmp::Config());

    out.push_back(p);
  }
  return out;
}

// ---- reporting ----------------------------------------------------------

void WriteJson(const std::vector<CodecResult> &codecs,
               const InTransitResult &plain, const InTransitResult &packed,
               const std::vector<CampaignPair> &pairs,
               const std::string &path)
{
  const double reduction = packed.WireBytes
                             ? static_cast<double>(plain.WireBytes) /
                                 static_cast<double>(packed.WireBytes)
                             : 0.0;
  double maxSlowdown = 0.0;
  for (const CampaignPair &p : pairs)
  {
    const double s = p.OffSeconds > 0.0 ? p.OnSeconds / p.OffSeconds : 1.0;
    maxSlowdown = s > maxSlowdown ? s : maxSlowdown;
  }

  std::ofstream os(path);
  os.precision(12);
  os << "{\n"
     << "  \"bench\": \"um_compress\",\n"
     << "  \"rows\": " << kRows << ",\n"
     << "  \"error_bound\": " << kErrorBound << ",\n"
     << "  \"codecs\": {\n";
  for (std::size_t i = 0; i < codecs.size(); ++i)
  {
    const CodecResult &r = codecs[i];
    os << "    \"" << r.Label << "\": {\n"
       << "      \"raw_wire_bytes\": " << r.RawWireBytes << ",\n"
       << "      \"wire_bytes\": " << r.WireBytes << ",\n"
       << "      \"ratio\": " << r.Ratio << ",\n"
       << "      \"encode_seconds\": " << r.EncodeSeconds << ",\n"
       << "      \"decode_seconds\": " << r.DecodeSeconds << ",\n"
       << "      \"fallbacks\": " << r.Fallbacks << "\n    }"
       << (i + 1 < codecs.size() ? ",\n" : "\n");
  }
  os << "  },\n"
     << "  \"intransit\": {\n"
     << "    \"uncompressed_wire_bytes\": " << plain.WireBytes << ",\n"
     << "    \"compressed_wire_bytes\": " << packed.WireBytes << ",\n"
     << "    \"payload_reduction\": " << reduction << ",\n"
     << "    \"meets_2x\": " << (reduction >= 2.0 ? "true" : "false")
     << ",\n"
     << "    \"uncompressed_total_seconds\": " << plain.TotalSeconds
     << ",\n"
     << "    \"compressed_total_seconds\": " << packed.TotalSeconds
     << "\n  },\n"
     << "  \"campaign\": {\n";
  for (std::size_t i = 0; i < pairs.size(); ++i)
  {
    const CampaignPair &p = pairs[i];
    os << "    \"" << p.Label << "\": {\n"
       << "      \"off_seconds\": " << p.OffSeconds << ",\n"
       << "      \"on_seconds\": " << p.OnSeconds << "\n    }"
       << (i + 1 < pairs.size() ? ",\n" : "\n");
  }
  os << "  },\n"
     << "  \"campaign_max_slowdown\": " << maxSlowdown << ",\n"
     << "  \"profiler\": " << sensei::Profiler::Global().ToJson() << "\n"
     << "}\n";
}

} // namespace

static void BM_EncodeChunk(benchmark::State &state)
{
  Reset();
  const cmp::CodecId id = static_cast<cmp::CodecId>(state.range(0));
  std::mt19937_64 gen(3);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> data(1 << 18);
  for (auto &v : data)
    v = u(gen);
  const cmp::Params p = CodecParams(id);

  std::vector<std::uint8_t> out;
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    out.clear();
    cmp::EncodeChunk(data.data(), cmp::DType::F64, data.size(), p, out);
    benchmark::DoNotOptimize(out.data());
    state.SetIterationTime(vp::ThisClock().Now() - t0);
  }
  state.SetLabel(cmp::CodecName(id));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() *
                                                    sizeof(double)));
}
BENCHMARK(BM_EncodeChunk)
  ->Arg(static_cast<int>(cmp::CodecId::None))
  ->Arg(static_cast<int>(cmp::CodecId::ShuffleRLE))
  ->Arg(static_cast<int>(cmp::CodecId::Quantize))
  ->UseManualTime();

static void BM_DecodeChunk(benchmark::State &state)
{
  Reset();
  const cmp::CodecId id = static_cast<cmp::CodecId>(state.range(0));
  std::mt19937_64 gen(4);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> data(1 << 18);
  for (auto &v : data)
    v = u(gen);

  std::vector<std::uint8_t> chunk;
  cmp::EncodeChunk(data.data(), cmp::DType::F64, data.size(),
                   CodecParams(id), chunk);
  std::vector<double> dst(data.size());
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    cmp::DecodeChunk(chunk.data(), chunk.size(), dst.data(),
                     dst.size() * sizeof(double));
    benchmark::DoNotOptimize(dst.data());
    state.SetIterationTime(vp::ThisClock().Now() - t0);
  }
  state.SetLabel(cmp::CodecName(id));
}
BENCHMARK(BM_DecodeChunk)
  ->Arg(static_cast<int>(cmp::CodecId::None))
  ->Arg(static_cast<int>(cmp::CodecId::ShuffleRLE))
  ->Arg(static_cast<int>(cmp::CodecId::Quantize))
  ->UseManualTime();

static void BM_SerializeTableCompressed(benchmark::State &state)
{
  Reset();
  svtkTable *t = MakeTable(1 << 14, 8);
  const cmp::Params p = CodecParams(cmp::CodecId::Quantize);
  for (auto _ : state)
  {
    const double t0 = vp::ThisClock().Now();
    auto bytes = sensei::SerializeTableCompressed(t, p);
    benchmark::DoNotOptimize(bytes);
    state.SetIterationTime(vp::ThisClock().Now() - t0);
  }
  t->Delete();
  state.SetLabel("3 columns, quantize");
}
BENCHMARK(BM_SerializeTableCompressed)->UseManualTime();

int main(int argc, char **argv)
{
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  sensei::Profiler::Global().Clear();

  std::vector<CodecResult> codecs;
  codecs.push_back(RunCodec(cmp::CodecId::None));
  codecs.push_back(RunCodec(cmp::CodecId::ShuffleRLE));
  codecs.push_back(RunCodec(cmp::CodecId::Quantize));

  const InTransitResult plain = RunInTransit(false);
  const InTransitResult packed = RunInTransit(true);

  const std::vector<CampaignPair> pairs = RunCampaignOnOff();

  sensei::ExportCompressStats(sensei::Profiler::Global());

  // under VP_CHECK the campaigns double as a race/lifetime gate
  if (vp::check::Enabled())
  {
    const vp::check::Report report = vp::check::Finalize();
    sensei::ExportCheckReport(sensei::Profiler::Global(), report);
    if (report.Total())
    {
      std::fprintf(stderr, "um_compress: VP_CHECK failed\n%s",
                   report.Summary().c_str());
      return 2;
    }
    std::printf("VP_CHECK: 0 violations across the compression campaigns\n");
  }

  WriteJson(codecs, plain, packed, pairs, "BENCH_compress.json");

  for (const CodecResult &r : codecs)
    std::printf("%-12s wire %9zu B (raw %9zu B, %.2fx), encode %.3e s\n",
                r.Label.c_str(), r.WireBytes, r.RawWireBytes, r.Ratio,
                r.EncodeSeconds);
  const double reduction =
    static_cast<double>(plain.WireBytes) /
    static_cast<double>(packed.WireBytes ? packed.WireBytes : 1);
  std::printf("BENCH_compress.json: in transit payload %.2fx smaller "
              "(%zu -> %zu B), campaign on/off written for %zu cases\n",
              reduction, plain.WireBytes, packed.WireBytes, pairs.size());
  if (reduction < 2.0)
  {
    std::fprintf(stderr,
                 "um_compress: payload reduction %.2fx is below the 2x "
                 "target\n",
                 reduction);
    return 3;
  }
  return 0;
}
