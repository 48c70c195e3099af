#ifndef senseiPosthocIO_h
#define senseiPosthocIO_h

/// @file senseiPosthocIO.h
/// I/O analysis back end: writes the simulation's table mesh to disk for
/// post hoc visualization, in CSV or legacy-VTK particle format, every k
/// steps. Stands in for Newton++'s "VTK compatible output format for post
/// processing and visualization". Supports asynchronous execution (deep
/// copies to host, writes in a thread).

#include "schedPipeline.h"
#include "senseiAnalysisAdaptor.h"

#include <string>

namespace sensei
{

class PosthocIO : public AnalysisAdaptor
{
public:
  static PosthocIO *New() { return new PosthocIO; }

  const char *GetClassName() const override { return "sensei::PosthocIO"; }

  /// File format to write. SBIN is a self-describing compressed binary
  /// snapshot: a sio blob (length + checksum validated header) holding a
  /// compressed table stream; the codec follows the analysis's effective
  /// compression (SetCompression / the global <compress> default). Read
  /// it back with sio::ReadBlob + sensei::DeserializeTableAuto.
  enum class Format
  {
    CSV,
    VTK,
    SBIN
  };

  void SetMeshName(const std::string &m) { this->MeshName_ = m; }
  void SetOutputDir(const std::string &d) { this->Dir_ = d; }
  void SetPrefix(const std::string &p) { this->Prefix_ = p; }
  void SetFormat(Format f) { this->Format_ = f; }

  /// Write every k-th step (default every step).
  void SetFrequency(long k) { this->Frequency_ = k > 0 ? k : 1; }

  bool Execute(DataAdaptor *data) override;
  void DrainAsync() override { this->Runner_.Drain(); }
  int Finalize() override;

  /// Number of files written so far.
  long GetWriteCount() const { return this->WriteCount_; }

protected:
  PosthocIO() = default;
  ~PosthocIO() override { this->Runner_.Drain(); }

private:
  std::string MeshName_ = "table";
  std::string Dir_ = ".";
  std::string Prefix_ = "posthoc";
  Format Format_ = Format::CSV;
  long Frequency_ = 1;
  long WriteCount_ = 0;

  sched::BoundedPipeline Runner_;
};

} // namespace sensei

#endif
