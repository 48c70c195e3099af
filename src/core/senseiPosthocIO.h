#ifndef senseiPosthocIO_h
#define senseiPosthocIO_h

/// @file senseiPosthocIO.h
/// I/O analysis back end: writes the simulation's table mesh to disk for
/// post hoc visualization, in CSV, legacy-VTK particle or SBIN (the table
/// stream every process boundary uses) format, every k steps. Stands in
/// for Newton++'s "VTK compatible output format for post processing and
/// visualization". It takes its own host copy of the table (the encoded
/// bytes for SBIN) and hands the write to the AnalysisAdaptor base's
/// execution method; its writes read no member, so it needs no drain of
/// its own.

#include "senseiAnalysisAdaptor.h"

#include <string>

namespace sensei
{

class PosthocIO : public AnalysisAdaptor
{
public:
  static PosthocIO *New() { return new PosthocIO; }

  const char *GetClassName() const override { return "sensei::PosthocIO"; }

  /// File format to write. SBIN is a self-describing binary snapshot: a
  /// sio blob (length + checksum validated header) holding a table
  /// stream (senseiSerialization.h) whose codec is the run-wide request
  /// (cmp::DefaultRequest: the <compress> default when enabled, else
  /// `none`). Read it back with sio::ReadBlob +
  /// sensei::DeserializeTableCompressed.
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

  /// Number of files written so far.
  long GetWriteCount() const { return this->WriteCount_; }

protected:
  PosthocIO() = default;

private:
  std::string MeshName_ = "table";
  std::string Dir_ = ".";
  std::string Prefix_ = "posthoc";
  Format Format_ = Format::CSV;
  long Frequency_ = 1;
  long WriteCount_ = 0;
};

} // namespace sensei

#endif
