#ifndef senseiHistogram_h
#define senseiHistogram_h

/// @file senseiHistogram.h
/// A 1-D histogram analysis back end: data binning over one coordinate
/// axis with the count reduction (paper Section 4.2). It owns a
/// DataBinning whose one axis is the column, whose resolution is `bins`
/// and whose axis range is the fixed range when one is set, and hands it
/// its execution method and placement controls at every execute. So a
/// histogram runs the binning's kernels, collectives and resident
/// record, and its result is ready when the binning's is:
/// - lockstep: when the step's lockstep batch runs the completion
///   (DataAdaptor::BatchLockstep): inside Execute when the previous step
///   ran at most one lockstep binning or histogram execute on the
///   adaptor, otherwise at the first of the step's last one,
///   ReleaseData, a step index change, the end of
///   ConfigurableAnalysis::Execute and DataAdaptor::FinishLockstep().
///   GetLastResult throws std::logic_error until then;
/// - asynchronous: when the task has run.

#include "senseiAnalysisAdaptor.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sensei
{

class DataBinning;

class Histogram : public AnalysisAdaptor
{
public:
  static Histogram *New() { return new Histogram; }

  const char *GetClassName() const override { return "sensei::Histogram"; }

  /// Mesh (table, default "table") and column to histogram.
  void SetMeshName(const std::string &m);
  void SetColumn(const std::string &c);

  /// Number of bins (default 64).
  void SetBins(long n);
  long GetBins() const { return this->Bins_; }

  /// Fix the range instead of computing it from the data. Throws
  /// std::invalid_argument unless lo < hi.
  void SetRange(double lo, double hi);

  bool Execute(DataAdaptor *data) override;
  /// Its column.
  std::optional<std::vector<std::string>>
  GetColumnsRead(const std::string &mesh) const override;
  /// Forwarded to the binning, which runs the tasks.
  void DrainAsync() override;
  int Finalize() override;

  /// The most recent histogram: bin counts plus the exact range used.
  /// Returns false before the first completed execution.
  bool GetLastResult(std::vector<double> &counts, double &lo,
                     double &hi) const;

protected:
  Histogram();
  ~Histogram() override;

private:
  /// Configure the binning's axis from the members below.
  void Configure();

  std::string Column_;
  long Bins_ = 64;
  std::optional<std::pair<double, double>> Range_;

  DataBinning *Binning_;
};

} // namespace sensei

#endif
