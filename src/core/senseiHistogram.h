#ifndef senseiHistogram_h
#define senseiHistogram_h

/// @file senseiHistogram.h
/// A 1-D histogram analysis back end. Functionally a special case of data
/// binning (one coordinate axis, count reduction) but implemented
/// separately, as in SENSEI proper, and used in tests to verify that the
/// placement and execution-method extensions defined in the
/// AnalysisAdaptor base class are available to every back end.

#include "schedPipeline.h"
#include "senseiAnalysisAdaptor.h"
#include "svtkHAMRDataArray.h"

#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace sensei
{

class Histogram : public AnalysisAdaptor
{
public:
  static Histogram *New() { return new Histogram; }

  const char *GetClassName() const override { return "sensei::Histogram"; }

  /// Mesh (table) and column to histogram.
  void SetMeshName(const std::string &m) { this->MeshName_ = m; }
  void SetColumn(const std::string &c) { this->Column_ = c; }

  /// Number of bins (default 64).
  void SetBins(long n) { this->Bins_ = n > 0 ? n : 64; }
  long GetBins() const { return this->Bins_; }

  /// Fix the range instead of computing it from the data.
  void SetRange(double lo, double hi)
  {
    this->Lo_ = lo;
    this->Hi_ = hi;
    this->AutoRange_ = false;
  }

  /// Run asynchronous executions on real std::threads instead of the
  /// default deterministic virtual-time accounting.
  void SetUseRealThreads(bool on) { this->Runner_.SetUseRealThreads(on); }

  bool Execute(DataAdaptor *data) override;
  /// Its column.
  std::optional<std::vector<std::string>>
  GetColumnsRead(const std::string &mesh) const override;
  void DrainAsync() override { this->Runner_.Drain(); }
  int Finalize() override;

  /// The most recent histogram: bin counts plus the range used. Returns
  /// false before the first completed execution.
  bool GetLastResult(std::vector<double> &counts, double &lo,
                     double &hi) const;

protected:
  Histogram() = default;
  ~Histogram() override { this->Runner_.Drain(); }

private:
  void Run(const svtkSmartPtr<const svtkHAMRDoubleArray> &col,
           minimpi::Communicator *comm, int device);

  std::string MeshName_ = "table";
  std::string Column_;
  long Bins_ = 64;
  bool AutoRange_ = true;
  double Lo_ = 0.0, Hi_ = 1.0;

  sched::BoundedPipeline Runner_;
  std::optional<minimpi::Communicator> AsyncComm_;

  mutable std::mutex ResultMutex_;
  std::vector<double> LastCounts_;
  double LastLo_ = 0.0, LastHi_ = 0.0;
  bool HaveResult_ = false;
};

} // namespace sensei

#endif
