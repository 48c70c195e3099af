#ifndef senseiAutocorrelation_h
#define senseiAutocorrelation_h

/// @file senseiAutocorrelation.h
/// Time autocorrelation analysis back end (SENSEI proper ships one; it is
/// a classic in situ reduction because it needs state the simulation has
/// already overwritten). Keeps a sliding window of the last K snapshots
/// of one column and, each step, computes the lag correlation
///
///     ACF(tau) = (1/N) sum_i v_i(T) * v_i(T - tau),  tau = 0..K-1
///
/// across all ranks. Snapshots are deep copies by necessity — by the
/// next step the simulation has overwritten its buffers — making this
/// back end a natural stress test of the data model's deep-copy path,
/// and, like every back end, it inherits the placement and execution
/// method extensions from the AnalysisAdaptor base class (the lag dot
/// products run on the assigned device or the host).

#include "schedPipeline.h"
#include "senseiAnalysisAdaptor.h"
#include "svtkHAMRDataArray.h"

#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace sensei
{

class Autocorrelation : public AnalysisAdaptor
{
public:
  static Autocorrelation *New() { return new Autocorrelation; }

  const char *GetClassName() const override
  {
    return "sensei::Autocorrelation";
  }

  void SetMeshName(const std::string &m) { this->MeshName_ = m; }
  void SetColumn(const std::string &c) { this->Column_ = c; }

  /// Window length K: lags 0..K-1 are reported (default 8).
  void SetWindow(long k) { this->Window_ = k > 0 ? k : 8; }
  long GetWindow() const { return this->Window_; }

  bool Execute(DataAdaptor *data) override;
  /// Its column.
  std::optional<std::vector<std::string>>
  GetColumnsRead(const std::string &mesh) const override;
  void DrainAsync() override { this->Runner_.Drain(); }
  int Finalize() override;

  /// The most recent ACF: element tau is the lag-tau correlation; fewer
  /// than K entries until the window fills. Empty before the first
  /// completed execution.
  std::vector<double> GetLastResult() const;

protected:
  Autocorrelation() = default;
  ~Autocorrelation() override { this->Runner_.Drain(); }

private:
  void Run(std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> window,
           minimpi::Communicator *comm, int device);

  std::string MeshName_ = "table";
  std::string Column_;
  long Window_ = 8;

  /// newest snapshot last
  std::deque<svtkSmartPtr<const svtkHAMRDoubleArray>> History_;

  sched::BoundedPipeline Runner_;
  std::optional<minimpi::Communicator> AsyncComm_;

  mutable std::mutex ResultMutex_;
  std::vector<double> Last_;
};

} // namespace sensei

#endif
