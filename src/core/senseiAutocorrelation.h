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
/// across all ranks, where on each rank i runs over the rows both
/// snapshots hold (a rank's row count may change between steps) and N is
/// the global count of those rows. Snapshots are deep copies by necessity — by the
/// next step the simulation has overwritten its buffers — making this
/// back end a natural stress test of the data model's deep-copy path.
/// It supplies its placement hint and its computation (the lag dot
/// products, on the assigned device or the host); the execution method
/// is the AnalysisAdaptor base's.

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

  /// The most recent ACF: element tau is the lag-tau correlation; fewer
  /// than K entries until the window fills. Empty before the first
  /// completed execution.
  std::vector<double> GetLastResult() const;

protected:
  Autocorrelation() = default;
  ~Autocorrelation() override { this->DrainAsync(); } // tasks read members

private:
  void Run(std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> window,
           minimpi::Communicator *comm, int device);

  std::string MeshName_ = "table";
  std::string Column_;
  long Window_ = 8;

  /// newest snapshot last
  std::deque<svtkSmartPtr<const svtkHAMRDoubleArray>> History_;

  mutable std::mutex ResultMutex_;
  std::vector<double> Last_;
};

} // namespace sensei

#endif
