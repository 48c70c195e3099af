#ifndef senseiColumnStatistics_h
#define senseiColumnStatistics_h

/// @file senseiColumnStatistics.h
/// Descriptive-statistics analysis back end: per-column count, min, max,
/// mean, and standard deviation of a table mesh, combined across MPI
/// ranks with numerically stable moment merging (Chan et al.). It
/// supplies its placement hint and its computation; the execution method
/// is the AnalysisAdaptor base's.

#include "senseiAnalysisAdaptor.h"
#include "svtkHAMRDataArray.h"

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace sensei
{

/// Streaming moments of one column.
struct ColumnMoments
{
  double Count = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  double Mean = 0.0;
  double M2 = 0.0; ///< sum of squared deviations from the mean

  double Variance() const { return this->Count > 1 ? this->M2 / this->Count : 0.0; }
  double StdDev() const;

  /// Merge another partition's moments into this one (parallel/stable).
  void Merge(const ColumnMoments &other);
};

class ColumnStatistics : public AnalysisAdaptor
{
public:
  static ColumnStatistics *New() { return new ColumnStatistics; }

  const char *GetClassName() const override
  {
    return "sensei::ColumnStatistics";
  }

  void SetMeshName(const std::string &m) { this->MeshName_ = m; }

  /// Columns to summarize; empty (the default) means every column.
  void SetColumns(const std::vector<std::string> &cols) { this->Columns_ = cols; }

  /// Append one step's summary lines to this CSV file on rank 0
  /// (step,column,count,min,max,mean,stddev). Empty disables writing.
  void SetOutputFile(const std::string &path) { this->OutputFile_ = path; }

  bool Execute(DataAdaptor *data) override;
  /// Its column list; any column when the list is empty.
  std::optional<std::vector<std::string>>
  GetColumnsRead(const std::string &mesh) const override;

  /// The most recent per-column statistics (empty before the first
  /// completed execution).
  std::map<std::string, ColumnMoments> GetLastResult() const;

protected:
  ColumnStatistics() = default;
  ~ColumnStatistics() override { this->DrainAsync(); } // tasks read members

private:
  void Run(const std::vector<std::string> &names,
           const std::vector<svtkSmartPtr<const svtkHAMRDoubleArray>> &cols,
           minimpi::Communicator *comm, long step, int device);

  std::string MeshName_ = "table";
  std::vector<std::string> Columns_;
  std::string OutputFile_;

  mutable std::mutex ResultMutex_;
  std::map<std::string, ColumnMoments> Last_;
};

} // namespace sensei

#endif
