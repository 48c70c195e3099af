#ifndef newtonDataAdaptor_h
#define newtonDataAdaptor_h

/// @file newtonDataAdaptor.h
/// Newton++'s SENSEI instrumentation: a DataAdaptor exposing the body
/// state as a svtkTable mesh named "bodies". The eight solver columns
/// (x y z vx vy vz m id) are shared zero-copy — the analyses receive the
/// very device pointers the solver integrates — and three derived
/// variables (speed, ke, r) are computed on the solver's device each step,
/// giving the ten variables the paper bins over nine coordinate systems.
/// The derived columns are resident: the adaptor keeps them across steps
/// and recomputes them in place, reallocating only when the solver's body
/// count or device changes.

#include "newtonSolver.h"
#include "senseiDataAdaptor.h"

namespace newton
{

class DataAdaptor : public sensei::DataAdaptor
{
public:
  static DataAdaptor *New(Solver *solver)
  {
    auto *a = new DataAdaptor;
    a->Solver_ = solver;
    return a;
  }

  const char *GetClassName() const override { return "newton::DataAdaptor"; }

  std::vector<std::string> GetMeshNames() override { return {"bodies"}; }

  /// The ten binnable variables: the solver's eight columns plus derived
  /// speed (|v|), ke (kinetic energy), and r (radius).
  static std::vector<std::string> VariableNames();

  svtkDataObject *GetMesh(const std::string &meshName) override;

  void ReleaseData() override;

  /// Refresh the adaptor after a solver step (sets time and step index,
  /// drops the cached mesh, so the next GetMesh recomputes the derived
  /// columns).
  void Update();

protected:
  DataAdaptor() = default;
  ~DataAdaptor() override { this->ReleaseData(); }

private:
  /// Size the derived columns for `n` bodies on vomp device `ompDev`
  /// (the default device), allocating them only when either changed.
  void PrepareDerived(std::size_t n, int ompDev);

  Solver *Solver_ = nullptr;
  svtkTable *Cached_ = nullptr;

  /// The derived columns, kept across steps. Their recompute runs on the
  /// solver device's default stream, which orders it after an in-flight
  /// snapshot of the previous step's values.
  svtkSmartPtr<svtkHAMRDoubleArray> Speed_, Ke_, R_;
  int DerivedDevice_ = 0; ///< the vomp device they live on
};

} // namespace newton

#endif
