#ifndef newtonSolver_h
#define newtonSolver_h

/// @file newtonSolver.h
/// The Newton++ solver: a direct (all pairs) n-body integrator using a
/// second order, time reversible, symplectic scheme (velocity-Verlet in
/// kick-drift-kick form) with Plummer softening. Parallelized with
/// (mini)MPI across spatial subdomains — a slab decomposition in x with a
/// ring pass circulating remote bodies for the force sum — and with
/// OpenMP device offload (the vomp PM) within a rank. Body state lives in
/// svtkHAMRDataArray columns in OpenMP target memory, so SENSEI analyses
/// receive it zero-copy through the data model. The x, y, z and m columns
/// are views into one packed block [x | y | z | m], which each ring hop
/// moves as one message.

#include "minimpi.h"
#include "newtonConfig.h"
#include "newtonInitialConditions.h"
#include "svtkHAMRDataArray.h"

#include <array>
#include <string>
#include <vector>

namespace newton
{

class Solver
{
public:
  /// `comm` may be null for serial runs; it must outlive the solver.
  Solver(minimpi::Communicator *comm, const Config &config);
  ~Solver() = default;

  Solver(const Solver &) = delete;
  Solver &operator=(const Solver &) = delete;

  /// Generate the initial condition, place the body arrays on this rank's
  /// device, and evaluate the initial accelerations.
  void Initialize();

  /// Advance one time step (kick-drift-kick). Runs the repartitioning
  /// phase when configured.
  void Step();

  /// Migrate bodies that left this rank's slab to their owning rank.
  void Repartition();

  // --- state access -----------------------------------------------------------

  std::size_t LocalBodies() const;

  /// Total bodies across ranks (collective when a communicator is set).
  std::size_t GlobalBodies() const;

  long GetStepIndex() const noexcept { return this->Step_; }
  double GetTime() const noexcept { return this->Time_; }

  /// Device the solver offloads to (vp::HostDevice when on the host).
  int GetDevice() const noexcept { return this->Device_; }

  /// Column names exposed to SENSEI: x y z vx vy vz m id.
  static std::vector<std::string> ColumnNames();

  /// Zero-copy access to a state column (borrowed reference; nullptr for
  /// unknown names).
  svtkHAMRDoubleArray *GetColumn(const std::string &name) const;

  // --- diagnostics (collective when a communicator is set) --------------------

  /// Total kinetic energy.
  double KineticEnergy() const;

  /// Total (softened) potential energy.
  double PotentialEnergy() const;

  double TotalEnergy() const
  {
    return this->KineticEnergy() + this->PotentialEnergy();
  }

  /// Total momentum.
  std::array<double, 3> Momentum() const;

  /// Host copy of the full local body state (tests, repartitioning).
  BodySet DownloadBodies() const;

  /// Host copy of the accelerations of the last force pass (tests).
  std::array<std::vector<double>, 3> DownloadAccelerations() const;

private:
  void UploadBodies(const BodySet &bodies);
  void ComputeAccelerations();
  void Kick(double dt);

  /// Per body, v += kick * a, then x += drift * v: Kick(kick) followed by
  /// a drift, in one kernel.
  void KickDrift(double kick, double drift);

  /// Accumulate accelerations on the local bodies from nSrc source bodies
  /// whose coordinate/mass arrays are dereferenceable on the solver's
  /// device. `self` skips the i==j self interaction and starts the sums
  /// (writes 0.0 + f, what zeroing and then adding gave).
  void PairwiseAccumulate(const double *sx, const double *sy,
                          const double *sz, const double *sm,
                          std::size_t nSrc, bool self);

  minimpi::Communicator *Comm_ = nullptr;
  Config Config_;

  int Device_ = -1; ///< vomp device (vp::HostDevice = host)
  int OmpDevice_ = 0; ///< vomp device id (initial device when on host)
  long Step_ = 0;
  double Time_ = 0.0;

  svtkSmartPtr<svtkHAMRDoubleArray> X_, Y_, Z_, VX_, VY_, VZ_, M_, Id_;
  svtkSmartPtr<svtkHAMRDoubleArray> AX_, AY_, AZ_;

  /// This rank's bodies packed [x | y | z | m] where the solver runs;
  /// X_, Y_, Z_ and M_ view it.
  hamr::buffer<double> Block_;
  /// Host copy of Block_ the ring pass sends (device solvers only).
  std::vector<double> Outbox_;
  /// Where a device solver stages each received block; grown to the
  /// largest block seen.
  hamr::buffer<double> Stage_;
};

} // namespace newton

#endif
