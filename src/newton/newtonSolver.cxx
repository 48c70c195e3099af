#include "newtonSolver.h"

#include "layoutMapping.h"
#include "vomp.h"
#include "vpPlatform.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace newton
{

namespace
{
constexpr int TagRing = 100;
constexpr int TagRepart = 200;

/// ~flops per body-body interaction in the force kernel.
constexpr double OpsPerInteraction = 20.0;
} // namespace

Solver::Solver(minimpi::Communicator *comm, const Config &config)
  : Comm_(comm), Config_(config)
{
}

std::vector<std::string> Solver::ColumnNames()
{
  return {"x", "y", "z", "vx", "vy", "vz", "m", "id"};
}

void Solver::Initialize()
{
  // --- device selection: one solver rank per device, local-rank round robin
  const int nd = vomp::GetNumDevices();
  const int localRank =
    this->Comm_ ? this->Comm_->Rank() % this->Comm_->RanksPerNode() : 0;

  if (this->Config_.SimDevices < 0 || nd == 0)
  {
    this->OmpDevice_ = vomp::GetInitialDevice();
    this->Device_ = vp::HostDevice;
  }
  else
  {
    const int useDevices = this->Config_.SimDevices == 0
                             ? nd
                             : std::min(this->Config_.SimDevices, nd);
    this->OmpDevice_ = localRank % useDevices;
    this->Device_ = this->OmpDevice_;
  }
  vomp::SetDefaultDevice(this->OmpDevice_);

  // --- initial condition, already partitioned into this rank's slab
  const int size = this->Comm_ ? this->Comm_->Size() : 1;
  const int rank = this->Comm_ ? this->Comm_->Rank() : 0;
  BodySet bodies = GenerateInitialCondition(this->Config_, rank, size);
  this->UploadBodies(bodies);

  this->Step_ = 0;
  this->Time_ = 0.0;
  this->ComputeAccelerations();
}

void Solver::UploadBodies(const BodySet &bodies)
{
  vomp::SetDefaultDevice(this->OmpDevice_);
  const std::size_t n = bodies.Size();

  auto make = [&](const char *name,
                  const std::vector<double> &host) -> svtkSmartPtr<svtkHAMRDoubleArray>
  {
    svtkHAMRDoubleArray *a =
      svtkHAMRDoubleArray::New(name, n, 1, svtkAllocator::openmp);
    if (n)
      a->GetBuffer().assign(host.data(), n);
    return svtkSmartPtr<svtkHAMRDoubleArray>::Take(a);
  };

  // the packed block [x | y | z | m], placed by one upload; the x, y, z
  // and m columns are zero-copy views into it, so the kernels that move
  // the bodies keep it current for the ring pass
  std::vector<double> packed;
  packed.reserve(4 * n);
  for (const std::vector<double> *c :
       {&bodies.X, &bodies.Y, &bodies.Z, &bodies.M})
    packed.insert(packed.end(), c->begin(), c->end());
  this->Block_ = hamr::buffer<double>(hamr::allocator::openmp);
  this->Block_.assign(packed.data(), packed.size());

  auto view = [&](const char *name,
                  std::size_t k) -> svtkSmartPtr<svtkHAMRDoubleArray>
  {
    return svtkSmartPtr<svtkHAMRDoubleArray>::Take(svtkHAMRDoubleArray::New(
      name,
      std::shared_ptr<double>(this->Block_.pointer(),
                              this->Block_.data() + k * n),
      n, 1, svtkAllocator::openmp, svtkStream(), svtkStreamMode::sync,
      this->Block_.owner()));
  };

  this->X_ = view("x", 0);
  this->Y_ = view("y", 1);
  this->Z_ = view("z", 2);
  this->M_ = view("m", 3);
  this->VX_ = make("vx", bodies.VX);
  this->VY_ = make("vy", bodies.VY);
  this->VZ_ = make("vz", bodies.VZ);
  this->Id_ = make("id", bodies.Id);

  // the accelerations need no upload: the self pass writes every element
  // before anything reads one
  auto accel = [&](const char *name) -> svtkSmartPtr<svtkHAMRDoubleArray>
  {
    return svtkSmartPtr<svtkHAMRDoubleArray>::Take(
      svtkHAMRDoubleArray::New(name, n, 1, svtkAllocator::openmp));
  };
  this->AX_ = accel("ax");
  this->AY_ = accel("ay");
  this->AZ_ = accel("az");
}

BodySet Solver::DownloadBodies() const
{
  BodySet out;
  out.X = this->X_->ToVector();
  out.Y = this->Y_->ToVector();
  out.Z = this->Z_->ToVector();
  out.VX = this->VX_->ToVector();
  out.VY = this->VY_->ToVector();
  out.VZ = this->VZ_->ToVector();
  out.M = this->M_->ToVector();
  out.Id = this->Id_->ToVector();
  return out;
}

std::array<std::vector<double>, 3> Solver::DownloadAccelerations() const
{
  return {this->AX_->ToVector(), this->AY_->ToVector(),
          this->AZ_->ToVector()};
}

std::size_t Solver::LocalBodies() const
{
  return this->X_ ? this->X_->GetNumberOfTuples() : 0;
}

std::size_t Solver::GlobalBodies() const
{
  std::size_t n = this->LocalBodies();
  if (this->Comm_)
    this->Comm_->Allreduce(&n, 1, minimpi::Op::Sum);
  return n;
}

svtkHAMRDoubleArray *Solver::GetColumn(const std::string &name) const
{
  if (name == "x") return this->X_.Get();
  if (name == "y") return this->Y_.Get();
  if (name == "z") return this->Z_.Get();
  if (name == "vx") return this->VX_.Get();
  if (name == "vy") return this->VY_.Get();
  if (name == "vz") return this->VZ_.Get();
  if (name == "m") return this->M_.Get();
  if (name == "id") return this->Id_.Get();
  return nullptr;
}

// ---------------------------------------------------------------------------
void Solver::PairwiseAccumulate(const double *sx, const double *sy,
                                const double *sz, const double *sm,
                                std::size_t nSrc, bool self)
{
  const std::size_t n = this->LocalBodies();
  if (!n || !nSrc)
    return;

  const double *x = this->X_->GetData();
  const double *y = this->Y_->GetData();
  const double *z = this->Z_->GetData();
  double *ax = this->AX_->GetData();
  double *ay = this->AY_->GetData();
  double *az = this->AZ_->GetData();

  const double g = this->Config_.G;
  const double eps2 = this->Config_.Softening * this->Config_.Softening;

  // The vectorized variant keeps per-lane force accumulators so the
  // compiler can pack the inner loop and overlap the div/sqrt chains.
  // Lane accumulation reassociates the floating-point sum, so it is
  // opt-in (VP_SIMD / <layout simd="1">). It also relies on eps2 > 0 to
  // absorb the self interaction branchlessly (dx = 0 makes the term
  // contribute exactly zero); with zero softening the scalar path runs.
  const bool simd = vp::layout::SimdEnabled() && (!self || eps2 > 0.0);
  if (simd)
    vp::layout::NoteSimdKernel();
  else
    vp::layout::NoteScalarKernel();

  vomp::TargetParallelFor(
    this->OmpDevice_, n,
    [=](std::size_t b, std::size_t e)
    {
      if (simd)
      {
        constexpr std::size_t W = 4; // accumulator lanes
        const std::size_t nv = nSrc - nSrc % W;
        for (std::size_t i = b; i < e; ++i)
        {
          double fx[W] = {0.0}, fy[W] = {0.0}, fz[W] = {0.0};
          const double xi = x[i], yi = y[i], zi = z[i];
          for (std::size_t j = 0; j < nv; j += W)
          {
            for (std::size_t l = 0; l < W; ++l)
            {
              const double dx = sx[j + l] - xi;
              const double dy = sy[j + l] - yi;
              const double dz = sz[j + l] - zi;
              const double r2 = dx * dx + dy * dy + dz * dz + eps2;
              const double inv = 1.0 / (r2 * std::sqrt(r2));
              const double s = g * sm[j + l] * inv;
              fx[l] += s * dx;
              fy[l] += s * dy;
              fz[l] += s * dz;
            }
          }
          double tfx = (fx[0] + fx[1]) + (fx[2] + fx[3]);
          double tfy = (fy[0] + fy[1]) + (fy[2] + fy[3]);
          double tfz = (fz[0] + fz[1]) + (fz[2] + fz[3]);
          for (std::size_t j = nv; j < nSrc; ++j)
          {
            const double dx = sx[j] - xi;
            const double dy = sy[j] - yi;
            const double dz = sz[j] - zi;
            const double r2 = dx * dx + dy * dy + dz * dz + eps2;
            const double inv = 1.0 / (r2 * std::sqrt(r2));
            const double s = g * sm[j] * inv;
            tfx += s * dx;
            tfy += s * dy;
            tfz += s * dz;
          }
          ax[i] = (self ? 0.0 : ax[i]) + tfx;
          ay[i] = (self ? 0.0 : ay[i]) + tfy;
          az[i] = (self ? 0.0 : az[i]) + tfz;
        }
        return;
      }
      for (std::size_t i = b; i < e; ++i)
      {
        double fx = 0.0, fy = 0.0, fz = 0.0;
        const double xi = x[i], yi = y[i], zi = z[i];
        for (std::size_t j = 0; j < nSrc; ++j)
        {
          if (self && j == i)
            continue;
          const double dx = sx[j] - xi;
          const double dy = sy[j] - yi;
          const double dz = sz[j] - zi;
          const double r2 = dx * dx + dy * dy + dz * dz + eps2;
          const double inv = 1.0 / (r2 * std::sqrt(r2));
          const double s = g * sm[j] * inv;
          fx += s * dx;
          fy += s * dy;
          fz += s * dz;
        }
        ax[i] = (self ? 0.0 : ax[i]) + fx;
        ay[i] = (self ? 0.0 : ay[i]) + fy;
        az[i] = (self ? 0.0 : az[i]) + fz;
      }
    },
    vomp::TargetBounds{OpsPerInteraction * static_cast<double>(nSrc), 0.0,
                       "newton_force", /*Shardable=*/true});
}

void Solver::ComputeAccelerations()
{
  const std::size_t n = this->LocalBodies();
  vomp::SetDefaultDevice(this->OmpDevice_);

  const int size = this->Comm_ ? this->Comm_->Size() : 1;
  const int rank = this->Comm_ ? this->Comm_->Rank() : 0;
  const int right = (rank + 1) % size;
  const int left = (rank - 1 + size) % size;
  const bool host = this->Device_ == vp::HostDevice;
  vp::Platform &plat = vp::Platform::Get();

  // ring pass, one message per hop. This rank's block leaves first, read
  // back once, so the next rank's first hop waits on that readback and
  // not on the local interactions below
  if (size > 1)
  {
    const double *own = this->Block_.data();
    if (!host && n)
    {
      this->Outbox_.resize(4 * n);
      plat.Copy(this->Outbox_.data(), own, 4 * n * sizeof(double));
      own = this->Outbox_.data();
    }
    this->Comm_->Send(right, TagRing, own, 4 * n * sizeof(double));
  }

  // local-local interactions, which start the sums
  if (n)
    this->PairwiseAccumulate(this->X_->GetData(), this->Y_->GetData(),
                             this->Z_->GetData(), this->M_->GetData(), n,
                             /*self=*/true);

  // then the blocks of ranks rank-1, rank-2, ... as they arrive
  for (int s = 1; s < size; ++s)
  {
    const std::vector<double> block =
      this->Comm_->RecvAs<double>(left, TagRing);
    const std::size_t nr = block.size() / 4;
    if (nr && n)
    {
      // a device solver stages the block with one stream-ordered upload;
      // the force kernel on the same stream runs after it, so the host
      // never waits on the copy itself
      const double *src = block.data();
      if (!host)
      {
        if (this->Stage_.size() < block.size())
          this->Stage_ =
            hamr::buffer<double>(hamr::allocator::openmp, block.size());
        plat.CopyAsync(plat.DefaultStream(this->Device_), this->Stage_.data(),
                       block.data(), block.size() * sizeof(double));
        src = this->Stage_.data();
      }
      this->PairwiseAccumulate(src, src + nr, src + 2 * nr, src + 3 * nr, nr,
                               /*self=*/false);
    }
    // forwarded only once computed on: forwarding on arrival would let
    // the light slabs finish their ring early and only wait longer in
    // the in situ's first collective
    if (s + 1 < size)
      this->Comm_->SendVec(right, TagRing, block);
  }
}

void Solver::Kick(double dt)
{
  const std::size_t n = this->LocalBodies();
  if (!n)
    return;

  double *vx = this->VX_->GetData();
  double *vy = this->VY_->GetData();
  double *vz = this->VZ_->GetData();
  const double *ax = this->AX_->GetData();
  const double *ay = this->AY_->GetData();
  const double *az = this->AZ_->GetData();

  vomp::TargetParallelFor(
    this->OmpDevice_, n,
    [=](std::size_t b, std::size_t e)
    {
      for (std::size_t i = b; i < e; ++i)
      {
        vx[i] += dt * ax[i];
        vy[i] += dt * ay[i];
        vz[i] += dt * az[i];
      }
    },
    vomp::TargetBounds{6.0, 0.0, "newton_kick", /*Shardable=*/true});
}

void Solver::KickDrift(double kick, double drift)
{
  const std::size_t n = this->LocalBodies();
  if (!n)
    return;

  double *x = this->X_->GetData();
  double *y = this->Y_->GetData();
  double *z = this->Z_->GetData();
  double *vx = this->VX_->GetData();
  double *vy = this->VY_->GetData();
  double *vz = this->VZ_->GetData();
  const double *ax = this->AX_->GetData();
  const double *ay = this->AY_->GetData();
  const double *az = this->AZ_->GetData();

  vomp::TargetParallelFor(
    this->OmpDevice_, n,
    [=](std::size_t b, std::size_t e)
    {
      for (std::size_t i = b; i < e; ++i)
      {
        vx[i] += kick * ax[i];
        vy[i] += kick * ay[i];
        vz[i] += kick * az[i];
        x[i] += drift * vx[i];
        y[i] += drift * vy[i];
        z[i] += drift * vz[i];
      }
    },
    vomp::TargetBounds{12.0, 0.0, "newton_kick_drift", /*Shardable=*/true});
}

void Solver::Step()
{
  vomp::SetDefaultDevice(this->OmpDevice_);
  const double dt = this->Config_.Dt;

  // KDK: half kick with the cached accelerations and drift (one pass),
  // recompute, half kick
  this->KickDrift(0.5 * dt, dt);

  if (this->Config_.Repartition && this->Comm_ && this->Comm_->Size() > 1 &&
      (this->Step_ + 1) % this->Config_.RepartitionInterval == 0)
    this->Repartition();

  this->ComputeAccelerations();
  this->Kick(0.5 * dt);

  ++this->Step_;
  this->Time_ += dt;
}

// ---------------------------------------------------------------------------
void Solver::Repartition()
{
  const int size = this->Comm_->Size();
  const int rank = this->Comm_->Rank();

  BodySet all = this->DownloadBodies();
  const std::size_t n = all.Size();

  // bucket bodies by owning slab; bodies are packed 8 doubles each
  std::vector<std::vector<double>> outbound(static_cast<std::size_t>(size));
  BodySet keep;
  keep.Reserve(n);

  for (std::size_t i = 0; i < n; ++i)
  {
    const int owner = SlabOwner(this->Config_.BoxSize, size, all.X[i]);
    if (owner == rank)
    {
      keep.Append(all.X[i], all.Y[i], all.Z[i], all.VX[i], all.VY[i],
                  all.VZ[i], all.M[i], all.Id[i]);
    }
    else
    {
      auto &buf = outbound[static_cast<std::size_t>(owner)];
      buf.insert(buf.end(), {all.X[i], all.Y[i], all.Z[i], all.VX[i],
                             all.VY[i], all.VZ[i], all.M[i], all.Id[i]});
    }
  }

  // exchange with every other rank (send even when empty so receives match)
  for (int r = 0; r < size; ++r)
    if (r != rank)
      this->Comm_->SendVec(r, TagRepart, outbound[static_cast<std::size_t>(r)]);

  for (int r = 0; r < size; ++r)
  {
    if (r == rank)
      continue;
    const std::vector<double> in = this->Comm_->RecvAs<double>(r, TagRepart);
    for (std::size_t i = 0; i + 7 < in.size(); i += 8)
      keep.Append(in[i], in[i + 1], in[i + 2], in[i + 3], in[i + 4],
                  in[i + 5], in[i + 6], in[i + 7]);
  }

  this->UploadBodies(keep);
}

// ---------------------------------------------------------------------------
double Solver::KineticEnergy() const
{
  const BodySet b = this->DownloadBodies();
  double ke = 0.0;
  for (std::size_t i = 0; i < b.Size(); ++i)
    ke += 0.5 * b.M[i] *
          (b.VX[i] * b.VX[i] + b.VY[i] * b.VY[i] + b.VZ[i] * b.VZ[i]);
  if (this->Comm_)
    this->Comm_->Allreduce(&ke, 1, minimpi::Op::Sum);
  return ke;
}

double Solver::PotentialEnergy() const
{
  // gather the global body set; each rank evaluates its own rows
  std::vector<double> x = this->X_->ToVector();
  std::vector<double> y = this->Y_->ToVector();
  std::vector<double> z = this->Z_->ToVector();
  std::vector<double> m = this->M_->ToVector();

  std::vector<double> gx = x, gy = y, gz = z, gm = m;
  if (this->Comm_ && this->Comm_->Size() > 1)
  {
    // ranks may own different counts; exchange through per-rank gathers
    gx.clear();
    gy.clear();
    gz.clear();
    gm.clear();
    const int size = this->Comm_->Size();
    for (int r = 0; r < size; ++r)
    {
      std::size_t nr = x.size();
      this->Comm_->Bcast(&nr, 1, r);
      std::vector<double> bx = x, by = y, bz = z, bm = m;
      bx.resize(nr);
      by.resize(nr);
      bz.resize(nr);
      bm.resize(nr);
      this->Comm_->Bcast(bx.data(), nr, r);
      this->Comm_->Bcast(by.data(), nr, r);
      this->Comm_->Bcast(bz.data(), nr, r);
      this->Comm_->Bcast(bm.data(), nr, r);
      gx.insert(gx.end(), bx.begin(), bx.end());
      gy.insert(gy.end(), by.begin(), by.end());
      gz.insert(gz.end(), bz.begin(), bz.end());
      gm.insert(gm.end(), bm.begin(), bm.end());
    }
  }

  const double eps2 = this->Config_.Softening * this->Config_.Softening;
  const std::size_t ng = gx.size();
  double pe = 0.0;
  for (std::size_t i = 0; i < ng; ++i)
    for (std::size_t j = i + 1; j < ng; ++j)
    {
      const double dx = gx[j] - gx[i];
      const double dy = gy[j] - gy[i];
      const double dz = gz[j] - gz[i];
      pe -= this->Config_.G * gm[i] * gm[j] /
            std::sqrt(dx * dx + dy * dy + dz * dz + eps2);
    }
  return pe;
}

std::array<double, 3> Solver::Momentum() const
{
  const BodySet b = this->DownloadBodies();
  std::array<double, 3> p = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < b.Size(); ++i)
  {
    p[0] += b.M[i] * b.VX[i];
    p[1] += b.M[i] * b.VY[i];
    p[2] += b.M[i] * b.VZ[i];
  }
  if (this->Comm_)
    this->Comm_->Allreduce(p.data(), 3, minimpi::Op::Sum);
  return p;
}

} // namespace newton
