// RegistrationSolver: the public facade of the library.
//
// Given pencil-local blocks of a template image rho_T and a reference image
// rho_R it runs the full pipeline of the paper: spectral smoothing of the
// inputs, velocity initialization, inexact Gauss-Newton-Krylov optimization
// of the optimal-control problem (2), and deformation-map diagnostics.
//
// The one entrypoint shape is a SolveRequest: inputs + per-solve options +
// job metadata (id, priority, deadline, checkpoint path). Every solve is a
// pure function of its request — the solver holds no mutable option state,
// so drivers that adapt parameters between solves (beta continuation, the
// batch service) submit a fresh request per stage instead of mutating the
// solver.
//
// Usage (inside an mpisim::run_spmd rank, or with a size-1 communicator):
//
//   grid::PencilDecomp decomp(comm, {64, 64, 64});
//   core::RegistrationOptions opt;
//   core::RegistrationSolver solver(decomp, opt);
//   auto result = solver.solve(
//       {.rho_t = &rho_t_local, .rho_r = &rho_r_local, .options = opt});
//
// With a PlanRegistry (the batch service path), the solver leases its
// spectral operators and pools its transports instead of owning them, so B
// same-shape jobs build each plan family exactly once:
//
//   auto registry = std::make_shared<core::PlanRegistry>(comm);
//   core::RegistrationSolver solver(*registry->decomp(dims), opt, registry);
//   auto report = solver.solve(request);
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/deformation.hpp"
#include "core/newton.hpp"
#include "core/optimality.hpp"
#include "core/options.hpp"

namespace diffreg::core {

class PlanRegistry;

/// One registration job: everything a solve needs, in one value. The field
/// pointers must stay valid for the duration of solve(); the request itself
/// is copyable (job queues hold them by value). Every field has a default,
/// so a designated initializer names only what it sets.
struct SolveRequest {
  const ScalarField* rho_t = nullptr;  ///< Template image (pencil-local).
  const ScalarField* rho_r = nullptr;  ///< Reference image (pencil-local).
  const VectorField* v0 = nullptr;     ///< Optional warm-start velocity.
  RegistrationOptions options;

  // Job metadata (service semantics; see docs/SERVICE.md).
  std::uint64_t job_id = 0;  ///< 0: assigned by the batch driver.
  /// Higher runs earlier; FIFO within a priority class.
  int priority = 0;
  /// Wall-clock budget in seconds since batch start (0: none). Advisory by
  /// default — SolveReport::deadline_met records whether the job finished
  /// in time — but BatchSolver cancels late jobs between Newton iterates
  /// when BatchOptions::enforce_deadlines is set (the CLI service does).
  double deadline_seconds = 0;
  /// When non-empty, a restart checkpoint is written after every
  /// `checkpoint_every`-th accepted Newton iterate (core/checkpoint.hpp).
  std::string checkpoint_path{};
  int checkpoint_every = 1;
};

struct RegistrationResult {
  VectorField velocity;  // optimal stationary velocity field
  NewtonReport newton;
  /// Coarse-grid Hessian matvecs spent inside the two-level preconditioner
  /// (0 unless options.two_level_precond).
  int coarse_matvecs = 0;

  // Image mismatch, as L2 norms of the residual (paper Figs. 1/6/7).
  real_t initial_residual_norm = 0;  // ||rho_T - rho_R||
  real_t final_residual_norm = 0;    // ||rho_T(y1) - rho_R||
  /// final/initial; < 1 means the registration reduced the mismatch.
  real_t rel_residual = 1;

  // Deformation-map quality (paper Fig. 7: det must stay positive).
  real_t min_det = 0, max_det = 0, mean_det = 0;

  double time_to_solution = 0;  // seconds, this rank's wall clock
  Timings timings;              // this rank's comm/exec split of the solve

  // Job metadata, echoed from the SolveRequest.
  std::uint64_t job_id = 0;
  /// False iff the request carried a deadline and the solve finished after
  /// it (measured against the batch clock when run by BatchSolver, against
  /// this solve's own wall clock otherwise).
  bool deadline_met = true;
};

/// The batch driver's name for the result of one job.
using SolveReport = RegistrationResult;

class RegistrationSolver {
 public:
  /// Standalone solver: owns its spectral operators (built once from the
  /// constructor options) and builds a fresh transport per solve — the
  /// historical behavior, bitwise identical to it.
  RegistrationSolver(grid::PencilDecomp& decomp,
                     const RegistrationOptions& options);

  /// Service solver: leases spectral operators from `registry` and checks
  /// transports out of its pool, so plan setup is shared across all solvers
  /// and jobs on the registry. `decomp` must be (a lease of) the registry's
  /// decomposition for its dims.
  RegistrationSolver(grid::PencilDecomp& decomp,
                     const RegistrationOptions& options,
                     std::shared_ptr<PlanRegistry> registry);

  ~RegistrationSolver();

  /// Solves one registration job. Collective.
  SolveReport solve(const SolveRequest& request);

  /// Deformed template rho_T(y1) for the result's velocity: transports the
  /// (unsmoothed) template to t = 1. Collective.
  void deform_template(const ScalarField& rho_t, const VectorField& velocity,
                       ScalarField& deformed);

  /// Pointwise det(grad y1) field for a velocity (paper Fig. 7 map).
  void jacobian_field(const VectorField& velocity, ScalarField& det);

  const RegistrationOptions& options() const { return options_; }
  spectral::SpectralOps& ops() { return *ops_; }
  grid::PencilDecomp& decomp() { return *decomp_; }

 private:
  void preprocess(const ScalarField& in, ScalarField& out,
                  const RegistrationOptions& opt);
  /// Points ops_ at operators for (wire, overlap): the constructor-built
  /// (or registry-leased) set when the request matches it, a rebuilt/newly
  /// leased set otherwise.
  void ensure_ops(WirePrecision wire, bool overlap);

  grid::PencilDecomp* decomp_;
  RegistrationOptions options_;
  std::shared_ptr<PlanRegistry> registry_;  // null for standalone solvers
  std::shared_ptr<spectral::SpectralOps> ops_;
  WirePrecision ops_wire_;
  bool ops_overlap_;
};

}  // namespace diffreg::core
