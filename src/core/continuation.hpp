// Parameter and grid continuation (paper section III-A: "since the problem
// is highly nonlinear we use parameter continuation on beta"; section I,
// Limitations: "grid continuation and multilevel preconditioning").
//
// Two composable drivers:
//  * run_beta_continuation — solve a heavily regularized problem first, then
//    repeatedly reduce beta, warm-starting the velocity, until either the
//    target beta is reached or the deformation map would leave the
//    admissible set (min det(grad y) below a bound).
//  * run_multilevel_continuation — an N-level coarse-to-fine grid pyramid:
//    the images are spectrally restricted down a hierarchy of grids (odd
//    dims supported), the coarsest level is solved cold (optionally with a
//    full beta continuation to find the smallest admissible beta cheaply),
//    and each finer level is warm-started with the spectrally prolonged
//    velocity of the level below. ||g(0)|| measured on the coarsest level is
//    carried up as the gradient reference, so no finer level pays the extra
//    state+adjoint solves a warm start would otherwise trigger.
#pragma once

#include <optional>
#include <vector>

#include "core/registration.hpp"

namespace diffreg::core {

struct ContinuationOptions {
  real_t beta_start = 1;
  real_t beta_target = 1e-3;
  real_t reduction_factor = 10;
  /// Admissibility bound on det(grad y) (paper: metrics on grad y1 determine
  /// the target beta); below it the previous stage's result is kept.
  real_t min_det_bound = 0.1;
  int max_stages = 8;
};

struct ContinuationResult {
  /// Last admissible stage — or the first stage when even it violated the
  /// det bound (flagged by `admissible`); never a default-constructed
  /// placeholder, so callers always get a usable velocity field.
  RegistrationResult best;
  /// True when `best` satisfies the min-det admissibility bound.
  bool admissible = false;
  real_t final_beta = 0;  // beta of `best`
  /// ||g(0)|| measured by the cold first stage (beta-independent on a fixed
  /// grid); multilevel drivers carry it across levels.
  real_t gradient_reference = 0;
  std::vector<real_t> stage_betas;
  std::vector<real_t> stage_residuals;  // rel_residual per stage
  std::vector<real_t> stage_min_dets;
  int stages = 0;
};

/// Runs the continuation schedule on `solver`. Per-stage parameters (beta,
/// gradient_reference) are passed explicitly through each stage's
/// SolveRequest — the solver's own options are never mutated, so the
/// caller's beta and gradient_reference are trivially unchanged after
/// return. Collective.
ContinuationResult run_beta_continuation(RegistrationSolver& solver,
                                         const ScalarField& rho_t,
                                         const ScalarField& rho_r,
                                         const ContinuationOptions& copt);

struct MultilevelOptions {
  /// Total pyramid depth including the finest grid; 1 = plain cold solve.
  /// Fewer levels are run when the coarsest-dim floor is reached first.
  int levels = 3;
  /// No axis is coarsened below this many points (it should stay >= the
  /// process-grid extents so every rank keeps a nonempty block).
  index_t coarsest_dim = 8;
  /// Per-level beta schedule, coarsest level first; when shorter than the
  /// pyramid the last entry is reused, when empty the RegistrationOptions
  /// beta is used on every level.
  std::vector<real_t> level_betas;
  /// When set, the coarsest level runs a full beta continuation instead of a
  /// single solve, and its final (admissible) beta is used on every finer
  /// level — the cheap coarse grid determines how far beta can be pushed.
  std::optional<ContinuationOptions> coarse_beta_cont;

  // Checkpoint/restart (core/checkpoint.hpp, docs/FAULT_MODEL.md). With
  // checkpoint_every = N > 0 a checkpoint is written to checkpoint_path
  // after every N-th accepted Newton iterate and at the end of every level
  // (atomically: a crash mid-write keeps the previous one). A coarsest
  // level running a beta continuation checkpoints at level end only — its
  // per-stage warm starts are not restartable mid-stage. resume_path
  // restarts a killed run: completed levels are skipped, the interrupted
  // level is warm-started from the stored velocity, and — because Newton
  // state is fully determined by (velocity, options) — the resumed run
  // replays the remaining iterates of the uninterrupted trajectory.
  std::string checkpoint_path;  ///< Target file (required when writing).
  int checkpoint_every = 0;     ///< Newton-iterate period; 0 disables.
  std::string resume_path;      ///< Checkpoint to restart from; "" = cold.
};

struct MultilevelLevelReport {
  Int3 dims{0, 0, 0};
  real_t beta = 0;
  int newton_iterations = 0;
  int matvecs = 0;
  bool converged = false;
  real_t rel_residual = 1;
  real_t min_det = 0;
  double time_seconds = 0;
};

struct MultilevelResult {
  RegistrationResult fine;      // finest-level result
  RegistrationResult coarsest;  // coarsest-level result (the pyramid seed)
  /// False only when the coarsest-level beta continuation could not find an
  /// admissible stage (see ContinuationResult::admissible).
  bool admissible = true;
  real_t final_beta = 0;          // beta solved at the finest level
  real_t gradient_reference = 0;  // ||g(0)|| carried across the levels
  std::vector<MultilevelLevelReport> levels;  // coarsest first
};

/// Coarse-to-fine pyramid solve on `fine_decomp`'s communicator. Builds the
/// coarser decompositions internally (same process grid), restricts the
/// images level by level (one batched 2-component transfer per transition),
/// and prolongs each level's velocity as the next warm start. Odd dims are
/// supported via the resample's Nyquist rules. Collective.
MultilevelResult run_multilevel_continuation(grid::PencilDecomp& fine_decomp,
                                             const RegistrationOptions& opt,
                                             const ScalarField& rho_t,
                                             const ScalarField& rho_r,
                                             const MultilevelOptions& mopt);

}  // namespace diffreg::core
