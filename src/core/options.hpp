// User-facing configuration of the registration solver (paper section IV-A3
// lists the experiment defaults: beta = 1e-2, nt = 4, gtol = 1e-2,
// Gauss-Newton with quadratic forcing).
#pragma once

#include <functional>

#include "common/precision.hpp"
#include "core/regularization.hpp"
#include "grid/field_math.hpp"
#include "interp/kernels.hpp"
#include "semilag/transport.hpp"

namespace diffreg::core {

/// Snapshot handed to RegistrationOptions::iterate_hook after every ACCEPTED
/// Newton iterate. Observational only: the hook must not mutate the solve.
/// The velocity pointer is valid only for the duration of the call.
struct NewtonIterateInfo {
  int iterates_done = 0;  ///< Accepted iterates so far in this solve.
  real_t gradient_reference = 0;  ///< ||g(0)|| anchor of the running solve.
  const grid::VectorField* velocity = nullptr;  ///< Current iterate.
};

enum class Forcing {
  kQuadratic,    // eta_k = min(eta_max, ||g_k|| / ||g_0||)
  kSuperlinear,  // eta_k = min(eta_max, sqrt(||g_k|| / ||g_0||))
  kConstant,     // eta_k = eta_max
};

/// Solver precision policy (CLAIRE-style mixed precision).
///   kDouble — everything fp64, bitwise identical to the historical solver.
///   kMixed  — fp32 wire format on every hot exchange (FFT transposes,
///             ghost halos, interpolation value scatter, resample remap)
///             AND fp32 storage for the inner Krylov recurrence, while the
///             outer Newton iteration (gradient, objective, line search,
///             step update) stays fp64 and re-computes the true fp64
///             residual every iterate (iterative-refinement structure).
enum class Precision {
  kDouble,
  kMixed,
};

struct RegistrationOptions {
  // Discretization.
  int nt = 4;
  interp::Method interp_method = interp::Method::kTricubic;

  // Formulation.
  real_t beta = 1e-2;
  RegType reg_type = RegType::kH2Seminorm;
  bool incompressible = false;

  // Precision policy. kDouble is the default: kMixed is opt-in (CLI
  // --precision mixed) and is only safe because the outer Newton loop stays
  // fp64 — see the README "Precision policy" section.
  Precision precision = Precision::kDouble;
  /// Wire format implied by the precision policy, consumed by every plan
  /// the solver builds (FFT, ghost exchange, interpolation, resample).
  WirePrecision wire() const {
    return precision == Precision::kMixed ? WirePrecision::kF32
                                          : WirePrecision::kF64;
  }

  /// Comm/compute overlap (CLI --overlap on). When set, every plan the
  /// solver builds (FFT transposes, ghost halos, interpolation value
  /// scatter) posts its exchanges nonblocking and runs the independent
  /// local work under their flight. The message schedule and the results
  /// are bitwise identical to the default blocking schedule — only the
  /// wire's idle time moves (into the Timings hidden-comm counters).
  bool overlap = false;

  // Newton-Krylov solver.
  bool gauss_newton = true;
  real_t gtol = 1e-2;           // relative gradient reduction
  // ||g|| at zero velocity, the reference for gtol in warm-started solves.
  // <= 0 means unknown: the solver computes it (one extra state + adjoint
  // solve) when given a warm start. Continuation drivers cache it across
  // stages on the same grid, where it is independent of beta.
  real_t gradient_reference = 0;
  int max_newton_iters = 50;
  int max_krylov_iters = 100;
  Forcing forcing = Forcing::kQuadratic;
  real_t forcing_max = 0.5;

  // Two-level coarse-grid Hessian preconditioner (opt-in; see
  // core/precond.hpp). Combines the spectral smoother (beta A)^{-1} with an
  // approximate coarse-grid Gauss-Newton Hessian inverse on the low
  // frequency band — the band where the spectral preconditioner degrades as
  // beta shrinks.
  bool two_level_precond = false;
  /// Coarse-grid floor for the preconditioner level (no axis below this).
  index_t precond_coarsest_dim = 8;
  /// Inner CG sweeps of the coarse Hessian solve per application.
  int precond_inner_iters = 5;

  // Armijo line search.
  int max_line_search = 12;
  real_t armijo_c1 = 1e-4;

  // Input preprocessing (paper section III-B1: spectral Gaussian smoothing
  // with bandwidth of about one grid cell to control aliasing).
  bool smooth_inputs = true;
  real_t smoothing_cells = 1.0;

  // Numerical safeguards (CLI --guard on; docs/FAULT_MODEL.md). Adds
  // collective finite sweeps at Newton-iterate granularity, a damped
  // steepest-descent recovery when the line search exhausts, and — under
  // Precision::kMixed — automatic per-iterate escalation to the fp64 Krylov
  // solve when the fp32 recurrence breaks down or stagnates. Off by
  // default: with guard off the solve is bitwise identical to the
  // pre-safeguard solver.
  bool guard = false;

  /// Called after every accepted Newton iterate (null: off). The
  /// checkpoint/restart driver installs this to write periodic checkpoints;
  /// tests use it to kill a run mid-level. Exceptions it throws propagate
  /// out of newton_solve — a hook that throws on every rank at the same
  /// iterate terminates the solve cleanly on all ranks.
  std::function<void(const NewtonIterateInfo&)> iterate_hook;

  bool verbose = false;
};

/// The transport configuration a solve with `opt` runs: the standalone
/// solver, the two-level preconditioner's coarse transport and the batch
/// service's pooled transports all build from this one mapping.
inline semilag::TransportConfig transport_config(
    const RegistrationOptions& opt) {
  semilag::TransportConfig tc;
  tc.nt = opt.nt;
  tc.method = opt.interp_method;
  tc.incompressible = opt.incompressible;
  tc.wire = opt.wire();
  tc.overlap = opt.overlap;
  return tc;
}

}  // namespace diffreg::core
