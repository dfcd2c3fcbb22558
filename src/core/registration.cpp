#include "core/registration.hpp"

#include "core/checkpoint.hpp"
#include "core/plan_registry.hpp"
#include "core/precond.hpp"

namespace diffreg::core {

namespace {

/// Holds the solve's transport: pool-checked-out when a registry is
/// present (released back on destruction), otherwise a fresh local build —
/// the historical per-solve behavior.
class TransportLease {
 public:
  TransportLease(PlanRegistry* registry, spectral::SpectralOps& ops,
                 const semilag::TransportConfig& tc)
      : registry_(registry), dims_(ops.decomp().dims()), tc_(tc) {
    if (registry_ != nullptr)
      pooled_ = registry_->acquire_transport(dims_, tc_);
    else
      owned_ = std::make_unique<semilag::Transport>(ops, tc_);
  }
  ~TransportLease() {
    if (pooled_) registry_->release_transport(dims_, tc_, std::move(pooled_));
  }
  semilag::Transport& get() { return pooled_ ? *pooled_ : *owned_; }

 private:
  PlanRegistry* registry_;
  Int3 dims_;
  semilag::TransportConfig tc_;
  std::shared_ptr<semilag::Transport> pooled_;
  std::unique_ptr<semilag::Transport> owned_;
};

}  // namespace

RegistrationSolver::RegistrationSolver(grid::PencilDecomp& decomp,
                                       const RegistrationOptions& options)
    : decomp_(&decomp),
      options_(options),
      ops_(std::make_shared<spectral::SpectralOps>(decomp, options.wire(),
                                                   options.overlap)),
      ops_wire_(options.wire()),
      ops_overlap_(options.overlap) {}

RegistrationSolver::RegistrationSolver(grid::PencilDecomp& decomp,
                                       const RegistrationOptions& options,
                                       std::shared_ptr<PlanRegistry> registry)
    : decomp_(&decomp),
      options_(options),
      registry_(std::move(registry)),
      ops_(registry_->spectral(decomp.dims(), options.wire(),
                               options.overlap)),
      ops_wire_(options.wire()),
      ops_overlap_(options.overlap) {}

RegistrationSolver::~RegistrationSolver() = default;

void RegistrationSolver::ensure_ops(WirePrecision wire, bool overlap) {
  if (wire == ops_wire_ && overlap == ops_overlap_) return;
  if (registry_)
    ops_ = registry_->spectral(decomp_->dims(), wire, overlap);
  else
    ops_ = std::make_shared<spectral::SpectralOps>(*decomp_, wire, overlap);
  ops_wire_ = wire;
  ops_overlap_ = overlap;
}

void RegistrationSolver::preprocess(const ScalarField& in, ScalarField& out,
                                    const RegistrationOptions& opt) {
  if (!opt.smooth_inputs) {
    out = in;
    return;
  }
  const Int3 dims = decomp_->dims();
  const Vec3 sigma{opt.smoothing_cells * kTwoPi / dims[0],
                   opt.smoothing_cells * kTwoPi / dims[1],
                   opt.smoothing_cells * kTwoPi / dims[2]};
  ops_->gaussian_smooth(in, sigma, out);
}

SolveReport RegistrationSolver::solve(const SolveRequest& request) {
  RegistrationOptions opt = request.options;
  ensure_ops(opt.wire(), opt.overlap);

  // Periodic restart checkpoints, chained behind any hook the caller
  // installed (caller's hook observes first).
  if (!request.checkpoint_path.empty()) {
    const auto caller_hook = opt.iterate_hook;
    const int every = request.checkpoint_every > 0 ? request.checkpoint_every
                                                   : 1;
    const real_t beta = opt.beta;
    opt.iterate_hook = [this, caller_hook, every, beta,
                        path = request.checkpoint_path](
                           const NewtonIterateInfo& info) {
      if (caller_hook) caller_hook(info);
      if (info.iterates_done % every != 0) return;
      CheckpointHeader hdr;
      hdr.fine_dims = decomp_->dims();
      hdr.level_dims = decomp_->dims();
      hdr.beta = beta;
      hdr.gradient_reference = info.gradient_reference;
      hdr.newton_iters_done = info.iterates_done;
      write_checkpoint(*decomp_, hdr, *info.velocity, path);
    };
  }

  RegistrationResult result;
  result.job_id = request.job_id;
  auto& comm = decomp_->comm();
  const Timings timings_before = comm.timings();
  WallTimer wall;

  ScalarField rho_t_s, rho_r_s;
  preprocess(*request.rho_t, rho_t_s, opt);
  preprocess(*request.rho_r, rho_r_s, opt);

  TransportLease lease(registry_.get(), *ops_, transport_config(opt));
  semilag::Transport& transport = lease.get();

  Regularization reg(*ops_, opt.reg_type, opt.beta);
  OptimalitySystem system(*ops_, transport, reg, rho_t_s, rho_r_s,
                          opt.incompressible, opt.gauss_newton);

  // Two-level preconditioner, unless this grid is already at (or below) the
  // coarse floor — on such grids (e.g. the coarsest level of a pyramid) the
  // plain spectral smoother is the right tool and the correction has no
  // coarser band to work with.
  std::unique_ptr<TwoLevelPreconditioner> two_level;
  if (opt.two_level_precond &&
      spectral::coarsen_dims(decomp_->dims(), opt.precond_coarsest_dim) !=
          decomp_->dims()) {
    two_level = std::make_unique<TwoLevelPreconditioner>(*decomp_, opt,
                                                         rho_t_s, rho_r_s);
    system.set_two_level(two_level.get());
  }

  const index_t n = decomp_->local_real_size();
  VectorField v(n);
  if (request.v0 != nullptr) {
    v = *request.v0;
    if (opt.incompressible) ops_->leray_project(v);
  }

  {
    ScalarField diff(n);
    for (index_t i = 0; i < n; ++i) diff[i] = rho_t_s[i] - rho_r_s[i];
    result.initial_residual_norm = grid::norm_l2(*decomp_, diff);
  }

  result.newton = newton_solve(system, v, opt);

  // The system's last evaluate() is at the final v: reuse its residual.
  {
    ScalarField res(n);
    system.final_residual(res);
    result.final_residual_norm = grid::norm_l2(*decomp_, res);
    result.rel_residual =
        result.initial_residual_norm > 0
            ? result.final_residual_norm / result.initial_residual_norm
            : real_t(0);
  }

  const DeformationAnalysis deformation = analyze_deformation(*ops_, transport);
  result.min_det = deformation.min_det;
  result.max_det = deformation.max_det;
  result.mean_det = deformation.mean_det;

  if (two_level) result.coarse_matvecs = two_level->coarse_matvecs();
  result.velocity = std::move(v);
  result.time_to_solution = wall.seconds();
  result.timings = timings_delta(timings_before, comm.timings());
  // Standalone semantics: the deadline is measured against this solve's own
  // wall clock. BatchSolver overwrites this against the batch clock.
  result.deadline_met = request.deadline_seconds <= 0 ||
                        result.time_to_solution <= request.deadline_seconds;
  return result;
}

void RegistrationSolver::deform_template(const ScalarField& rho_t,
                                         const VectorField& velocity,
                                         ScalarField& deformed) {
  TransportLease lease(registry_.get(), *ops_, transport_config(options_));
  semilag::Transport& transport = lease.get();
  transport.set_velocity(velocity);
  transport.solve_state(rho_t);
  deformed = transport.final_state();
}

void RegistrationSolver::jacobian_field(const VectorField& velocity,
                                        ScalarField& det) {
  TransportLease lease(registry_.get(), *ops_, transport_config(options_));
  semilag::Transport& transport = lease.get();
  transport.set_velocity(velocity);
  VectorField u;
  transport.solve_displacement(u);
  jacobian_determinant(*ops_, u, det);
}

}  // namespace diffreg::core
