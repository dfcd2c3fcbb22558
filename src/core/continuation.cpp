#include "core/continuation.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "spectral/resample.hpp"

namespace diffreg::core {

namespace {

/// Grid hierarchy, finest first: repeated halving (odd dims round up) until
/// the level budget or the coarsest-dim floor is exhausted.
std::vector<Int3> build_level_dims(const Int3& fine, int levels,
                                   index_t coarsest_dim) {
  std::vector<Int3> dims{fine};
  while (static_cast<int>(dims.size()) < levels) {
    const Int3 next = spectral::coarsen_dims(dims.back(), coarsest_dim);
    if (next == dims.back()) break;
    dims.push_back(next);
  }
  return dims;
}

MultilevelLevelReport make_level_report(const Int3& dims, real_t beta,
                                        const RegistrationResult& result,
                                        double seconds) {
  MultilevelLevelReport rep;
  rep.dims = dims;
  rep.beta = beta;
  rep.newton_iterations = result.newton.iterations;
  rep.matvecs = result.newton.total_matvecs;
  rep.converged = result.newton.converged;
  rep.rel_residual = result.rel_residual;
  rep.min_det = result.min_det;
  rep.time_seconds = seconds;
  return rep;
}

}  // namespace

ContinuationResult run_beta_continuation(RegistrationSolver& solver,
                                         const ScalarField& rho_t,
                                         const ScalarField& rho_r,
                                         const ContinuationOptions& copt) {
  ContinuationResult out;
  // Per-stage parameters ride the request; the solver's own options are
  // never touched (no restore guard needed on any exit path).
  RegistrationOptions stage_opt = solver.options();
  real_t beta = copt.beta_start;
  const VectorField* warm_start = nullptr;

  for (int stage = 0; stage < copt.max_stages; ++stage) {
    stage_opt.beta = beta;
    SolveRequest req;
    req.rho_t = &rho_t;
    req.rho_r = &rho_r;
    req.v0 = warm_start;
    req.options = stage_opt;
    RegistrationResult result = solver.solve(req);
    // ||g(0)|| is beta-independent (the quadratic regularizer's gradient
    // vanishes at v = 0): the cold first stage measures it, later
    // warm-started stages reuse it instead of re-solving state + adjoint.
    if (warm_start == nullptr) {
      out.gradient_reference = result.newton.initial_gradient_norm;
      stage_opt.gradient_reference = out.gradient_reference;
    }

    out.stage_betas.push_back(beta);
    out.stage_residuals.push_back(result.rel_residual);
    out.stage_min_dets.push_back(result.min_det);
    ++out.stages;

    const bool admissible = result.min_det > copt.min_det_bound;
    // The first stage is kept even when inadmissible (flagged below), so
    // callers never receive a default-constructed result with an empty
    // velocity and final_beta = 0.
    if (admissible || stage == 0) {
      out.best = std::move(result);
      out.admissible = admissible;
      out.final_beta = beta;
      warm_start = admissible ? &out.best.velocity : nullptr;
    }
    if (!admissible || beta <= copt.beta_target) break;
    beta = std::max(copt.beta_target, beta / copt.reduction_factor);
  }
  return out;
}

MultilevelResult run_multilevel_continuation(grid::PencilDecomp& fine_decomp,
                                             const RegistrationOptions& opt,
                                             const ScalarField& rho_t,
                                             const ScalarField& rho_r,
                                             const MultilevelOptions& mopt) {
  if (mopt.levels < 1)
    throw std::invalid_argument(
        "run_multilevel_continuation: levels must be >= 1");
  if (mopt.checkpoint_every > 0 && mopt.checkpoint_path.empty())
    throw std::invalid_argument(
        "run_multilevel_continuation: checkpoint_every > 0 needs a "
        "checkpoint_path");
  const std::vector<Int3> level_dims =
      build_level_dims(fine_decomp.dims(), mopt.levels, mopt.coarsest_dim);
  const int nlevels = static_cast<int>(level_dims.size());

  MultilevelResult out;

  // Decompositions share the fine process grid so every transfer is a pure
  // layout remap (level 0 borrows the caller's decomposition).
  std::vector<std::unique_ptr<grid::PencilDecomp>> owned;
  std::vector<grid::PencilDecomp*> decomps{&fine_decomp};
  for (int k = 1; k < nlevels; ++k) {
    owned.push_back(std::make_unique<grid::PencilDecomp>(
        fine_decomp.comm(), level_dims[k], fine_decomp.p1(),
        fine_decomp.p2()));
    decomps.push_back(owned.back().get());
  }

  // Smooth once on the fine grid (exactly what RegistrationSolver would do)
  // and restrict the smoothed images: spectral truncation keeps the coarser
  // levels alias free on its own, and solving the SAME band-truncated
  // problem on every level is what makes carrying ||g(0)|| across levels
  // valid — re-smoothing per level at that level's cell size would shrink
  // the coarse gradient and corrupt the carried reference.
  RegistrationOptions base = opt;
  std::vector<ScalarField> rho_ts(nlevels), rho_rs(nlevels);
  if (opt.smooth_inputs && nlevels > 1) {
    spectral::SpectralOps fine_ops(fine_decomp);
    const Int3 fd = fine_decomp.dims();
    const Vec3 sigma{opt.smoothing_cells * kTwoPi / fd[0],
                     opt.smoothing_cells * kTwoPi / fd[1],
                     opt.smoothing_cells * kTwoPi / fd[2]};
    fine_ops.gaussian_smooth(rho_t, sigma, rho_ts[0]);
    fine_ops.gaussian_smooth(rho_r, sigma, rho_rs[0]);
    base.smooth_inputs = false;
  } else {
    rho_ts[0] = rho_t;
    rho_rs[0] = rho_r;
  }

  // Cascade image restriction: both images of a transition share one
  // batched 2-component transfer (5 exchanges per level).
  for (int k = 1; k < nlevels; ++k) {
    spectral::ResamplePlan plan(*decomps[k - 1], *decomps[k], opt.wire());
    const index_t n = decomps[k]->local_real_size();
    rho_ts[k].resize(n);
    rho_rs[k].resize(n);
    const real_t* ins[2] = {rho_ts[k - 1].data(), rho_rs[k - 1].data()};
    real_t* outs[2] = {rho_ts[k].data(), rho_rs[k].data()};
    plan.apply_many(std::span<const real_t* const>(ins, 2),
                    std::span<real_t* const>(outs, 2));
  }

  auto scheduled_beta = [&](int k) {  // k = 0 is the finest level
    if (mopt.level_betas.empty()) return opt.beta;
    const int i = std::min<int>(nlevels - 1 - k,
                                static_cast<int>(mopt.level_betas.size()) - 1);
    return mopt.level_betas[i];
  };

  real_t beta_override = -1;  // set by the coarse beta continuation

  // Resume: locate the checkpoint's pyramid level and restore the carried
  // solver state. All checkpoint reads are collective and converge on
  // errors, so a bad file throws CheckpointError on every rank.
  int resume_level = -1;
  int resume_base_iters = 0;
  real_t resume_beta = 0;
  VectorField resume_v;
  if (!mopt.resume_path.empty()) {
    const CheckpointHeader hdr =
        read_checkpoint_header(fine_decomp.comm(), mopt.resume_path);
    if (!(hdr.fine_dims == fine_decomp.dims()))
      throw CheckpointError(
          "checkpoint fine grid does not match this run: " +
          mopt.resume_path);
    for (int k = 0; k < nlevels; ++k)
      if (hdr.level_dims == level_dims[k]) {
        resume_level = k;
        break;
      }
    if (resume_level < 0)
      throw CheckpointError(
          "checkpoint level matches no level of this pyramid: " +
          mopt.resume_path);
    out.gradient_reference = hdr.gradient_reference;
    out.admissible = hdr.admissible;
    if (hdr.beta_override > 0) beta_override = hdr.beta_override;
    resume_base_iters = hdr.newton_iters_done;
    resume_beta = hdr.beta;
    resume_v =
        read_checkpoint_velocity(*decomps[resume_level], mopt.resume_path);
  }

  RegistrationResult prev;  // result of the level below the current one
  for (int k = nlevels - 1; k >= 0; --k) {
    // Levels coarser than the checkpoint already ran before the kill.
    if (resume_level >= 0 && k > resume_level) continue;
    const bool resuming_here = resume_level == k;

    RegistrationOptions lopt = base;
    lopt.beta = resuming_here
                    ? resume_beta
                    : (beta_override > 0 ? beta_override : scheduled_beta(k));
    lopt.gradient_reference = out.gradient_reference;

    // Periodic in-level checkpoints ride the accepted-iterate hook (chained
    // with any caller-installed hook, which runs first — a kill that fires
    // from the user hook leaves the previous checkpoint in place). A
    // coarsest level running the beta continuation only checkpoints at
    // level end: its intermediate stages are warm starts, not resumable
    // Newton state.
    const bool coarse_cont = k == nlevels - 1 &&
                             mopt.coarse_beta_cont.has_value() &&
                             !resuming_here;
    const int base_iters = resuming_here ? resume_base_iters : 0;
    if (mopt.checkpoint_every > 0 && !coarse_cont) {
      const real_t level_beta = lopt.beta;
      const Int3 ldims = level_dims[k];
      grid::PencilDecomp* const ldecomp = decomps[k];
      const auto user_hook = base.iterate_hook;
      lopt.iterate_hook = [&, level_beta, ldims, ldecomp, base_iters,
                           user_hook](const NewtonIterateInfo& info) {
        if (user_hook) user_hook(info);
        if ((base_iters + info.iterates_done) % mopt.checkpoint_every != 0)
          return;
        CheckpointHeader hdr;
        hdr.fine_dims = fine_decomp.dims();
        hdr.level_dims = ldims;
        hdr.beta = level_beta;
        hdr.beta_override = beta_override;
        hdr.gradient_reference = out.gradient_reference > 0
                                     ? out.gradient_reference
                                     : info.gradient_reference;
        hdr.admissible = out.admissible;
        hdr.newton_iters_done = base_iters + info.iterates_done;
        write_checkpoint(*ldecomp, hdr, *info.velocity,
                         mopt.checkpoint_path);
      };
    }
    RegistrationSolver solver(*decomps[k], lopt);

    WallTimer wall;
    RegistrationResult result;
    if (resuming_here) {
      // Warm-restart the interrupted level from the stored iterate. The
      // carried gradient_reference keeps the stopping target identical, so
      // this replays exactly the iterates the killed run never finished
      // (level-end checkpoints replay zero: the warm start is already
      // converged).
      result = solver.solve({.rho_t = &rho_ts[k],
                             .rho_r = &rho_rs[k],
                             .v0 = &resume_v,
                             .options = lopt});
      result.newton.iterations += base_iters;
      if (k == nlevels - 1) out.coarsest = result;
    } else if (k == nlevels - 1) {
      if (mopt.coarse_beta_cont.has_value()) {
        ContinuationResult cont = run_beta_continuation(
            solver, rho_ts[k], rho_rs[k], *mopt.coarse_beta_cont);
        out.admissible = cont.admissible;
        out.gradient_reference = cont.gradient_reference;
        beta_override = cont.final_beta;
        lopt.beta = cont.final_beta;  // for the report below
        result = std::move(cont.best);
      } else {
        result = solver.solve(
            {.rho_t = &rho_ts[k], .rho_r = &rho_rs[k], .options = lopt});
        out.gradient_reference = result.newton.initial_gradient_norm;
      }
      out.coarsest = result;
    } else {
      // Warm-start prolongation honors the precision policy like every
      // other transfer (the one-shot spectral_resample helper would build
      // a default fp64-wire plan).
      spectral::ResamplePlan prolong(*decomps[k + 1], *decomps[k],
                                     opt.wire());
      VectorField v0;
      prolong.apply(prev.velocity, v0);
      result = solver.solve({.rho_t = &rho_ts[k],
                             .rho_r = &rho_rs[k],
                             .v0 = &v0,
                             .options = lopt});
    }
    out.levels.push_back(
        make_level_report(level_dims[k], lopt.beta, result, wall.seconds()));
    out.final_beta = lopt.beta;

    // Level-end checkpoint: marks the level complete (a resume from it
    // replays nothing here and moves on to the prolongation).
    if (mopt.checkpoint_every > 0) {
      CheckpointHeader hdr;
      hdr.fine_dims = fine_decomp.dims();
      hdr.level_dims = level_dims[k];
      hdr.beta = lopt.beta;
      hdr.beta_override = beta_override;
      hdr.gradient_reference = out.gradient_reference;
      hdr.admissible = out.admissible;
      hdr.newton_iters_done = result.newton.iterations;
      write_checkpoint(*decomps[k], hdr, result.velocity,
                       mopt.checkpoint_path);
    }

    if (k == 0)
      out.fine = std::move(result);
    else
      prev = std::move(result);
  }
  return out;
}

}  // namespace diffreg::core
