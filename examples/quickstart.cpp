// Quickstart: register the paper's synthetic problem (section IV-A1) on a
// 32^3 grid with 2 simulated MPI ranks and print the solver diagnostics.
//
//   rho_T = (sin^2 x1 + sin^2 x2 + sin^2 x3)/3
//   rho_R = solution of the transport problem with the known velocity v*
//
// The solver should recover a velocity that drives the image mismatch well
// below its initial value while keeping det(grad y) > 0 (diffeomorphic).
#include <cstdio>

#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"

using namespace diffreg;

int main() {
  const Int3 dims{32, 32, 32};
  const int ranks = 2;

  bool pass = false;  // set by the root rank
  mpisim::run_spmd(ranks, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims);

    // Build the synthetic problem.
    spectral::SpectralOps ops(decomp);
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity(decomp, /*amplitude=*/0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    // Register.
    core::RegistrationOptions opt;
    opt.beta = 1e-2;
    opt.gtol = 1e-2;
    opt.max_newton_iters = 10;
    opt.verbose = comm.is_root();
    core::RegistrationSolver solver(decomp, opt);
    auto result =
        solver.solve({.rho_t = &rho_t, .rho_r = &rho_r, .options = opt});

    if (comm.is_root()) {
      std::printf("quickstart: %lld^3 grid, %d ranks\n",
                  static_cast<long long>(dims[0]), ranks);
      std::printf("  newton iterations   : %d\n", result.newton.iterations);
      std::printf("  hessian matvecs     : %d\n", result.newton.total_matvecs);
      std::printf("  |g|/|g0|            : %.3e\n",
                  result.newton.final_gradient_norm /
                      result.newton.initial_gradient_norm);
      std::printf("  residual ||rhoT(y)-rhoR|| / ||rhoT-rhoR|| : %.3f\n",
                  result.rel_residual);
      std::printf("  det(grad y) in [%.3f, %.3f], mean %.3f\n",
                  result.min_det, result.max_det, result.mean_det);
      std::printf("  time to solution    : %.2f s\n",
                  result.time_to_solution);
      std::printf("  fft  comm %.2fs exec %.2fs | interp comm %.2fs exec %.2fs\n",
                  result.timings.get(TimeKind::kFftComm),
                  result.timings.get(TimeKind::kFftExec),
                  result.timings.get(TimeKind::kInterpComm),
                  result.timings.get(TimeKind::kInterpExec));
      pass = result.rel_residual < 0.5 && result.min_det > 0;
      std::printf("quickstart %s\n", pass ? "PASSED" : "FAILED");
    }
  });
  return pass ? 0 : 1;
}
