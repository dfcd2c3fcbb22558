// Volume-preserving (incompressible) registration — the paper's hardest
// setting (Table III): the velocity is constrained to div v = 0 via the
// Leray projector, which forces det(grad y) = 1 (a locally volume
// preserving, "mass preserving" diffeomorphism, paper section II-A).
#include <cmath>
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
    spectral::SpectralOps ops(decomp);

    // Divergence-free ground truth so a volume-preserving map can explain
    // the data exactly.
    auto rho_t = imaging::synthetic_template(decomp);
    auto v_star = imaging::synthetic_velocity_divfree(decomp, 0.5);
    auto rho_r = imaging::make_reference(ops, rho_t, v_star);

    core::RegistrationOptions opt;
    opt.incompressible = true;
    opt.beta = 1e-2;
    opt.max_newton_iters = 10;
    core::RegistrationSolver solver(decomp, opt);
    auto result =
        solver.solve({.rho_t = &rho_t, .rho_r = &rho_r, .options = opt});

    // Check the incompressibility invariants.
    grid::ScalarField div_v;
    ops.divergence(result.velocity, div_v);
    const real_t div_norm = grid::norm_inf(decomp, div_v);
    const real_t vol_error =
        std::max(std::abs(result.min_det - 1), std::abs(result.max_det - 1));

    if (comm.is_root()) {
      std::printf("incompressible registration, %lld^3\n",
                  static_cast<long long>(dims[0]));
      std::printf("  newton its %d, matvecs %d\n", result.newton.iterations,
                  result.newton.total_matvecs);
      std::printf("  rel residual        : %.3f\n", result.rel_residual);
      std::printf("  max |div v|         : %.3e\n", div_norm);
      std::printf("  det(grad y) in [%.4f, %.4f] (volume preserving -> 1)\n",
                  result.min_det, result.max_det);
      pass = result.rel_residual < 0.7 && div_norm < 1e-8 && vol_error < 0.05;
      std::printf("incompressible %s\n", pass ? "PASSED" : "FAILED");
    }
  });
  return pass ? 0 : 1;
}
