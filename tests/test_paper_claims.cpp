// The paper's qualitative figure claims that no other suite asserts, run on
// small grids (ctest label `paper_claims`):
//  * Fig. 1: a rigid fit removes the pose difference of two brains but
//    leaves an anatomy residual that only the deformable map removes;
//  * Figs. 6/7: the brain registration drives the residual well below its
//    initial value and its det(grad y) map is strictly positive.
// The other table/figure claims are asserted next to the code they check;
// README "Paper tables and figures" maps each claim to its test.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"

namespace diffreg {
namespace {

using grid::PencilDecomp;
using grid::ScalarField;

/// ||a - b|| in the solver's distributed L2 norm (collective).
real_t residual_norm(PencilDecomp& decomp, const ScalarField& a,
                     const ScalarField& b) {
  ScalarField diff(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) diff[i] = a[i] - b[i];
  return grid::norm_l2(decomp, diff);
}

TEST(PaperClaims, Fig1DeformableRemovesWhatRigidLeaves) {
  const Int3 dims{16, 20, 16};
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, dims);
    const ScalarField rho_r = imaging::brain_phantom(decomp, 1);
    const ScalarField subject = imaging::brain_phantom(decomp, 2);

    // The rigid baseline is serial: rank 0 moves the template by a known
    // rigid misalignment, fits the pose back, and scatters both images.
    const auto rho_r_full = grid::gather_to_root(decomp, rho_r);
    const auto subject_full = grid::gather_to_root(decomp, subject);
    std::vector<real_t> moved_full, aligned_full;
    if (comm.is_root()) {
      core::RigidRegistration rigid(dims);
      core::RigidRegistration::Params misalign;
      misalign.angles = {0.12, -0.08, 0.1};
      misalign.translation = {0.3, -0.2, 0.25};
      rigid.apply(subject_full, misalign, moved_full);
      const auto fit = rigid.run(moved_full, rho_r_full, 150);
      rigid.apply(moved_full, fit.params, aligned_full);
    }
    const ScalarField moved = grid::scatter_from_root(decomp, moved_full);
    const ScalarField aligned = grid::scatter_from_root(decomp, aligned_full);

    core::RegistrationOptions opt;
    opt.beta = 1e-3;
    opt.max_newton_iters = 12;
    core::RegistrationSolver solver(decomp, opt);
    core::SolveRequest request;
    request.rho_t = &aligned;
    request.rho_r = &rho_r;
    request.options = opt;
    const auto report = solver.solve(request);
    ScalarField deformed;
    solver.deform_template(aligned, report.velocity, deformed);

    const real_t initial = residual_norm(decomp, moved, rho_r);
    const real_t after_rigid = residual_norm(decomp, aligned, rho_r);
    const real_t after_deformable = residual_norm(decomp, deformed, rho_r);
    EXPECT_LT(after_rigid, initial);
    EXPECT_LT(after_deformable, after_rigid);
  });
}

TEST(PaperClaims, Fig6And7BrainResidualDropsAndDetStaysPositive) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 20, 16});
    const ScalarField rho_r = imaging::brain_phantom(decomp, 1);
    const ScalarField rho_t = imaging::brain_phantom(decomp, 2);

    core::RegistrationOptions opt;
    opt.beta = 1e-3;
    core::RegistrationSolver solver(decomp, opt);
    core::SolveRequest request;
    request.rho_t = &rho_t;
    request.rho_r = &rho_r;
    request.options = opt;
    const auto report = solver.solve(request);
    EXPECT_LT(report.rel_residual, 0.5);

    // Every rank checks its own block of the Fig. 7 det(grad y) map.
    ScalarField det;
    solver.jacobian_field(report.velocity, det);
    ASSERT_EQ(static_cast<index_t>(det.size()), decomp.local_real_size());
    EXPECT_GT(*std::min_element(det.begin(), det.end()), 0.0)
        << "rank " << comm.rank();
  });
}

}  // namespace
}  // namespace diffreg
