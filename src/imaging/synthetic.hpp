// Synthetic registration problems (paper section IV-A1) and procedural
// "brain" phantoms that stand in for the NIREP MRI data.
//
// All generators evaluate a closed-form intensity function on the locally
// owned pencil block, so they scale to any decomposition without IO.
#pragma once

#include "grid/decomposition.hpp"
#include "grid/field_math.hpp"
#include "spectral/operators.hpp"

namespace diffreg::imaging {

using grid::ScalarField;
using grid::VectorField;

/// Paper's synthetic template: rho_T = (sin^2 x1 + sin^2 x2 + sin^2 x3) / 3.
ScalarField synthetic_template(grid::PencilDecomp& decomp);

/// Paper's synthetic velocity
/// v* = (cos x1 sin x2, cos x2 sin x1, cos x1 sin x3)^T, scaled by
/// `amplitude`.
VectorField synthetic_velocity(grid::PencilDecomp& decomp,
                               real_t amplitude = 1);

/// Divergence-free variant (ABC-type flow)
/// v* = (cos x2 sin x3, cos x3 sin x1, cos x1 sin x2)^T * amplitude;
/// div v* = 0 analytically (paper footnote 5).
VectorField synthetic_velocity_divfree(grid::PencilDecomp& decomp,
                                       real_t amplitude = 1);

/// Reference image: solves the forward problem (2b) with the given velocity,
/// i.e. rho_R = rho(1) (the paper's construction for the scaling studies).
ScalarField make_reference(spectral::SpectralOps& ops,
                           const ScalarField& rho_t, const VectorField& v,
                           int nt = 4);

/// Smooth sphere phantom: intensity 1 inside radius r (physical units),
/// sigmoidal falloff of width `edge`.
ScalarField sphere_phantom(grid::PencilDecomp& decomp, const Vec3& center,
                           real_t radius, real_t edge = 0.15);

/// Procedural brain-like phantom: skull/CSF rim, cortical band with
/// sinusoidal folds, white-matter interior, dark ventricles. `subject`
/// seeds a smooth anatomical warp, so different subjects are genuinely
/// different anatomies (multi-subject registration, paper section IV-C).
ScalarField brain_phantom(grid::PencilDecomp& decomp, unsigned subject);

}  // namespace diffreg::imaging
