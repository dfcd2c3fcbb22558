// Cross-job fused interpolation exchange (the batch service's throughput
// mechanism; docs/SERVICE.md).
//
// InterpPlan::interpolate_many fuses the value scatter of several FIELDS of
// one plan into one alltoallv. FusedInterp fuses across PLANS: J co-resident
// same-shape jobs, each with its own departure points (its own plan) and its
// own field, ride ONE ghost halo exchange and ONE value alltoallv per
// semi-Lagrangian step — the message count per step is independent of how
// many jobs share the decomposition. This is the `interpolate_many`
// mechanism lifted from "components of one velocity" to "independent
// registrations".
//
// Bitwise contract: every point is evaluated with its own plan's
// precomputed stencil against its own job's ghosted block — only the
// message GROUPING changes, not any evaluated value — so per-job outputs
// are bitwise identical to calling plan->interpolate per job. The fused
// value exchange uses its own tag (403), so its messages never collide with
// a plan's private exchanges.
//
// Overlap: like the per-plan path, an `overlap` FusedInterp posts the fused
// value alltoallv nonblocking (PR 6 CommRequest machinery) and evaluates
// every job's SELF-owned majority under its flight. One fused exchange in
// flight replaces J per-job ones — within the communicator's
// one-outstanding-request budget.
#pragma once

#include <span>
#include <vector>

#include "grid/ghost_exchange.hpp"
#include "interp/interp_plan.hpp"

namespace diffreg::interp {

class FusedInterp {
 public:
  /// `wire`/`overlap` must match the plans this instance will drive (they
  /// decide the staging buffers and the exchange schedule).
  explicit FusedInterp(grid::PencilDecomp& decomp,
                       WirePrecision wire = WirePrecision::kF64,
                       bool overlap = false);

  /// Evaluates fields[i] at plans[i]'s planned points into outs[i] (which
  /// must hold plans[i]->num_points() entries), for all i, through ONE
  /// ghost exchange and ONE value alltoallv. All plans must be built on
  /// the constructor's decomposition with matching wire/overlap; `gx` is
  /// any ghost exchanger of that decomposition with width kGhostWidth.
  /// Outputs must not alias inputs. Collective.
  void interpolate_many(grid::GhostExchange& gx,
                        std::span<InterpPlan* const> plans,
                        std::span<const real_t* const> fields,
                        std::span<real_t* const> outs,
                        Method method = Method::kTricubic);

  /// Number of fused exchange rounds served (throughput accounting: J jobs
  /// per round means J-1 alltoallv saved per round).
  int fused_calls() const { return fused_calls_; }

 private:
  grid::PencilDecomp* decomp_;
  mpisim::WireStage<real_t> stage_;  // wire format of the fused scatter
  bool overlap_;
  int fused_calls_ = 0;

  // Fused per-peer counts (self zeroed) and the rank-major/plan-minor
  // value buffers; grow-only, reused across rounds.
  std::vector<index_t> send_counts_, recv_counts_;
  std::vector<real_t> send_vals_, recv_vals_;
  std::vector<real_t> ghosted_;  // J ghost blocks back to back

  // Per-(plan, rank) offsets into the plans' rank-major point tables and
  // into the fused buffers (round scratch).
  std::vector<index_t> eval_base_, ret_base_, plan_recv_cum_, plan_send_cum_;

  static constexpr int kTagFusedValues = 403;
};

}  // namespace diffreg::interp
