#include "interp/fused_exchange.hpp"

#include <cassert>

namespace diffreg::interp {

using grid::GhostExchange;

FusedInterp::FusedInterp(grid::PencilDecomp& decomp, WirePrecision wire,
                         bool overlap)
    : decomp_(&decomp), stage_(wire), overlap_(overlap) {
  const int p = decomp.comm().size();
  send_counts_.assign(p, 0);
  recv_counts_.assign(p, 0);
}

void FusedInterp::interpolate_many(GhostExchange& gx,
                                   std::span<InterpPlan* const> plans,
                                   std::span<const real_t* const> fields,
                                   std::span<real_t* const> outs,
                                   Method method) {
  const int nj = static_cast<int>(plans.size());
  assert(nj >= 1);
  assert(fields.size() == plans.size() && outs.size() == plans.size());
  assert(gx.width() == kGhostWidth);
  auto& comm = decomp_->comm();
  Timings& timings = comm.timings();
  comm.set_time_kind(TimeKind::kInterpComm);
  const int p = comm.size();
  const int rank = comm.rank();
  const index_t gsize = gx.ghost_size();
  const Int3 gdims = gx.ghost_dims();

  // Per-(plan, rank) offsets into each plan's rank-major point tables and
  // the fused per-peer counts (self chunks are delivered locally: count 0).
  plan_recv_cum_.resize(static_cast<size_t>(nj) * p);
  plan_send_cum_.resize(static_cast<size_t>(nj) * p);
  eval_base_.resize(static_cast<size_t>(nj) * p);
  ret_base_.resize(static_cast<size_t>(nj) * p);
  std::fill(send_counts_.begin(), send_counts_.end(), index_t(0));
  std::fill(recv_counts_.begin(), recv_counts_.end(), index_t(0));
  for (int i = 0; i < nj; ++i) {
    const InterpPlan& plan = *plans[i];
    assert(plan.built());
    assert(plan.decomp_ == decomp_ && plan.wire() == stage_.wire() &&
           plan.overlap_ == overlap_);
    index_t rcum = 0, scum = 0;
    for (int r = 0; r < p; ++r) {
      plan_recv_cum_[static_cast<size_t>(i) * p + r] = rcum;
      plan_send_cum_[static_cast<size_t>(i) * p + r] = scum;
      rcum += plan.recv_counts_[r];
      scum += plan.send_counts_[r];
      if (r != rank) {
        send_counts_[r] += plan.recv_counts_[r];
        recv_counts_[r] += plan.send_counts_[r];
      }
    }
  }
  // Fused buffer layout: rank-major (the alltoallv chunk order), plan-minor
  // within each rank's chunk.
  index_t send_total = 0, recv_total = 0;
  for (int r = 0; r < p; ++r) {
    index_t eoff = send_total, roff = recv_total;
    for (int i = 0; i < nj; ++i) {
      eval_base_[static_cast<size_t>(i) * p + r] = eoff;
      ret_base_[static_cast<size_t>(i) * p + r] = roff;
      if (r != rank) {
        eoff += plans[i]->recv_counts_[r];
        roff += plans[i]->send_counts_[r];
      }
    }
    send_total += send_counts_[r];
    recv_total += recv_counts_[r];
  }

  if (ghosted_.size() < static_cast<size_t>(nj) * gsize)
    ghosted_.resize(static_cast<size_t>(nj) * gsize);
  if (send_vals_.size() < static_cast<size_t>(send_total))
    send_vals_.resize(send_total);
  if (recv_vals_.size() < static_cast<size_t>(recv_total))
    recv_vals_.resize(recv_total);
  stage_.reserve(send_vals_.size(), recv_vals_.size());

  // One halo exchange for ALL jobs: each job's field gets its own ghosted
  // block, but they share the four neighbour messages.
  gx.exchange_many(fields, std::span<real_t>(ghosted_.data(),
                                             static_cast<size_t>(nj) * gsize));

  // Evaluates plan i's rank-r point chunk: self chunks land straight in the
  // caller's outputs (exactly like the per-plan path — self traffic is
  // never wire traffic), peer chunks in the fused send buffer. Each point
  // reads only its own plan's stencil and its own job's ghosted block, so
  // the fused grouping cannot change any value.
  const auto eval_chunk = [&](int i, int r) {
    const InterpPlan& plan = *plans[i];
    const real_t* ghosted = ghosted_.data() + static_cast<size_t>(i) * gsize;
    const index_t j0 = plan_recv_cum_[static_cast<size_t>(i) * p + r];
    const index_t cnt = plan.recv_counts_[r];
    const bool self = r == rank;
    const index_t s0 = plan_send_cum_[static_cast<size_t>(i) * p + r];
    real_t* dst = send_vals_.data() + eval_base_[static_cast<size_t>(i) * p + r];
    for (index_t k = 0; k < cnt; ++k) {
      const index_t j = j0 + k;
      real_t val;
      if (method == Method::kTricubic) {
        val = cubic_stencil_apply(ghosted, gdims, plan.stencils_[j]);
      } else {
        val = trilinear_eval(ghosted, gdims, plan.recv_coords_[3 * j],
                             plan.recv_coords_[3 * j + 1],
                             plan.recv_coords_[3 * j + 2]);
      }
      if (self)
        outs[i][plan.send_index_[s0 + k]] = val;
      else
        dst[k] = val;
    }
  };

  const std::span<const real_t> val_send(send_vals_.data(), send_total);
  const std::span<real_t> val_recv(recv_vals_.data(), recv_total);
  if (overlap_) {
    // Peer chunks of every job first (they are all the exchange ships),
    // then every job's SELF majority under the fused flight.
    {
      ScopedTimer t(timings, TimeKind::kInterpExec);
      for (int i = 0; i < nj; ++i)
        for (int r = 0; r < p; ++r)
          if (r != rank) eval_chunk(i, r);
    }
    mpisim::CommRequest req = comm.ialltoallv(
        val_send, std::span<const index_t>(send_counts_), val_recv,
        std::span<const index_t>(recv_counts_), stage_, kTagFusedValues);
    {
      ScopedTimer t(timings, TimeKind::kInterpExec);
      for (int i = 0; i < nj; ++i) eval_chunk(i, rank);
    }
    req.wait();
  } else {
    {
      ScopedTimer t(timings, TimeKind::kInterpExec);
      for (int i = 0; i < nj; ++i)
        for (int r = 0; r < p; ++r) eval_chunk(i, r);
    }
    comm.alltoallv(val_send, std::span<const index_t>(send_counts_),
                   val_recv, std::span<const index_t>(recv_counts_), stage_,
                   kTagFusedValues);
  }

  {  // Scatter every job's returned cross-rank values into its own point
     // order (self chunks were already written by the eval sweep).
    ScopedTimer t(timings, TimeKind::kInterpExec);
    for (int i = 0; i < nj; ++i) {
      const InterpPlan& plan = *plans[i];
      for (int r = 0; r < p; ++r) {
        if (r == rank) continue;
        const index_t s0 = plan_send_cum_[static_cast<size_t>(i) * p + r];
        const real_t* src =
            recv_vals_.data() + ret_base_[static_cast<size_t>(i) * p + r];
        const index_t cnt = plan.send_counts_[r];
        for (index_t k = 0; k < cnt; ++k)
          outs[i][plan.send_index_[s0 + k]] = src[k];
      }
    }
  }
  ++fused_calls_;
}

}  // namespace diffreg::interp
