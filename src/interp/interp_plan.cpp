#include "interp/interp_plan.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace diffreg::interp {

using grid::GhostExchange;
using grid::PencilDecomp;

InterpPlan::InterpPlan(PencilDecomp& decomp, WirePrecision wire, bool overlap)
    : decomp_(&decomp), stage_(wire), overlap_(overlap) {
  const int p = decomp.comm().size();
  send_counts_.assign(p, 0);
  recv_counts_.assign(p, 0);
  cursor_.assign(p, 0);
  val_send_counts_.assign(p, 0);
  val_recv_counts_.assign(p, 0);
}

InterpPlan::InterpPlan(PencilDecomp& decomp, std::span<const Vec3> points,
                       WirePrecision wire, bool overlap)
    : InterpPlan(decomp, wire, overlap) {
  build(points);
}

void InterpPlan::build(std::span<const Vec3> points) {
  auto& comm = decomp_->comm();
  Timings& timings = comm.timings();
  comm.set_time_kind(TimeKind::kInterpComm);
  const Int3 dims = decomp_->dims();
  const int p = comm.size();
  num_points_ = static_cast<index_t>(points.size());

  // Classify every point by the pencil that owns it (pass 1: counts), then
  // pack its grid-unit coordinates dest-ordered (pass 2). Two passes over
  // the points replace the old per-rank vector<vector> staging, so the
  // buffers below are flat and reused across rebuilds.
  {
    ScopedTimer t(timings, TimeKind::kInterpExec);
    const real_t h1 = kTwoPi / static_cast<real_t>(dims[0]);
    const real_t h2 = kTwoPi / static_cast<real_t>(dims[1]);
    const real_t h3 = kTwoPi / static_cast<real_t>(dims[2]);
    if (owner_.size() < static_cast<size_t>(num_points_)) {
      owner_.resize(num_points_);
      wrapped_.resize(3 * num_points_);
      send_index_.resize(num_points_);
      send_coords_.resize(3 * num_points_);
    }
    std::fill(send_counts_.begin(), send_counts_.end(), index_t(0));
    for (index_t i = 0; i < num_points_; ++i) {
      const real_t u1 = periodic_grid_units(points[i][0], h1, dims[0]);
      const real_t u2 = periodic_grid_units(points[i][1], h2, dims[1]);
      const real_t u3 = periodic_grid_units(points[i][2], h3, dims[2]);
      const index_t f1 = periodic_index(static_cast<index_t>(u1), dims[0]);
      const index_t f2 = periodic_index(static_cast<index_t>(u2), dims[1]);
      const int owner = decomp_->owner_of(f1, f2);
      owner_[i] = owner;
      wrapped_[3 * i] = u1;
      wrapped_[3 * i + 1] = u2;
      wrapped_[3 * i + 2] = u3;
      ++send_counts_[owner];
    }
    cursor_[0] = 0;
    for (int r = 1; r < p; ++r)
      cursor_[r] = cursor_[r - 1] + send_counts_[r - 1];
    for (index_t i = 0; i < num_points_; ++i) {
      const index_t slot = cursor_[owner_[i]]++;
      send_index_[slot] = i;
      send_coords_[3 * slot] = wrapped_[3 * i];
      send_coords_[3 * slot + 1] = wrapped_[3 * i + 1];
      send_coords_[3 * slot + 2] = wrapped_[3 * i + 2];
    }
  }

  // Learn how many points each rank sends me (one fixed-count alltoall),
  // then exchange the coordinates themselves (one alltoallv). The count
  // tables double as the per-peer tables of every later value exchange.
  comm.alltoall(std::span<const index_t>(send_counts_),
                std::span<index_t>(recv_counts_), kTagCounts);
  recv_total_ = 0;
  for (int r = 0; r < p; ++r) recv_total_ += recv_counts_[r];
  for (int r = 0; r < p; ++r) {
    val_send_counts_[r] = 3 * send_counts_[r];
    val_recv_counts_[r] = 3 * recv_counts_[r];
  }
  if (recv_coords_.size() < static_cast<size_t>(3 * recv_total_))
    recv_coords_.resize(3 * recv_total_);
  comm.alltoallv(
      std::span<const real_t>(send_coords_.data(), 3 * num_points_),
      std::span<const index_t>(val_send_counts_),
      std::span<real_t>(recv_coords_.data(), 3 * recv_total_),
      std::span<const index_t>(val_recv_counts_), kTagCoords);

  // Convert the received global grid-unit coordinates into ghosted-block
  // units and precompute the tricubic stencils (base offset + separable
  // weights) once, so the interpolate sweep does no coordinate arithmetic
  // at all — the paper's "interpolation coefficients computed once per
  // Newton iteration".
  {
    ScopedTimer t(timings, TimeKind::kInterpExec);
    const real_t off1 =
        static_cast<real_t>(kGhostWidth - decomp_->range1().begin);
    const real_t off2 =
        static_cast<real_t>(kGhostWidth - decomp_->range2().begin);
    const real_t off3 = static_cast<real_t>(kGhostWidth);
    const Int3 ld = decomp_->local_real_dims();
    const Int3 gdims{ld[0] + 2 * kGhostWidth, ld[1] + 2 * kGhostWidth,
                     ld[2] + 2 * kGhostWidth};
    // A coordinate owned here lies in [begin, begin + nloc) — but adding
    // the integer ghost offset rounds, and a point just below the upper
    // boundary can land on exactly nloc + kGhostWidth, whose stencil reads
    // one cell past the ghosted block. The true value is strictly below
    // the bound, so clamping to the previous representable double is
    // faithful.
    const real_t hi1 = std::nextafter(
        static_cast<real_t>(ld[0] + kGhostWidth), real_t(0));
    const real_t hi2 = std::nextafter(
        static_cast<real_t>(ld[1] + kGhostWidth), real_t(0));
    const real_t hi3 = std::nextafter(
        static_cast<real_t>(ld[2] + kGhostWidth), real_t(0));
    if (stencils_.size() < static_cast<size_t>(recv_total_))
      stencils_.resize(recv_total_);
    for (index_t j = 0; j < recv_total_; ++j) {
      recv_coords_[3 * j] = std::min(recv_coords_[3 * j] + off1, hi1);
      recv_coords_[3 * j + 1] = std::min(recv_coords_[3 * j + 1] + off2, hi2);
      recv_coords_[3 * j + 2] = std::min(recv_coords_[3 * j + 2] + off3, hi3);
      make_cubic_stencil(gdims, recv_coords_[3 * j], recv_coords_[3 * j + 1],
                         recv_coords_[3 * j + 2], stencils_[j]);
      // The whole 4^3 neighbourhood must lie inside the ghosted block: a
      // point routed here with a coordinate outside [0, n) would both read
      // out of bounds and mean the ownership classification disagreed.
      assert(stencils_[j].base >= 0 &&
             stencils_[j].base + 3 * (gdims[1] * gdims[2] + gdims[2] + 1) <
                 gdims.prod());
    }
  }

  // Pre-size the value buffers for the common vector-field batch so the
  // first interpolate of a fresh velocity allocates nothing.
  constexpr int kPresizeBatch = 3;
  if (eval_vals_.size() < static_cast<size_t>(kPresizeBatch * recv_total_))
    eval_vals_.resize(kPresizeBatch * recv_total_);
  if (ret_vals_.size() < static_cast<size_t>(kPresizeBatch * num_points_))
    ret_vals_.resize(kPresizeBatch * num_points_);
  stage_.reserve(eval_vals_.size(), ret_vals_.size());

  built_ = true;
  ++builds_;
}

void InterpPlan::interpolate(GhostExchange& gx, std::span<const real_t> field,
                             std::span<real_t> out, Method method) {
  assert(static_cast<index_t>(out.size()) == num_points_);
  const real_t* fields[1] = {field.data()};
  real_t* outs[1] = {out.data()};
  interpolate_many(gx, std::span<const real_t* const>(fields, 1),
                   std::span<real_t* const>(outs, 1), method);
}

void InterpPlan::interpolate_many(GhostExchange& gx,
                                  std::span<const real_t* const> fields,
                                  std::span<real_t* const> outs,
                                  Method method) {
  assert(built_);
  assert(fields.size() == outs.size());
  // The planned coordinates and stencil offsets are expressed in blocks
  // ghosted by exactly kGhostWidth.
  assert(gx.width() == kGhostWidth);
  const int m = static_cast<int>(fields.size());
  auto& comm = decomp_->comm();
  Timings& timings = comm.timings();
  comm.set_time_kind(TimeKind::kInterpComm);
  const int p = comm.size();
  const index_t gsize = gx.ghost_size();

  if (ghosted_.size() < static_cast<size_t>(m) * gsize)
    ghosted_.resize(static_cast<size_t>(m) * gsize);
  if (eval_vals_.size() < static_cast<size_t>(m) * recv_total_)
    eval_vals_.resize(static_cast<size_t>(m) * recv_total_);
  if (ret_vals_.size() < static_cast<size_t>(m) * num_points_)
    ret_vals_.resize(static_cast<size_t>(m) * num_points_);
  stage_.reserve(eval_vals_.size(), ret_vals_.size());

  // One halo exchange for the whole batch.
  gx.exchange_many(fields,
                   std::span<real_t>(ghosted_.data(),
                                     static_cast<size_t>(m) * gsize));
  const Int3 gdims = gx.ghost_dims();

  // Self chunk bounds: departure points rarely leave their own pencil
  // (semi-Lagrangian steps move points by a fraction of a cell), so the
  // bulk of the planned points are evaluated ON the rank that asked for
  // them. Those values are written straight into the caller's output —
  // they skip the eval staging, the alltoallv self copy, and the scatter
  // pass entirely — and the value exchange ships only the true cross-rank
  // points. Comm counters are unchanged: self traffic was never wire
  // traffic.
  const int rank = comm.rank();
  index_t self_recv_off = 0, self_send_off = 0;
  for (int r = 0; r < rank; ++r) {
    self_recv_off += recv_counts_[r];
    self_send_off += send_counts_[r];
  }
  const index_t self_cnt = recv_counts_[rank];

  // Per-point evaluation kernel, shared by the blocking and overlapped
  // sweeps: `self` points land straight in the caller's output, peer points
  // in the point-major eval staging. Each point reads only its precomputed
  // stencil and the ghosted blocks, so evaluation ORDER cannot change any
  // value — the overlapped reordering below is bitwise-neutral.
  const auto eval_point = [&](index_t j, bool self) {
    const index_t pos = j < self_recv_off ? j : j - self_cnt;
    const index_t orig =
        self ? send_index_[self_send_off + (j - self_recv_off)] : 0;
    if (method == Method::kTricubic) {
      const CubicStencil& st = stencils_[j];
      for (int f = 0; f < m; ++f) {
        const real_t val =
            cubic_stencil_apply(ghosted_.data() + f * gsize, gdims, st);
        if (self)
          outs[f][orig] = val;
        else
          eval_vals_[pos * m + f] = val;
      }
    } else {
      const real_t u1 = recv_coords_[3 * j];
      const real_t u2 = recv_coords_[3 * j + 1];
      const real_t u3 = recv_coords_[3 * j + 2];
      for (int f = 0; f < m; ++f) {
        const real_t val =
            trilinear_eval(ghosted_.data() + f * gsize, gdims, u1, u2, u3);
        if (self)
          outs[f][orig] = val;
        else
          eval_vals_[pos * m + f] = val;
      }
    }
  };

  // One value alltoallv for the whole batch: the counts are the plan's
  // per-peer point counts scaled by the batch size, with the self chunk
  // delivered locally by the eval sweep (count 0), at the plan's wire
  // precision.
  for (int r = 0; r < p; ++r) {
    val_send_counts_[r] = r == rank ? 0 : recv_counts_[r] * m;
    val_recv_counts_[r] = r == rank ? 0 : send_counts_[r] * m;
  }
  const std::span<const real_t> val_send(
      eval_vals_.data(), static_cast<size_t>(m) * (recv_total_ - self_cnt));
  const std::span<real_t> val_recv(
      ret_vals_.data(), static_cast<size_t>(m) * (num_points_ - self_cnt));

  if (overlap_) {
    // Peer points first: their values are all the exchange ships.
    {
      ScopedTimer t(timings, TimeKind::kInterpExec);
      for (index_t j = 0; j < self_recv_off; ++j) eval_point(j, false);
      for (index_t j = self_recv_off + self_cnt; j < recv_total_; ++j)
        eval_point(j, false);
    }
    // Post the value exchange, then evaluate the SELF-owned majority while
    // it is in flight. Same tags, payloads, and counters as the blocking
    // call — only the wait moves past the self sweep.
    mpisim::CommRequest req = comm.ialltoallv(
        val_send, std::span<const index_t>(val_send_counts_), val_recv,
        std::span<const index_t>(val_recv_counts_), stage_, kTagValues);
    {
      ScopedTimer t(timings, TimeKind::kInterpExec);
      for (index_t j = self_recv_off; j < self_recv_off + self_cnt; ++j)
        eval_point(j, true);
    }
    req.wait();
  } else {
    // Legacy schedule: evaluate everything, then one blocking exchange.
    {
      ScopedTimer t(timings, TimeKind::kInterpExec);
      for (index_t j = 0; j < recv_total_; ++j)
        eval_point(j, j >= self_recv_off && j < self_recv_off + self_cnt);
    }
    comm.alltoallv(val_send, std::span<const index_t>(val_send_counts_),
                   val_recv, std::span<const index_t>(val_recv_counts_),
                   stage_, kTagValues);
  }

  {  // Scatter the returned cross-rank values into the caller's point
     // order, skipping the self block (already written by the eval sweep).
    ScopedTimer t(timings, TimeKind::kInterpExec);
    index_t pos = 0;
    for (index_t s = 0; s < num_points_; ++s) {
      if (s >= self_send_off && s < self_send_off + self_cnt) continue;
      const index_t orig = send_index_[s];
      for (int f = 0; f < m; ++f) outs[f][orig] = ret_vals_[pos * m + f];
      ++pos;
    }
  }
}

void InterpPlan::interpolate_vec(GhostExchange& gx,
                                 const grid::VectorField& field,
                                 std::vector<Vec3>& out, Method method) {
  if (out.size() != static_cast<size_t>(num_points_)) out.resize(num_points_);
  if (comp_out_.size() < static_cast<size_t>(3 * num_points_))
    comp_out_.resize(3 * num_points_);
  const real_t* fields[3] = {field[0].data(), field[1].data(),
                             field[2].data()};
  real_t* outs[3] = {comp_out_.data(), comp_out_.data() + num_points_,
                     comp_out_.data() + 2 * num_points_};
  interpolate_many(gx, std::span<const real_t* const>(fields, 3),
                   std::span<real_t* const>(outs, 3), method);
  for (index_t i = 0; i < num_points_; ++i)
    out[i] = Vec3{comp_out_[i], comp_out_[num_points_ + i],
                  comp_out_[2 * num_points_ + i]};
}

}  // namespace diffreg::interp
