#include "grid/ghost_exchange.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace diffreg::grid {

GhostExchange::GhostExchange(PencilDecomp& decomp, index_t width,
                             TimeKind comm_kind, WirePrecision wire,
                             bool overlap)
    : decomp_(&decomp),
      width_(width),
      ldims_(decomp.local_real_dims()),
      comm_kind_(comm_kind),
      stage_(wire),
      overlap_(overlap) {
  // Single-neighbour halos: every rank's block must be at least as wide as
  // the halo, on every rank (uneven blocks differ by one).
  const index_t min1 = decomp.dims()[0] / decomp.p1();
  const index_t min2 = decomp.dims()[1] / decomp.p2();
  if (width_ > min1 || width_ > min2 || width_ > decomp.dims()[2])
    throw std::invalid_argument(
        "GhostExchange: halo width exceeds smallest local block");
  gdims_ = {ldims_[0] + 2 * width_, ldims_[1] + 2 * width_,
            ldims_[2] + 2 * width_};
}

void GhostExchange::ensure_slab_capacity(int nfields) {
  const index_t slab1 = width_ * ldims_[1] * gdims_[2];
  const index_t slab2 = gdims_[0] * width_ * gdims_[2];
  const size_t need =
      static_cast<size_t>(std::max(slab1, slab2)) * nfields;
  if (pack_buf_.size() < need) pack_buf_.resize(need);
  if (recv_buf_.size() < need) recv_buf_.resize(need);
  stage_.reserve(need, need);
}

void GhostExchange::exchange(std::span<const real_t> local,
                             std::vector<real_t>& ghosted) {
  assert(static_cast<index_t>(local.size()) == ldims_.prod());
  if (ghosted.size() != static_cast<size_t>(ghost_size()))
    ghosted.resize(ghost_size());
  const real_t* locals[1] = {local.data()};
  exchange_many(std::span<const real_t* const>(locals, 1), ghosted);
}

void GhostExchange::exchange_many(std::span<const real_t* const> locals,
                                  std::span<real_t> ghosted) {
  const int m = static_cast<int>(locals.size());
  assert(static_cast<index_t>(ghosted.size()) == m * ghost_size());
  ensure_slab_capacity(m);
  const index_t w = width_;
  const index_t n3 = ldims_[2];
  const index_t gsize = ghost_size();

  // Interior copy + local periodic wrap along dim 3, one block per field.
  for (int f = 0; f < m; ++f) {
    const real_t* local = locals[f];
    real_t* gblock = ghosted.data() + f * gsize;
    for (index_t i1 = 0; i1 < ldims_[0]; ++i1) {
      for (index_t i2 = 0; i2 < ldims_[1]; ++i2) {
        const real_t* src = local + (i1 * ldims_[1] + i2) * n3;
        real_t* dst = gblock + linear_index(i1 + w, i2 + w, 0, gdims_);
        for (index_t i3 = 0; i3 < n3; ++i3) dst[w + i3] = src[i3];
        for (index_t i3 = 0; i3 < w; ++i3) {
          dst[i3] = src[n3 - w + i3];          // low halo <- high interior
          dst[w + n3 + i3] = src[i3];          // high halo <- low interior
        }
      }
    }
  }

  // Dimension 1 first, over the interior of dim 2; then dimension 2 over
  // the FULL ghosted dim 1, so the corners come along (two-phase trick).
  const int r1 = decomp_->r1(), r2 = decomp_->r2();
  const int p1 = decomp_->p1(), p2 = decomp_->p2();
  exchange_dim(1, w, ldims_[1], decomp_->rank_of((r1 - 1 + p1) % p1, r2),
               decomp_->rank_of((r1 + 1) % p1, r2), ghosted, m);
  exchange_dim(2, 0, gdims_[0], decomp_->rank_of(r1, (r2 - 1 + p2) % p2),
               decomp_->rank_of(r1, (r2 + 1) % p2), ghosted, m);
}

void GhostExchange::exchange_dim(int dim, index_t cross_begin,
                                 index_t cross_extent, int lo_nbr, int hi_nbr,
                                 std::span<real_t> ghosted, int nfields) {
  const index_t w = width_;
  const index_t n = ldims_[dim - 1];
  const index_t gsize = ghost_size();
  // Visits the dim-3 rows of the slab whose `dim` index starts at `begin`,
  // every field of the batch back to back (the message layout).
  const auto for_rows = [&](index_t begin, auto&& row) {
    const index_t b1 = dim == 1 ? begin : cross_begin;
    const index_t e1 = b1 + (dim == 1 ? w : cross_extent);
    const index_t b2 = dim == 1 ? cross_begin : begin;
    const index_t e2 = b2 + (dim == 1 ? cross_extent : w);
    for (int f = 0; f < nfields; ++f) {
      real_t* gblock = ghosted.data() + f * gsize;
      for (index_t i1 = b1; i1 < e1; ++i1)
        for (index_t i2 = b2; i2 < e2; ++i2)
          row(gblock + linear_index(i1, i2, 0, gdims_));
    }
  };
  const auto pack = [&](std::span<real_t> buf, index_t begin) {
    index_t pos = 0;
    for_rows(begin, [&](const real_t* src) {
      for (index_t i3 = 0; i3 < gdims_[2]; ++i3) buf[pos++] = src[i3];
    });
  };
  const auto unpack = [&](std::span<const real_t> buf, index_t begin) {
    index_t pos = 0;
    for_rows(begin, [&](real_t* dst) {
      for (index_t i3 = 0; i3 < gdims_[2]; ++i3) dst[i3] = buf[pos++];
    });
  };

  const index_t msg = w * cross_extent * gdims_[2] * nfields;
  const std::span<real_t> send_buf(pack_buf_.data(), msg);
  const std::span<real_t> halo_buf(recv_buf_.data(), msg);
  if ((dim == 1 ? decomp_->p1() : decomp_->p2()) == 1) {
    pack(send_buf, n);       // low halo <- own high interior
    unpack(send_buf, 0);
    pack(send_buf, w);       // high halo <- own low interior
    unpack(send_buf, w + n);
    return;
  }
  auto& comm = decomp_->comm();
  comm.set_time_kind(comm_kind_);
  // The halo exchange is point-to-point (the verifier cannot observe it
  // through a collective), but every rank of the pencil grid enters it in
  // lockstep — so mark the phase in the schedule hash, labelled by the
  // distributed dimension. A rank skipping a halo pass is then caught at
  // the next checkpoint instead of corrupting an unrelated exchange.
  comm.verify_mark(dim);
  // My high interior goes to hi_nbr's low halo (travels "high", kTagHigh);
  // I receive my low halo from lo_nbr.
  pack(send_buf, n);
  comm.send(send_buf, stage_, hi_nbr, kTagHigh);
  if (overlap_) {
    // Pack + send the low-travelling slab while the first halo is in
    // flight. The buffered send copied pack_buf_ at post, so repacking it
    // is safe, and sends are legal while a receive is pending.
    auto req = comm.irecv_into(halo_buf, stage_, lo_nbr, kTagHigh);
    pack(send_buf, w);
    comm.send(send_buf, stage_, lo_nbr, kTagLow);
    req.wait();
    unpack(halo_buf, 0);
  } else {
    comm.recv_into(halo_buf, stage_, lo_nbr, kTagHigh);
    unpack(halo_buf, 0);
    pack(send_buf, w);
    comm.send(send_buf, stage_, lo_nbr, kTagLow);
  }
  comm.recv_into(halo_buf, stage_, hi_nbr, kTagLow);
  unpack(halo_buf, w + n);
}

}  // namespace diffreg::grid
