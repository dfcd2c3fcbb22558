#include "fft/fft3d_distributed.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/timer.hpp"

namespace diffreg::fft {

using grid::PencilDecomp;

namespace {

/// Cache-blocked 2D transpose: dst[j * dst_stride + i] = src[i * src_stride
/// + j] for i < rows, j < cols. Tiling keeps both the strided reads and the
/// writes inside a few cache lines per tile.
void transpose_block(const complex_t* src, index_t src_stride, complex_t* dst,
                     index_t dst_stride, index_t rows, index_t cols) {
  constexpr index_t kTile = 8;
  for (index_t j0 = 0; j0 < cols; j0 += kTile) {
    const index_t j1 = std::min(cols, j0 + kTile);
    for (index_t i0 = 0; i0 < rows; i0 += kTile) {
      const index_t i1 = std::min(rows, i0 + kTile);
      for (index_t j = j0; j < j1; ++j)
        for (index_t i = i0; i < i1; ++i)
          dst[j * dst_stride + i] = src[i * src_stride + j];
    }
  }
}

}  // namespace

DistributedFft3d::DistributedFft3d(PencilDecomp& decomp, WirePrecision wire,
                                   bool overlap)
    : decomp_(&decomp),
      stage_(wire),
      overlap_(overlap),
      fft1_(decomp.dims()[0]),
      fft2_(decomp.dims()[1]),
      fft3_(decomp.dims()[2]) {
  const Int3 rl = decomp.local_real_dims();
  const index_t n1l = rl[0], n2l = rl[1];
  const index_t n3c = decomp.n3c();
  const index_t n3cl = decomp.srange3().size();
  const index_t n2kl = decomp.srange2().size();
  const index_t n1 = decomp.dims()[0];
  const index_t n2 = decomp.dims()[1];

  a_stride_ = n1l * n2l * n3c;
  b_stride_ = n1l * n3cl * n2;
  s_stride_ = decomp.local_spectral_size();

  stage_a_.resize(kMaxBatch * a_stride_);
  stage_b_.resize(kMaxBatch * b_stride_);
  stage_e_.resize(kMaxBatch * s_stride_);
  row_.resize(std::max(decomp.dims()[2], n1));

  const index_t n3 = decomp.dims()[2];
  ablock_rows_ = std::max<index_t>(
      1, (index_t{1} << 15) / (n3 * static_cast<index_t>(sizeof(complex_t))));
  arow_block_.resize(ablock_rows_ * n3);

  const int p1 = decomp.p1(), p2 = decomp.p2();
  row_send_counts_.resize(p2);
  row_recv_counts_.resize(p2);
  for (int q = 0; q < p2; ++q) {
    row_send_counts_[q] = n1l * block_range(n3c, p2, q).size() * n2l;
    row_recv_counts_[q] = n1l * n3cl * block_range(n2, p2, q).size();
  }
  col_send_counts_.resize(p1);
  col_recv_counts_.resize(p1);
  for (int q = 0; q < p1; ++q) {
    col_send_counts_[q] = n3cl * block_range(n2, p1, q).size() * n1l;
    col_recv_counts_[q] = n3cl * n2kl * block_range(n1, p1, q).size();
  }

  const index_t max_total =
      std::max({a_stride_, b_stride_, s_stride_});
  send_buf_.resize(kMaxBatch * max_total);
  recv_buf_.resize(kMaxBatch * max_total);
  stage_.reserve(send_buf_.size(), recv_buf_.size());
  const int max_p = std::max(p1, p2);
  scaled_send_counts_.resize(max_p);
  scaled_recv_counts_.resize(max_p);
}

mpisim::CommRequest DistributedFft3d::post_exchange(
    mpisim::Communicator& comm, int npeers, int ncomp,
    const std::vector<index_t>& send_counts,
    const std::vector<index_t>& recv_counts, index_t send_total,
    index_t recv_total, int tag) {
  for (int q = 0; q < npeers; ++q) {
    scaled_send_counts_[q] = ncomp * send_counts[q];
    scaled_recv_counts_[q] = ncomp * recv_counts[q];
  }
  comm.set_time_kind(TimeKind::kFftComm);
  const std::span<const complex_t> send(
      send_buf_.data(), static_cast<size_t>(ncomp * send_total));
  const std::span<const index_t> scounts(
      scaled_send_counts_.data(), static_cast<size_t>(npeers));
  const std::span<complex_t> recv(recv_buf_.data(),
                                  static_cast<size_t>(ncomp * recv_total));
  const std::span<const index_t> rcounts(
      scaled_recv_counts_.data(), static_cast<size_t>(npeers));
  if (overlap_)
    return comm.ialltoallv(send, scounts, recv, rcounts, stage_, tag);
  comm.alltoallv(send, scounts, recv, rcounts, stage_, tag);
  return {};
}

// ---------------------------------------------------------------------------
// Stage A: real <-> Hermitian half-spectrum along axis 3, two rows per
// complex transform.

void DistributedFft3d::stage_a_forward(const real_t* real_in,
                                       complex_t* half_out) {
  const Int3 rl = decomp_->local_real_dims();
  const index_t rows = rl[0] * rl[1];
  const index_t n3 = decomp_->dims()[2];
  const index_t n3c = decomp_->n3c();

  // z = x0 + i*x1: one c2c FFT per row *pair* yields both half-spectra via
  // the split X0[k] = (Z[k] + conj(Z[n-k]))/2, X1[k] = -i*(Z[k] -
  // conj(Z[n-k]))/2. Pairs are packed into cache-sized blocks so the 1D
  // transforms run through the stage-major batch path.
  const index_t npairs = rows / 2;
  index_t pair = 0;
  while (pair < npairs) {
    const index_t g = std::min(ablock_rows_, npairs - pair);
    for (index_t t = 0; t < g; ++t) {
      const real_t* s0 = real_in + 2 * (pair + t) * n3;
      const real_t* s1 = s0 + n3;
      complex_t* z = arow_block_.data() + t * n3;
      for (index_t i3 = 0; i3 < n3; ++i3) z[i3] = complex_t(s0[i3], s1[i3]);
    }
    fft3_.forward_batch(arow_block_.data(), g);
    for (index_t t = 0; t < g; ++t) {
      const complex_t* z = arow_block_.data() + t * n3;
      complex_t* d0 = half_out + 2 * (pair + t) * n3c;
      complex_t* d1 = d0 + n3c;
      d0[0] = complex_t(z[0].real(), 0);
      d1[0] = complex_t(z[0].imag(), 0);
      for (index_t k = 1; k < n3c; ++k) {
        const complex_t zk = z[k];
        const complex_t zc = std::conj(z[n3 - k]);
        d0[k] = real_t(0.5) * (zk + zc);
        const complex_t diff = zk - zc;  // == 2i * X1[k]
        d1[k] = complex_t(real_t(0.5) * diff.imag(),
                          real_t(-0.5) * diff.real());
      }
    }
    pair += g;
  }
  const index_t row = 2 * npairs;
  if (row < rows) {  // odd row count: pad the last row to a full c2c FFT
    const real_t* src = real_in + row * n3;
    for (index_t i3 = 0; i3 < n3; ++i3) row_[i3] = complex_t(src[i3], 0);
    fft3_.forward(row_.data());
    std::copy_n(row_.data(), n3c, half_out + row * n3c);
  }
}

void DistributedFft3d::stage_a_inverse(const complex_t* half_in,
                                       real_t* real_out) {
  const Int3 rl = decomp_->local_real_dims();
  const index_t rows = rl[0] * rl[1];
  const index_t n3 = decomp_->dims()[2];
  const index_t n3c = decomp_->n3c();

  // Rebuild z = x0 + i*x1 in the spectral domain: Z[k] = S0[k] + i*S1[k]
  // on the stored half, Hermitian continuation on the mirrored half; one
  // inverse c2c FFT per row pair, blocked through the batch path. The
  // stages upstream ran unnormalized, so the scatter applies the whole
  // 1/(N1 N2 N3) in one pass.
  const real_t inv_n = real_t(1) / static_cast<real_t>(decomp_->dims().prod());
  const index_t npairs = rows / 2;
  index_t pair = 0;
  while (pair < npairs) {
    const index_t g = std::min(ablock_rows_, npairs - pair);
    for (index_t t = 0; t < g; ++t) {
      const complex_t* s0 = half_in + 2 * (pair + t) * n3c;
      const complex_t* s1 = s0 + n3c;
      complex_t* z = arow_block_.data() + t * n3;
      for (index_t k = 0; k < n3c; ++k)
        z[k] = complex_t(s0[k].real() - s1[k].imag(),
                         s0[k].imag() + s1[k].real());
      for (index_t k = n3c; k < n3; ++k) {
        const complex_t a = s0[n3 - k];
        const complex_t b = s1[n3 - k];
        // conj(a) + i*conj(b)
        z[k] = complex_t(a.real() + b.imag(), b.real() - a.imag());
      }
    }
    fft3_.inverse_batch_noscale(arow_block_.data(), g);
    for (index_t t = 0; t < g; ++t) {
      const complex_t* z = arow_block_.data() + t * n3;
      real_t* d0 = real_out + 2 * (pair + t) * n3;
      real_t* d1 = d0 + n3;
      for (index_t i3 = 0; i3 < n3; ++i3) {
        d0[i3] = z[i3].real() * inv_n;
        d1[i3] = z[i3].imag() * inv_n;
      }
    }
    pair += g;
  }
  const index_t row = 2 * npairs;
  if (row < rows) {  // odd row count: Hermitian completion, c2c inverse
    const complex_t* src = half_in + row * n3c;
    for (index_t k3 = 0; k3 < n3c; ++k3) row_[k3] = src[k3];
    for (index_t k3 = n3c; k3 < n3; ++k3) row_[k3] = std::conj(src[n3 - k3]);
    fft3_.inverse_batch_noscale(row_.data(), 1);
    real_t* dst = real_out + row * n3;
    for (index_t i3 = 0; i3 < n3; ++i3) dst[i3] = row_[i3].real() * inv_n;
  }
}

// ---------------------------------------------------------------------------
// Public transforms.

void DistributedFft3d::forward(std::span<const real_t> local_real,
                               std::span<complex_t> local_spectral) {
  const real_t* reals[1] = {local_real.data()};
  complex_t* specs[1] = {local_spectral.data()};
  assert(static_cast<index_t>(local_real.size()) == local_real_size());
  assert(static_cast<index_t>(local_spectral.size()) == local_spectral_size());
  forward_many(std::span<const real_t* const>(reals),
               std::span<complex_t* const>(specs));
}

void DistributedFft3d::inverse(std::span<const complex_t> local_spectral,
                               std::span<real_t> local_real) {
  const complex_t* specs[1] = {local_spectral.data()};
  real_t* reals[1] = {local_real.data()};
  assert(static_cast<index_t>(local_real.size()) == local_real_size());
  assert(static_cast<index_t>(local_spectral.size()) == local_spectral_size());
  inverse_many(std::span<const complex_t* const>(specs),
               std::span<real_t* const>(reals));
}

void DistributedFft3d::forward_many(std::span<const real_t* const> reals,
                                    std::span<complex_t* const> specs) {
  const int ncomp = static_cast<int>(reals.size());
  if (ncomp < 1 || ncomp > kMaxBatch ||
      specs.size() != static_cast<size_t>(ncomp))
    throw std::invalid_argument("DistributedFft3d: bad batch size");
  Timings& timings = decomp_->comm().timings();
  const Int3 rl = decomp_->local_real_dims();
  const index_t n3cl = decomp_->srange3().size();
  const index_t n2kl = decomp_->srange2().size();

  {  // Stage A: r2c along axis 3.
    ScopedTimer t(timings, TimeKind::kFftExec);
    for (int c = 0; c < ncomp; ++c)
      stage_a_forward(reals[c], stage_a_.data() + c * a_stride_);
  }

  row_transpose_forward(ncomp);  // stage_a_ -> stage_b_

  {  // Stage C: c2c along axis 2 — components are contiguous in stage_b_,
     // so one batch call covers all of them.
    ScopedTimer t(timings, TimeKind::kFftExec);
    fft2_.forward_batch(stage_b_.data(), ncomp * rl[0] * n3cl);
  }

  col_transpose_forward(ncomp, specs);  // stage_b_ -> specs

  {  // Stage E: c2c along axis 1 (contiguous rows of the spectral layout).
    ScopedTimer t(timings, TimeKind::kFftExec);
    for (int c = 0; c < ncomp; ++c)
      fft1_.forward_batch(specs[c], n3cl * n2kl);
  }
}

void DistributedFft3d::inverse_many(std::span<const complex_t* const> specs,
                                    std::span<real_t* const> reals) {
  const int ncomp = static_cast<int>(specs.size());
  if (ncomp < 1 || ncomp > kMaxBatch ||
      reals.size() != static_cast<size_t>(ncomp))
    throw std::invalid_argument("DistributedFft3d: bad batch size");
  Timings& timings = decomp_->comm().timings();
  const Int3 rl = decomp_->local_real_dims();
  const index_t n3cl = decomp_->srange3().size();
  const index_t n2kl = decomp_->srange2().size();

  {  // Stage E inverse, out-of-place into stage_e_ (the caller's spectrum
     // stays const; no copy pass — the 1D plan's input permutation,
     // bit-reversal or mixed-radix digit reversal, gathers from it).
     // Unnormalized: the whole 1/(N1 N2 N3) is folded into stage A's
     // scatter, saving two full scaling sweeps.
    ScopedTimer t(timings, TimeKind::kFftExec);
    for (int c = 0; c < ncomp; ++c)
      fft1_.inverse_batch_noscale(specs[c], stage_e_.data() + c * s_stride_,
                                  n3cl * n2kl);
  }

  col_transpose_inverse(ncomp);  // stage_e_ -> stage_b_

  {  // Stage C inverse (unnormalized, see stage E).
    ScopedTimer t(timings, TimeKind::kFftExec);
    fft2_.inverse_batch_noscale(stage_b_.data(), ncomp * rl[0] * n3cl);
  }

  row_transpose_inverse(ncomp);  // stage_b_ -> stage_a_

  {  // Stage A inverse: c2r along axis 3.
    ScopedTimer t(timings, TimeKind::kFftExec);
    for (int c = 0; c < ncomp; ++c)
      stage_a_inverse(stage_a_.data() + c * a_stride_, reals[c]);
  }
}

// ---------------------------------------------------------------------------
// Transposes. Pack/unpack loops write the flat send/recv buffers in peer
// order, each peer chunk holding the components back to back.

void DistributedFft3d::row_transpose_forward(int ncomp) {
  auto& row_comm = decomp_->row_comm();
  Timings& timings = row_comm.timings();
  const int p2 = decomp_->p2();
  const Int3 rl = decomp_->local_real_dims();
  const index_t n1l = rl[0], n2l = rl[1];
  const index_t n3c = decomp_->n3c();
  const index_t n2 = decomp_->dims()[1];
  const index_t n3cl = decomp_->srange3().size();

  if (p2 == 1) {
    // Degenerate pencil dimension: the exchange is the identity, so
    // transpose stage_a_ -> stage_b_ directly instead of round-tripping
    // through the send/recv buffers. Still counted as an exchange entered,
    // keeping the comm counters comparable across process grids.
    ScopedTimer t(timings, TimeKind::kFftExec);
    timings.add_exchange(TimeKind::kFftComm);
    for (int c = 0; c < ncomp; ++c) {
      const complex_t* a = stage_a_.data() + c * a_stride_;
      complex_t* b = stage_b_.data() + c * b_stride_;
      for (index_t i1 = 0; i1 < n1l; ++i1)
        transpose_block(a + i1 * n2 * n3c, n3c, b + i1 * n3c * n2, n2,
                        /*rows=*/n2, /*cols=*/n3c);
    }
    return;
  }

  {
    ScopedTimer t(timings, TimeKind::kFftExec);
    index_t pos = 0;
    for (int q = 0; q < p2; ++q) {
      const BlockRange k3r = block_range(n3c, p2, q);
      for (int c = 0; c < ncomp; ++c) {
        const complex_t* a = stage_a_.data() + c * a_stride_;
        for (index_t i1 = 0; i1 < n1l; ++i1)
          for (index_t k3 = k3r.begin; k3 < k3r.end; ++k3)
            for (index_t i2 = 0; i2 < n2l; ++i2)
              send_buf_[pos++] = a[(i1 * n2l + i2) * n3c + k3];
      }
    }
  }
  // Unpack the peer chunks selected by `want_self` (chunk offsets are
  // q-major prefix sums, so self and peers can be unpacked in any order).
  const int self_q = row_comm.rank();
  const auto unpack = [&](bool want_self) {
    ScopedTimer t(timings, TimeKind::kFftExec);
    index_t base = 0;
    for (int q = 0; q < p2; ++q) {
      const BlockRange i2r = block_range(n2, p2, q);
      if ((q == self_q) == want_self) {
        index_t pos = base;
        for (int c = 0; c < ncomp; ++c) {
          complex_t* b = stage_b_.data() + c * b_stride_;
          for (index_t i1 = 0; i1 < n1l; ++i1)
            for (index_t k3 = 0; k3 < n3cl; ++k3)
              for (index_t i2 = i2r.begin; i2 < i2r.end; ++i2)
                b[(i1 * n3cl + k3) * n2 + i2] = recv_buf_[pos++];
        }
      }
      base += ncomp * row_recv_counts_[q];
    }
  };
  // The self chunk lands locally at post time, so an overlap plan unpacks
  // it under the flight.
  auto req = post_exchange(row_comm, p2, ncomp, row_send_counts_,
                           row_recv_counts_, a_stride_, b_stride_, kTagRowFwd);
  unpack(/*want_self=*/true);
  req.wait();
  unpack(/*want_self=*/false);
}

void DistributedFft3d::row_transpose_inverse(int ncomp) {
  auto& row_comm = decomp_->row_comm();
  Timings& timings = row_comm.timings();
  const int p2 = decomp_->p2();
  const Int3 rl = decomp_->local_real_dims();
  const index_t n1l = rl[0], n2l = rl[1];
  const index_t n3c = decomp_->n3c();
  const index_t n2 = decomp_->dims()[1];
  const index_t n3cl = decomp_->srange3().size();

  if (p2 == 1) {
    ScopedTimer t(timings, TimeKind::kFftExec);
    timings.add_exchange(TimeKind::kFftComm);
    for (int c = 0; c < ncomp; ++c) {
      const complex_t* b = stage_b_.data() + c * b_stride_;
      complex_t* a = stage_a_.data() + c * a_stride_;
      for (index_t i1 = 0; i1 < n1l; ++i1)
        transpose_block(b + i1 * n3c * n2, n2, a + i1 * n2 * n3c, n3c,
                        /*rows=*/n3c, /*cols=*/n2);
    }
    return;
  }

  {
    ScopedTimer t(timings, TimeKind::kFftExec);
    index_t pos = 0;
    for (int q = 0; q < p2; ++q) {
      const BlockRange i2r = block_range(n2, p2, q);
      for (int c = 0; c < ncomp; ++c) {
        const complex_t* b = stage_b_.data() + c * b_stride_;
        for (index_t i1 = 0; i1 < n1l; ++i1)
          for (index_t k3 = 0; k3 < n3cl; ++k3)
            for (index_t i2 = i2r.begin; i2 < i2r.end; ++i2)
              send_buf_[pos++] = b[(i1 * n3cl + k3) * n2 + i2];
      }
    }
  }
  const int self_q = row_comm.rank();
  const auto unpack = [&](bool want_self) {
    ScopedTimer t(timings, TimeKind::kFftExec);
    index_t base = 0;
    for (int q = 0; q < p2; ++q) {
      const BlockRange k3r = block_range(n3c, p2, q);
      if ((q == self_q) == want_self) {
        index_t pos = base;
        for (int c = 0; c < ncomp; ++c) {
          complex_t* a = stage_a_.data() + c * a_stride_;
          for (index_t i1 = 0; i1 < n1l; ++i1)
            for (index_t k3 = k3r.begin; k3 < k3r.end; ++k3)
              for (index_t i2 = 0; i2 < n2l; ++i2)
                a[(i1 * n2l + i2) * n3c + k3] = recv_buf_[pos++];
        }
      }
      base += ncomp * row_send_counts_[q];
    }
  };
  auto req = post_exchange(row_comm, p2, ncomp, row_recv_counts_,
                           row_send_counts_, b_stride_, a_stride_, kTagRowInv);
  unpack(/*want_self=*/true);
  req.wait();
  unpack(/*want_self=*/false);
}

void DistributedFft3d::col_transpose_forward(
    int ncomp, std::span<complex_t* const> specs) {
  auto& col_comm = decomp_->col_comm();
  Timings& timings = col_comm.timings();
  const int p1 = decomp_->p1();
  const index_t n1l = decomp_->range1().size();
  const index_t n3cl = decomp_->srange3().size();
  const index_t n1 = decomp_->dims()[0];
  const index_t n2 = decomp_->dims()[1];
  const index_t n2kl = decomp_->srange2().size();

  if (p1 == 1) {
    ScopedTimer t(timings, TimeKind::kFftExec);
    timings.add_exchange(TimeKind::kFftComm);
    for (int c = 0; c < ncomp; ++c) {
      const complex_t* b = stage_b_.data() + c * b_stride_;
      complex_t* s = specs[c];
      for (index_t k3 = 0; k3 < n3cl; ++k3)
        transpose_block(b + k3 * n2, n3cl * n2, s + k3 * n2 * n1, n1,
                        /*rows=*/n1, /*cols=*/n2);
    }
    return;
  }

  {
    ScopedTimer t(timings, TimeKind::kFftExec);
    index_t pos = 0;
    for (int q = 0; q < p1; ++q) {
      const BlockRange k2r = block_range(n2, p1, q);
      for (int c = 0; c < ncomp; ++c) {
        const complex_t* b = stage_b_.data() + c * b_stride_;
        for (index_t k3 = 0; k3 < n3cl; ++k3)
          for (index_t k2 = k2r.begin; k2 < k2r.end; ++k2)
            for (index_t i1 = 0; i1 < n1l; ++i1)
              send_buf_[pos++] = b[(i1 * n3cl + k3) * n2 + k2];
      }
    }
  }
  const int self_q = col_comm.rank();
  const auto unpack = [&](bool want_self) {
    ScopedTimer t(timings, TimeKind::kFftExec);
    index_t base = 0;
    for (int q = 0; q < p1; ++q) {
      const BlockRange i1r = block_range(n1, p1, q);
      if ((q == self_q) == want_self) {
        index_t pos = base;
        for (int c = 0; c < ncomp; ++c) {
          complex_t* s = specs[c];
          for (index_t k3 = 0; k3 < n3cl; ++k3)
            for (index_t k2 = 0; k2 < n2kl; ++k2)
              for (index_t i1 = i1r.begin; i1 < i1r.end; ++i1)
                s[(k3 * n2kl + k2) * n1 + i1] = recv_buf_[pos++];
        }
      }
      base += ncomp * col_recv_counts_[q];
    }
  };
  auto req = post_exchange(col_comm, p1, ncomp, col_send_counts_,
                           col_recv_counts_, b_stride_, s_stride_, kTagColFwd);
  unpack(/*want_self=*/true);
  req.wait();
  unpack(/*want_self=*/false);
}

void DistributedFft3d::col_transpose_inverse(int ncomp) {
  auto& col_comm = decomp_->col_comm();
  Timings& timings = col_comm.timings();
  const int p1 = decomp_->p1();
  const index_t n1l = decomp_->range1().size();
  const index_t n3cl = decomp_->srange3().size();
  const index_t n1 = decomp_->dims()[0];
  const index_t n2 = decomp_->dims()[1];
  const index_t n2kl = decomp_->srange2().size();

  if (p1 == 1) {
    ScopedTimer t(timings, TimeKind::kFftExec);
    timings.add_exchange(TimeKind::kFftComm);
    for (int c = 0; c < ncomp; ++c) {
      const complex_t* s = stage_e_.data() + c * s_stride_;
      complex_t* b = stage_b_.data() + c * b_stride_;
      for (index_t k3 = 0; k3 < n3cl; ++k3)
        transpose_block(s + k3 * n2 * n1, n1, b + k3 * n2, n3cl * n2,
                        /*rows=*/n2, /*cols=*/n1);
    }
    return;
  }

  {
    ScopedTimer t(timings, TimeKind::kFftExec);
    index_t pos = 0;
    for (int q = 0; q < p1; ++q) {
      const BlockRange i1r = block_range(n1, p1, q);
      for (int c = 0; c < ncomp; ++c) {
        const complex_t* s = stage_e_.data() + c * s_stride_;
        for (index_t k3 = 0; k3 < n3cl; ++k3)
          for (index_t k2 = 0; k2 < n2kl; ++k2)
            for (index_t i1 = i1r.begin; i1 < i1r.end; ++i1)
              send_buf_[pos++] = s[(k3 * n2kl + k2) * n1 + i1];
      }
    }
  }
  const int self_q = col_comm.rank();
  const auto unpack = [&](bool want_self) {
    ScopedTimer t(timings, TimeKind::kFftExec);
    index_t base = 0;
    for (int q = 0; q < p1; ++q) {
      const BlockRange k2r = block_range(n2, p1, q);
      if ((q == self_q) == want_self) {
        index_t pos = base;
        for (int c = 0; c < ncomp; ++c) {
          complex_t* b = stage_b_.data() + c * b_stride_;
          for (index_t k3 = 0; k3 < n3cl; ++k3)
            for (index_t k2 = k2r.begin; k2 < k2r.end; ++k2)
              for (index_t i1 = 0; i1 < n1l; ++i1)
                b[(i1 * n3cl + k3) * n2 + k2] = recv_buf_[pos++];
        }
      }
      base += ncomp * col_send_counts_[q];
    }
  };
  auto req = post_exchange(col_comm, p1, ncomp, col_recv_counts_,
                           col_send_counts_, s_stride_, b_stride_, kTagColInv);
  unpack(/*want_self=*/true);
  req.wait();
  unpack(/*want_self=*/false);
}

}  // namespace diffreg::fft
