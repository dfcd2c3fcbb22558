#include "spectral/resample.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/timer.hpp"
#include "fft/fft3d_serial.hpp"

namespace diffreg::spectral {

using fft::fft_frequency;
using grid::PencilDecomp;
using grid::ScalarField;
using grid::VectorField;

namespace {

/// Surviving (dst index, src index) pairs of one axis: FFT-ordered dst
/// indices whose signed frequency is strictly below the Nyquist limit of
/// BOTH grids, paired with the src index of the same frequency.
std::vector<std::pair<index_t, index_t>> axis_pairs(index_t nd, index_t ns) {
  std::vector<std::pair<index_t, index_t>> pairs;
  for (index_t i = 0; i < nd; ++i) {
    const index_t f = fft_frequency(i, nd);
    if (2 * std::abs(f) < nd && 2 * std::abs(f) < ns)
      pairs.emplace_back(i, periodic_index(f, ns));
  }
  return pairs;
}

/// Half-spectrum axis 3: k3 >= 0, so dst and src indices coincide.
std::vector<std::pair<index_t, index_t>> axis3_pairs(index_t nd, index_t ns) {
  std::vector<std::pair<index_t, index_t>> pairs;
  for (index_t k = 0; k < nd / 2 + 1; ++k)
    if (2 * k < nd && 2 * k < ns) pairs.emplace_back(k, k);
  return pairs;
}

}  // namespace

ResamplePlan::ResamplePlan(PencilDecomp& src, PencilDecomp& dst,
                           WirePrecision wire)
    : src_(&src),
      dst_(&dst),
      stage_(wire),
      fft_src_(src, wire),
      fft_dst_(dst, wire),
      scale_(static_cast<real_t>(dst.dims().prod()) /
             static_cast<real_t>(src.dims().prod())) {
  if (src.comm().size() != dst.comm().size() ||
      src.comm().rank() != dst.comm().rank())
    throw std::invalid_argument(
        "ResamplePlan: decompositions must wrap the same rank set");

  const Int3 sd = src.dims();
  const Int3 dd = dst.dims();
  const int p = src.comm().size();
  const int rank = src.comm().rank();

  const auto pairs1 = axis_pairs(dd[0], sd[0]);
  const auto pairs2 = axis_pairs(dd[1], sd[1]);
  const auto pairs3 = axis3_pairs(dd[2], sd[2]);

  // Route every surviving mode in one canonical global order (k3 outer, k2,
  // k1 inner — the destination memory layout), so the per-peer chunk order
  // agrees between each sender's pack loop and each receiver's unpack loop.
  // Ownership in the spectral pencil layout [k3_loc][k2_loc][N1] depends
  // only on (k3, k2); k1 rides along fully local on both sides.
  std::vector<std::vector<index_t>> send_lists(p), recv_lists(p);
  const index_t n1s = sd[0], n1d = dd[0];
  const index_t n2kl_s = src.srange2().size();
  const index_t n2kl_d = dst.srange2().size();
  for (const auto& [c_d, c_s] : pairs3) {
    const int src_r2 = block_owner(c_s, src.n3c(), src.p2());
    const int dst_r2 = block_owner(c_d, dst.n3c(), dst.p2());
    for (const auto& [b_d, b_s] : pairs2) {
      const int src_rank = src.rank_of(block_owner(b_s, sd[1], src.p1()),
                                       src_r2);
      const int dst_rank = dst.rank_of(block_owner(b_d, dd[1], dst.p1()),
                                       dst_r2);
      const bool sends = src_rank == rank;
      const bool recvs = dst_rank == rank;
      if (!sends && !recvs) continue;
      const index_t src_base =
          sends ? ((c_s - src.srange3().begin) * n2kl_s +
                   (b_s - src.srange2().begin)) *
                      n1s
                : 0;
      const index_t dst_base =
          recvs ? ((c_d - dst.srange3().begin) * n2kl_d +
                   (b_d - dst.srange2().begin)) *
                      n1d
                : 0;
      for (const auto& [a_d, a_s] : pairs1) {
        if (sends) send_lists[dst_rank].push_back(src_base + a_s);
        if (recvs) recv_lists[src_rank].push_back(dst_base + a_d);
      }
    }
  }

  send_counts_.resize(p);
  recv_counts_.resize(p);
  for (int q = 0; q < p; ++q) {
    send_counts_[q] = static_cast<index_t>(send_lists[q].size());
    recv_counts_[q] = static_cast<index_t>(recv_lists[q].size());
    send_total_ += send_counts_[q];
    recv_total_ += recv_counts_[q];
  }
  send_idx_.reserve(send_total_);
  recv_idx_.reserve(recv_total_);
  for (int q = 0; q < p; ++q) {
    send_idx_.insert(send_idx_.end(), send_lists[q].begin(),
                     send_lists[q].end());
    recv_idx_.insert(recv_idx_.end(), recv_lists[q].begin(),
                     recv_lists[q].end());
  }

  scaled_send_counts_.resize(p);
  scaled_recv_counts_.resize(p);
  ensure_batch_capacity(1);
}

void ResamplePlan::ensure_batch_capacity(int m) {
  // Stage buffers grow to the largest batch seen (not eagerly to
  // kMaxBatch): one-shot scalar transfers then pay for one component, and
  // repeated applies at any fixed batch size stay allocation free after
  // the first.
  const size_t ss = static_cast<size_t>(m) * src_->local_spectral_size();
  const size_t ds = static_cast<size_t>(m) * dst_->local_spectral_size();
  if (spec_src_.size() < ss) spec_src_.resize(ss);
  if (spec_dst_.size() < ds) spec_dst_.resize(ds);
  const size_t st = static_cast<size_t>(m) * send_total_;
  const size_t rt = static_cast<size_t>(m) * recv_total_;
  if (send_buf_.size() < st) send_buf_.resize(st);
  if (recv_buf_.size() < rt) recv_buf_.resize(rt);
  stage_.reserve(st, rt);
}

void ResamplePlan::apply_many(std::span<const real_t* const> ins,
                              std::span<real_t* const> outs) {
  const int m = static_cast<int>(ins.size());
  if (m < 1 || m > kMaxBatch || outs.size() != static_cast<size_t>(m))
    throw std::invalid_argument("ResamplePlan: bad batch size");
  ensure_batch_capacity(m);
  const index_t s_stride = src_->local_spectral_size();
  const index_t d_stride = dst_->local_spectral_size();
  const int p = src_->comm().size();

  complex_t* sspec[kMaxBatch];
  complex_t* dspec[kMaxBatch];
  for (int c = 0; c < m; ++c) {
    sspec[c] = spec_src_.data() + c * s_stride;
    dspec[c] = spec_dst_.data() + c * d_stride;
  }
  fft_src_.forward_many(ins, std::span<complex_t* const>(sspec,
                                                         static_cast<size_t>(
                                                             m)));

  auto& comm = src_->comm();
  Timings& timings = comm.timings();
  {  // Pack: peer-major, components back to back inside each peer chunk.
    ScopedTimer t(timings, TimeKind::kFftExec);
    index_t pos = 0, off = 0;
    for (int q = 0; q < p; ++q) {
      for (int c = 0; c < m; ++c) {
        const complex_t* s = sspec[c];
        for (index_t i = 0; i < send_counts_[q]; ++i)
          send_buf_[pos++] = s[send_idx_[off + i]];
      }
      off += send_counts_[q];
    }
  }

  for (int q = 0; q < p; ++q) {
    scaled_send_counts_[q] = m * send_counts_[q];
    scaled_recv_counts_[q] = m * recv_counts_[q];
  }
  comm.set_time_kind(TimeKind::kFftComm);
  const std::span<const complex_t> remap_send(
      send_buf_.data(), static_cast<size_t>(m * send_total_));
  const std::span<const index_t> remap_scounts(
      scaled_send_counts_.data(), static_cast<size_t>(p));
  const std::span<complex_t> remap_recv(
      recv_buf_.data(), static_cast<size_t>(m * recv_total_));
  const std::span<const index_t> remap_rcounts(
      scaled_recv_counts_.data(), static_cast<size_t>(p));
  comm.alltoallv(remap_send, remap_scounts, remap_recv, remap_rcounts, stage_,
                 kTagRemap);

  {  // Unpack: zero the destination spectrum (only surviving modes are
     // written — truncation/zero-padding happens right here) and scatter
     // with the grid-size rescaling fused in.
    ScopedTimer t(timings, TimeKind::kFftExec);
    std::fill_n(spec_dst_.data(), static_cast<size_t>(m) * d_stride,
                complex_t(0, 0));
    index_t pos = 0, off = 0;
    for (int q = 0; q < p; ++q) {
      for (int c = 0; c < m; ++c) {
        complex_t* d = dspec[c];
        for (index_t i = 0; i < recv_counts_[q]; ++i)
          d[recv_idx_[off + i]] = scale_ * recv_buf_[pos++];
      }
      off += recv_counts_[q];
    }
  }

  fft_dst_.inverse_many(
      std::span<const complex_t* const>(dspec, static_cast<size_t>(m)), outs);
}

void ResamplePlan::apply(std::span<const real_t> in, std::span<real_t> out) {
  if (static_cast<index_t>(in.size()) != src_->local_real_size() ||
      static_cast<index_t>(out.size()) != dst_->local_real_size())
    throw std::invalid_argument("ResamplePlan: block size mismatch");
  const real_t* ins[1] = {in.data()};
  real_t* outs[1] = {out.data()};
  apply_many(std::span<const real_t* const>(ins, 1),
             std::span<real_t* const>(outs, 1));
}

void ResamplePlan::apply(const VectorField& in, VectorField& out) {
  if (in.local_size() != src_->local_real_size())
    throw std::invalid_argument("ResamplePlan: block size mismatch");
  grid::resize_zero(out, dst_->local_real_size());
  const real_t* ins[3] = {in[0].data(), in[1].data(), in[2].data()};
  real_t* outs[3] = {out[0].data(), out[1].data(), out[2].data()};
  apply_many(std::span<const real_t* const>(ins, 3),
             std::span<real_t* const>(outs, 3));
}

ScalarField spectral_resample(PencilDecomp& src, std::span<const real_t> field,
                              PencilDecomp& dst) {
  ResamplePlan plan(src, dst);
  ScalarField out(dst.local_real_size());
  plan.apply(field, out);
  return out;
}

VectorField spectral_resample(PencilDecomp& src, const VectorField& field,
                              PencilDecomp& dst) {
  ResamplePlan plan(src, dst);
  VectorField out;
  plan.apply(field, out);
  return out;
}

}  // namespace diffreg::spectral
