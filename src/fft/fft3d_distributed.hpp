// Distributed 3D real-to-complex FFT on the pencil decomposition
// (AccFFT-style, paper section III-C1 and Fig. 4).
//
// Forward pipeline (inverse runs the same stages backwards):
//   A. r2c 1D FFTs along the locally-contiguous axis 3 — two real rows are
//      packed into one complex FFT (z = x0 + i*x1) and the half-spectra are
//      recovered from the Hermitian split, halving the axis-3 transform
//      count relative to padding each row to a full complex FFT;
//   B. "row" transpose: alltoallv inside the row communicator exchanges the
//      k3 half-spectrum against axis 2, giving every rank full axis-2 rows;
//   C. c2c 1D FFTs along axis 2;
//   D. "col" transpose: alltoallv inside the column communicator exchanges
//      k2 against axis 1, giving every rank full axis-1 rows;
//   E. c2c 1D FFTs along axis 1.
//
// All transpose pack/unpack traffic goes through flat send/recv buffers and
// per-peer count tables owned by the plan, so forward/inverse perform no
// heap allocation after construction (the thread-backed mpisim transport
// still copies message payloads — that is the simulated wire).
//
// `forward_many`/`inverse_many` transform up to kMaxBatch components (the
// three components of a velocity field) in one pass: every component rides
// the same two alltoallv exchanges per transform, cutting the message count
// of vector-field transforms by the batch factor (the CLAIRE-style batching
// of Mang et al. 2019 / Brunn et al. 2020).
//
// Cost model (paper): O(7.5 N^3/p log N) flops and two sqrt(p)-wide
// alltoall rounds per transform. Time spent inside the exchanges is charged
// to TimeKind::kFftComm, local 1D FFTs and pack/unpack to kFftExec; the
// exchange/message/byte counters of Timings track comm volume.
//
// Wire precision: with WirePrecision::kF32 both transpose exchanges ship
// complex<float> payloads through plan-owned staging buffers (half the
// bytes of the solver's bandwidth-hottest path, ~1e-7 relative rounding per
// mode); the local stages stay fp64 throughout. The byte counters record
// the narrowed wire volume plus the bytes saved.
//
// Comm/compute overlap: an `overlap` plan posts each transpose alltoallv
// nonblocking and unpacks the SELF chunk of the receive buffer — already
// valid at post time, it never crosses the wire — while the peer chunks are
// in flight, waiting only before the peer unpack. (The downstream 1D FFT
// stages each need FULL rows spanning every peer, so the self unpack is
// exactly the independent work available under the exchange.) The message
// schedule and all comm counters are identical to the blocking plan, and so
// are the results, bitwise; the overlapped wire time lands in the Timings
// hidden-comm counter.
#pragma once

#include <span>
#include <vector>

#include "fft/fft1d.hpp"
#include "grid/decomposition.hpp"

namespace diffreg::fft {

class DistributedFft3d {
 public:
  /// Components that can share one batched transform (a 3-vector field).
  static constexpr int kMaxBatch = 3;

  /// `overlap` posts the transpose exchanges nonblocking and unpacks the
  /// self chunk under their flight; results and message schedule are
  /// identical either way.
  explicit DistributedFft3d(grid::PencilDecomp& decomp,
                            WirePrecision wire = WirePrecision::kF64,
                            bool overlap = false);

  const grid::PencilDecomp& decomp() const { return *decomp_; }
  WirePrecision wire() const { return stage_.wire(); }
  bool overlap() const { return overlap_; }
  index_t local_real_size() const { return decomp_->local_real_size(); }
  index_t local_spectral_size() const {
    return decomp_->local_spectral_size();
  }

  /// Unnormalized forward transform of the locally owned real block
  /// [n1loc][n2loc][N3] into the local spectral block [n3c_loc][n2k_loc][N1].
  void forward(std::span<const real_t> local_real,
               std::span<complex_t> local_spectral);

  /// Inverse transform with full 1/(N1 N2 N3) normalization.
  void inverse(std::span<const complex_t> local_spectral,
               std::span<real_t> local_real);

  /// Batched forward: transforms reals[c] into specs[c] for every component,
  /// aggregating all components into the same two alltoallv exchanges.
  /// Results are bitwise identical to calling forward() per component.
  void forward_many(std::span<const real_t* const> reals,
                    std::span<complex_t* const> specs);

  /// Batched inverse, the mirror of forward_many (2 exchanges total instead
  /// of 2 per component).
  void inverse_many(std::span<const complex_t* const> specs,
                    std::span<real_t* const> reals);

 private:
  // Stage A helpers: r2c of all [n1l*n2l] axis-3 rows of one component
  // (paired two-in-one-complex-FFT), and the c2r mirror.
  void stage_a_forward(const real_t* real_in, complex_t* half_out);
  void stage_a_inverse(const complex_t* half_in, real_t* real_out);

  // Transposes between the [n1l][n2l][n3c] layout (stage A/B boundary) and
  // the [n1l][n3c_l][N2] layout (stage B/C boundary), and between
  // [n1l][n3c_l][N2] and [n3c_l][n2k_l][N1]. All of them pack `ncomp`
  // components into one exchange.
  void row_transpose_forward(int ncomp);
  void row_transpose_inverse(int ncomp);
  void col_transpose_forward(int ncomp, std::span<complex_t* const> specs);
  void col_transpose_inverse(int ncomp);

  /// Scales the per-component peer counts by ncomp into the scratch count
  /// arrays and runs the span alltoallv over send_buf_/recv_buf_ at the
  /// plan's wire precision. An overlap plan posts it nonblocking and
  /// returns the pending request; otherwise the exchange has completed and
  /// the returned request is already done. Either way the SELF chunk of
  /// recv_buf_ is valid on return, the peer chunks after wait().
  mpisim::CommRequest post_exchange(mpisim::Communicator& comm, int npeers,
                                    int ncomp,
                                    const std::vector<index_t>& send_counts,
                                    const std::vector<index_t>& recv_counts,
                                    index_t send_total, index_t recv_total,
                                    int tag);

  grid::PencilDecomp* decomp_;
  mpisim::WireStage<complex_t> stage_;  // wire format of both transposes
  bool overlap_ = false;
  Fft1d fft1_, fft2_, fft3_;

  // Per-component strides of the stage buffers (see layouts above).
  index_t a_stride_ = 0;  // [n1l][n2l][n3c]
  index_t b_stride_ = 0;  // [n1l][n3c_l][N2]
  index_t s_stride_ = 0;  // [n3c_l][n2k_l][N1]

  // Stage buffers, sized eagerly for kMaxBatch components: the plan's
  // zero-allocation guarantee covers the *first* batched call too, and every
  // solver plan does vector-field transforms (gradient, Leray projection,
  // regularization applies). A scalar-only plan pays ~3x the stage-buffer
  // footprint it strictly needs.
  std::vector<complex_t> stage_a_;
  std::vector<complex_t> stage_b_;
  std::vector<complex_t> stage_e_;  // inverse stage E output (out-of-place)
  std::vector<complex_t> row_;      // length max(N3, N1) scratch

  // Stage A runs its axis-3 transforms over blocks of packed rows so the
  // 1D batch path (stage-major butterflies) applies there too.
  index_t ablock_rows_ = 1;
  std::vector<complex_t> arow_block_;  // [ablock_rows_][N3]

  // Persistent flat transpose buffers plus per-peer element counts for one
  // component; `post_exchange` scales them by the batch size into the
  // scratch arrays, so no call allocates. The stage's fp32 staging is sized
  // eagerly alongside send_buf_/recv_buf_ on a kF32 plan, so the
  // zero-allocation guarantee holds on the mixed path too.
  std::vector<complex_t> send_buf_, recv_buf_;
  std::vector<index_t> row_send_counts_, row_recv_counts_;
  std::vector<index_t> col_send_counts_, col_recv_counts_;
  std::vector<index_t> scaled_send_counts_, scaled_recv_counts_;

  static constexpr int kTagRowFwd = 101;
  static constexpr int kTagColFwd = 102;
  static constexpr int kTagColInv = 103;
  static constexpr int kTagRowInv = 104;
};

}  // namespace diffreg::fft
