// Plan-based 1D complex FFT.
//
// Three execution paths, chosen at plan time:
//  * power-of-two sizes: iterative radix-2 Cooley-Tukey with precomputed
//    twiddle tables;
//  * smooth composite sizes (all prime factors <= 61, e.g. the 300 of the
//    paper's 256x300x256 brain grid = 4*3*5*5, or 48 = 4*4*3): planned
//    mixed-radix Cooley-Tukey over an exact root-of-unity table;
//  * sizes with a large prime factor: Bluestein's algorithm built on a
//    power-of-two convolution.
//
// The power-of-two path keeps a separate conjugated twiddle table so the
// inverse butterflies never call std::conj per element, and the bit-reversal
// permutation is precomputed once as a swap-pair list that every row of a
// batch reuses. Batched transforms run the butterfly stages over blocks of
// rows (stage-major within a cache-sized block), which keeps each stage's
// twiddles hot across rows.
//
// The mixed-radix path mirrors that structure. The constructor factors n
// once (radix 4 first, then 2, 3, 5, then the odd primes up to 61) into a
// list of stages and precomputes the mixed-radix digit-reversal permutation.
// A transform is one gather through that permutation followed by the stages,
// innermost first, each a run of radix-2/3/4/5 butterflies or one generic
// prime-radix butterfly. Forward and inverse read separate (conjugated)
// root tables, so no conjugation sweep runs per row, and no division or
// modulo runs in any inner loop. The out-of-place inverse gathers straight
// from its source. Per point per transform it costs 7.3 ns at n = 36,
// 7.5 ns at n = 75 and 9.7 ns at n = 300, against 6.3-7.3 ns for radix-2 at
// n = 32/64 (bench/kernel_microbench BM_Fft1dRoundTrip, shared 4-core Xeon
// container, GCC 12 Release; README "Performance notes" gives the
// before/after).
//
// Forward transforms are unnormalized; inverse transforms scale by 1/N, so
// inverse(forward(x)) == x.
//
// A plan owns scratch buffers, so a single plan must not be used from two
// threads concurrently; in SPMD runs each rank creates its own plans.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace diffreg::fft {

class Fft1d {
 public:
  explicit Fft1d(index_t n);

  index_t size() const { return n_; }

  /// In-place transform of one length-n row.
  void forward(complex_t* data) { transform(data, /*inverse=*/false); }
  void inverse(complex_t* data) { transform(data, /*inverse=*/true); }

  /// In-place transform of `count` contiguous rows of length n.
  void forward_batch(complex_t* data, index_t count);
  void inverse_batch(complex_t* data, index_t count);

  /// In-place inverse without the 1/N normalization, for pipelines that fold
  /// the overall scale of a multi-dimensional inverse into one final pass.
  void inverse_batch_noscale(complex_t* data, index_t count);

  /// Out-of-place unnormalized inverse of `count` contiguous rows: reads
  /// `src`, writes `dst` (must not alias). On the power-of-two and
  /// mixed-radix paths the input permutation doubles as the src->dst
  /// gather, so no separate copy pass is needed.
  void inverse_batch_noscale(const complex_t* src, complex_t* dst,
                             index_t count);

 private:
  enum class Path { kPow2, kMixedRadix, kBluestein };

  /// One bit-reversal swap (i < j); the in-place permutation is the list of
  /// all such swaps, applied per row.
  struct SwapPair {
    index_t a, b;
  };

  /// Butterfly-stage block size: rows processed stage-major in groups whose
  /// working set stays around L1 size.
  static constexpr index_t kBatchBlockBytes = 1 << 15;

  void transform(complex_t* data, bool inverse);
  void pow2_transform(complex_t* data, index_t n, bool inverse);
  /// Butterfly stages (no permutation, no scaling) over `rows` contiguous
  /// rows of length n, using the given stage-indexed twiddle table. The
  /// first two stages are specialized: their twiddles are 1 and -+i, so they
  /// run multiply-free (`inverse` selects the +-i direction).
  static void pow2_stages(complex_t* data, index_t rows, index_t n,
                          const complex_t* twiddles, bool inverse);
  void pow2_batch(complex_t* data, index_t count, bool inverse, real_t scale);
  /// `scale` is the normalization applied on the inverse path (1/n for the
  /// standard inverse, 1 for the unnormalized variant); ignored on forward.
  void bluestein_transform(complex_t* data, bool inverse, real_t scale);

  /// One mixed-radix stage: `radix` sub-transforms of length m are combined
  /// into transforms of length radix*m, in n / (radix*m) independent blocks;
  /// the stage's twiddles are the root table at multiples of `stride` =
  /// n / (radix*m).
  struct MixedStage {
    index_t radix, m, stride;
  };

  /// Mixed-radix transform of `count` contiguous rows from src to dst.
  /// src == dst runs in place (through a one-row scratch copy); otherwise
  /// the two must not overlap. `scale` multiplies the result (1 = none).
  void mixed_rows(const complex_t* src, complex_t* dst, index_t count,
                  bool inverse, real_t scale);
  /// Runs every butterfly stage over one digit-reversed row.
  void mixed_stages(complex_t* row, const complex_t* roots, bool inverse);
  static std::vector<MixedStage> plan_stages(index_t n);
  static std::vector<index_t> make_digit_reversal(
      index_t n, const std::vector<MixedStage>& stages);

  static std::vector<complex_t> make_twiddles(index_t n);
  static std::vector<complex_t> conj_all(const std::vector<complex_t>& tw);
  static std::vector<SwapPair> make_swap_pairs(const std::vector<index_t>& rev);

  index_t n_;
  Path path_;

  // Radix-2 path: forward and (pre-conjugated) inverse twiddles for the
  // size-n transform, the bit-reversal permutation, and its swap-pair list.
  std::vector<complex_t> twiddles_, inv_twiddles_;
  std::vector<index_t> bitrev_;
  std::vector<SwapPair> swap_pairs_;

  // Mixed-radix path: the stage plan (outermost first), the digit-reversal
  // gather permutation, exact tables of exp(-+2 pi i t / n), t = 0..n-1, a
  // one-row scratch for in-place transforms, and the generic butterfly's
  // scratch (sized to the largest generic radix; empty if none).
  std::vector<MixedStage> stages_;
  std::vector<index_t> digit_rev_;
  std::vector<complex_t> root_table_, inv_root_table_;
  std::vector<complex_t> mixed_scratch_;
  std::vector<complex_t> radix_scratch_;

  // Bluestein path: chirp c_k = exp(-i pi k^2 / n), the padded convolution
  // size m (power of two >= 2n-1), its twiddles/permutation, and the
  // precomputed spectrum of the chirp filter.
  index_t m_ = 0;
  std::vector<complex_t> chirp_;
  std::vector<complex_t> chirp_filter_fft_;
  std::vector<complex_t> twiddles_m_, inv_twiddles_m_;
  std::vector<index_t> bitrev_m_;
  std::vector<SwapPair> swap_pairs_m_;
  std::vector<complex_t> scratch_;

  static bool is_power_of_two(index_t n) { return n > 0 && (n & (n - 1)) == 0; }
  static index_t next_pow2(index_t n);
  static std::vector<index_t> make_bitrev(index_t n);
};

}  // namespace diffreg::fft
