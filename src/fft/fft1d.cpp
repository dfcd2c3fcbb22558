#include "fft/fft1d.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace diffreg::fft {

namespace {
constexpr real_t kPi = std::numbers::pi_v<real_t>;

// Mixed-radix butterflies (decimation in time). Each combines `radix`
// adjacent length-m sub-transforms of one block in place; `roots` is the
// forward or conjugated root table of the full size n, read at multiples of
// `stride` = n / (radix*m); in the radix-2..5 butterflies the largest index,
// (radix-1)*(m-1)*stride, stays below n.

// diffreg:zero-alloc
void bfly2(complex_t* out, index_t m, index_t stride, const complex_t* roots) {
  complex_t* out1 = out + m;
  for (index_t k = 0; k < m; ++k) {
    const complex_t t = out1[k] * roots[k * stride];
    out1[k] = out[k] - t;
    out[k] += t;
  }
}

// diffreg:zero-alloc
void bfly3(complex_t* out, index_t m, index_t stride, const complex_t* roots) {
  // roots[stride*m] is the primitive cube root in this direction; its real
  // part is -1/2, so only its imaginary part enters.
  const real_t w_im = roots[stride * m].imag();
  complex_t* out1 = out + m;
  complex_t* out2 = out + 2 * m;
  for (index_t k = 0; k < m; ++k) {
    const complex_t s1 = out1[k] * roots[k * stride];
    const complex_t s2 = out2[k] * roots[2 * k * stride];
    const complex_t sum = s1 + s2;
    const complex_t diff = (s1 - s2) * w_im;
    const complex_t mid = out[k] - sum * real_t(0.5);
    out[k] += sum;
    out2[k] = complex_t(mid.real() + diff.imag(), mid.imag() - diff.real());
    out1[k] = complex_t(mid.real() - diff.imag(), mid.imag() + diff.real());
  }
}

// diffreg:zero-alloc
void bfly4(complex_t* out, index_t m, index_t stride, const complex_t* roots,
           bool inverse) {
  // The quarter-turn rotation is exact: -i forward, +i inverse.
  complex_t* out1 = out + m;
  complex_t* out2 = out + 2 * m;
  complex_t* out3 = out + 3 * m;
  for (index_t k = 0; k < m; ++k) {
    const complex_t s0 = out1[k] * roots[k * stride];
    const complex_t s1 = out2[k] * roots[2 * k * stride];
    const complex_t s2 = out3[k] * roots[3 * k * stride];
    const complex_t lo = out[k] - s1;
    const complex_t hi = out[k] + s1;
    const complex_t sum = s0 + s2;
    const complex_t d = s0 - s2;
    const complex_t rot = inverse ? complex_t(-d.imag(), d.real())
                                  : complex_t(d.imag(), -d.real());
    out[k] = hi + sum;
    out2[k] = hi - sum;
    out1[k] = lo + rot;
    out3[k] = lo - rot;
  }
}

// diffreg:zero-alloc
void bfly5(complex_t* out, index_t m, index_t stride, const complex_t* roots) {
  // ya, yb: the primitive fifth root and its square in this direction.
  const complex_t ya = roots[stride * m];
  const complex_t yb = roots[2 * stride * m];
  complex_t* out1 = out + m;
  complex_t* out2 = out + 2 * m;
  complex_t* out3 = out + 3 * m;
  complex_t* out4 = out + 4 * m;
  for (index_t k = 0; k < m; ++k) {
    const complex_t s0 = out[k];
    const complex_t s1 = out1[k] * roots[k * stride];
    const complex_t s2 = out2[k] * roots[2 * k * stride];
    const complex_t s3 = out3[k] * roots[3 * k * stride];
    const complex_t s4 = out4[k] * roots[4 * k * stride];
    const complex_t s7 = s1 + s4, s10 = s1 - s4;
    const complex_t s8 = s2 + s3, s9 = s2 - s3;
    out[k] = s0 + s7 + s8;
    const complex_t s5(
        s0.real() + s7.real() * ya.real() + s8.real() * yb.real(),
        s0.imag() + s7.imag() * ya.real() + s8.imag() * yb.real());
    const complex_t s6(s10.imag() * ya.imag() + s9.imag() * yb.imag(),
                       -s10.real() * ya.imag() - s9.real() * yb.imag());
    out1[k] = s5 - s6;
    out4[k] = s5 + s6;
    const complex_t s11(
        s0.real() + s7.real() * yb.real() + s8.real() * ya.real(),
        s0.imag() + s7.imag() * yb.real() + s8.imag() * ya.real());
    const complex_t s12(-s10.imag() * yb.imag() + s9.imag() * ya.imag(),
                        s10.real() * yb.imag() - s9.real() * ya.imag());
    out2[k] = s11 + s12;
    out3[k] = s11 - s12;
  }
}

/// Prime radix p in 7..61: direct O(p^2) combine through `scratch`
/// (length >= p); twiddle indices wrap modulo n by one subtraction.
// diffreg:zero-alloc
void bfly_generic(complex_t* out, index_t p, index_t m, index_t stride,
                  index_t n, const complex_t* roots, complex_t* scratch) {
  for (index_t u = 0; u < m; ++u) {
    for (index_t q = 0; q < p; ++q) scratch[q] = out[u + q * m];
    for (index_t q1 = 0, k = u; q1 < p; ++q1, k += m) {
      // Output k takes sum_q scratch[q] * w_n^(q*k*stride); stride*k < n,
      // so the running index wraps with one subtraction.
      const index_t step = stride * k;
      index_t tw = 0;
      complex_t acc = scratch[0];
      for (index_t q = 1; q < p; ++q) {
        tw += step;
        if (tw >= n) tw -= n;
        acc += scratch[q] * roots[tw];
      }
      out[k] = acc;
    }
  }
}

}  // namespace

std::vector<Fft1d::MixedStage> Fft1d::plan_stages(index_t n) {
  // Radix 4 first, then 2, then odd trial divisors; whatever is left once
  // the divisor passes sqrt(n) is prime. Returns the radices outermost first
  // with each stage's sub-transform length m and twiddle stride.
  std::vector<MixedStage> stages;
  const index_t full = n;
  index_t p = 4;
  while (n > 1) {
    while (n % p != 0) {
      p = (p == 4) ? 2 : (p == 2) ? 3 : p + 2;
      if (p * p > n) p = n;
    }
    n /= p;
    stages.push_back({p, n, full / (p * n)});
  }
  return stages;
}

std::vector<index_t> Fft1d::make_digit_reversal(
    index_t n, const std::vector<MixedStage>& stages) {
  // Decimation in time: output block j of a stage holds the sub-sequence
  // that starts at input offset j*stride with step stride*radix. Unrolling
  // every stage gives, for each output slot, the input index it reads.
  std::vector<index_t> perm(n);
  for (index_t i = 0; i < n; ++i) {
    index_t pos = i, src = 0, step = 1;
    for (const MixedStage& st : stages) {
      src += (pos / st.m) * step;
      pos %= st.m;
      step *= st.radix;
    }
    perm[i] = src;
  }
  return perm;
}

Fft1d::Fft1d(index_t n) : n_(n) {
  if (n <= 0) throw std::invalid_argument("Fft1d: size must be positive");
  if (is_power_of_two(n)) {
    path_ = Path::kPow2;
    twiddles_ = make_twiddles(n_);
    inv_twiddles_ = conj_all(twiddles_);
    bitrev_ = make_bitrev(n_);
    swap_pairs_ = make_swap_pairs(bitrev_);
  } else if (std::vector<MixedStage> stages = plan_stages(n);
             std::all_of(stages.begin(), stages.end(),
                         [](const MixedStage& st) { return st.radix <= 61; })) {
    path_ = Path::kMixedRadix;
    stages_ = std::move(stages);
    digit_rev_ = make_digit_reversal(n_, stages_);
    root_table_.resize(n_);
    for (index_t t = 0; t < n_; ++t) {
      const real_t phase = -2 * kPi * static_cast<real_t>(t) / static_cast<real_t>(n_);
      root_table_[t] = complex_t(std::cos(phase), std::sin(phase));
    }
    inv_root_table_ = conj_all(root_table_);
    mixed_scratch_.resize(n_);
    index_t max_generic = 0;
    for (const MixedStage& st : stages_)
      if (st.radix > 5) max_generic = std::max(max_generic, st.radix);
    radix_scratch_.resize(max_generic);
  } else {
    path_ = Path::kBluestein;
    m_ = next_pow2(2 * n_ - 1);
    twiddles_m_ = make_twiddles(m_);
    inv_twiddles_m_ = conj_all(twiddles_m_);
    bitrev_m_ = make_bitrev(m_);
    swap_pairs_m_ = make_swap_pairs(bitrev_m_);
    chirp_.resize(n_);
    for (index_t k = 0; k < n_; ++k) {
      // k^2 mod 2n keeps the phase argument small for large n.
      const index_t k2 = (k * k) % (2 * n_);
      const real_t phase = -kPi * static_cast<real_t>(k2) / static_cast<real_t>(n_);
      chirp_[k] = complex_t(std::cos(phase), std::sin(phase));
    }
    // Filter v[m] = conj(chirp(|m|)) on the circularly wrapped support.
    std::vector<complex_t> filter(m_, complex_t(0, 0));
    for (index_t k = 0; k < n_; ++k) {
      filter[k] = std::conj(chirp_[k]);
      if (k > 0) filter[m_ - k] = std::conj(chirp_[k]);
    }
    pow2_transform(filter.data(), m_, /*inverse=*/false);
    chirp_filter_fft_ = std::move(filter);
    scratch_.resize(m_);
  }
}

index_t Fft1d::next_pow2(index_t n) {
  index_t m = 1;
  while (m < n) m <<= 1;
  return m;
}

namespace {
/// Snaps a twiddle component to the exact lattice values {-1, 0, 1} when the
/// libm result is within a couple of ulps (e.g. cos(pi/2) = 6.1e-17).
real_t snap(real_t v) {
  constexpr real_t eps = 4e-16;
  if (std::abs(v) < eps) return 0;
  if (std::abs(v - 1) < eps) return 1;
  if (std::abs(v + 1) < eps) return -1;
  return v;
}
}  // namespace

std::vector<complex_t> Fft1d::make_twiddles(index_t n) {
  // Layout: for stage length len = 2,4,...,n the len/2 twiddles are stored
  // consecutively starting at offset len/2 - 1 (total n - 1 entries).
  std::vector<complex_t> tw(n > 1 ? n - 1 : 0);
  for (index_t len = 2; len <= n; len <<= 1) {
    const index_t half = len / 2;
    for (index_t j = 0; j < half; ++j) {
      const real_t phase = -2.0 * kPi * static_cast<real_t>(j) / static_cast<real_t>(len);
      tw[half - 1 + j] = complex_t(snap(std::cos(phase)), snap(std::sin(phase)));
    }
  }
  return tw;
}

std::vector<complex_t> Fft1d::conj_all(const std::vector<complex_t>& tw) {
  std::vector<complex_t> out(tw.size());
  for (size_t i = 0; i < tw.size(); ++i) out[i] = std::conj(tw[i]);
  return out;
}

std::vector<index_t> Fft1d::make_bitrev(index_t n) {
  std::vector<index_t> rev(n);
  index_t bits = 0;
  while ((index_t{1} << bits) < n) ++bits;
  for (index_t i = 0; i < n; ++i) {
    index_t r = 0;
    for (index_t b = 0; b < bits; ++b)
      if (i & (index_t{1} << b)) r |= index_t{1} << (bits - 1 - b);
    rev[i] = r;
  }
  return rev;
}

std::vector<Fft1d::SwapPair> Fft1d::make_swap_pairs(
    const std::vector<index_t>& rev) {
  std::vector<SwapPair> pairs;
  for (index_t i = 0; i < static_cast<index_t>(rev.size()); ++i)
    if (i < rev[i]) pairs.push_back({i, rev[i]});
  return pairs;
}

void Fft1d::pow2_stages(complex_t* data, index_t rows, index_t n,
                        const complex_t* twiddles, bool inverse) {
  // Stage-major over the block: one stage's twiddles stay hot across every
  // row before the next stage starts. The first two stages are multiply
  // free: their twiddles are 1 and -+i.
  if (n >= 2) {
    for (index_t r = 0; r < rows; ++r) {
      complex_t* row = data + r * n;
      for (index_t s = 0; s < n; s += 2) {
        const complex_t t = row[s + 1];
        row[s + 1] = row[s] - t;
        row[s] += t;
      }
    }
  }
  if (n >= 4) {
    for (index_t r = 0; r < rows; ++r) {
      complex_t* row = data + r * n;
      for (index_t s = 0; s < n; s += 4) {
        {
          const complex_t t = row[s + 2];
          row[s + 2] = row[s] - t;
          row[s] += t;
        }
        {
          const complex_t hi = row[s + 3];
          const complex_t t = inverse ? complex_t(-hi.imag(), hi.real())
                                      : complex_t(hi.imag(), -hi.real());
          row[s + 3] = row[s + 1] - t;
          row[s + 1] += t;
        }
      }
    }
  }
  for (index_t len = 8; len <= n; len <<= 1) {
    const index_t half = len / 2;
    const complex_t* tw = twiddles + (half - 1);
    for (index_t r = 0; r < rows; ++r) {
      complex_t* row = data + r * n;
      for (index_t start = 0; start < n; start += len) {
        complex_t* lo = row + start;
        complex_t* hi = lo + half;
        for (index_t j = 0; j < half; ++j) {
          const complex_t t = hi[j] * tw[j];
          hi[j] = lo[j] - t;
          lo[j] += t;
        }
      }
    }
  }
}

void Fft1d::pow2_transform(complex_t* data, index_t n, bool inverse) {
  const bool own = (n == n_ && path_ == Path::kPow2);
  const std::vector<SwapPair>& pairs = own ? swap_pairs_ : swap_pairs_m_;
  const std::vector<complex_t>& tw =
      own ? (inverse ? inv_twiddles_ : twiddles_)
          : (inverse ? inv_twiddles_m_ : twiddles_m_);
  for (const SwapPair& pr : pairs) std::swap(data[pr.a], data[pr.b]);
  pow2_stages(data, 1, n, tw.data(), inverse);
  if (inverse) {
    const real_t scale = real_t(1) / static_cast<real_t>(n);
    for (index_t i = 0; i < n; ++i) data[i] *= scale;
  }
}

void Fft1d::pow2_batch(complex_t* data, index_t count, bool inverse,
                       real_t scale) {
  const complex_t* tw = (inverse ? inv_twiddles_ : twiddles_).data();
  const index_t block = std::max<index_t>(
      1, kBatchBlockBytes / (n_ * static_cast<index_t>(sizeof(complex_t))));
  for (index_t r0 = 0; r0 < count; r0 += block) {
    const index_t rows = std::min(block, count - r0);
    complex_t* base = data + r0 * n_;
    for (index_t r = 0; r < rows; ++r) {
      complex_t* row = base + r * n_;
      for (const SwapPair& pr : swap_pairs_) std::swap(row[pr.a], row[pr.b]);
    }
    pow2_stages(base, rows, n_, tw, inverse);
    if (scale != real_t(1))
      for (index_t i = 0; i < rows * n_; ++i) base[i] *= scale;
  }
}

void Fft1d::bluestein_transform(complex_t* data, bool inverse, real_t scale) {
  // Forward: X_j = c_j * (u conv v)_j with u_k = x_k c_k, v = conj-chirp.
  // Inverse: IDFT(x) = conj(DFT(conj(x))) / n.
  if (inverse)
    for (index_t k = 0; k < n_; ++k) data[k] = std::conj(data[k]);

  complex_t* u = scratch_.data();
  for (index_t k = 0; k < n_; ++k) u[k] = data[k] * chirp_[k];
  for (index_t k = n_; k < m_; ++k) u[k] = complex_t(0, 0);

  pow2_transform(u, m_, /*inverse=*/false);
  for (index_t k = 0; k < m_; ++k) u[k] *= chirp_filter_fft_[k];
  pow2_transform(u, m_, /*inverse=*/true);

  for (index_t k = 0; k < n_; ++k) data[k] = u[k] * chirp_[k];

  if (inverse)
    for (index_t k = 0; k < n_; ++k) data[k] = std::conj(data[k]) * scale;
}

// diffreg:zero-alloc
void Fft1d::mixed_stages(complex_t* row, const complex_t* roots,
                         bool inverse) {
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    const index_t p = it->radix, m = it->m, stride = it->stride;
    const index_t span = p * m;
    for (complex_t* blk = row; blk != row + n_; blk += span) {
      switch (p) {
        case 2: bfly2(blk, m, stride, roots); break;
        case 3: bfly3(blk, m, stride, roots); break;
        case 4: bfly4(blk, m, stride, roots, inverse); break;
        case 5: bfly5(blk, m, stride, roots); break;
        default:
          bfly_generic(blk, p, m, stride, n_, roots, radix_scratch_.data());
      }
    }
  }
}

// diffreg:zero-alloc
void Fft1d::mixed_rows(const complex_t* src, complex_t* dst, index_t count,
                       bool inverse, real_t scale) {
  const complex_t* roots = (inverse ? inv_root_table_ : root_table_).data();
  const index_t* perm = digit_rev_.data();
  for (index_t r = 0; r < count; ++r) {
    const complex_t* s = src + r * n_;
    complex_t* d = dst + r * n_;
    if (s == d) {
      std::copy(d, d + n_, mixed_scratch_.data());
      s = mixed_scratch_.data();
    }
    // The digit-reversal gather is the first pass; the 1/N scale of the
    // normalized inverse rides along with it (the transform is linear).
    if (scale != real_t(1)) {
      for (index_t i = 0; i < n_; ++i) d[i] = s[perm[i]] * scale;
    } else {
      for (index_t i = 0; i < n_; ++i) d[i] = s[perm[i]];
    }
    mixed_stages(d, roots, inverse);
  }
}

void Fft1d::transform(complex_t* data, bool inverse) {
  if (n_ == 1) return;
  switch (path_) {
    case Path::kPow2:
      pow2_transform(data, n_, inverse);
      break;
    case Path::kMixedRadix:
      mixed_rows(data, data, 1, inverse,
                 inverse ? real_t(1) / static_cast<real_t>(n_) : real_t(1));
      break;
    case Path::kBluestein:
      bluestein_transform(data, inverse,
                          real_t(1) / static_cast<real_t>(n_));
      break;
  }
}

void Fft1d::forward_batch(complex_t* data, index_t count) {
  if (n_ == 1) return;
  if (path_ == Path::kPow2) {
    pow2_batch(data, count, /*inverse=*/false, /*scale=*/real_t(1));
    return;
  }
  if (path_ == Path::kMixedRadix) {
    mixed_rows(data, data, count, /*inverse=*/false, /*scale=*/real_t(1));
    return;
  }
  for (index_t r = 0; r < count; ++r) forward(data + r * n_);
}

void Fft1d::inverse_batch(complex_t* data, index_t count) {
  if (n_ == 1) return;
  const real_t scale = real_t(1) / static_cast<real_t>(n_);
  if (path_ == Path::kPow2) {
    pow2_batch(data, count, /*inverse=*/true, scale);
    return;
  }
  if (path_ == Path::kMixedRadix) {
    mixed_rows(data, data, count, /*inverse=*/true, scale);
    return;
  }
  for (index_t r = 0; r < count; ++r) inverse(data + r * n_);
}

void Fft1d::inverse_batch_noscale(complex_t* data, index_t count) {
  if (n_ == 1) return;
  switch (path_) {
    case Path::kPow2:
      pow2_batch(data, count, /*inverse=*/true, /*scale=*/real_t(1));
      break;
    case Path::kMixedRadix:
      mixed_rows(data, data, count, /*inverse=*/true, /*scale=*/real_t(1));
      break;
    case Path::kBluestein:
      for (index_t r = 0; r < count; ++r)
        bluestein_transform(data + r * n_, /*inverse=*/true,
                            /*scale=*/real_t(1));
      break;
  }
}

void Fft1d::inverse_batch_noscale(const complex_t* src, complex_t* dst,
                                  index_t count) {
  if (n_ == 1) {
    std::copy(src, src + count, dst);
    return;
  }
  if (path_ == Path::kMixedRadix) {
    mixed_rows(src, dst, count, /*inverse=*/true, /*scale=*/real_t(1));
    return;
  }
  if (path_ == Path::kBluestein) {
    std::copy(src, src + count * n_, dst);
    inverse_batch_noscale(dst, count);
    return;
  }
  const complex_t* tw = inv_twiddles_.data();
  const index_t block = std::max<index_t>(
      1, kBatchBlockBytes / (n_ * static_cast<index_t>(sizeof(complex_t))));
  for (index_t r0 = 0; r0 < count; r0 += block) {
    const index_t rows = std::min(block, count - r0);
    complex_t* base = dst + r0 * n_;
    // The bit-reversal permutation doubles as the src -> dst gather.
    for (index_t r = 0; r < rows; ++r) {
      const complex_t* s = src + (r0 + r) * n_;
      complex_t* d = base + r * n_;
      for (index_t i = 0; i < n_; ++i) d[i] = s[bitrev_[i]];
    }
    pow2_stages(base, rows, n_, tw, /*inverse=*/true);
  }
}

}  // namespace diffreg::fft
