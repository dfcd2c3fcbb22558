// FFT stack tests: 1D engine against a naive DFT (power-of-two, every
// mixed-radix butterfly, and Bluestein sizes), Parseval/linearity
// properties, bitwise batch and out-of-place contracts, serial 3D round
// trips and
// spectral values, and the distributed pencil FFT against the serial
// reference for several process grids and uneven block sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "fft/fft1d.hpp"
#include "fft/fft3d_distributed.hpp"
#include "fft/fft3d_serial.hpp"
#include "grid/field_io.hpp"
#include "mpisim/communicator.hpp"

namespace diffreg::fft {
namespace {

std::vector<complex_t> naive_dft(std::span<const complex_t> x) {
  const index_t n = static_cast<index_t>(x.size());
  std::vector<complex_t> out(n);
  for (index_t j = 0; j < n; ++j) {
    complex_t sum(0, 0);
    for (index_t k = 0; k < n; ++k) {
      const real_t phase = -kTwoPi * static_cast<real_t>(j * k) / n;
      sum += x[k] * complex_t(std::cos(phase), std::sin(phase));
    }
    out[j] = sum;
  }
  return out;
}

std::vector<complex_t> random_signal(index_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<real_t> dist(-1, 1);
  std::vector<complex_t> x(n);
  for (auto& v : x) v = complex_t(dist(rng), dist(rng));
  return x;
}

class Fft1dSize : public ::testing::TestWithParam<index_t> {};

TEST_P(Fft1dSize, MatchesNaiveDft) {
  const index_t n = GetParam();
  auto x = random_signal(n, 42 + static_cast<unsigned>(n));
  const auto expected = naive_dft(x);
  Fft1d plan(n);
  plan.forward(x.data());
  for (index_t j = 0; j < n; ++j) {
    EXPECT_NEAR(x[j].real(), expected[j].real(), 1e-9 * n) << "j=" << j;
    EXPECT_NEAR(x[j].imag(), expected[j].imag(), 1e-9 * n) << "j=" << j;
  }
}

TEST_P(Fft1dSize, InverseRoundTrip) {
  const index_t n = GetParam();
  auto x = random_signal(n, 7 + static_cast<unsigned>(n));
  const auto original = x;
  Fft1d plan(n);
  plan.forward(x.data());
  plan.inverse(x.data());
  for (index_t j = 0; j < n; ++j) {
    EXPECT_NEAR(x[j].real(), original[j].real(), 1e-10 * n);
    EXPECT_NEAR(x[j].imag(), original[j].imag(), 1e-10 * n);
  }
}

TEST_P(Fft1dSize, ParsevalHolds) {
  const index_t n = GetParam();
  auto x = random_signal(n, 3 + static_cast<unsigned>(n));
  real_t time_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  Fft1d plan(n);
  plan.forward(x.data());
  real_t freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * n, 1e-8 * n * time_energy);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, Fft1dSize,
                         ::testing::Values(1, 2, 4, 8, 64, 256));
// Covers every butterfly: radix 2 (6, 24, 122), 3 (27, 45), 4 (12, 24, 36),
// 5 (45, 75, 300), generic primes 7 (49) through 61 (61, 122).
INSTANTIATE_TEST_SUITE_P(MixedRadix, Fft1dSize,
                         ::testing::Values(3, 5, 6, 12, 24, 27, 36, 45, 48, 49,
                                           61, 75, 122, 300));
INSTANTIATE_TEST_SUITE_P(BluesteinLargePrime, Fft1dSize,
                         ::testing::Values(67, 127, 134));

TEST(Fft1d, LinearityAndDelta) {
  // DFT of a delta at k0 is a pure exponential.
  const index_t n = 16;
  std::vector<complex_t> x(n, complex_t(0, 0));
  x[3] = complex_t(1, 0);
  Fft1d plan(n);
  plan.forward(x.data());
  for (index_t j = 0; j < n; ++j) {
    const real_t phase = -kTwoPi * 3.0 * j / n;
    EXPECT_NEAR(x[j].real(), std::cos(phase), 1e-12);
    EXPECT_NEAR(x[j].imag(), std::sin(phase), 1e-12);
  }
}

class Fft1dBatch : public ::testing::TestWithParam<index_t> {};

TEST_P(Fft1dBatch, BatchTransformsRowsIndependently) {
  const index_t n = GetParam(), rows = 5;
  auto all = random_signal(n * rows, 11);
  auto expected = all;
  Fft1d plan(n);
  for (index_t r = 0; r < rows; ++r) plan.forward(expected.data() + r * n);
  plan.forward_batch(all.data(), rows);
  for (index_t i = 0; i < n * rows; ++i) {
    EXPECT_EQ(all[i].real(), expected[i].real()) << "i=" << i;
    EXPECT_EQ(all[i].imag(), expected[i].imag()) << "i=" << i;
  }
}

TEST_P(Fft1dBatch, OutOfPlaceInverseMatchesInPlaceBitwise) {
  const index_t n = GetParam(), rows = 4;
  const auto src = random_signal(n * rows, 23);
  const auto src_copy = src;
  auto in_place = src;
  std::vector<complex_t> out(n * rows);
  Fft1d plan(n);
  plan.inverse_batch_noscale(in_place.data(), rows);
  plan.inverse_batch_noscale(src.data(), out.data(), rows);
  for (index_t i = 0; i < n * rows; ++i) {
    EXPECT_EQ(out[i].real(), in_place[i].real()) << "i=" << i;
    EXPECT_EQ(out[i].imag(), in_place[i].imag()) << "i=" << i;
    EXPECT_EQ(src[i], src_copy[i]) << "src modified at i=" << i;
  }
}

// 32: radix 2; 36, 75, 49: mixed radix (special and generic butterflies);
// 67: Bluestein.
INSTANTIATE_TEST_SUITE_P(Sizes, Fft1dBatch,
                         ::testing::Values(32, 36, 49, 75, 67));

TEST(Fft1d, ThrowsOnNonPositiveSize) {
  EXPECT_THROW(Fft1d(0), std::invalid_argument);
  EXPECT_THROW(Fft1d(-4), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Serial 3D.

std::vector<real_t> random_real(index_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<real_t> dist(-1, 1);
  std::vector<real_t> x(n);
  for (auto& v : x) v = dist(rng);
  return x;
}

class SerialFftDims : public ::testing::TestWithParam<Int3> {};

TEST_P(SerialFftDims, RoundTripIsIdentity) {
  const Int3 dims = GetParam();
  SerialFft3d fft(dims);
  auto x = random_real(dims.prod(), 99);
  std::vector<complex_t> spec(fft.spectral_size());
  std::vector<real_t> back(dims.prod());
  fft.forward(x, spec);
  fft.inverse(spec, back);
  for (index_t i = 0; i < dims.prod(); ++i)
    EXPECT_NEAR(back[i], x[i], 1e-10) << "i=" << i;
}

TEST_P(SerialFftDims, ConstantFieldHasOnlyMeanMode) {
  const Int3 dims = GetParam();
  SerialFft3d fft(dims);
  std::vector<real_t> x(dims.prod(), 2.5);
  std::vector<complex_t> spec(fft.spectral_size());
  fft.forward(x, spec);
  EXPECT_NEAR(spec[0].real(), 2.5 * dims.prod(), 1e-8 * dims.prod());
  EXPECT_NEAR(spec[0].imag(), 0.0, 1e-9 * dims.prod());
  real_t rest = 0;
  for (size_t i = 1; i < spec.size(); ++i) rest += std::abs(spec[i]);
  EXPECT_NEAR(rest, 0.0, 1e-7 * dims.prod());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SerialFftDims,
                         ::testing::Values(Int3{8, 8, 8}, Int3{4, 8, 16},
                                           Int3{8, 12, 10}, Int3{6, 5, 7}));

TEST(SerialFft3d, SingleCosineModeLandsOnOneCoefficient) {
  const Int3 dims{8, 8, 8};
  SerialFft3d fft(dims);
  std::vector<real_t> x(dims.prod());
  // cos(2 x1) -> modes (±2, 0, 0); the half-spectrum keeps both.
  const real_t h = kTwoPi / dims[0];
  for (index_t i1 = 0; i1 < 8; ++i1)
    for (index_t i2 = 0; i2 < 8; ++i2)
      for (index_t i3 = 0; i3 < 8; ++i3)
        x[linear_index(i1, i2, i3, dims)] = std::cos(2 * i1 * h);
  std::vector<complex_t> spec(fft.spectral_size());
  fft.forward(x, spec);
  const Int3 sd = fft.spectral_dims();
  const index_t total = dims.prod();
  for (index_t k1 = 0; k1 < sd[0]; ++k1)
    for (index_t k2 = 0; k2 < sd[1]; ++k2)
      for (index_t k3 = 0; k3 < sd[2]; ++k3) {
        const complex_t v = spec[linear_index(k1, k2, k3, sd)];
        if ((k1 == 2 || k1 == 6) && k2 == 0 && k3 == 0)
          EXPECT_NEAR(v.real(), total / 2.0, 1e-8 * total);
        else
          EXPECT_NEAR(std::abs(v), 0.0, 1e-8 * total);
      }
}

// --------------------------------------------------------------------------
// Distributed 3D against the serial reference.

struct DistCase {
  Int3 dims;
  int p1, p2;
};

class DistributedFft : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedFft, MatchesSerialForwardAndInverse) {
  const auto [dims, p1, p2] = GetParam();
  const int p = p1 * p2;

  // Serial reference.
  auto full = random_real(dims.prod(), 1234);
  SerialFft3d serial(dims);
  std::vector<complex_t> serial_spec(serial.spectral_size());
  serial.forward(full, serial_spec);

  mpisim::run_spmd(p, [&, dims = dims, p1 = p1, p2 = p2](
                           mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, p1, p2);
    DistributedFft3d fft(decomp);

    auto local = grid::scatter_from_root(
        decomp, comm.is_root() ? std::span<const real_t>(full)
                               : std::span<const real_t>());
    std::vector<complex_t> spec(fft.local_spectral_size());
    fft.forward(local, spec);

    // Check every local spectral value against the serial layout
    // [k1][k2][k3c] (distributed layout is [k3c][k2][k1]).
    const Int3 sd = decomp.local_spectral_dims();
    const Int3 serial_sd = serial.spectral_dims();
    for (index_t a = 0; a < sd[0]; ++a) {
      const index_t k3 = decomp.srange3().begin + a;
      for (index_t b = 0; b < sd[1]; ++b) {
        const index_t k2 = decomp.srange2().begin + b;
        for (index_t c = 0; c < sd[2]; ++c) {
          const complex_t mine = spec[(a * sd[1] + b) * sd[2] + c];
          const complex_t ref =
              serial_spec[linear_index(c, k2, k3, serial_sd)];
          ASSERT_NEAR(mine.real(), ref.real(), 1e-8 * dims.prod());
          ASSERT_NEAR(mine.imag(), ref.imag(), 1e-8 * dims.prod());
        }
      }
    }

    // Round trip.
    std::vector<real_t> back(fft.local_real_size());
    fft.inverse(spec, back);
    for (index_t i = 0; i < fft.local_real_size(); ++i)
      ASSERT_NEAR(back[i], local[i], 1e-10);
  });
}

INSTANTIATE_TEST_SUITE_P(
    ProcessGrids, DistributedFft,
    ::testing::Values(DistCase{{8, 8, 8}, 1, 1}, DistCase{{8, 8, 8}, 1, 2},
                      DistCase{{8, 8, 8}, 2, 1}, DistCase{{8, 8, 8}, 2, 2},
                      DistCase{{16, 8, 12}, 2, 2},
                      DistCase{{8, 12, 8}, 2, 3},
                      DistCase{{12, 10, 6}, 3, 2},
                      // Uneven blocks: 10 over 4 and 7 over 2/3.
                      DistCase{{10, 7, 8}, 4, 2},
                      DistCase{{7, 10, 6}, 2, 3}));

// r2c/c2r axis-3 coverage: even/odd/mixed-radix/Bluestein N3, including odd
// local row counts (exercising the unpaired-last-row path) and the
// transpose-correctness sweep over p in {1, 2, 4, 6}.
INSTANTIATE_TEST_SUITE_P(
    RealTransformSizes, DistributedFft,
    ::testing::Values(DistCase{{5, 5, 5}, 1, 1},     // odd N3, odd rows
                      DistCase{{5, 5, 8}, 1, 2},     // odd local rows, p = 2
                      DistCase{{6, 6, 9}, 2, 2},     // mixed-radix odd N3
                      DistCase{{8, 6, 12}, 2, 3},    // mixed-radix even N3
                      DistCase{{5, 4, 67}, 1, 2},    // Bluestein N3
                      DistCase{{67, 4, 6}, 2, 1},    // Bluestein N1
                      DistCase{{4, 67, 6}, 2, 2},    // Bluestein N2
                      DistCase{{9, 7, 10}, 1, 4},    // p = 4, uneven
                      DistCase{{10, 9, 7}, 4, 1},    // p = 4, col-only
                      DistCase{{12, 7, 9}, 6, 1},    // p = 6, col-only
                      DistCase{{7, 12, 9}, 1, 6}));  // p = 6, row-only

TEST(DistributedFft3d, BatchedManyMatchesSequentialBitwise) {
  // forward_many/inverse_many must agree bitwise with per-component
  // transforms: the batch changes the exchange schedule, not the arithmetic.
  const Int3 dims{8, 12, 10};
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, 2, 2);
    DistributedFft3d fft(decomp);
    const index_t nr = fft.local_real_size();
    const index_t ns = fft.local_spectral_size();

    std::vector<std::vector<real_t>> x(3);
    for (int c = 0; c < 3; ++c)
      x[c] = random_real(nr, 100 + 7 * static_cast<unsigned>(c) +
                                 static_cast<unsigned>(comm.rank()));

    // Sequential reference.
    std::vector<std::vector<complex_t>> spec_seq(3);
    for (int c = 0; c < 3; ++c) {
      spec_seq[c].resize(ns);
      fft.forward(x[c], spec_seq[c]);
    }
    std::vector<std::vector<real_t>> back_seq(3);
    for (int c = 0; c < 3; ++c) {
      back_seq[c].resize(nr);
      fft.inverse(spec_seq[c], back_seq[c]);
    }

    // Batched.
    std::vector<std::vector<complex_t>> spec_many(3);
    for (auto& s : spec_many) s.resize(ns);
    const real_t* reals[3] = {x[0].data(), x[1].data(), x[2].data()};
    complex_t* specs[3] = {spec_many[0].data(), spec_many[1].data(),
                           spec_many[2].data()};
    fft.forward_many(std::span<const real_t* const>(reals),
                     std::span<complex_t* const>(specs));
    for (int c = 0; c < 3; ++c)
      for (index_t i = 0; i < ns; ++i) {
        ASSERT_EQ(spec_many[c][i].real(), spec_seq[c][i].real());
        ASSERT_EQ(spec_many[c][i].imag(), spec_seq[c][i].imag());
      }

    std::vector<std::vector<real_t>> back_many(3);
    for (auto& b : back_many) b.resize(nr);
    const complex_t* cspecs[3] = {spec_many[0].data(), spec_many[1].data(),
                                  spec_many[2].data()};
    real_t* backs[3] = {back_many[0].data(), back_many[1].data(),
                        back_many[2].data()};
    fft.inverse_many(std::span<const complex_t* const>(cspecs),
                     std::span<real_t* const>(backs));
    for (int c = 0; c < 3; ++c)
      for (index_t i = 0; i < nr; ++i)
        ASSERT_EQ(back_many[c][i], back_seq[c][i]);
  });
}

TEST(DistributedFft3d, RepeatedTransformsReuseBuffersBitwise) {
  // All pack/unpack scratch lives in the plan; running the same transform
  // twice must produce bit-identical results with the buffers reused (the
  // zero-allocation acceptance check of the flat-buffer pipeline).
  const Int3 dims{12, 10, 8};
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, 2, 2);
    DistributedFft3d fft(decomp);
    auto x = random_real(fft.local_real_size(),
                         55 + static_cast<unsigned>(comm.rank()));
    std::vector<complex_t> spec1(fft.local_spectral_size());
    std::vector<complex_t> spec2(fft.local_spectral_size());
    std::vector<real_t> back1(fft.local_real_size());
    std::vector<real_t> back2(fft.local_real_size());
    fft.forward(x, spec1);
    fft.inverse(spec1, back1);
    fft.forward(x, spec2);
    fft.inverse(spec2, back2);
    for (index_t i = 0; i < fft.local_spectral_size(); ++i) {
      ASSERT_EQ(spec1[i].real(), spec2[i].real());
      ASSERT_EQ(spec1[i].imag(), spec2[i].imag());
    }
    for (index_t i = 0; i < fft.local_real_size(); ++i)
      ASSERT_EQ(back1[i], back2[i]);
  });
}

TEST(DistributedFft3d, CommCountersTrackExchangesAndBytes) {
  // One forward = 2 alltoallv exchanges (row + col); with p1 = p2 = 2 every
  // rank ships data to one peer per exchange, so bytes and messages are
  // nonzero and attributed to the FFT comm category.
  const Int3 dims{8, 8, 8};
  auto timings = mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, 2, 2);
    DistributedFft3d fft(decomp);
    std::vector<real_t> x(fft.local_real_size(), 1.0);
    std::vector<complex_t> spec(fft.local_spectral_size());
    comm.timings().clear();
    fft.forward(x, spec);
    EXPECT_EQ(comm.timings().exchanges(TimeKind::kFftComm), 2u);
    fft.inverse(spec, x);
    EXPECT_EQ(comm.timings().exchanges(TimeKind::kFftComm), 4u);
  });
  for (const auto& t : timings) {
    EXPECT_EQ(t.exchanges(TimeKind::kFftComm), 4u);
    EXPECT_GT(t.bytes(TimeKind::kFftComm), 0u);
    EXPECT_GT(t.messages(TimeKind::kFftComm), 0u);
  }
}

TEST(DistributedFft3d, Fp32WireMatchesFp64WithinRounding) {
  // fp32-wire vs fp64-wire comparison (mixed-precision contract): the
  // forward spectrum and the full round trip must agree to a relative L2
  // error <= 1e-6 per field, the exchange/message schedule must be
  // identical, and the byte counters must show the halving (bytes64 -
  // bytes32 == saved32).
  const Int3 dims{20, 16, 12};
  for (int p : {1, 2, 4, 6}) {
    auto timings = mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      grid::PencilDecomp decomp(comm, dims);
      DistributedFft3d fft64(decomp);
      DistributedFft3d fft32(decomp, WirePrecision::kF32);

      // Deterministic field keyed on the global index, so every process
      // grid transforms the same data.
      const Int3 ld = decomp.local_real_dims();
      std::vector<real_t> x(fft64.local_real_size());
      index_t idx = 0;
      for (index_t a = 0; a < ld[0]; ++a)
        for (index_t b = 0; b < ld[1]; ++b)
          for (index_t c = 0; c < ld[2]; ++c, ++idx) {
            const index_t g =
                linear_index(decomp.range1().begin + a,
                             decomp.range2().begin + b, c, dims);
            x[idx] = static_cast<real_t>((g * 2654435761u) % 997) / 997.0;
          }

      std::vector<complex_t> spec64(fft64.local_spectral_size());
      std::vector<complex_t> spec32(fft64.local_spectral_size());
      std::vector<real_t> back64(x.size()), back32(x.size());

      comm.set_time_kind(TimeKind::kFftComm);
      const Timings before = comm.timings();
      fft64.forward(x, spec64);
      fft64.inverse(spec64, back64);
      const Timings mid = comm.timings();
      fft32.forward(x, spec32);
      fft32.inverse(spec32, back32);
      const Timings d64 = timings_delta(before, mid);
      const Timings d32 = timings_delta(mid, comm.timings());

      // Relative L2 error of the spectrum and of the round trip.
      real_t snum = 0, sden = 0, rnum = 0, rden = 0;
      for (size_t i = 0; i < spec64.size(); ++i) {
        snum += std::norm(spec64[i] - spec32[i]);
        sden += std::norm(spec64[i]);
      }
      for (size_t i = 0; i < back64.size(); ++i) {
        rnum += (back64[i] - back32[i]) * (back64[i] - back32[i]);
        rden += back64[i] * back64[i];
      }
      comm.set_time_kind(TimeKind::kOther);
      snum = comm.allreduce_sum(snum);
      sden = comm.allreduce_sum(sden);
      rnum = comm.allreduce_sum(rnum);
      rden = comm.allreduce_sum(rden);
      EXPECT_LE(std::sqrt(snum / sden), 1e-6) << "p=" << p;
      EXPECT_LE(std::sqrt(rnum / rden), 1e-6) << "p=" << p;

      // Identical schedule, halved wire volume.
      EXPECT_EQ(d64.exchanges(TimeKind::kFftComm),
                d32.exchanges(TimeKind::kFftComm));
      EXPECT_EQ(d64.messages(TimeKind::kFftComm),
                d32.messages(TimeKind::kFftComm));
      EXPECT_EQ(d64.bytes(TimeKind::kFftComm) - d32.bytes(TimeKind::kFftComm),
                d32.saved_bytes(TimeKind::kFftComm));
      if (p > 1) {
        EXPECT_GT(d32.saved_bytes(TimeKind::kFftComm), 0u) << "p=" << p;
      }
    });
  }
}

TEST(DistributedFft3d, Fp32WireBatchedManyMatchesScalarTransforms) {
  // The batched path must ride the converted exchanges too: forward_many at
  // fp32 wire equals per-component fp32-wire forwards bitwise (same
  // conversions, same order).
  const Int3 dims{12, 12, 12};
  mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, 2, 2);
    DistributedFft3d fft32(decomp, WirePrecision::kF32);
    const index_t n = fft32.local_real_size();
    std::vector<real_t> xs[3];
    for (int c = 0; c < 3; ++c) {
      xs[c].resize(n);
      for (index_t i = 0; i < n; ++i)
        xs[c][i] = std::sin(0.01 * static_cast<real_t>(i + c * 7));
    }
    std::vector<complex_t> batched[3], single[3];
    for (int c = 0; c < 3; ++c) {
      batched[c].resize(fft32.local_spectral_size());
      single[c].resize(fft32.local_spectral_size());
      fft32.forward(xs[c], single[c]);
    }
    const real_t* reals[3] = {xs[0].data(), xs[1].data(), xs[2].data()};
    complex_t* specs[3] = {batched[0].data(), batched[1].data(),
                           batched[2].data()};
    fft32.forward_many(std::span<const real_t* const>(reals, 3),
                       std::span<complex_t* const>(specs, 3));
    for (int c = 0; c < 3; ++c)
      for (size_t i = 0; i < batched[c].size(); ++i) {
        ASSERT_EQ(batched[c][i].real(), single[c][i].real());
        ASSERT_EQ(batched[c][i].imag(), single[c][i].imag());
      }
  });
}

TEST(DistributedFft3d, TimingsAreAttributed) {
  const Int3 dims{16, 16, 16};
  auto timings = mpisim::run_spmd(4, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims, 2, 2);
    DistributedFft3d fft(decomp);
    std::vector<real_t> x(fft.local_real_size(), 1.0);
    std::vector<complex_t> spec(fft.local_spectral_size());
    for (int rep = 0; rep < 3; ++rep) fft.forward(x, spec);
  });
  for (const auto& t : timings)
    EXPECT_GT(t.get(TimeKind::kFftExec), 0.0);
}

TEST(DistributedFft3d, OverlapPlanMatchesBlockingBitwise) {
  // An overlap plan posts the transpose exchanges nonblocking and unpacks
  // the self chunk under their flight; the spectra and round trips must be
  // bit-identical to the blocking plan on both wire formats, the comm
  // counters must show the exact same message schedule, and (for p > 1)
  // some wire time must surface as hidden.
  const Int3 dims{20, 16, 12};
  for (int p : {1, 2, 4, 6}) {
    for (WirePrecision wire : {WirePrecision::kF64, WirePrecision::kF32}) {
      auto timings = mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
        grid::PencilDecomp decomp(comm, dims);
        DistributedFft3d blocking(decomp, wire);
        DistributedFft3d overlapped(decomp, wire, /*overlap=*/true);
        EXPECT_TRUE(overlapped.overlap());

        auto x = random_real(blocking.local_real_size(),
                             91 + static_cast<unsigned>(comm.rank()));
        std::vector<complex_t> spec_b(blocking.local_spectral_size());
        std::vector<complex_t> spec_o(blocking.local_spectral_size());
        std::vector<real_t> back_b(x.size()), back_o(x.size());

        comm.timings().clear();
        const Timings t0 = comm.timings();
        blocking.forward(x, spec_b);
        blocking.inverse(spec_b, back_b);
        const Timings t1 = comm.timings();
        overlapped.forward(x, spec_o);
        overlapped.inverse(spec_o, back_o);
        const Timings t2 = comm.timings();

        for (size_t i = 0; i < spec_b.size(); ++i) {
          ASSERT_EQ(spec_b[i].real(), spec_o[i].real());
          ASSERT_EQ(spec_b[i].imag(), spec_o[i].imag());
        }
        for (size_t i = 0; i < back_b.size(); ++i)
          ASSERT_EQ(back_b[i], back_o[i]);

        const Timings db = timings_delta(t0, t1);
        const Timings dn = timings_delta(t1, t2);
        EXPECT_EQ(db.exchanges(TimeKind::kFftComm),
                  dn.exchanges(TimeKind::kFftComm));
        EXPECT_EQ(db.messages(TimeKind::kFftComm),
                  dn.messages(TimeKind::kFftComm));
        EXPECT_EQ(db.bytes(TimeKind::kFftComm), dn.bytes(TimeKind::kFftComm));
        EXPECT_EQ(db.saved_bytes(TimeKind::kFftComm),
                  dn.saved_bytes(TimeKind::kFftComm));
        // Only the overlapped plan hides wire time.
        EXPECT_EQ(db.hidden(TimeKind::kFftComm), 0.0);
      });
      if (p > 1) {
        double hidden = 0;
        for (const auto& t : timings) hidden += t.hidden(TimeKind::kFftComm);
        EXPECT_GT(hidden, 0.0) << "p=" << p;
      }
    }
  }
}

}  // namespace
}  // namespace diffreg::fft
