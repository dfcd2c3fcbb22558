// Communication and plan counters of the solver's hot paths, one table per
// family: FFT transposes, semi-Lagrangian transport, the fp32 wire and the
// batch service. The communication schedule and the plan registry make
// these numbers deterministic, so a change that adds a message, an
// exchange, a wire byte or a plan build fails here on every build type,
// compiler and sanitizer leg. Times are not asserted: perfbench/ measures
// them end to end, and tools/ab.py compares two revisions on one host. The
// solver's iteration pins (two-level preconditioner, grid-continuation
// pyramid) sit in the tests that already run those solves, in test_core
// and test_resample, which carry the same ctest label.
//
// Costs are pinned one-sided, so a drop is a win and not a failure:
//  * at most the pin: messages, interpolation exchanges, FFT and wire
//    bytes;
//  * at most 1% over the pin: interpolation bytes. Which rank owns a
//    departure point is a floating-point classification that can move a
//    few points across compilers and FMA contraction;
//  * exact both ways, where any change is a defect: alltoallv exchanges
//    per FFT transform, plan builds, shards, solve attempts, shard rebuilds,
//    and the fp32 saved-bytes accounting (interpolation: within 1%);
//  * must hold: every job of every batch leg, the faulted one included,
//    converges and finishes.
//
// Comm counters are per rank (summed over ranks, divided by the rank
// count) and per operation: per transform for the FFT, per Gauss-Newton
// matvec (incremental state + adjoint transport) for the transport.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"

namespace diffreg {
namespace {

using grid::PencilDecomp;
using grid::ScalarField;
using grid::VectorField;

constexpr double kBytesTolerance = 0.01;

constexpr WirePrecision kF64 = WirePrecision::kF64;
constexpr WirePrecision kF32 = WirePrecision::kF32;

void expect_bytes_at_most(std::uint64_t actual, std::uint64_t pin) {
  EXPECT_LE(static_cast<double>(actual),
            (1 + kBytesTolerance) * static_cast<double>(pin));
}

// --------------------------------------------------------------------------
// FFT transposes.

struct CommCounters {
  std::uint64_t bytes = 0;
  std::uint64_t saved_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t exchanges = 0;
};

CommCounters per_op(const std::vector<Timings>& per_rank, TimeKind kind,
                    int ops) {
  Timings sum;
  for (const Timings& t : per_rank) sum += t;
  const std::uint64_t norm =
      static_cast<std::uint64_t>(ops) * static_cast<std::uint64_t>(
                                            per_rank.size());
  return {sum.bytes(kind) / norm, sum.saved_bytes(kind) / norm,
          sum.messages(kind) / norm, sum.exchanges(kind) / norm};
}

/// One forward + one inverse transform after a warm-up pair. `guard` adds
/// the solver's --guard sweep after each; its allreduce is charged to
/// kOther, so the FFT counters must not move.
CommCounters fft_counters(index_t n, int p, WirePrecision wire, bool overlap,
                          bool guard) {
  const auto timings = mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {n, n, n});
    fft::DistributedFft3d fft(decomp, wire, overlap);
    std::vector<real_t> x(fft.local_real_size());
    for (index_t i = 0; i < fft.local_real_size(); ++i)
      x[i] = static_cast<real_t>((i * 2654435761u) % 1000) / 1000.0;
    std::vector<complex_t> spec(fft.local_spectral_size());
    fft.forward(x, spec);
    fft.inverse(spec, x);
    comm.timings().clear();

    fft.forward(x, spec);
    if (guard)
      grid::validate_finite(
          decomp,
          std::span<const real_t>(reinterpret_cast<const real_t*>(spec.data()),
                                  2 * spec.size()),
          "fft forward");
    fft.inverse(spec, x);
    if (guard) grid::validate_finite(decomp, x, "fft inverse");
  });
  return per_op(timings, TimeKind::kFftComm, /*ops=*/2);
}

struct FftRow {
  index_t n;
  int p;
  bool overlap;
  bool guard;
  std::uint64_t bytes, messages, exchanges;
};

TEST(Counters, FftTransposeSchedule) {
  // Two alltoallv per transform on every process grid; the overlap and
  // guard legs keep the schedule of the blocking one.
  constexpr FftRow kRows[] = {
      {32, 1, false, false, 0, 0, 2},
      {64, 1, false, false, 0, 0, 2},
      {32, 4, false, false, 69664, 4, 2},
      {64, 4, false, false, 540704, 4, 2},
      {32, 4, /*overlap=*/true, false, 69664, 4, 2},
      {64, 4, /*overlap=*/true, false, 540704, 4, 2},
      {32, 4, false, /*guard=*/true, 69664, 4, 2},
      {64, 4, false, /*guard=*/true, 540704, 4, 2},
  };
  for (const FftRow& row : kRows) {
    SCOPED_TRACE(testing::Message() << row.n << "^3 p=" << row.p
                                    << (row.overlap ? " overlap" : "")
                                    << (row.guard ? " guard" : ""));
    const CommCounters c =
        fft_counters(row.n, row.p, kF64, row.overlap, row.guard);
    EXPECT_LE(c.bytes, row.bytes);
    EXPECT_LE(c.messages, row.messages);
    EXPECT_EQ(c.exchanges, row.exchanges);
    EXPECT_EQ(c.saved_bytes, 0u);
  }
}

// --------------------------------------------------------------------------
// Semi-Lagrangian transport: the Gauss-Newton matvec's two transports.

/// Interpolation counters of one GN matvec at velocity
/// synthetic_velocity(amplitude), after the plan build and the state solve
/// it reuses. `guard` sweeps the matvec's result like the solver's --guard.
CommCounters matvec_counters(index_t n, int p, WirePrecision wire,
                             bool overlap, bool guard, real_t amplitude) {
  const auto timings = mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {n, n, n});
    spectral::SpectralOps ops(decomp, wire, overlap);
    semilag::TransportConfig tc;
    tc.nt = 4;
    tc.wire = wire;
    tc.overlap = overlap;
    semilag::Transport transport(ops, tc);

    const auto rho0 = imaging::synthetic_template(decomp);
    const auto v = imaging::synthetic_velocity(decomp, amplitude);
    const auto w = imaging::synthetic_velocity_divfree(decomp, 0.3);
    transport.set_velocity(v);
    transport.solve_state(rho0);

    ScalarField rho_tilde1;
    VectorField b;
    comm.timings().clear();
    transport.solve_incremental_state(w, rho_tilde1);
    transport.solve_incremental_adjoint_gn(rho_tilde1, b);
    if (guard) grid::validate_finite(decomp, b, "gn matvec integrand");
  });
  return per_op(timings, TimeKind::kInterpComm, /*ops=*/1);
}

struct MatvecRow {
  index_t n;
  int p;
  bool overlap;
  bool guard;
  real_t amplitude;
  std::uint64_t bytes, messages, exchanges;
};

TEST(Counters, TransportMatvecSchedule) {
  // Eight interpolation exchanges per matvec on every process grid; bytes
  // follow departure-point ownership, so each row names the velocity.
  constexpr MatvecRow kRows[] = {
      {32, 1, false, false, 0.5, 0, 0, 8},
      {64, 1, false, false, 0.52, 0, 0, 8},
      {32, 4, false, false, 0.52, 498688, 72, 8},
      {64, 4, false, false, 0.5, 1948928, 72, 8},
      {32, 4, /*overlap=*/true, false, 0.52, 498688, 72, 8},
      {64, 4, /*overlap=*/true, false, 0.5, 1948928, 72, 8},
      {32, 4, false, /*guard=*/true, 0.52, 498688, 72, 8},
      {64, 4, false, /*guard=*/true, 0.5, 1948928, 72, 8},
  };
  for (const MatvecRow& row : kRows) {
    SCOPED_TRACE(testing::Message() << row.n << "^3 p=" << row.p
                                    << (row.overlap ? " overlap" : "")
                                    << (row.guard ? " guard" : ""));
    const CommCounters c = matvec_counters(row.n, row.p, kF64, row.overlap,
                                           row.guard, row.amplitude);
    expect_bytes_at_most(c.bytes, row.bytes);
    EXPECT_LE(c.messages, row.messages);
    EXPECT_LE(c.exchanges, row.exchanges);
  }
}

// --------------------------------------------------------------------------
// fp32 wire (mixed precision): half the payload on the wire, the other half
// accounted as saved.

TEST(Counters, Fp32WireHalvesThePayload) {
  struct FftWireRow {
    int p;
    std::uint64_t wire_bytes, saved_bytes;
  };
  constexpr FftWireRow kFftRows[] = {{1, 0, 0}, {4, 270368, 270336}};
  for (const FftWireRow& row : kFftRows) {
    SCOPED_TRACE(testing::Message() << "fft 64^3 p=" << row.p);
    const CommCounters c = fft_counters(64, row.p, kF32, false, false);
    EXPECT_LE(c.bytes, row.wire_bytes);
    EXPECT_EQ(c.saved_bytes, row.saved_bytes);
  }

  struct MatvecWireRow {
    index_t n;
    real_t amplitude;
    std::uint64_t wire_bytes, saved_bytes;
  };
  constexpr MatvecWireRow kMatvecRows[] = {{32, 0.52, 249472, 249216},
                                           {64, 0.5, 974592, 974336}};
  for (const MatvecWireRow& row : kMatvecRows) {
    SCOPED_TRACE(testing::Message() << "matvec " << row.n << "^3 p=4");
    const CommCounters c =
        matvec_counters(row.n, 4, kF32, false, false, row.amplitude);
    expect_bytes_at_most(c.bytes, row.wire_bytes);
    EXPECT_NEAR(static_cast<double>(c.saved_bytes),
                static_cast<double>(row.saved_bytes),
                kBytesTolerance * static_cast<double>(row.saved_bytes));
  }
}

// --------------------------------------------------------------------------
// Batch service: eight synthetic 16^3 jobs (amplitudes 0.30, 0.32, ...,
// 0.44) at the default solver options.

constexpr index_t kBatchN = 16;
constexpr int kJobs = 8;

enum class BatchLeg {
  kSharded,        // automatic shards
  kCoresident,     // one shard with deformed templates, two batches
  kFaultRecovery,  // one shard, a seeded rank crash mid-batch
};

struct BatchOutcome {
  bool all_converged = true;
  int shards = 0;
  core::PlanRegistry::Stats registry;  // root rank, first batch
  int rebatch_extra_builds = 0;        // plans built by the second batch
  int done_jobs = 0;                   // first batch
  int total_attempts = 0;              // first batch
  int shard_rebuilds = 0;
};

std::vector<core::BatchJobSpec> batch_jobs() {
  std::vector<core::BatchJobSpec> jobs;
  for (int j = 0; j < kJobs; ++j) {
    core::BatchJobSpec spec;
    spec.dims = {kBatchN, kBatchN, kBatchN};
    spec.request.job_id = static_cast<std::uint64_t>(j + 1);
    const real_t amplitude = 0.30 + 0.02 * j;
    spec.make_inputs = [amplitude](PencilDecomp& d, ScalarField& t,
                                   ScalarField& r) {
      spectral::SpectralOps ops(d);
      t = imaging::synthetic_template(d);
      r = imaging::make_reference(ops, t,
                                  imaging::synthetic_velocity(d, amplitude));
    };
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

int builds(const core::PlanRegistry::Stats& s) {
  return s.decomp_builds + s.spectral_builds + s.resample_builds +
         s.transport_builds;
}

BatchOutcome run_batch_leg(BatchLeg leg, int ranks) {
  BatchOutcome out;
  core::BatchOptions bopt;
  bopt.shards = leg == BatchLeg::kSharded ? 0 : 1;
  bopt.want_deformed = leg == BatchLeg::kCoresident;
  const int batches = leg == BatchLeg::kCoresident ? 2 : 1;
  mpisim::SpmdOptions sopts;
  if (leg == BatchLeg::kFaultRecovery) {
    // The per-rank comm-op counter passes crash_at mid-batch: rank 1 dies
    // once, the shard recovers and requeues the in-flight job.
    sopts.fault_spec = "seed=3,crash_rank=1,crash_at=2000";
    sopts.comm_timeout_ms = 400;
  }
  mpisim::run_spmd(
      ranks,
      [&](mpisim::Communicator& comm) {
        core::BatchSolver batch(comm);
        for (int b = 0; b < batches; ++b) {
          for (auto& spec : batch_jobs()) batch.submit(std::move(spec));
          const core::BatchReport rr = batch.run_all(bopt);
          if (!comm.is_root()) continue;
          for (const auto& s : rr.summary)
            out.all_converged = out.all_converged && s.converged;
          if (b > 0) {
            out.rebatch_extra_builds =
                builds(rr.registry) - builds(out.registry);
            continue;
          }
          for (const auto& s : rr.summary) {
            if (s.outcome == core::JobOutcome::kDone) ++out.done_jobs;
            out.total_attempts += s.attempts;
          }
          out.shards = rr.shards;
          out.registry = rr.registry;
          out.shard_rebuilds = rr.shard_rebuilds;
        }
      },
      sopts);
  return out;
}

struct BatchRow {
  BatchLeg leg;
  int ranks;
  // Exact pins; -1 where the leg records none.
  int shards;
  int decomp_builds, spectral_builds, transport_builds;
  int rebatch_extra_builds;
  int total_attempts, shard_rebuilds;
};

TEST(Counters, BatchPlanSharingAndRecovery) {
  using enum BatchLeg;
  // Shards share one plan of each family per shape; the co-resident
  // deformed-template transport checks out one pooled transport per job,
  // and a second batch on the same solver builds nothing. The seeded crash
  // costs exactly one extra attempt and no shard rebuild, and every job of
  // every leg finishes.
  constexpr BatchRow kRows[] = {
      {kSharded, 4, 4, 1, 1, 1, -1, kJobs, 0},
      {kCoresident, 4, 1, 1, 1, 8, 0, kJobs, 0},
      {kFaultRecovery, 2, 1, -1, -1, -1, -1, kJobs + 1, 0},
  };
  const auto expect_pin = [](int actual, int pin, const char* what) {
    if (pin >= 0) {
      EXPECT_EQ(actual, pin) << what;
    }
  };
  for (const BatchRow& row : kRows) {
    SCOPED_TRACE(testing::Message() << "leg " << static_cast<int>(row.leg)
                                    << " p=" << row.ranks);
    const BatchOutcome out = run_batch_leg(row.leg, row.ranks);
    EXPECT_TRUE(out.all_converged);
    EXPECT_EQ(out.done_jobs, kJobs);
    expect_pin(out.shards, row.shards, "shards");
    expect_pin(out.registry.decomp_builds, row.decomp_builds,
               "decomp_builds");
    expect_pin(out.registry.spectral_builds, row.spectral_builds,
               "spectral_builds");
    expect_pin(out.registry.transport_builds, row.transport_builds,
               "transport_builds");
    expect_pin(out.rebatch_extra_builds, row.rebatch_extra_builds,
               "rebatch_extra_builds");
    expect_pin(out.total_attempts, row.total_attempts, "total_attempts");
    expect_pin(out.shard_rebuilds, row.shard_rebuilds, "shard_rebuilds");
  }
}

}  // namespace
}  // namespace diffreg
