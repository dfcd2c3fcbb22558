// Batch service tests: PlanRegistry lease/reuse semantics (same-shape jobs
// build each plan family exactly once, mixed shapes and wire precisions get
// distinct entries), the transport pool, SolveRequest job metadata and
// repeatability, BatchSolver-vs-sequential bitwise identity at p = 1, 2
// and 4, priority/deadline semantics, and the fused cross-job paths
// (gaussian_smooth_many, solve_states_fused through FusedInterp).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_manifest.hpp"
#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"

namespace diffreg::core {
namespace {

using grid::PencilDecomp;
using grid::ScalarField;
using grid::VectorField;

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

bool same_bits(const VectorField& a, const VectorField& b) {
  return same_bits(a.comp[0], b.comp[0]) && same_bits(a.comp[1], b.comp[1]) &&
         same_bits(a.comp[2], b.comp[2]);
}

void make_pair(PencilDecomp& decomp, real_t amplitude, int nt,
               ScalarField& rho_t, ScalarField& rho_r) {
  spectral::SpectralOps ops(decomp);
  rho_t = imaging::synthetic_template(decomp);
  auto v = imaging::synthetic_velocity(decomp, amplitude);
  rho_r = imaging::make_reference(ops, rho_t, v, nt);
}

RegistrationOptions small_options() {
  RegistrationOptions opt;
  opt.nt = 2;
  opt.max_newton_iters = 2;
  return opt;
}

// --------------------------------------------------------------------------
// PlanRegistry keying and reuse.

TEST(PlanRegistry, SameShapeLeasesBuildEachPlanOnce) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PlanRegistry reg(comm);
    auto d1 = reg.decomp({16, 16, 16});
    auto d2 = reg.decomp({16, 16, 16});
    EXPECT_EQ(d1.get(), d2.get());
    EXPECT_EQ(reg.stats().decomp_builds, 1);
    EXPECT_EQ(reg.stats().leases, 2);

    auto s1 = reg.spectral({16, 16, 16}, WirePrecision::kF64, false);
    auto s2 = reg.spectral({16, 16, 16}, WirePrecision::kF64, false);
    EXPECT_EQ(s1.get(), s2.get());
    EXPECT_EQ(reg.stats().spectral_builds, 1);
    // A spectral lease nests a decomp lease, so leases exceed builds.
    EXPECT_GT(reg.stats().leases, reg.plan_build_count());
  });
}

TEST(PlanRegistry, MixedShapesGetDistinctEntries) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PlanRegistry reg(comm);
    auto a = reg.decomp({16, 16, 16});
    auto b = reg.decomp({20, 16, 16});
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(reg.stats().decomp_builds, 2);
    EXPECT_EQ(reg.decomp_entries(), 2u);
  });
}

TEST(PlanRegistry, WirePrecisionAndOverlapKeysDoNotCollide) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PlanRegistry reg(comm);
    auto f64 = reg.spectral({16, 16, 16}, WirePrecision::kF64, false);
    auto f32 = reg.spectral({16, 16, 16}, WirePrecision::kF32, false);
    auto f64_ov = reg.spectral({16, 16, 16}, WirePrecision::kF64, true);
    EXPECT_NE(f64.get(), f32.get());
    EXPECT_NE(f64.get(), f64_ov.get());
    EXPECT_NE(f32.get(), f64_ov.get());
    EXPECT_EQ(reg.stats().spectral_builds, 3);
    EXPECT_EQ(reg.spectral_entries(), 3u);
    // One decomposition serves all three spectral plans.
    EXPECT_EQ(reg.stats().decomp_builds, 1);
  });
}

TEST(PlanRegistry, TransportPoolReusesReleasedInstances) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PlanRegistry reg(comm);
    semilag::TransportConfig tc;
    tc.nt = 2;
    auto t1 = reg.acquire_transport({16, 16, 16}, tc);
    auto* raw1 = t1.get();
    reg.release_transport({16, 16, 16}, tc, std::move(t1));
    auto t2 = reg.acquire_transport({16, 16, 16}, tc);
    EXPECT_EQ(raw1, t2.get());
    EXPECT_EQ(reg.stats().transport_builds, 1);
    // A second concurrent checkout needs a second instance.
    auto t3 = reg.acquire_transport({16, 16, 16}, tc);
    EXPECT_NE(t2.get(), t3.get());
    EXPECT_EQ(reg.stats().transport_builds, 2);
    reg.release_transport({16, 16, 16}, tc, std::move(t2));
    reg.release_transport({16, 16, 16}, tc, std::move(t3));
  });
}

// --------------------------------------------------------------------------
// SolveRequest as the one entrypoint.

TEST(SolveRequest, EchoesJobIdAndRepeatsBitwise) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    ScalarField rho_t, rho_r;
    const RegistrationOptions opt = small_options();
    make_pair(decomp, 0.5, opt.nt, rho_t, rho_r);

    RegistrationSolver first(decomp, opt);
    auto ref = first.solve({.rho_t = &rho_t, .rho_r = &rho_r, .options = opt});

    RegistrationSolver solver(decomp, opt);
    SolveRequest req;
    req.rho_t = &rho_t;
    req.rho_r = &rho_r;
    req.options = opt;
    req.job_id = 42;
    auto rep = solver.solve(req);

    EXPECT_TRUE(same_bits(ref.velocity, rep.velocity));
    EXPECT_EQ(ref.newton.iterations, rep.newton.iterations);
    EXPECT_EQ(ref.job_id, 0u);
    EXPECT_EQ(rep.job_id, 42u);
    EXPECT_TRUE(rep.deadline_met);  // no deadline set
  });
}

TEST(SolveRequest, RegistryBackedSolverMatchesStandaloneBitwise) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    ScalarField rho_t, rho_r;
    const RegistrationOptions opt = small_options();
    PencilDecomp standalone_decomp(comm, {16, 16, 16});
    make_pair(standalone_decomp, 0.5, opt.nt, rho_t, rho_r);
    RegistrationSolver standalone(standalone_decomp, opt);
    auto ref =
        standalone.solve({.rho_t = &rho_t, .rho_r = &rho_r, .options = opt});

    auto reg = std::make_shared<PlanRegistry>(comm);
    auto decomp = reg->decomp({16, 16, 16});
    RegistrationSolver pooled(*decomp, opt, reg);
    SolveRequest req;
    req.rho_t = &rho_t;
    req.rho_r = &rho_r;
    req.options = opt;
    auto rep = pooled.solve(req);

    EXPECT_TRUE(same_bits(ref.velocity, rep.velocity));
    EXPECT_GE(reg->stats().leases, 2);
  });
}

TEST(SolveRequest, DeadlineSemantics) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    ScalarField rho_t, rho_r;
    const RegistrationOptions opt = small_options();
    make_pair(decomp, 0.4, opt.nt, rho_t, rho_r);
    RegistrationSolver solver(decomp, opt);

    SolveRequest req;
    req.rho_t = &rho_t;
    req.rho_r = &rho_r;
    req.options = opt;
    req.deadline_seconds = 1e-9;  // impossible
    EXPECT_FALSE(solver.solve(req).deadline_met);
    req.deadline_seconds = 3600;  // generous
    EXPECT_TRUE(solver.solve(req).deadline_met);
  });
}

// --------------------------------------------------------------------------
// BatchSolver vs sequential: bitwise identity in the shards=1 mode.

void expect_batch_matches_sequential(int ranks) {
  mpisim::run_spmd(ranks, [&](mpisim::Communicator& comm) {
    const Int3 dims{16, 16, 16};
    const RegistrationOptions opt = small_options();
    const std::vector<real_t> amps{0.30, 0.35, 0.40};

    // Sequential reference: fresh solver and plans per job.
    std::vector<VectorField> ref;
    for (real_t amp : amps) {
      PencilDecomp decomp(comm, dims);
      ScalarField rho_t, rho_r;
      make_pair(decomp, amp, opt.nt, rho_t, rho_r);
      RegistrationSolver solver(decomp, opt);
      ref.push_back(
          solver.solve({.rho_t = &rho_t, .rho_r = &rho_r, .options = opt})
              .velocity);
    }

    BatchSolver batch(comm);
    for (std::size_t j = 0; j < amps.size(); ++j) {
      BatchJobSpec spec;
      spec.dims = dims;
      spec.request.options = opt;
      const real_t amp = amps[j];
      const int nt = opt.nt;
      spec.make_inputs = [amp, nt](PencilDecomp& d, ScalarField& t,
                                   ScalarField& r) {
        make_pair(d, amp, nt, t, r);
      };
      batch.submit(std::move(spec));
    }
    BatchOptions bopt;
    bopt.shards = 1;  // the bitwise-reference mode
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.reports.size(), amps.size());
    for (std::size_t j = 0; j < amps.size(); ++j)
      EXPECT_TRUE(same_bits(ref[j], rep.reports[j].velocity))
          << "job " << j << " diverged from its standalone solve at p="
          << ranks;
    // All jobs share one decomposition and one spectral plan set.
    EXPECT_EQ(rep.registry.decomp_builds, 1);
    EXPECT_EQ(rep.registry.spectral_builds, 1);
  });
}

TEST(BatchSolver, MatchesSequentialBitwiseP1) {
  expect_batch_matches_sequential(1);
}
TEST(BatchSolver, MatchesSequentialBitwiseP2) {
  expect_batch_matches_sequential(2);
}
TEST(BatchSolver, MatchesSequentialBitwiseP4) {
  expect_batch_matches_sequential(4);
}

TEST(BatchSolver, MixedShapesShareNothingButSolve) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    for (const Int3& dims : {Int3{16, 16, 16}, Int3{20, 16, 16}}) {
      BatchJobSpec spec;
      spec.dims = dims;
      spec.request.options = opt;
      const int nt = opt.nt;
      spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t,
                              ScalarField& r) {
        make_pair(d, 0.4, nt, t, r);
      };
      batch.submit(std::move(spec));
    }
    BatchOptions bopt;
    bopt.shards = 1;
    auto rep = batch.run_all(bopt);
    ASSERT_EQ(rep.summary.size(), 2u);
    EXPECT_TRUE(rep.summary[0].converged || rep.summary[0].newton_iters > 0);
    EXPECT_EQ(rep.registry.decomp_builds, 2);
    EXPECT_EQ(rep.registry.spectral_builds, 2);
  });
}

TEST(BatchSolver, PriorityOrdersExecutionAndDeadlinesAreAdvisory) {
  mpisim::run_spmd(1, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    const int priorities[4] = {0, 5, 0, 5};
    for (int j = 0; j < 4; ++j) {
      BatchJobSpec spec;
      spec.dims = {16, 16, 16};
      spec.request.options = opt;
      spec.request.priority = priorities[j];
      spec.request.deadline_seconds = (j == 0) ? 1e-9 : 0;  // job 1 misses
      const int nt = opt.nt;
      spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t,
                              ScalarField& r) {
        make_pair(d, 0.4, nt, t, r);
      };
      batch.submit(std::move(spec));
    }
    BatchOptions bopt;
    bopt.shards = 1;
    auto rep = batch.run_all(bopt);
    ASSERT_EQ(rep.summary.size(), 4u);
    // Priority-5 jobs (ids 2 and 4) finish before every priority-0 job.
    const auto done = [&](int j) { return rep.summary[j].completed_at_seconds; };
    EXPECT_LT(done(1), done(0));
    EXPECT_LT(done(1), done(2));
    EXPECT_LT(done(3), done(0));
    EXPECT_LT(done(3), done(2));
    // FIFO within a class.
    EXPECT_LT(done(1), done(3));
    EXPECT_LT(done(0), done(2));
    // The impossible deadline is recorded, not enforced: the job still ran.
    EXPECT_FALSE(rep.summary[0].deadline_met);
    EXPECT_GT(rep.summary[0].newton_iters, 0);
    EXPECT_TRUE(rep.summary[1].deadline_met);
  });
}

TEST(BatchSolver, InvalidConfigurationsThrow) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    BatchJobSpec bad_dims;
    bad_dims.dims = {0, 16, 16};
    EXPECT_THROW(batch.submit(std::move(bad_dims)), std::invalid_argument);
    BatchJobSpec no_inputs;
    no_inputs.dims = {16, 16, 16};  // neither pointers nor a factory
    EXPECT_THROW(batch.submit(std::move(no_inputs)), std::invalid_argument);

    BatchJobSpec spec;
    spec.dims = {16, 16, 16};
    spec.request.options = opt;
    const int nt = opt.nt;
    spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      make_pair(d, 0.4, nt, t, r);
    };
    batch.submit(std::move(spec));
    BatchOptions bopt;
    bopt.shards = 3;  // does not divide p=2
    EXPECT_THROW(batch.run_all(bopt), std::invalid_argument);

    // Raw-pointer inputs live on the parent decomposition and pin shards=1.
    PencilDecomp decomp(comm, {16, 16, 16});
    ScalarField rho_t, rho_r;
    make_pair(decomp, 0.4, nt, rho_t, rho_r);
    BatchJobSpec raw;
    raw.dims = {16, 16, 16};
    raw.request.options = opt;
    raw.request.rho_t = &rho_t;
    raw.request.rho_r = &rho_r;
    batch.submit(std::move(raw));
    bopt.shards = 2;
    EXPECT_THROW(batch.run_all(bopt), std::invalid_argument);
  });
}

// --------------------------------------------------------------------------
// Fused cross-job phases are bitwise identical to their per-job forms.

TEST(FusedPhases, GaussianSmoothManyMatchesPerField) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp);
    const index_t n = decomp.local_real_size();

    std::vector<ScalarField> fields;
    fields.push_back(imaging::synthetic_template(decomp));
    fields.push_back(imaging::sphere_phantom(decomp, {3.0, 3.0, 3.0}, 1.2));
    fields.push_back(imaging::brain_phantom(decomp, 1));
    const std::vector<Vec3> sigmas{{0.2, 0.2, 0.2}, {0.3, 0.1, 0.2},
                                   {0.05, 0.4, 0.15}};

    std::vector<ScalarField> ref(3, ScalarField(n));
    for (int i = 0; i < 3; ++i)
      ops.gaussian_smooth(fields[i], sigmas[i], ref[i]);

    std::vector<ScalarField> out(3, ScalarField(n));
    const real_t* ins[3] = {fields[0].data(), fields[1].data(),
                            fields[2].data()};
    real_t* outs[3] = {out[0].data(), out[1].data(), out[2].data()};
    ops.gaussian_smooth_many(std::span<const real_t* const>(ins, 3),
                             std::span<const Vec3>(sigmas),
                             std::span<real_t* const>(outs, 3));
    for (int i = 0; i < 3; ++i)
      EXPECT_TRUE(same_bits(ref[i], out[i])) << "field " << i;
  });
}

void expect_fused_states_match(WirePrecision wire, bool overlap) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    PencilDecomp decomp(comm, {16, 16, 16});
    spectral::SpectralOps ops(decomp, wire, overlap);
    semilag::TransportConfig tc;
    tc.nt = 3;
    tc.wire = wire;
    tc.overlap = overlap;

    auto rho_a = imaging::synthetic_template(decomp);
    auto rho_b = imaging::sphere_phantom(decomp, {3.0, 3.0, 3.0}, 1.3);
    auto va = imaging::synthetic_velocity(decomp, 0.4);
    auto vb = imaging::synthetic_velocity(decomp, 0.55);

    semilag::Transport ta(ops, tc), tb(ops, tc);
    ta.set_velocity(va);
    tb.set_velocity(vb);

    // Per-transport reference.
    ta.solve_state(rho_a);
    tb.solve_state(rho_b);
    const ScalarField ref_a = ta.final_state();
    const ScalarField ref_b = tb.final_state();

    // Fused lockstep solve.
    interp::FusedInterp fused(decomp, wire, overlap);
    semilag::Transport* transports[2] = {&ta, &tb};
    const ScalarField* rho0[2] = {&rho_a, &rho_b};
    semilag::solve_states_fused(
        std::span<semilag::Transport* const>(transports, 2),
        std::span<const ScalarField* const>(rho0, 2), fused);

    EXPECT_TRUE(same_bits(ref_a, ta.final_state()));
    EXPECT_TRUE(same_bits(ref_b, tb.final_state()));
    EXPECT_EQ(fused.fused_calls(), tc.nt);
  });
}

TEST(FusedPhases, SolveStatesFusedMatchesSolveState) {
  expect_fused_states_match(WirePrecision::kF64, false);
}
TEST(FusedPhases, SolveStatesFusedMatchesSolveStateF32Wire) {
  expect_fused_states_match(WirePrecision::kF32, false);
}
TEST(FusedPhases, SolveStatesFusedMatchesSolveStateOverlap) {
  expect_fused_states_match(WirePrecision::kF64, true);
}

TEST(FusedPhases, FusedDeformedTemplateMatchesPerJob) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const Int3 dims{16, 16, 16};
    const RegistrationOptions opt = small_options();
    const std::vector<real_t> amps{0.30, 0.45};

    // Per-job reference: solve, then deform_template.
    std::vector<ScalarField> ref;
    std::vector<VectorField> velocities;
    for (real_t amp : amps) {
      PencilDecomp decomp(comm, dims);
      ScalarField rho_t, rho_r;
      make_pair(decomp, amp, opt.nt, rho_t, rho_r);
      RegistrationSolver solver(decomp, opt);
      auto res =
          solver.solve({.rho_t = &rho_t, .rho_r = &rho_r, .options = opt});
      ScalarField deformed;
      solver.deform_template(rho_t, res.velocity, deformed);
      ref.push_back(std::move(deformed));
      velocities.push_back(std::move(res.velocity));
    }

    BatchSolver batch(comm);
    for (real_t amp : amps) {
      BatchJobSpec spec;
      spec.dims = dims;
      spec.request.options = opt;
      const int nt = opt.nt;
      spec.make_inputs = [amp, nt](PencilDecomp& d, ScalarField& t,
                                   ScalarField& r) {
        make_pair(d, amp, nt, t, r);
      };
      batch.submit(std::move(spec));
    }
    BatchOptions bopt;
    bopt.shards = 1;
    bopt.want_deformed = true;
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.deformed.size(), amps.size());
    for (std::size_t j = 0; j < amps.size(); ++j) {
      EXPECT_TRUE(same_bits(velocities[j], rep.reports[j].velocity));
      EXPECT_TRUE(same_bits(ref[j], rep.deformed[j])) << "job " << j;
    }
  });
}

// --------------------------------------------------------------------------
// Deadline enforcement (BatchOptions::enforce_deadlines; advisory remains
// the library default, pinned above).

TEST(BatchSolver, EnforcedDeadlineCancelsAtAdmission) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    BatchJobSpec late;
    late.dims = {16, 16, 16};
    late.request.options = opt;
    late.request.deadline_seconds = 1e-9;  // already passed at admission
    const int nt = opt.nt;
    late.make_inputs = [nt](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      make_pair(d, 0.4, nt, t, r);
    };
    batch.submit(std::move(late));

    BatchJobSpec fine;
    fine.dims = {16, 16, 16};
    fine.request.options = opt;
    fine.make_inputs = [nt](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      make_pair(d, 0.35, nt, t, r);
    };
    batch.submit(std::move(fine));

    BatchOptions bopt;
    bopt.shards = 1;
    bopt.enforce_deadlines = true;
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.summary.size(), 2u);
    EXPECT_EQ(rep.summary[0].outcome, JobOutcome::kDeadlineExceeded);
    EXPECT_EQ(rep.summary[0].newton_iters, 0);  // no solve was spent on it
    EXPECT_FALSE(rep.summary[0].deadline_met);
    EXPECT_GT(rep.summary[0].completed_at_seconds, 0.0);
    EXPECT_EQ(rep.summary[1].outcome, JobOutcome::kDone);
    EXPECT_TRUE(rep.summary[1].deadline_met);
    // The cancelled job produced no report.
    ASSERT_EQ(rep.reports.size(), 1u);
    EXPECT_EQ(rep.reports[0].job_id, rep.summary[1].job_id);
  });
}

TEST(BatchSolver, EnforcedDeadlineCancelsBetweenNewtonIterates) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    BatchJobSpec spec;
    spec.dims = {16, 16, 16};
    spec.request.options = opt;
    // Admission is comfortably inside the budget; the first Newton iterate
    // then burns past it (the caller hook sleeps, chained BEFORE the
    // lateness vote), so the cancellation fires mid-solve.
    spec.request.deadline_seconds = 0.5;
    spec.request.options.iterate_hook = [](const NewtonIterateInfo&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    };
    const int nt = opt.nt;
    spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      make_pair(d, 0.4, nt, t, r);
    };
    batch.submit(std::move(spec));

    BatchOptions bopt;
    bopt.shards = 1;
    bopt.enforce_deadlines = true;
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.summary.size(), 1u);
    EXPECT_EQ(rep.summary[0].outcome, JobOutcome::kDeadlineExceeded);
    EXPECT_EQ(rep.summary[0].attempts, 1);
    EXPECT_FALSE(rep.summary[0].deadline_met);
    EXPECT_GE(rep.summary[0].completed_at_seconds, 0.5);
    EXPECT_TRUE(rep.reports.empty());
  });
}

TEST(BatchSolver, DegradeReadmitsACancelledJobOnce) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const RegistrationOptions opt = small_options();
    BatchSolver batch(comm);
    bool slept = false;
    BatchJobSpec spec;
    spec.dims = {16, 16, 16};
    spec.request.options = opt;
    spec.request.deadline_seconds = 0.5;
    // First attempt: the hook burns the budget once, the lateness vote
    // cancels. The degraded re-admission runs the same hook without the
    // sleep and without enforcement, and must complete.
    spec.request.options.iterate_hook = [&slept](const NewtonIterateInfo&) {
      if (slept) return;
      slept = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    };
    const int nt = opt.nt;
    spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t, ScalarField& r) {
      make_pair(d, 0.4, nt, t, r);
    };
    batch.submit(std::move(spec));

    BatchOptions bopt;
    bopt.shards = 1;
    bopt.enforce_deadlines = true;
    bopt.degrade = true;
    auto rep = batch.run_all(bopt);

    ASSERT_EQ(rep.summary.size(), 1u);
    EXPECT_EQ(rep.summary[0].outcome, JobOutcome::kDegraded);
    EXPECT_EQ(rep.summary[0].attempts, 2);
    EXPECT_FALSE(rep.summary[0].deadline_met);  // judged vs admission
    // The degrade ladder halves max_newton_iters (2 -> 1): the job ran,
    // but on the cheaper configuration.
    EXPECT_GT(rep.summary[0].newton_iters, 0);
    EXPECT_LE(rep.summary[0].newton_iters, 1);
    ASSERT_EQ(rep.reports.size(), 1u);
  });
}

// --------------------------------------------------------------------------
// Batch manifests: persistence round-trip and resume semantics.

TEST(BatchManifest, FileRoundTripPreservesEveryField) {
  const std::string path = "test_batch_manifest_roundtrip.json";
  std::remove(path.c_str());
  EXPECT_TRUE(read_manifest_file(path).empty());  // missing file: first run

  std::vector<BatchManifestEntry> entries(2);
  entries[0].job_id = 7;
  entries[0].outcome = "done";
  entries[0].attempts = 2;
  entries[0].completed_at_seconds = 1.25;
  entries[0].deadline_met = false;
  entries[0].checkpoint_path = "state.json.job7.ckpt";
  entries[1].job_id = 9;
  entries[1].outcome = "retrying";
  entries[1].attempts = 1;
  write_manifest_file(path, entries);

  const auto back = read_manifest_file(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].job_id, 7u);
  EXPECT_EQ(back[0].outcome, "done");
  EXPECT_EQ(back[0].attempts, 2);
  EXPECT_DOUBLE_EQ(back[0].completed_at_seconds, 1.25);
  EXPECT_FALSE(back[0].deadline_met);
  EXPECT_EQ(back[0].checkpoint_path, "state.json.job7.ckpt");
  EXPECT_EQ(back[1].job_id, 9u);
  EXPECT_EQ(back[1].outcome, "retrying");
  EXPECT_TRUE(back[1].deadline_met);

  // Corruption is a structured error, not a silent re-run.
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a manifest\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_manifest_file(path), BatchManifestError);
  std::remove(path.c_str());
}

TEST(BatchManifest, ResumeSkipsCompletedJobsWithZeroPlanWork) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const std::string path = "test_batch_manifest_resume.json";
    if (comm.rank() == 0) std::remove(path.c_str());
    comm.barrier();

    const RegistrationOptions opt = small_options();
    const std::vector<real_t> amps{0.30, 0.40};
    auto submit_jobs = [&](BatchSolver& batch) {
      for (std::size_t j = 0; j < amps.size(); ++j) {
        BatchJobSpec spec;
        spec.dims = {16, 16, 16};
        spec.request.options = opt;
        spec.request.job_id = 100 + j;  // stable ids: the resume match key
        const real_t amp = amps[j];
        const int nt = opt.nt;
        spec.make_inputs = [amp, nt](PencilDecomp& d, ScalarField& t,
                                     ScalarField& r) {
          make_pair(d, amp, nt, t, r);
        };
        batch.submit(std::move(spec));
      }
    };

    BatchOptions bopt;
    bopt.shards = 1;
    bopt.manifest_path = path;

    BatchSolver first(comm);
    submit_jobs(first);
    auto rep1 = first.run_all(bopt);
    ASSERT_EQ(rep1.summary.size(), amps.size());
    for (const auto& s : rep1.summary)
      EXPECT_EQ(s.outcome, JobOutcome::kDone);

    // Second launch (fresh solver = fresh registries, as after a kill):
    // every job is final in the manifest, so nothing runs and no plan is
    // built or leased.
    BatchSolver second(comm);
    submit_jobs(second);
    auto rep2 = second.run_all(bopt);
    ASSERT_EQ(rep2.summary.size(), amps.size());
    for (std::size_t j = 0; j < amps.size(); ++j) {
      EXPECT_EQ(rep2.summary[j].outcome, JobOutcome::kDone);
      EXPECT_EQ(rep2.summary[j].shard, -1);  // restored, not placed
      EXPECT_FALSE(rep2.summary[j].ran_here);
      EXPECT_EQ(rep2.summary[j].attempts, rep1.summary[j].attempts);
      EXPECT_DOUBLE_EQ(rep2.summary[j].completed_at_seconds,
                       rep1.summary[j].completed_at_seconds);
    }
    EXPECT_TRUE(rep2.reports.empty());
    EXPECT_EQ(rep2.rounds, 1);
    EXPECT_EQ(rep2.registry.decomp_builds, 0);
    EXPECT_EQ(rep2.registry.spectral_builds, 0);
    EXPECT_EQ(rep2.registry.leases, 0);

    comm.barrier();
    if (comm.rank() == 0) std::remove(path.c_str());
  });
}

TEST(BatchManifest, ResumeWarmStartsAnInFlightJobFromItsCheckpoint) {
  mpisim::run_spmd(2, [&](mpisim::Communicator& comm) {
    const std::string path = "test_batch_manifest_warm.json";
    const std::string ckpt = "test_batch_manifest_warm.ckpt";
    if (comm.rank() == 0) {
      std::remove(path.c_str());
      std::remove(ckpt.c_str());
    }
    comm.barrier();

    const RegistrationOptions opt = small_options();
    const int nt = opt.nt;
    auto make_spec = [&]() {
      BatchJobSpec spec;
      spec.dims = {16, 16, 16};
      spec.request.options = opt;
      spec.request.job_id = 201;
      spec.request.checkpoint_path = ckpt;
      spec.make_inputs = [nt](PencilDecomp& d, ScalarField& t,
                              ScalarField& r) {
        make_pair(d, 0.4, nt, t, r);
      };
      return spec;
    };

    // First launch, no manifest: runs the job and leaves its per-iterate
    // solver checkpoint behind (as a killed batch would).
    BatchSolver first(comm);
    first.submit(make_spec());
    BatchOptions bopt;
    bopt.shards = 1;
    auto rep1 = first.run_all(bopt);
    ASSERT_EQ(rep1.summary.size(), 1u);
    ASSERT_EQ(rep1.summary[0].outcome, JobOutcome::kDone);

    // Craft the manifest a kill mid-job would have left: non-final
    // outcome, one attempt spent, checkpoint path recorded.
    if (comm.rank() == 0) {
      BatchManifestEntry e;
      e.job_id = 201;
      e.outcome = "retrying";
      e.attempts = 1;
      e.checkpoint_path = ckpt;
      write_manifest_file(path, {e});
    }
    comm.barrier();

    // Resume: the job re-runs (non-final outcome) with the prior attempt
    // count carried over and the checkpoint velocity as its warm start.
    BatchSolver second(comm);
    second.submit(make_spec());
    bopt.manifest_path = path;
    auto rep2 = second.run_all(bopt);
    ASSERT_EQ(rep2.summary.size(), 1u);
    EXPECT_EQ(rep2.summary[0].outcome, JobOutcome::kDone);
    EXPECT_EQ(rep2.summary[0].attempts, 2);  // 1 restored + this run
    EXPECT_TRUE(rep2.summary[0].ran_here);
    // Warm-started from the converged iterate, the resume needs no more
    // Newton iterations than the cold run.
    EXPECT_LE(rep2.summary[0].newton_iters, rep1.summary[0].newton_iters);
    ASSERT_EQ(rep2.reports.size(), 1u);

    comm.barrier();
    if (comm.rank() == 0) {
      std::remove(path.c_str());
      std::remove(ckpt.c_str());
    }
  });
}

}  // namespace
}  // namespace diffreg::core
