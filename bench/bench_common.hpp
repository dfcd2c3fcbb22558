// Shared harness of the trajectory reporters (fft_report, semilag_report,
// mixed_report, continuation_report, batch_report): their CLI parsing and
// the fft/semilag trajectory cases they time.
//
// Scaling note: ranks are threads in one process, so on a small host (the
// baselines were recorded on 1-2 physical cores, no MPI) rank counts beyond
// the core count oversubscribe; the reports track the comm counters and the
// comm/exec split exactly and wall times only structurally, not TACC's
// absolute numbers.
#pragma once

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>

#include "core/diffreg.hpp"
#include "fft/fft3d_distributed.hpp"
#include "imaging/synthetic.hpp"

// Arch flag set the bench binaries were compiled with (see the top-level
// DIFFREG_NATIVE_ARCH option); recorded in every bench JSON so numbers from
// differently-tuned builds are never compared blindly.
#ifndef DIFFREG_ARCH_FLAGS
#define DIFFREG_ARCH_FLAGS "default"
#endif

namespace diffreg::bench {

inline const char* arch_flags() { return DIFFREG_ARCH_FLAGS; }

/// Shared CLI parsing of the trajectory reporters:
/// `prog [--wire fp64|fp32] [output.json]`. --wire may appear anywhere,
/// exactly one positional output path is accepted, and unknown flags are
/// rejected (a misplaced --wire must never silently run fp64 under an
/// fp32-named output). Returns false after printing an error; `out_path`
/// is left empty when not given so the caller picks its default.
inline bool parse_wire_args(int argc, char** argv, const char* prog,
                            WirePrecision& wire, std::string& out_path) {
  wire = WirePrecision::kF64;
  out_path.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--wire") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --wire needs a value (fp64|fp32)\n", prog);
        return false;
      }
      const std::string v = argv[++i];
      if (v == "fp32") {
        wire = WirePrecision::kF32;
      } else if (v != "fp64") {
        std::fprintf(stderr, "%s: --wire must be fp64 or fp32\n", prog);
        return false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: unknown flag %s\n", prog, arg.c_str());
      return false;
    } else if (out_path.empty()) {
      out_path = arg;
    } else {
      std::fprintf(stderr, "%s: unexpected argument %s\n", prog, arg.c_str());
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Shared trajectory cases of the fft/semilag reporters. One definition
// drives the fp64 legs (fft_report, semilag_report), their --wire fp32
// variants, AND the mixed_report leg, so all three measure the identical
// workload; callers pick which wall times / Timings counters to publish.

/// Slowest-rank wall times of one distributed-FFT case plus the summed
/// per-rank Timings of `reps` forward + `reps` inverse transforms.
struct FftCaseResult {
  double forward_ms = 0;
  double inverse_ms = 0;
  Timings agg;  // sum over ranks; normalize by 2 * reps * p for per-rank
};

/// `guard` adds the --guard validate_finite sweep after every transform (the
/// granularity the solver uses), so the "guard" bench leg prices the
/// safeguard on the hottest kernel. The sweep's allreduce self-charges to
/// kOther, so the published kFftComm counters match the unguarded leg.
inline FftCaseResult run_fft_trajectory_case(index_t n, int p, int reps,
                                             WirePrecision wire,
                                             bool overlap = false,
                                             bool guard = false) {
  FftCaseResult out;
  const Int3 dims{n, n, n};
  double fwd_max = 0, inv_max = 0;
  auto timings = mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims);
    fft::DistributedFft3d fft(decomp, wire, overlap);
    std::vector<real_t> x(fft.local_real_size());
    for (index_t i = 0; i < fft.local_real_size(); ++i)
      x[i] = static_cast<real_t>((i * 2654435761u) % 1000) / 1000.0;
    std::vector<complex_t> spec(fft.local_spectral_size());
    const auto spec_as_real = [&] {
      return std::span<const real_t>(
          reinterpret_cast<const real_t*>(spec.data()), 2 * spec.size());
    };

    fft.forward(x, spec);  // warm-up
    fft.inverse(spec, x);
    comm.timings().clear();

    WallTimer t;
    for (int r = 0; r < reps; ++r) {
      fft.forward(x, spec);
      if (guard) grid::validate_finite(decomp, spec_as_real(), "fft forward");
    }
    const double fwd = t.seconds() / reps;
    t.reset();
    for (int r = 0; r < reps; ++r) {
      fft.inverse(spec, x);
      if (guard) grid::validate_finite(decomp, x, "fft inverse");
    }
    const double inv = t.seconds() / reps;

    static std::mutex mu;
    std::scoped_lock lock(mu);
    fwd_max = std::max(fwd_max, fwd);
    inv_max = std::max(inv_max, inv);
  });
  for (const auto& t : timings) out.agg += t;
  out.forward_ms = fwd_max * 1e3;
  out.inverse_ms = inv_max * 1e3;
  return out;
}

/// Slowest-rank wall times of the semi-Lagrangian trajectory case (plan
/// build, cached-plan state solve, GN matvec transports, batched vec3
/// interpolation) plus the summed per-rank Timings delta of the matvec
/// loop (normalize by reps * p for per-rank per-matvec).
struct SemilagCaseResult {
  double plan_build_ms = 0;
  double state_ms = 0;
  double matvec_ms = 0;
  double interp_vec3_ms = 0;
  Timings matvec_agg;
};

/// `guard` mirrors the solver's --guard sweep cadence on the transport path:
/// one validate_finite per timed solve/matvec/interp result. Its allreduce
/// self-charges to kOther, keeping the kInterpComm counters comparable.
inline SemilagCaseResult run_semilag_trajectory_case(index_t n, int p,
                                                     int reps,
                                                     WirePrecision wire,
                                                     bool overlap = false,
                                                     bool guard = false) {
  SemilagCaseResult out;
  const Int3 dims{n, n, n};
  double build_max = 0, state_max = 0, matvec_max = 0, vec3_max = 0;
  Timings agg;
  std::mutex mu;
  mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
    grid::PencilDecomp decomp(comm, dims);
    spectral::SpectralOps ops(decomp, wire, overlap);
    semilag::TransportConfig tc;
    tc.nt = 4;
    tc.wire = wire;
    tc.overlap = overlap;
    semilag::Transport transport(ops, tc);

    auto rho0 = imaging::synthetic_template(decomp);
    auto va = imaging::synthetic_velocity(decomp, 0.5);
    auto vb = imaging::synthetic_velocity(decomp, 0.52);
    auto w = imaging::synthetic_velocity_divfree(decomp, 0.3);

    // Warm-up: builds the plans and grows every scratch buffer once.
    grid::ScalarField rho_tilde1;
    grid::VectorField b, vec_out;
    transport.set_velocity(va);
    transport.solve_state(rho0);
    transport.solve_incremental_state(w, rho_tilde1);
    transport.solve_incremental_adjoint_gn(rho_tilde1, b);
    transport.interp_vec_at_forward_points(w, vec_out);

    // Plan build: alternate two velocities so every call rebuilds (a
    // repeated velocity would hit the plan cache).
    WallTimer t;
    for (int r = 0; r < reps; ++r)
      transport.set_velocity(r % 2 == 0 ? vb : va);
    const double build = t.seconds() / reps;

    t.reset();
    for (int r = 0; r < reps; ++r) {
      transport.solve_state(rho0);
      if (guard)
        grid::validate_finite(decomp, transport.final_state(),
                              "transport state");
    }
    const double state = t.seconds() / reps;

    const Timings before = comm.timings();
    t.reset();
    for (int r = 0; r < reps; ++r) {
      transport.solve_incremental_state(w, rho_tilde1);
      transport.solve_incremental_adjoint_gn(rho_tilde1, b);
      if (guard) grid::validate_finite(decomp, b, "gn matvec integrand");
    }
    const double matvec = t.seconds() / reps;
    const Timings matvec_delta = timings_delta(before, comm.timings());

    t.reset();
    for (int r = 0; r < reps; ++r) {
      transport.interp_vec_at_forward_points(w, vec_out);
      if (guard) grid::validate_finite(decomp, vec_out, "vec3 interp");
    }
    const double vec3 = t.seconds() / reps;

    std::scoped_lock lock(mu);
    build_max = std::max(build_max, build);
    state_max = std::max(state_max, state);
    matvec_max = std::max(matvec_max, matvec);
    vec3_max = std::max(vec3_max, vec3);
    agg += matvec_delta;
  });
  out.plan_build_ms = build_max * 1e3;
  out.state_ms = state_max * 1e3;
  out.matvec_ms = matvec_max * 1e3;
  out.interp_vec3_ms = vec3_max * 1e3;
  out.matvec_agg = agg;
  return out;
}

}  // namespace diffreg::bench
