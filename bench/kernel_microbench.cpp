// Kernel microbenchmarks (google-benchmark) backing the paper's section
// III-C complexity discussion, plus ablations of the kernels they model:
//
//  * 1D FFT row cost per point, power-of-two vs planned mixed-radix sizes
//  * 3D FFT forward/inverse (the O(N^3 log N) spectral workhorse), at
//    power-of-two sizes and at 36 (mixed radix 4*3*3 on every axis)
//  * spectral gradient (1 forward + 3 inverse FFTs, the fused variant)
//  * raw tricubic kernel throughput (the paper's ~600 flops/point estimate)
//  * interpolation plan: build (scatter phase) vs execute (reuse) — the
//    paper's "once per field per Newton iteration" optimization
//  * tricubic vs trilinear execution cost
//  * Hessian matvec: Gauss-Newton vs full Newton
//  * ghost-layer exchange
//  * mpisim collectives (allreduce/broadcast wall-time vs rank count), so
//    comm-path regressions show up before they skew the Tables I-IV splits
#include <benchmark/benchmark.h>

#include "core/diffreg.hpp"
#include "imaging/synthetic.hpp"

using namespace diffreg;

namespace {

/// Single-rank world reused by all benchmarks of one size.
struct World {
  Timings timings;
  mpisim::Communicator comm;
  grid::PencilDecomp decomp;
  spectral::SpectralOps ops;

  explicit World(const Int3& dims)
      : comm(mpisim::single_rank(timings)), decomp(comm, dims), ops(decomp) {}
};

World& world(index_t n) {
  static std::map<index_t, std::unique_ptr<World>> cache;
  auto& slot = cache[n];
  if (!slot) slot = std::make_unique<World>(Int3{n, n, n});
  return *slot;
}

void BM_Fft1dRoundTrip(benchmark::State& state) {
  // 64 contiguous rows through the batch entry points, as the 3D stages run
  // them; forward + inverse keeps the data bounded across iterations. Items
  // are row points per transform, so the reported rate is per point.
  const index_t n = state.range(0), rows = 64;
  fft::Fft1d plan(n);
  std::vector<complex_t> x(n * rows);
  for (index_t i = 0; i < n * rows; ++i)
    x[i] = complex_t(std::sin(0.1 * i), std::cos(0.3 * i));
  for (auto _ : state) {
    plan.forward_batch(x.data(), rows);
    plan.inverse_batch(x.data(), rows);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * rows);
}
BENCHMARK(BM_Fft1dRoundTrip)->Arg(32)->Arg(36)->Arg(64)->Arg(75)->Arg(300);

void BM_Fft3dForward(benchmark::State& state) {
  World& w = world(state.range(0));
  auto& fft = w.ops.fft();
  std::vector<real_t> x(fft.local_real_size(), 1.0);
  std::vector<complex_t> spec(fft.local_spectral_size());
  for (auto _ : state) {
    fft.forward(x, spec);
    benchmark::DoNotOptimize(spec.data());
  }
  state.SetItemsProcessed(state.iterations() * fft.local_real_size());
}
BENCHMARK(BM_Fft3dForward)->Arg(32)->Arg(36)->Arg(64);

void BM_Fft3dRoundTrip(benchmark::State& state) {
  World& w = world(state.range(0));
  auto& fft = w.ops.fft();
  std::vector<real_t> x(fft.local_real_size(), 1.0);
  std::vector<complex_t> spec(fft.local_spectral_size());
  for (auto _ : state) {
    fft.forward(x, spec);
    fft.inverse(spec, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * fft.local_real_size());
}
BENCHMARK(BM_Fft3dRoundTrip)->Arg(32)->Arg(36)->Arg(64);

void BM_Fft3dInverseMany(benchmark::State& state) {
  // Batched 3-component inverse (one exchange schedule for the whole vector
  // field) vs. three scalar inverses — the CLAIRE-style batching ablation.
  const bool batched = state.range(1) == 1;
  World& w = world(state.range(0));
  auto& fft = w.ops.fft();
  std::vector<real_t> x(fft.local_real_size(), 1.0);
  std::array<std::vector<complex_t>, 3> spec;
  std::array<std::vector<real_t>, 3> back;
  for (int c = 0; c < 3; ++c) {
    spec[c].resize(fft.local_spectral_size());
    back[c].assign(fft.local_real_size(), 0.0);
    fft.forward(x, spec[c]);
  }
  for (auto _ : state) {
    if (batched) {
      const complex_t* specs[3] = {spec[0].data(), spec[1].data(),
                                   spec[2].data()};
      real_t* reals[3] = {back[0].data(), back[1].data(), back[2].data()};
      fft.inverse_many(std::span<const complex_t* const>(specs),
                       std::span<real_t* const>(reals));
    } else {
      for (int c = 0; c < 3; ++c) fft.inverse(spec[c], back[c]);
    }
    benchmark::DoNotOptimize(back[0].data());
  }
  state.SetLabel(batched ? "batched" : "sequential");
  state.SetItemsProcessed(state.iterations() * 3 * fft.local_real_size());
}
BENCHMARK(BM_Fft3dInverseMany)->Args({32, 0})->Args({32, 1})->Args({64, 0})
    ->Args({64, 1});

void BM_SpectralGradient(benchmark::State& state) {
  World& w = world(state.range(0));
  auto f = imaging::synthetic_template(w.decomp);
  grid::VectorField g(w.decomp.local_real_size());
  for (auto _ : state) {
    w.ops.gradient(f, g);
    benchmark::DoNotOptimize(g[0].data());
  }
  state.SetItemsProcessed(state.iterations() * w.decomp.local_real_size());
}
BENCHMARK(BM_SpectralGradient)->Arg(32)->Arg(64);

void BM_TricubicKernelRaw(benchmark::State& state) {
  // Pure kernel throughput on a padded block, no communication.
  const Int3 gdims{36, 36, 36};
  std::vector<real_t> g(gdims.prod());
  for (index_t i = 0; i < gdims.prod(); ++i)
    g[i] = std::sin(0.01 * static_cast<real_t>(i));
  real_t u = 2.0;
  real_t sum = 0;
  for (auto _ : state) {
    u = 2.0 + std::fmod(u * 1.61803, 30.0);
    sum += interp::tricubic_eval(g.data(), gdims, u, 0.5 * u + 2, 17.3);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TricubicKernelRaw);

void BM_InterpPlanBuild(benchmark::State& state) {
  // The scatter phase the paper amortizes: force a rebuild every iteration
  // by alternating between two velocities (a repeated velocity would hit
  // the plan cache and measure nothing).
  World& w = world(state.range(0));
  semilag::TransportConfig tc;
  semilag::Transport transport(w.ops, tc);
  auto va = imaging::synthetic_velocity(w.decomp, 0.5);
  auto vb = imaging::synthetic_velocity(w.decomp, 0.51);
  bool flip = false;
  for (auto _ : state) {
    transport.set_velocity(flip ? va : vb);  // trajectory + two plan builds
    flip = !flip;
    benchmark::DoNotOptimize(&transport);
  }
  state.SetItemsProcessed(state.iterations() * w.decomp.local_real_size());
}
BENCHMARK(BM_InterpPlanBuild)->Arg(32);

void BM_InterpBatchedVsSequential(benchmark::State& state) {
  // Ablation: 3 fields through one interpolate_many (arg 1) vs three
  // sequential interpolate calls (arg 0) on the same cached plan.
  World& w = world(32);
  const bool batched = state.range(0) == 1;
  semilag::TransportConfig tc;
  semilag::Transport transport(w.ops, tc);
  transport.set_velocity(imaging::synthetic_velocity(w.decomp, 0.5));
  const index_t n = w.decomp.local_real_size();
  grid::VectorField f(n), out(n);
  for (index_t i = 0; i < n; ++i)
    for (int d = 0; d < 3; ++d)
      f[d][i] = static_cast<real_t>(((i + d) * 2654435761u) % 1000) / 1000;
  for (auto _ : state) {
    if (batched) {
      transport.interp_vec_at_forward_points(f, out);
    } else {
      for (int d = 0; d < 3; ++d)
        transport.interp_at_forward_points(f[d], out[d]);
    }
    benchmark::DoNotOptimize(out[0].data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * n);
}
BENCHMARK(BM_InterpBatchedVsSequential)->Arg(0)->Arg(1);

void BM_InterpPlanExecute(benchmark::State& state) {
  // Executing a cached plan (one ghost exchange + eval + return): the fast
  // path taken nt times per transport solve.
  World& w = world(state.range(0));
  semilag::TransportConfig tc;
  semilag::Transport transport(w.ops, tc);
  auto v = imaging::synthetic_velocity(w.decomp, 0.5);
  transport.set_velocity(v);
  auto f = imaging::synthetic_template(w.decomp);
  grid::ScalarField out(w.decomp.local_real_size());
  for (auto _ : state) {
    transport.interp_at_forward_points(f, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * w.decomp.local_real_size());
}
BENCHMARK(BM_InterpPlanExecute)->Arg(32);

void BM_TransportSolveState(benchmark::State& state) {
  // Ablation: tricubic (arg 0) vs trilinear (arg 1) full state solve.
  World& w = world(32);
  semilag::TransportConfig tc;
  tc.method = state.range(0) == 0 ? interp::Method::kTricubic
                                  : interp::Method::kTrilinear;
  semilag::Transport transport(w.ops, tc);
  auto v = imaging::synthetic_velocity(w.decomp, 0.5);
  transport.set_velocity(v);
  auto rho = imaging::synthetic_template(w.decomp);
  for (auto _ : state) {
    transport.solve_state(rho);
    benchmark::DoNotOptimize(&transport);
  }
  state.SetLabel(state.range(0) == 0 ? "tricubic" : "trilinear");
}
BENCHMARK(BM_TransportSolveState)->Arg(0)->Arg(1);

void BM_GhostExchange(benchmark::State& state) {
  World& w = world(state.range(0));
  grid::GhostExchange gx(w.decomp, interp::kGhostWidth);
  auto f = imaging::synthetic_template(w.decomp);
  std::vector<real_t> ghosted;
  for (auto _ : state) {
    gx.exchange(f, ghosted);
    benchmark::DoNotOptimize(ghosted.data());
  }
  state.SetItemsProcessed(state.iterations() * w.decomp.local_real_size());
}
BENCHMARK(BM_GhostExchange)->Arg(32)->Arg(64);

void BM_HessianMatvec(benchmark::State& state) {
  // Ablation: Gauss-Newton (arg 0) vs full Newton (arg 1) matvec cost.
  const bool gauss_newton = state.range(0) == 0;
  World& w = world(32);
  semilag::TransportConfig tc;
  semilag::Transport transport(w.ops, tc);
  core::Regularization reg(w.ops, core::RegType::kH2Seminorm, 1e-2);
  auto rho_t = imaging::synthetic_template(w.decomp);
  auto v_star = imaging::synthetic_velocity(w.decomp, 0.4);
  auto rho_r = imaging::make_reference(w.ops, rho_t, v_star);
  core::OptimalitySystem system(w.ops, transport, reg, rho_t, rho_r, false,
                                gauss_newton);
  auto v = imaging::synthetic_velocity(w.decomp, 0.2);
  system.evaluate(v);
  grid::VectorField g(w.decomp.local_real_size());
  system.gradient(g);
  auto dir = imaging::synthetic_velocity_divfree(w.decomp, 0.3);
  grid::VectorField out(w.decomp.local_real_size());
  for (auto _ : state) {
    system.hessian_matvec(dir, out);
    benchmark::DoNotOptimize(out[0].data());
  }
  state.SetLabel(gauss_newton ? "gauss-newton" : "full-newton");
}
BENCHMARK(BM_HessianMatvec)->Arg(0)->Arg(1);

// Rounds per run_spmd launch in the collectives benchmarks: enough that the
// p-thread spawn/join cost is amortized to noise and the timing isolates the
// collective itself.
constexpr int kCollectiveRounds = 1024;

void BM_AllreduceScalar(benchmark::State& state) {
  // Comm-path regression guard: recursive-doubling scalar allreduce
  // wall-time vs rank count p (the per-iteration norm/dot pattern of PCG).
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      real_t acc = comm.rank() + 1.0;
      for (int round = 0; round < kCollectiveRounds; ++round)
        acc = comm.allreduce_sum(acc);
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetItemsProcessed(state.iterations() * kCollectiveRounds);
}
BENCHMARK(BM_AllreduceScalar)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void BM_AllreduceVector(benchmark::State& state) {
  // Reduce-then-broadcast vector allreduce on a batch of field norms.
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      std::vector<real_t> norms(8, comm.rank() + 0.5);
      for (int round = 0; round < kCollectiveRounds; ++round)
        comm.allreduce_sum(norms);
      benchmark::DoNotOptimize(norms.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * kCollectiveRounds);
}
BENCHMARK(BM_AllreduceVector)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void BM_BroadcastTree(benchmark::State& state) {
  // Binomial-tree broadcast of a pencil-sized buffer vs rank count p.
  const int p = static_cast<int>(state.range(0));
  const size_t n = 1 << 14;  // 128 KiB of doubles
  const int rounds = 64;     // fewer rounds: each one moves (p-1)*128 KiB
  for (auto _ : state) {
    mpisim::run_spmd(p, [&](mpisim::Communicator& comm) {
      std::vector<real_t> buf;
      if (comm.rank() == 0) buf.assign(n, 1.0);
      for (int round = 0; round < rounds; ++round) comm.broadcast(buf, 0);
      benchmark::DoNotOptimize(buf.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * n);
}
BENCHMARK(BM_BroadcastTree)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void BM_LerayProjection(benchmark::State& state) {
  World& w = world(state.range(0));
  auto v = imaging::synthetic_velocity(w.decomp, 1.0);
  for (auto _ : state) {
    w.ops.leray_project(v);
    benchmark::DoNotOptimize(v[0].data());
  }
  state.SetItemsProcessed(state.iterations() * w.decomp.local_real_size());
}
BENCHMARK(BM_LerayProjection)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
