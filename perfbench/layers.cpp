// Per-layer cost replay and the span tracer (see bench.hpp).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

using namespace diffreg;

double now_s() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Tracer::Tracer(bool enabled, int tracks) : enabled_(enabled) {
  tracks_.resize(enabled ? tracks : 0);
  for (auto& t : tracks_) t.reserve(1 << 12);
}

void Tracer::record(int track, const char* name, double t0, double t1) {
  if (enabled_) tracks_[track].push_back({name, t0, t1});
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (size_t r = 0; r < tracks_.size(); ++r) {
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": \"rank %zu\"}}",
                 first ? "" : ",\n", r, r);
    first = false;
    for (const Span& s : tracks_[r])
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f}",
                   s.name, r, s.t0 * 1e6, (s.t1 - s.t0) * 1e6);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot finish trace " + path);
}

namespace {

/// Median wall time in ms of `f` over `reps` barrier-bracketed calls after
/// one untimed warm-up; `prep` runs untimed before every call.
template <typename F, typename P>
double time_ms(mpisim::Communicator& comm, int reps, Tracer& tracer,
               int track, const char* name, F&& f, P&& prep) {
  prep();
  f();
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    prep();
    comm.barrier();
    const double t0 = now_s();
    f();
    comm.barrier();
    const double t1 = now_s();
    tracer.record(track, name, t0, t1);
    samples.push_back((t1 - t0) * 1e3);
  }
  return median(samples);
}

/// Departure points of one explicit Euler step x - dt v(x), in physical
/// coordinates, for every locally owned grid point.
std::vector<Vec3> departure_points(grid::PencilDecomp& decomp,
                                   const VectorField& v, real_t dt) {
  const Int3 dims = decomp.dims();
  const Int3 ld = decomp.local_real_dims();
  const Vec3 h{kTwoPi / dims[0], kTwoPi / dims[1], kTwoPi / dims[2]};
  std::vector<Vec3> pts(decomp.local_real_size());
  index_t idx = 0;
  for (index_t i1 = 0; i1 < ld[0]; ++i1)
    for (index_t i2 = 0; i2 < ld[1]; ++i2)
      for (index_t i3 = 0; i3 < ld[2]; ++i3, ++idx) {
        const Vec3 x{(decomp.range1().begin + i1) * h[0],
                     (decomp.range2().begin + i2) * h[1], i3 * h[2]};
        pts[idx] = x - dt * Vec3{v[0][idx], v[1][idx], v[2][idx]};
      }
  return pts;
}

}  // namespace

std::map<std::string, double> measure_layer_costs(
    grid::PencilDecomp& decomp, const core::RegistrationOptions& opt,
    const ScalarField& rho_t, const ScalarField& rho_r, const VectorField& v,
    int reps, Tracer& tracer, int track) {
  auto& comm = decomp.comm();
  const WirePrecision wire = opt.wire();
  const Int3 dims = decomp.dims();
  const index_t n = decomp.local_real_size();
  std::map<std::string, double> m;
  const auto none = [] {};
  const auto timed = [&](const char* name, auto&& f) {
    m[name] = time_ms(comm, reps, tracer, track, name, f, none);
  };

  // spectral
  spectral::SpectralOps ops(decomp, wire, opt.overlap);
  const Vec3 sigma{opt.smoothing_cells * kTwoPi / dims[0],
                   opt.smoothing_cells * kTwoPi / dims[1],
                   opt.smoothing_cells * kTwoPi / dims[2]};
  ScalarField t_s(n), r_s(n);
  ops.gaussian_smooth(rho_r, sigma, r_s);
  timed("spectral.smooth_ms", [&] { ops.gaussian_smooth(rho_t, sigma, t_s); });
  core::Regularization reg(ops, opt.reg_type, opt.beta);
  VectorField w(n), vp = v;
  timed("spectral.inv_reg_ms", [&] { reg.invert(v, w); });
  timed("spectral.leray_ms", [&] { ops.leray_project(vp); });
  const Int3 coarse_dims = spectral::coarsen_dims(dims, 8);
  if (coarse_dims != dims) {
    grid::PencilDecomp coarse(comm, coarse_dims, decomp.p1(), decomp.p2());
    spectral::ResamplePlan restrict_plan(decomp, coarse, wire);
    VectorField vc;
    timed("spectral.resample_ms", [&] { restrict_plan.apply(v, vc); });
  } else {
    m["spectral.resample_ms"] = 0;
  }

  // fft
  auto& fft = ops.fft();
  const index_t ns = decomp.local_spectral_size();
  std::vector<complex_t> spec(ns), spec3[3];
  for (auto& s : spec3) s.resize(ns);
  ScalarField back(n);
  timed("fft.forward_ms", [&] { fft.forward(rho_t, spec); });
  timed("fft.inverse_ms", [&] { fft.inverse(spec, back); });
  const real_t* reals[3] = {v[0].data(), v[1].data(), v[2].data()};
  complex_t* specs[3] = {spec3[0].data(), spec3[1].data(), spec3[2].data()};
  timed("fft.forward_many3_ms", [&] { fft.forward_many(reals, specs); });

  // mpisim: one alltoallv with the payload of the FFT row transpose (the
  // k3 half-spectrum against axis 2, inside the row communicator).
  {
    auto& row = decomp.row_comm();
    const int p2 = decomp.p2();
    const Int3 ld = decomp.local_real_dims();
    std::vector<index_t> sc(p2), rc(p2);
    for (int q = 0; q < p2; ++q) {
      sc[q] = ld[0] * ld[1] * block_range(decomp.n3c(), p2, q).size();
      rc[q] = ld[0] * block_range(dims[1], p2, q).size() *
              decomp.srange3().size();
    }
    index_t st = 0, rt = 0;
    for (int q = 0; q < p2; ++q) st += sc[q], rt += rc[q];
    std::vector<complex_t> sbuf(st, complex_t(1, 0)), rbuf(rt);
    std::vector<complex32_t> s32(st), r32(rt);
    row.set_time_kind(TimeKind::kFftComm);
    timed("mpisim.alltoallv_ms", [&] {
      if (wire == WirePrecision::kF32)
        row.alltoallv_converted<complex_t, complex32_t>(sbuf, sc, rbuf, rc,
                                                        s32, r32, 901);
      else
        row.alltoallv<complex_t>(sbuf, sc, rbuf, rc, 901);
    });
  }

  // grid: ghost layers of one scalar field at the tricubic stencil width.
  grid::GhostExchange gx(decomp, interp::kGhostWidth, TimeKind::kInterpComm,
                         wire, opt.overlap);
  std::vector<real_t> ghosted;
  {
    const auto before = comm.timings().bytes(TimeKind::kInterpComm);
    gx.exchange(rho_t, ghosted);
    const auto bytes = comm.timings().bytes(TimeKind::kInterpComm) - before;
    m["grid.ghost_bytes"] = comm.allreduce_sum(static_cast<double>(bytes));
  }
  timed("grid.ghost_exchange_ms", [&] { gx.exchange(rho_t, ghosted); });

  // interp: plan build on the departure points of the converged velocity,
  // then scalar and batched 3-component evaluation through that plan.
  const real_t dt = real_t(1) / opt.nt;
  const std::vector<Vec3> pts = departure_points(decomp, v, dt);
  interp::InterpPlan plan(decomp, wire, opt.overlap);
  timed("interp.plan_build_ms", [&] { plan.build(pts); });
  ScalarField iout(n);
  timed("interp.eval_ms",
        [&] { plan.interpolate(gx, rho_t, iout, opt.interp_method); });
  std::vector<Vec3> vout;
  timed("interp.eval_vec_ms",
        [&] { plan.interpolate_vec(gx, v, vout, opt.interp_method); });

  // semilag: the four transport solves of the optimality system with the
  // plans of the converged velocity cached.
  semilag::TransportConfig tc;
  tc.nt = opt.nt;
  tc.method = opt.interp_method;
  tc.incompressible = opt.incompressible;
  tc.wire = wire;
  tc.overlap = opt.overlap;
  semilag::Transport transport(ops, tc);
  VectorField v_alt = v;
  grid::scale(real_t(1) - real_t(1e-3), v_alt);
  bool flip = false;
  // A new velocity: RK2 departure points for +v and -v and their plans.
  timed("semilag.set_velocity_ms", [&] {
    transport.set_velocity(flip ? v : v_alt);
    flip = !flip;
  });
  transport.set_velocity(v);
  timed("semilag.state_ms", [&] { transport.solve_state(t_s); });
  ScalarField lambda1(n);
  for (index_t i = 0; i < n; ++i)
    lambda1[i] = r_s[i] - transport.final_state()[i];
  VectorField b(n), bt(n);
  timed("semilag.adjoint_ms", [&] { transport.solve_adjoint(lambda1, b); });
  ScalarField rt1(n);
  timed("semilag.inc_state_ms",
        [&] { transport.solve_incremental_state(v, rt1); });
  timed("semilag.inc_adjoint_ms",
        [&] { transport.solve_incremental_adjoint_gn(rt1, bt); });

  // core: the calls the Newton-Krylov driver makes, on the same system.
  core::OptimalitySystem sys(ops, transport, reg, t_s, r_s,
                             opt.incompressible, opt.gauss_newton);
  VectorField g(n), out(n), zero(n);
  timed("core.objective_new_ms", [&] {
    sys.evaluate(flip ? v : v_alt);
    flip = !flip;
  });
  // A Newton gradient follows the evaluation of a new iterate, so it also
  // pays for the spectral gradients of that iterate's state history.
  m["core.gradient_ms"] = time_ms(
      comm, reps, tracer, track, "core.gradient_ms", [&] { sys.gradient(g); },
      [&] {
        sys.evaluate(flip ? v : v_alt);
        flip = !flip;
      });
  sys.evaluate(v);
  timed("core.objective_ms", [&] { sys.evaluate(v); });
  sys.gradient(g);
  timed("core.matvec_ms", [&] { sys.hessian_matvec(g, out); });
  timed("core.precond_ms", [&] { sys.apply_preconditioner(g, out); });
  timed("core.diagnostics_ms",
        [&] { core::analyze_deformation(ops, transport); });
  m["core.gradient_reference_ms"] =
      time_ms(comm, reps, tracer, track, "core.gradient_reference_ms",
              [&] {
                sys.evaluate(zero);
                sys.gradient(g);
              },
              [&] { sys.evaluate(v); });
  core::RegistrationSolver solver(decomp, opt);
  ScalarField det;
  timed("core.jacobian_field_ms", [&] { solver.jacobian_field(v, det); });
  return m;
}

}  // namespace perfbench
