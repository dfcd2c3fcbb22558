// End-to-end registration benchmark driver.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    [--trace-file PATH] [--scale full|tiny] [--describe]
//
// Runs one workload through the public diffreg API inside mpisim::run_spmd
// (RegistrationSolver::solve, run_multilevel_continuation or
// BatchSolver::run_all) for about S seconds, checks every solve, and
// prints one JSON object as the last line of stdout. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it alternates traced and
// untraced solves, replays every layer's public calls on the workload's own
// grid, rank count, precision and converged velocity, reports the
// per-layer metrics and writes a Chrome trace with one track per rank.
// --describe only generates the seeded inputs and prints their digest.
// run.py builds this binary and wraps its output; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "imaging/synthetic.hpp"

using namespace diffreg;
using perfbench::median;
using perfbench::now_s;
using perfbench::ScalarField;
using perfbench::Tracer;
using perfbench::VectorField;

namespace {

// Setups per run: setup_s is the median of these.
constexpr int kSetupReps = 5;
// Watchdog on every blocking receive, so a solve that diverges across ranks
// fails the run instead of hanging it.
constexpr double kCommTimeoutMs = 120000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file = "perfbench-trace.json";
  bool tiny = false;
  bool describe = false;
};

enum class Kind { kSingle, kPyramid, kBatch };

/// One benchmark workload: what is solved, on how many ranks, and the
/// bounds its outputs must meet.
struct Workload {
  std::string name;
  Kind kind = Kind::kSingle;
  int ranks = 4;
  Int3 dims{64, 64, 64};
  bool brain = false;
  core::RegistrationOptions opt;
  int levels = 1;
  int jobs = 1;
  Int3 odd_dims{0, 0, 0};     // batch: shape of the non-power-of-two jobs
  std::vector<int> odd_jobs;  // batch: the jobs (0-based) of that shape
  double residual_bound = 1;  // rel_residual must stay under this
  double det_one_tol = -1;    // max |det(grad y) - 1|; < 0: not checked
};

Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  const index_t n = tiny ? 16 : 64;
  w.dims = {n, n, n};
  if (name == "synthetic-64" || name == "synthetic-64-p1") {
    w.ranks = name == "synthetic-64" ? 4 : 1;
    w.residual_bound = 0.45;
  } else if (name == "brain-75") {
    w.brain = true;
    w.dims = {n, tiny ? 20 : 75, n};
    w.residual_bound = 0.60;
  } else if (name == "pyramid-incomp-mixed") {
    w.kind = Kind::kPyramid;
    w.brain = true;
    w.levels = tiny ? 2 : 3;
    w.opt.incompressible = true;
    w.opt.precision = core::Precision::kMixed;
    w.residual_bound = 0.80;
    w.det_one_tol = 1e-3;
  } else if (name == "batch-32") {
    w.kind = Kind::kBatch;
    w.jobs = tiny ? 4 : 16;
    const index_t b = tiny ? 16 : 32, odd = tiny ? 12 : 36;
    w.dims = {b, b, b};
    w.odd_dims = {odd, odd, odd};
    // Round-robin placement puts jobs 3 and 7 on the same shard.
    w.odd_jobs = tiny ? std::vector<int>{3} : std::vector<int>{3, 7};
    w.residual_bound = 0.50;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  // Tiny grids only exercise the harness; they cannot resolve the images.
  if (tiny) w.residual_bound = 1;
  return w;
}

/// SplitMix64: a fixed, portable generator, so one seed means the same
/// inputs on every host and compiler.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  index_t below(index_t n) { return static_cast<index_t>(next() % n); }
};

/// The seeded description of one registration pair.
struct JobInput {
  Int3 dims;
  double amplitude = 0.5;  // synthetic: ground-truth velocity amplitude
  Int3 shift{0, 0, 0};  // periodic shift of both images, in grid cells
};

std::vector<JobInput> make_jobs(const Workload& w, std::uint64_t seed) {
  Rng rng{seed};  // draws only what leaves the solver's work unchanged
  std::vector<JobInput> jobs(w.jobs);
  for (int j = 0; j < w.jobs; ++j) {
    JobInput& in = jobs[j];
    const bool odd = std::find(w.odd_jobs.begin(), w.odd_jobs.end(), j) !=
                     w.odd_jobs.end();
    in.dims = odd ? w.odd_dims : w.dims;
    // Amplitudes in [0.35, 0.6] all take 3 Newton iterations and 7
    // matvecs at 32^3, so a batch's work does not depend on the seed.
    if (w.kind == Kind::kBatch) in.amplitude = 0.35 + 0.25 * rng.uniform();
    for (int d = 0; d < 3; ++d) in.shift[d] = rng.below(in.dims[d]);
  }
  return jobs;
}

/// A pair of full-grid images ([N1][N2][N3], i3 fastest).
struct FullPair {
  Int3 dims;
  ScalarField t, r;
};

ScalarField shifted(const ScalarField& f, const Int3& dims, const Int3& s) {
  ScalarField out(f.size());
  index_t idx = 0;
  for (index_t i1 = 0; i1 < dims[0]; ++i1)
    for (index_t i2 = 0; i2 < dims[1]; ++i2)
      for (index_t i3 = 0; i3 < dims[2]; ++i3, ++idx)
        out[idx] = f[linear_index((i1 + s[0]) % dims[0],
                                  (i2 + s[1]) % dims[1],
                                  (i3 + s[2]) % dims[2], dims)];
  return out;
}

/// Generates one pair on the calling thread with the library's own
/// generators (a single-rank decomposition of the full grid), then shifts
/// both images periodically: the problem's difficulty does not depend on
/// the shift, only its data layout across ranks does.
FullPair generate(const Workload& w, const JobInput& in) {
  Timings timings;
  mpisim::Communicator comm = mpisim::single_rank(timings);
  grid::PencilDecomp d(comm, in.dims);
  ScalarField t, r;
  if (w.brain) {
    // The CLI's subject pair for every seed: drawing the subjects from the
    // seed moved the brain-75 solve between 27 and 49 matvecs.
    t = imaging::brain_phantom(d, 2);
    r = imaging::brain_phantom(d, 1);
  } else {
    spectral::SpectralOps ops(d);
    t = imaging::synthetic_template(d);
    const VectorField v =
        w.opt.incompressible
            ? imaging::synthetic_velocity_divfree(d, in.amplitude)
            : imaging::synthetic_velocity(d, in.amplitude);
    r = imaging::make_reference(ops, t, v, w.opt.nt);
  }
  return {in.dims, shifted(t, in.dims, in.shift),
          shifted(r, in.dims, in.shift)};
}

/// The block of a full-grid image that `d` owns on this rank.
ScalarField local_block(grid::PencilDecomp& d, const ScalarField& full) {
  const Int3 dims = d.dims();
  const Int3 ld = d.local_real_dims();
  ScalarField out(d.local_real_size());
  index_t idx = 0;
  for (index_t i1 = 0; i1 < ld[0]; ++i1)
    for (index_t i2 = 0; i2 < ld[1]; ++i2)
      for (index_t i3 = 0; i3 < ld[2]; ++i3, ++idx)
        out[idx] = full[linear_index(d.range1().begin + i1,
                                     d.range2().begin + i2, i3, dims)];
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

std::uint64_t digest(const VectorField& v) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& c : v.comp)
    h = fnv1a(c.data(), c.size() * sizeof(real_t), h);
  return h;
}

/// Digest of the job list and every generated image: one seed, one digest.
std::uint64_t inputs_digest(const std::vector<JobInput>& jobs,
                            const std::vector<FullPair>& pairs) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const JobInput& j : jobs) {
    const double desc[] = {static_cast<double>(j.dims[0]),
                           static_cast<double>(j.dims[1]),
                           static_cast<double>(j.dims[2]),
                           j.amplitude,
                           static_cast<double>(j.shift[0]),
                           static_cast<double>(j.shift[1]),
                           static_cast<double>(j.shift[2])};
    h = fnv1a(desc, sizeof(desc), h);
  }
  for (const FullPair& p : pairs) {
    h = fnv1a(p.t.data(), p.t.size() * sizeof(real_t), h);
    h = fnv1a(p.r.data(), p.r.size() * sizeof(real_t), h);
  }
  return h;
}

/// Solver work of one registration, as the public reports give it.
struct Counts {
  double newton_iters = 0, matvecs = 0, krylov_iters = 0, plan_builds = 0;
  double gradients = 0, pcg_solves = 0;
};

Counts counts_of(const core::NewtonReport& n) {
  Counts c;
  c.newton_iters = n.iterations;
  c.matvecs = n.total_matvecs;
  for (const auto& e : n.log) c.krylov_iters += e.krylov_iterations;
  c.plan_builds = n.plan_builds;
  c.gradients = static_cast<double>(n.log.size());
  c.pcg_solves = n.iterations;
  return c;
}

/// A pyramid level has only its MultilevelLevelReport: every PCG iteration
/// is one matvec, and without line-search backtracking an accepted iterate
/// costs one new objective (one plan build) plus the level's first.
Counts counts_of(const core::MultilevelLevelReport& l) {
  Counts c;
  c.newton_iters = l.newton_iterations;
  c.matvecs = l.matvecs;
  c.krylov_iters = l.matvecs;
  c.plan_builds = l.newton_iterations + 1;
  c.gradients = l.newton_iterations + 1;
  c.pcg_solves = l.newton_iterations;
  return c;
}

Counts& operator+=(Counts& a, const Counts& b) {
  a.newton_iters += b.newton_iters;
  a.matvecs += b.matvecs;
  a.krylov_iters += b.krylov_iters;
  a.plan_builds += b.plan_builds;
  a.gradients += b.gradients;
  a.pcg_solves += b.pcg_solves;
  return a;
}

/// Time (ms) one Newton solve with counts `c` spends in the replayed
/// calls: each call's count times its measured per-call cost. A PCG solve
/// applies the preconditioner once up front and once per iteration, and
/// every solve ends with one deformation analysis. Input smoothing is the
/// caller's: it runs once per registration, not per pyramid level.
double attributed_ms(const Counts& c,
                     const std::map<std::string, double>& cost) {
  return c.plan_builds * cost.at("core.objective_new_ms") +
         c.gradients * cost.at("core.gradient_ms") +
         c.matvecs * cost.at("core.matvec_ms") +
         (c.matvecs + c.pcg_solves) * cost.at("core.precond_ms") +
         cost.at("core.diagnostics_ms");
}

struct Metric {
  double value;
  const char* unit;
};

/// What one run produced: the solve verdicts and the metrics.
struct Outcome {
  int attempted = 0;
  std::vector<std::string> failures;
  std::uint64_t inputs_digest = 0;
  std::map<std::string, Metric> metrics;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Per-solve comm counters summed over (bytes, messages) or maxed over
/// (seconds, exchanges) the ranks' Timings deltas.
void comm_metrics(const std::vector<Timings>& per_rank, double solves,
                  Outcome& out) {
  double fft_comm = 0, fft_exec = 0, in_comm = 0, in_exec = 0, fft_ex = 0;
  double msgs = 0, bytes = 0, in_bytes = 0;
  for (const Timings& t : per_rank) {
    fft_comm = std::max(fft_comm, t.get(TimeKind::kFftComm));
    fft_exec = std::max(fft_exec, t.get(TimeKind::kFftExec));
    in_comm = std::max(in_comm, t.get(TimeKind::kInterpComm));
    in_exec = std::max(in_exec, t.get(TimeKind::kInterpExec));
    fft_ex = std::max(fft_ex,
                      static_cast<double>(t.exchanges(TimeKind::kFftComm)));
    msgs += static_cast<double>(t.total_messages());
    bytes += static_cast<double>(t.total_bytes());
    in_bytes += static_cast<double>(t.bytes(TimeKind::kInterpComm));
  }
  auto& m = out.metrics;
  m["mpisim.messages"] = {msgs / solves, "count"};
  m["mpisim.bytes"] = {bytes / solves, "bytes"};
  m["fft.comm_s"] = {fft_comm / solves, "s"};
  m["fft.exec_s"] = {fft_exec / solves, "s"};
  m["fft.exchanges"] = {fft_ex / solves, "count"};
  m["interp.comm_s"] = {in_comm / solves, "s"};
  m["interp.exec_s"] = {in_exec / solves, "s"};
  m["interp.bytes"] = {in_bytes / solves, "bytes"};
}

/// The per-call costs of the replay, as per-layer metrics.
void cost_metrics(const std::map<std::string, double>& cost, Outcome& out) {
  for (const auto& [name, value] : cost)
    out.metrics[name] = {value, name.ends_with("_bytes") ? "bytes" : "ms"};
}

void count_metrics(const Counts& c, double solves, Outcome& out) {
  auto& m = out.metrics;
  m["core.newton_iters"] = {c.newton_iters / solves, "count"};
  m["core.matvecs"] = {c.matvecs / solves, "count"};
  m["core.krylov_iters"] = {c.krylov_iters / solves, "count"};
  m["core.plan_builds"] = {c.plan_builds / solves, "count"};
}

void attribution_metrics(double attributed_s, double measured_s,
                         Outcome& out) {
  const double ratio = measured_s > 0 ? attributed_s / measured_s : 0;
  out.metrics["core.attributed_ratio"] = {ratio, "ratio"};
  out.metrics["core.unattributed_ratio"] = {1 - ratio, "ratio"};
}

/// Why a finished registration fails the workload's checks, or "" when it
/// passes. `first` is the velocity digest of the run's first good solve of
/// the same input (0: none yet); every later one must match it bitwise.
std::string check_solve(const Workload& w, bool converged, double min_det,
                        double max_det, double rel_residual,
                        std::uint64_t digest, std::uint64_t first) {
  if (!converged) return "did not converge";
  if (!(min_det > 0)) return "min det(grad y) <= 0";
  if (!(rel_residual <= w.residual_bound))
    return "rel_residual " + std::to_string(rel_residual) + " above bound " +
           std::to_string(w.residual_bound);
  if (w.det_one_tol >= 0 &&
      std::max(std::abs(min_det - 1), std::abs(max_det - 1)) > w.det_one_tol)
    return "|det(grad y) - 1| above " + std::to_string(w.det_one_tol) +
           ": det in [" + std::to_string(min_det) + ", " +
           std::to_string(max_det) + "]";
  if (first != 0 && digest != first)
    return "velocity differs from the run's first solve of it";
  return "";
}

/// Whether the run starts another request, decided by rank 0 for every
/// rank (through `go`, shared by the rank threads): always until two ran
/// (the determinism check needs a pair), then only while the next one is
/// predicted to end inside the run's time budget. Collective.
bool next_request(mpisim::Communicator& comm, const std::vector<double>& walls,
                  double start, double seconds, bool& go) {
  if (comm.rank() == 0)
    go = walls.size() < 2 || now_s() - start + median(walls) <= seconds;
  comm.barrier();
  const bool run = go;
  comm.barrier();
  return run;
}

/// Series every run collects on rank 0: set-up and input-generation times,
/// and the wall time of every request, traced or not.
struct Series {
  std::vector<double> setup_s, inputs_s, walls, traced, untraced;
};

void end_to_end_metrics(const Series& s, double registrations_per_s,
                        double job_latency_s,
                        const std::vector<double>& residuals, Outcome& out) {
  auto& m = out.metrics;
  m["tts_s"] = {median(s.walls), "s"};
  m["registrations_per_s"] = {registrations_per_s, "1/s"};
  m["job_latency_p50_s"] = {job_latency_s, "s"};
  m["setup_s"] = {median(s.setup_s), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["rel_residual"] = {median(residuals), "ratio"};
}

/// The per-layer metrics every traced run reports the same way.
void traced_run_metrics(const Series& s, Outcome& out) {
  auto& m = out.metrics;
  m["core.failed_ratio"] = {
      static_cast<double>(out.failures.size()) / out.attempted, "ratio"};
  const double untraced = median(s.untraced);
  m["trace_overhead_ratio"] = {
      untraced > 0 ? median(s.traced) / untraced - 1 : 0, "ratio"};
  m["imaging.inputs_s"] = {median(s.inputs_s), "s"};
}

/// One stderr line per run with every request's wall time, to tell a
/// run's own spread from the spread between runs.
void print_walls(const Workload& w, const std::vector<double>& walls) {
  std::fprintf(stderr, "perfbench: %s request walls (s):", w.name.c_str());
  for (double x : walls) std::fprintf(stderr, " %.3f", x);
  std::fprintf(stderr, "\n");
}

double max_over_mean(const std::vector<double>& v) {
  double mx = 0, sum = 0;
  for (double x : v) mx = std::max(mx, x), sum += x;
  return sum > 0 ? mx * static_cast<double>(v.size()) / sum : 0;
}

// ---------------------------------------------------------------------------
// Single registrations and pyramids: one decomposition, one pair, solved
// repeatedly.

Outcome run_solves(const Workload& w, const Args& a,
                   const std::vector<JobInput>& jobs) {
  const int p = w.ranks;
  Tracer tracer(a.trace, p);
  Outcome out;

  // Shared between the rank threads; each slot is written by one rank, or
  // by rank 0 between barriers.
  std::optional<FullPair> pair;
  Series series;
  std::vector<double> residuals, imbalance, levels_s;
  std::vector<double> rank_wall(p), rank_tts(p);
  std::vector<std::uint64_t> rank_digest(p);
  std::vector<std::string> rank_failure(p);
  std::vector<Timings> rank_comm(p);
  std::uint64_t first_digest = 0;
  Counts counts;
  std::vector<Counts> level_counts;                        // finest first
  std::vector<std::map<std::string, double>> level_costs;  // finest first
  bool counted = false;
  bool go = false;

  mpisim::SpmdOptions so;
  so.comm_timeout_ms = kCommTimeoutMs;
  mpisim::run_spmd(
      p,
      [&](mpisim::Communicator& comm) {
        const int rank = comm.rank();
        std::unique_ptr<grid::PencilDecomp> decomp;
        std::unique_ptr<core::RegistrationSolver> solver;
        ScalarField t_loc, r_loc;
        for (int k = 0; k < kSetupReps; ++k) {
          comm.barrier();
          const double t0 = now_s();
          if (rank == 0) {
            pair = generate(w, jobs[0]);
            series.inputs_s.push_back(now_s() - t0);
          }
          comm.barrier();
          solver.reset();
          decomp = std::make_unique<grid::PencilDecomp>(comm, w.dims);
          t_loc = local_block(*decomp, pair->t);
          r_loc = local_block(*decomp, pair->r);
          if (w.kind == Kind::kSingle)
            solver = std::make_unique<core::RegistrationSolver>(*decomp, w.opt);
          comm.barrier();
          tracer.record(rank, "setup", t0, now_s());
          if (rank == 0) series.setup_s.push_back(now_s() - t0);
        }

        VectorField v_conv;
        std::vector<Int3> my_level_dims;
        const double start = now_s();
        for (int i = 0;
             next_request(comm, series.walls, start, a.seconds, go); ++i) {
          // Traced runs alternate traced and untraced solves; the untraced
          // ones give the time the attribution is measured against.
          const bool traced = a.trace && i % 2 == 0;
          core::RegistrationOptions opt = w.opt;
          double last = 0;
          if (traced)
            opt.iterate_hook = [&](const core::NewtonIterateInfo&) {
              const double t = now_s();
              tracer.record(rank, "newton_iterate", last, t);
              last = t;
            };
          core::RegistrationResult res;
          std::optional<core::MultilevelResult> ml;
          rank_failure[rank].clear();
          const Timings before = comm.timings();
          comm.barrier();
          const double t0 = now_s();
          last = t0;
          try {
            if (w.kind == Kind::kPyramid) {
              core::MultilevelOptions mopt;
              mopt.levels = w.levels;
              ml = core::run_multilevel_continuation(*decomp, opt, t_loc,
                                                     r_loc, mopt);
              res = ml->fine;
            } else {
              core::SolveRequest req;
              req.rho_t = &t_loc;
              req.rho_r = &r_loc;
              req.options = opt;
              res = solver->solve(req);
            }
          } catch (const std::exception& e) {
            rank_failure[rank] = std::string("threw: ") + e.what();
          }
          const double t1 = now_s();
          if (traced) tracer.record(rank, "solve", t0, t1);
          rank_wall[rank] = t1 - t0;
          rank_tts[rank] = ml ? t1 - t0 : res.time_to_solution;
          rank_digest[rank] = digest(res.velocity);
          rank_comm[rank] = timings_delta(before, comm.timings());
          if (rank_failure[rank].empty()) v_conv = res.velocity;
          if (ml && my_level_dims.empty())
            for (auto it = ml->levels.rbegin(); it != ml->levels.rend(); ++it)
              my_level_dims.push_back(it->dims);
          comm.barrier();
          if (rank != 0) continue;

          // Rank 0 judges the solve for every rank.
          ++out.attempted;
          const double wall =
              *std::max_element(rank_wall.begin(), rank_wall.end());
          series.walls.push_back(wall);
          (traced ? series.traced : series.untraced).push_back(wall);
          std::uint64_t h = fnv1a(nullptr, 0);
          for (auto d : rank_digest) h = fnv1a(&d, sizeof(d), h);
          std::string failure;
          for (const auto& f : rank_failure)
            if (failure.empty()) failure = f;
          if (failure.empty() && ml && !ml->admissible)
            failure = "pyramid not admissible";
          if (failure.empty())
            failure = check_solve(w, res.newton.converged, res.min_det,
                                  res.max_det, res.rel_residual, h,
                                  first_digest);
          if (first_digest == 0 && failure.empty()) first_digest = h;
          if (!failure.empty()) {
            out.failures.push_back("solve " + std::to_string(i) + ": " +
                                   failure);
            continue;
          }
          residuals.push_back(res.rel_residual);
          std::vector<double> tts(rank_tts.begin(), rank_tts.end());
          imbalance.push_back(max_over_mean(tts));
          if (ml) {
            double sum = 0;
            for (const auto& l : ml->levels) sum += l.time_seconds;
            levels_s.push_back(sum);
          }
          if (!counted) {
            // Solver work is deterministic: the first good solve's counts.
            if (ml) {
              const int nl = static_cast<int>(ml->levels.size());
              for (int k = 0; k < nl; ++k) {  // finest first
                const auto& l = ml->levels[nl - 1 - k];
                level_counts.push_back(
                    k == 0        ? counts_of(ml->fine.newton)
                    : k == nl - 1 ? counts_of(ml->coarsest.newton)
                                  : counts_of(l));
                counts += level_counts.back();
              }
            } else {
              counts = counts_of(res.newton);
            }
            if (a.trace) comm_metrics(rank_comm, 1, out);
            counted = true;
          }
        }

        if (!a.trace) return;
        // Per-layer replay on the workload's own grid(s), rank count,
        // precision and converged velocity.
        if (v_conv.local_size() == 0)
          throw std::runtime_error("no solve succeeded; nothing to replay");
        const int reps = a.tiny ? 2 : 5;
        if (w.kind == Kind::kSingle) {
          auto cost = perfbench::measure_layer_costs(
              *decomp, w.opt, t_loc, r_loc, v_conv, reps, tracer, rank);
          if (rank == 0) level_costs.push_back(std::move(cost));
          return;
        }
        for (std::size_t k = 0; k < my_level_dims.size(); ++k) {
          if (k == 0) {
            auto cost = perfbench::measure_layer_costs(
                *decomp, w.opt, t_loc, r_loc, v_conv, reps, tracer, rank);
            if (rank == 0) level_costs.push_back(std::move(cost));
            continue;
          }
          grid::PencilDecomp ld(comm, my_level_dims[k], decomp->p1(),
                                decomp->p2());
          spectral::ResamplePlan down(*decomp, ld, w.opt.wire());
          const index_t nl = ld.local_real_size();
          ScalarField tl(nl), rl(nl);
          VectorField vl;
          down.apply(t_loc, tl);
          down.apply(r_loc, rl);
          down.apply(v_conv, vl);
          auto cost = perfbench::measure_layer_costs(ld, w.opt, tl, rl, vl,
                                                     reps, tracer, rank);
          if (rank == 0) level_costs.push_back(std::move(cost));
        }
      },
      so);

  print_walls(w, series.walls);
  out.inputs_digest = inputs_digest(jobs, {*pair});
  auto& m = out.metrics;
  if (!a.trace) {
    // Correct registrations per second of a request's median wall time.
    const double ok = static_cast<double>(residuals.size()) / out.attempted;
    const double tts = median(series.walls);
    end_to_end_metrics(series, ok / tts, tts, residuals, out);
    return out;
  }

  // Per-layer metrics.
  const auto& fine = level_costs.at(0);
  cost_metrics(fine, out);
  count_metrics(counts, 1, out);
  double attributed = 2 * fine.at("spectral.smooth_ms");
  if (w.kind == Kind::kPyramid) {
    for (std::size_t k = 0; k < level_counts.size(); ++k) {
      attributed += attributed_ms(level_counts[k], level_costs.at(k));
      // Each transition restricts the images and prolongs the velocity.
      if (k + 1 < level_counts.size())
        attributed += 2 * level_costs.at(k).at("spectral.resample_ms");
    }
  } else {
    attributed += attributed_ms(counts, fine);
  }
  attribution_metrics(attributed / 1e3, median(series.untraced), out);
  m["core.rank_imbalance"] = {median(imbalance), "ratio"};
  m["core.continuation.levels_s"] = {median(levels_s), "s"};
  m["core.batch.shard_idle_ratio"] = {0, "ratio"};
  m["core.batch.job_solve_s_p50"] = {0, "s"};
  m["core.plan_registry.builds"] = {0, "count"};
  m["core.plan_registry.reuse_ratio"] = {0, "ratio"};
  traced_run_metrics(series, out);
  tracer.write_chrome_json(a.trace_file);
  return out;
}

// ---------------------------------------------------------------------------
// The batch service: the seeded job list through BatchSolver::run_all with
// automatic sharding, repeated with a fresh service each time.

Outcome run_batch(const Workload& w, const Args& a,
                  const std::vector<JobInput>& jobs) {
  const int p = w.ranks;
  const int njobs = static_cast<int>(jobs.size());
  Tracer tracer(a.trace, p);
  Outcome out;

  std::vector<FullPair> pairs(njobs);
  Series series;
  std::vector<double> rates, latencies, residuals, solve_s, idle, imbalance;
  std::vector<double> builds, reuse;
  std::vector<std::uint64_t> first_digest(njobs, 0);
  std::vector<std::uint64_t> job_digest(njobs, 0);
  std::vector<int> job_rank(njobs, -1);
  std::vector<Counts> job_counts(njobs);
  std::vector<Timings> rank_comm(p);  // each rank's last batch
  std::vector<int> rank_builds(p), rank_leases(p);
  std::vector<std::map<std::string, double>> shape_cost(njobs);
  bool go = false;

  const auto submit_all = [&](core::BatchSolver& batch) {
    for (int j = 0; j < njobs; ++j) {
      core::BatchJobSpec spec;
      spec.dims = jobs[j].dims;
      spec.request.options = w.opt;
      spec.request.job_id = static_cast<std::uint64_t>(j + 1);
      spec.make_inputs = [&pairs, j](grid::PencilDecomp& d, ScalarField& t,
                                     ScalarField& r) {
        t = local_block(d, pairs[j].t);
        r = local_block(d, pairs[j].r);
      };
      batch.submit(std::move(spec));
    }
  };

  mpisim::SpmdOptions so;
  so.comm_timeout_ms = kCommTimeoutMs;
  mpisim::run_spmd(
      p,
      [&](mpisim::Communicator& comm) {
        const int rank = comm.rank();
        std::unique_ptr<core::BatchSolver> batch;
        for (int k = 0; k < kSetupReps; ++k) {
          comm.barrier();
          const double t0 = now_s();
          // Each rank generates every p-th pair, like p loaders.
          for (int j = rank; j < njobs; j += p) pairs[j] = generate(w, jobs[j]);
          comm.barrier();
          if (rank == 0) series.inputs_s.push_back(now_s() - t0);
          batch = std::make_unique<core::BatchSolver>(comm);
          submit_all(*batch);
          comm.barrier();
          tracer.record(rank, "setup", t0, now_s());
          if (rank == 0) series.setup_s.push_back(now_s() - t0);
        }

        std::vector<core::SolveReport> kept;  // this rank's last reports
        const double start = now_s();
        for (int i = 0;
             next_request(comm, series.walls, start, a.seconds, go); ++i) {
          if (!batch) {
            batch = std::make_unique<core::BatchSolver>(comm);
            submit_all(*batch);
          }
          const bool traced = a.trace && i % 2 == 0;
          const Timings before = comm.timings();
          comm.barrier();
          const double t0 = now_s();
          core::BatchReport report = batch->run_all({});
          const double t1 = now_s();
          batch.reset();
          // More jobs than ranks: automatic sharding gives 1-rank shards, so
          // each job's report lives on exactly one rank.
          if (report.shards != p)
            throw std::runtime_error("batch-32 expects 1-rank shards");
          rank_comm[rank] = timings_delta(before, comm.timings());
          rank_builds[rank] = report.registry.decomp_builds +
                              report.registry.spectral_builds +
                              report.registry.resample_builds +
                              report.registry.transport_builds;
          rank_leases[rank] = report.registry.leases;
          for (const auto& r : report.reports) {
            const int j = static_cast<int>(r.job_id) - 1;
            job_digest[j] = digest(r.velocity);
            job_rank[j] = rank;
            job_counts[j] = counts_of(r.newton);
          }
          if (traced) {
            tracer.record(rank, "run_all", t0, t1);
            for (const auto& s : report.summary)
              if (s.ran_here)
                tracer.record(rank, "batch_job",
                              t0 + s.completed_at_seconds - s.solve_seconds,
                              t0 + s.completed_at_seconds);
          }
          kept = std::move(report.reports);
          comm.barrier();
          if (rank != 0) continue;

          series.walls.push_back(report.wall_seconds);
          (traced ? series.traced : series.untraced)
              .push_back(report.wall_seconds);
          int ok = 0;
          std::vector<double> done_at, busy(report.shards, 0.0);
          double solve_total = 0;
          for (const auto& s : report.summary) {
            const int j = static_cast<int>(s.job_id) - 1;
            ++out.attempted;
            const std::string failure =
                s.outcome != core::JobOutcome::kDone
                    ? std::string("ended ") + core::to_string(s.outcome)
                    : check_solve(w, s.converged, s.min_det, s.min_det,
                                  s.rel_residual, job_digest[j],
                                  first_digest[j]);
            if (first_digest[j] == 0 && failure.empty())
              first_digest[j] = job_digest[j];
            if (!failure.empty()) {
              out.failures.push_back("batch " + std::to_string(i) + " job " +
                                     std::to_string(s.job_id) + ": " + failure);
              continue;
            }
            ++ok;
            done_at.push_back(s.completed_at_seconds);
            residuals.push_back(s.rel_residual);
            solve_s.push_back(s.solve_seconds);
            if (s.shard >= 0) busy[s.shard] += s.solve_seconds;
            solve_total += s.solve_seconds;
          }
          rates.push_back(ok / report.wall_seconds);
          latencies.push_back(median(done_at));
          idle.push_back(1 -
                         solve_total / (report.shards * report.wall_seconds));
          imbalance.push_back(max_over_mean(busy));
          // Each rank is a shard and reports its shard's registry.
          double b = 0, l = 0;
          for (int r = 0; r < p; ++r) b += rank_builds[r], l += rank_leases[r];
          builds.push_back(b);
          reuse.push_back(l > 0 ? 1 - b / l : 0);
        }

        if (!a.trace) return;
        // Replay each job shape once, on the rank whose shard solved the
        // first job of that shape, with a 1-rank communicator like the
        // shard's; the other ranks wait.
        mpisim::Communicator solo = comm.split(rank);
        const int reps = a.tiny ? 2 : 5;
        for (int j = 0; j < njobs; ++j) {
          bool first_of_shape = true;
          for (int q = 0; q < j; ++q)
            if (jobs[q].dims == jobs[j].dims) first_of_shape = false;
          comm.barrier();
          if (!first_of_shape || job_rank[j] != rank) continue;
          const core::SolveReport* rep = nullptr;
          for (const auto& r : kept)
            if (static_cast<int>(r.job_id) == j + 1) rep = &r;
          if (rep == nullptr) throw std::runtime_error("no report to replay");
          grid::PencilDecomp d(solo, jobs[j].dims);
          shape_cost[j] = perfbench::measure_layer_costs(
              d, w.opt, pairs[j].t, pairs[j].r, rep->velocity, reps, tracer,
              rank);
        }
        comm.barrier();
      },
      so);

  print_walls(w, series.walls);
  out.inputs_digest = inputs_digest(jobs, pairs);
  auto& m = out.metrics;
  if (!a.trace) {
    end_to_end_metrics(series, median(rates), median(latencies), residuals,
                       out);
    return out;
  }

  comm_metrics(rank_comm, njobs, out);
  cost_metrics(shape_cost.at(0), out);
  Counts total;
  double attributed = 0, solved = 0;
  for (int j = 0; j < njobs; ++j) {
    total += job_counts[j];
    int q = 0;  // the first job of this shape carries the shape's costs
    while (!(jobs[q].dims == jobs[j].dims)) ++q;
    const auto& c = shape_cost.at(q);
    attributed +=
        attributed_ms(job_counts[j], c) + 2 * c.at("spectral.smooth_ms");
  }
  for (double s : solve_s) solved += s;
  count_metrics(total, njobs, out);
  // The batch's time is its jobs' summed solve time (shards run
  // concurrently), over every good job of every batch in the run.
  attribution_metrics(attributed / 1e3,
                      solved / std::max<double>(1.0, series.walls.size()),
                      out);
  m["core.rank_imbalance"] = {median(imbalance), "ratio"};
  m["core.continuation.levels_s"] = {0, "s"};
  m["core.batch.shard_idle_ratio"] = {median(idle), "ratio"};
  m["core.batch.job_solve_s_p50"] = {median(solve_s), "s"};
  m["core.plan_registry.builds"] = {median(builds), "count"};
  m["core.plan_registry.reuse_ratio"] = {median(reuse), "ratio"};
  traced_run_metrics(series, out);
  tracer.write_chrome_json(a.trace_file);
  return out;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

void print_result(const Args& a, const Outcome& out) {
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"attempted\": %d, \"failed\": %zu, "
              "\"inputs_digest\": \"%016" PRIx64 "\", ",
              json_escape(a.workload).c_str(), a.seed, a.trace ? 1 : 0,
              out.attempted, out.failures.size(), out.inputs_digest);
  std::printf(
      "\"build\": {\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\"}, \"failures\": [",
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      json_escape(PERFBENCH_CXX_FLAGS).c_str());
  for (std::size_t i = 0; i < out.failures.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "",
                json_escape(out.failures[i]).c_str());
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--describe") {
      a.describe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace" && (v == "0" || v == "1")) {
      a.trace = v == "1";
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else if (k == "--scale" && (v == "full" || v == "tiny")) {
      a.tiny = v == "tiny";
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    if (!parse_args(argc, argv, a)) {
      std::fprintf(stderr,
                   "usage: perfbench_driver --workload W --seed N --seconds S "
                   "--trace 0|1 [--trace-file PATH] [--scale full|tiny] "
                   "[--describe]\n");
      return 2;
    }
    const Workload w = make_workload(a.workload, a.tiny);
    const std::vector<JobInput> jobs = make_jobs(w, a.seed);
    if (a.describe) {
      std::vector<FullPair> pairs;
      for (const auto& j : jobs) pairs.push_back(generate(w, j));
      std::printf("{\"workload\": \"%s\", \"jobs\": %zu, "
                  "\"inputs_digest\": \"%016" PRIx64 "\"}\n",
                  a.workload.c_str(), jobs.size(), inputs_digest(jobs, pairs));
      return 0;
    }
    const Outcome out = w.kind == Kind::kBatch ? run_batch(w, a, jobs)
                                               : run_solves(w, a, jobs);
    print_result(a, out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
