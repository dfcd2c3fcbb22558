#include "core/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/timer.hpp"
#include "core/batch_manifest.hpp"
#include "core/checkpoint.hpp"
#include "grid/field_math.hpp"
#include "interp/fused_exchange.hpp"
#include "mpisim/errors.hpp"

namespace diffreg::core {

namespace {

Vec3 smoothing_sigma(const RegistrationOptions& opt, const Int3& dims) {
  return {opt.smoothing_cells * kTwoPi / dims[0],
          opt.smoothing_cells * kTwoPi / dims[1],
          opt.smoothing_cells * kTwoPi / dims[2]};
}

bool is_final(JobOutcome outcome) {
  return outcome == JobOutcome::kDone || outcome == JobOutcome::kDegraded ||
         outcome == JobOutcome::kPoisoned ||
         outcome == JobOutcome::kDeadlineExceeded;
}

/// The degrade ladder: a cheaper configuration for a job's one post-deadline
/// re-admission — halved outer/inner iteration caps, no two-level
/// preconditioner. The degraded attempt runs without deadline enforcement
/// (it is the job's last chance to produce a usable result).
void degrade_options(RegistrationOptions& opt) {
  opt.max_newton_iters = std::max(1, opt.max_newton_iters / 2);
  opt.max_krylov_iters = std::max(1, opt.max_krylov_iters / 2);
  opt.two_level_precond = false;
}

}  // namespace

const char* to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kDone:
      return "done";
    case JobOutcome::kRetrying:
      return "retrying";
    case JobOutcome::kPoisoned:
      return "poisoned";
    case JobOutcome::kDeadlineExceeded:
      return "deadline-exceeded";
    case JobOutcome::kDegraded:
      return "degraded";
    default:
      return "pending";
  }
}

JobOutcome outcome_from_string(const std::string& name) {
  if (name == "done") return JobOutcome::kDone;
  if (name == "retrying") return JobOutcome::kRetrying;
  if (name == "poisoned") return JobOutcome::kPoisoned;
  if (name == "deadline-exceeded") return JobOutcome::kDeadlineExceeded;
  if (name == "degraded") return JobOutcome::kDegraded;
  return JobOutcome::kPending;
}

std::uint64_t BatchSolver::submit(BatchJobSpec spec) {
  if (spec.dims[0] < 1 || spec.dims[1] < 1 || spec.dims[2] < 1)
    throw std::invalid_argument("BatchSolver: job needs valid dims");
  if (!spec.make_inputs &&
      (spec.request.rho_t == nullptr || spec.request.rho_r == nullptr))
    throw std::invalid_argument(
        "BatchSolver: job needs input pointers or an input factory");
  if (spec.request.job_id == 0) spec.request.job_id = next_job_id_++;
  const std::uint64_t id = spec.request.job_id;
  queue_.push_back(std::move(spec));
  return id;
}

BatchSolver::Shard& BatchSolver::shard_context(int shards, int shard_size,
                                               int color) {
  auto it = shards_.find(shards);
  if (it == shards_.end()) {
    Shard ctx;
    // One shard is the parent communicator itself: no split, so the comm
    // schedule (and therefore every result) matches standalone solves
    // bitwise. More shards split collectively — every rank participates.
    ctx.sub = shards == 1 ? comm_ : comm_.split(color);
    (void)shard_size;
    ctx.registry = std::make_shared<PlanRegistry>(ctx.sub);
    it = shards_.emplace(shards, std::move(ctx)).first;
  }
  return it->second;
}

BatchReport BatchSolver::run_all(const BatchOptions& opts) {
  BatchReport out;
  const int p = comm_.size();
  const int njobs = static_cast<int>(queue_.size());
  if (njobs == 0) return out;

  // Scheduling order: priority desc, FIFO within a class (stable sort
  // preserves submit order among equal priorities).
  std::vector<int> order(njobs);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return queue_[a].request.priority > queue_[b].request.priority;
  });

  const bool all_factories =
      std::all_of(queue_.begin(), queue_.end(),
                  [](const BatchJobSpec& s) { return bool(s.make_inputs); });
  int shards = opts.shards;
  if (shards == 0) {
    shards = 1;
    if (all_factories)
      for (int s = std::min(p, njobs); s >= 1; --s)
        if (p % s == 0) {
          shards = s;
          break;
        }
  } else {
    if (shards < 1 || p % shards != 0)
      throw std::invalid_argument(
          "BatchSolver: shards must divide the rank count");
    if (shards > 1 && !all_factories)
      throw std::invalid_argument(
          "BatchSolver: raw-pointer inputs require shards = 1 (their blocks "
          "live on the parent decomposition)");
  }
  const int shard_size = p / shards;
  const int color = comm_.rank() / shard_size;
  Shard* ctx = &shard_context(shards, shard_size, color);
  out.shards = shards;

  WallTimer batch_clock;

  // Recovery rendezvous deadline: must exceed the comm watchdog so that
  // surviving ranks have time to time out of a faulted exchange and reach
  // the recovery barrier before the barrier itself gives up.
  const double watchdog = comm_.comm_timeout_ms();
  const double recover_timeout =
      opts.recover_timeout_ms != 0
          ? opts.recover_timeout_ms
          : (watchdog > 0 ? std::max(2 * watchdog, 1000.0) : 1000.0);

  // Global per-job state table. Kept identical on every rank at every round
  // boundary (the sync allreduce reconciles it), which is what makes the
  // failover decisions collective-consistent.
  struct JobState {
    JobOutcome outcome = JobOutcome::kPending;
    int attempts = 0;
    int shard = -1;
    bool from_manifest = false;  ///< Final outcome restored, job skipped.
    bool resume = false;         ///< Re-run of a manifest in-flight job.
    double converged = 0, newton_iters = 0, matvecs = 0;
    double rel_residual = 1, min_det = 0, solve_seconds = 0;
    double completed_at = 0;
    bool deadline_met = true;
    std::string checkpoint;  ///< Solver checkpoint path (for warm starts).
  };
  std::vector<JobState> st(njobs);
  for (int j = 0; j < njobs; ++j)
    st[j].checkpoint = queue_[j].request.checkpoint_path;

  // Batch resume: restore final outcomes from the manifest (those jobs are
  // never placed — zero plan work for them) and mark in-flight jobs for a
  // warm start from their solver checkpoints.
  const bool manifest_on = !opts.manifest_path.empty();
  if (manifest_on) {
    const std::vector<BatchManifestEntry> entries =
        load_manifest(comm_, opts.manifest_path);
    std::map<std::uint64_t, const BatchManifestEntry*> by_id;
    for (const BatchManifestEntry& e : entries) by_id[e.job_id] = &e;
    for (int j = 0; j < njobs; ++j) {
      auto it = by_id.find(queue_[j].request.job_id);
      if (it == by_id.end()) continue;
      const BatchManifestEntry& e = *it->second;
      const JobOutcome prior = outcome_from_string(e.outcome);
      if (st[j].checkpoint.empty()) st[j].checkpoint = e.checkpoint_path;
      if (is_final(prior)) {
        st[j].outcome = prior;
        st[j].attempts = e.attempts;
        st[j].completed_at = e.completed_at_seconds;
        st[j].deadline_met = e.deadline_met;
        st[j].from_manifest = true;
      } else {
        st[j].attempts = e.attempts;
        st[j].resume = true;
      }
    }
  }

  auto manifest_entry = [&](int qi) {
    BatchManifestEntry e;
    e.job_id = queue_[qi].request.job_id;
    e.outcome = to_string(st[qi].outcome);
    e.attempts = st[qi].attempts;
    e.completed_at_seconds = st[qi].completed_at;
    e.deadline_met = st[qi].deadline_met;
    e.checkpoint_path = st[qi].checkpoint;
    return e;
  };
  auto persist = [&](mpisim::Communicator& on, int qi) {
    if (manifest_on) update_manifest(on, opts.manifest_path, {manifest_entry(qi)});
  };

  // Initial manifest write: a kill before the first completion must still
  // leave a resumable manifest naming every job.
  if (manifest_on) {
    std::vector<BatchManifestEntry> all;
    all.reserve(static_cast<std::size_t>(njobs));
    for (int j = 0; j < njobs; ++j) all.push_back(manifest_entry(j));
    update_manifest(comm_, opts.manifest_path, all);
  }

  // Shard-local execution state. jobdata survives rounds (inputs are reused
  // across retries) but is cleared when the shard is rebuilt.
  struct JobData {
    bool ready = false;
    ScalarField t_owned, r_owned;        // factory outputs
    const ScalarField* rho_t = nullptr;  // raw (unsmoothed) inputs
    const ScalarField* rho_r = nullptr;
    ScalarField t_smooth, r_smooth;  // fused pre-smoothing outputs
    bool presmoothed = false;
    grid::VectorField v0;  // checkpoint warm start (manifest resume)
    bool has_v0 = false;
    real_t warm_gradient_reference = 0;
  };
  std::map<int, JobData> jobdata;  // keyed by queue index
  std::map<std::tuple<index_t, index_t, index_t>,
           std::unique_ptr<RegistrationSolver>>
      solvers;
  const auto solver_for = [&](const BatchJobSpec& spec) -> RegistrationSolver& {
    auto& slot = solvers[{spec.dims[0], spec.dims[1], spec.dims[2]}];
    if (!slot)
      slot = std::make_unique<RegistrationSolver>(
          *ctx->registry->decomp(spec.dims), spec.request.options,
          ctx->registry);
    return *slot;
  };

  auto materialize = [&](int qi) {
    JobData& jd = jobdata[qi];
    if (jd.ready) return;
    const BatchJobSpec& spec = queue_[qi];
    if (spec.make_inputs) {
      auto decomp = ctx->registry->decomp(spec.dims);
      spec.make_inputs(*decomp, jd.t_owned, jd.r_owned);
      jd.rho_t = &jd.t_owned;
      jd.rho_r = &jd.r_owned;
    } else {
      jd.rho_t = spec.request.rho_t;
      jd.rho_r = spec.request.rho_r;
    }
    // Warm start for manifest-resumed in-flight jobs: scatter the last
    // solver checkpoint when one exists and matches the grid; any
    // checkpoint problem silently falls back to a cold start.
    if (st[qi].resume && !st[qi].checkpoint.empty() && !jd.has_v0) {
      try {
        auto decomp = ctx->registry->decomp(spec.dims);
        const CheckpointHeader hdr =
            read_checkpoint_header(decomp->comm(), st[qi].checkpoint);
        if (hdr.level_dims == spec.dims) {
          jd.v0 = read_checkpoint_velocity(*decomp, st[qi].checkpoint);
          jd.has_v0 = true;
          jd.warm_gradient_reference =
              static_cast<real_t>(hdr.gradient_reference);
        }
      } catch (const CheckpointError&) {
        // Cold start: the checkpoint is missing or stale.
      }
    }
    jd.ready = true;
  };

  // Fused input pre-smoothing: the template AND reference fields of the
  // given co-resident jobs that want smoothing ride batched
  // gaussian_smooth_many calls (per-field sigma), up to the FFT batch width
  // per exchange set. Bitwise identical per field to the in-solve smoothing
  // it replaces.
  auto presmooth = [&](const std::vector<int>& members) {
    struct SmoothItem {
      const real_t* in;
      real_t* out;
      Vec3 sigma;
    };
    // Group by the spectral-operator key the smoothing runs on.
    std::map<std::tuple<index_t, index_t, index_t, int, int>,
             std::vector<SmoothItem>>
        groups;
    for (int qi : members) {
      const BatchJobSpec& spec = queue_[qi];
      const RegistrationOptions& jopt = spec.request.options;
      JobData& jd = jobdata[qi];
      if (!jopt.smooth_inputs || jd.presmoothed) continue;
      auto decomp = ctx->registry->decomp(spec.dims);
      const index_t n = decomp->local_real_size();
      jd.t_smooth.resize(n);
      jd.r_smooth.resize(n);
      const Vec3 sigma = smoothing_sigma(jopt, spec.dims);
      auto& g = groups[{spec.dims[0], spec.dims[1], spec.dims[2],
                        static_cast<int>(jopt.wire()), jopt.overlap ? 1 : 0}];
      g.push_back({jd.rho_t->data(), jd.t_smooth.data(), sigma});
      g.push_back({jd.rho_r->data(), jd.r_smooth.data(), sigma});
      jd.presmoothed = true;
    }
    for (auto& [key, items] : groups) {
      const Int3 dims{std::get<0>(key), std::get<1>(key), std::get<2>(key)};
      auto ops = ctx->registry->spectral(
          dims, static_cast<WirePrecision>(std::get<3>(key)),
          std::get<4>(key) != 0);
      const int chunk = fft::DistributedFft3d::kMaxBatch;
      for (std::size_t b = 0; b < items.size(); b += chunk) {
        const int m =
            static_cast<int>(std::min<std::size_t>(chunk, items.size() - b));
        const real_t* ins[fft::DistributedFft3d::kMaxBatch];
        real_t* outs[fft::DistributedFft3d::kMaxBatch];
        Vec3 sigmas[fft::DistributedFft3d::kMaxBatch];
        for (int q = 0; q < m; ++q) {
          ins[q] = items[b + q].in;
          outs[q] = items[b + q].out;
          sigmas[q] = items[b + q].sigma;
        }
        ops->gaussian_smooth_many(std::span<const real_t* const>(ins, m),
                                  std::span<const Vec3>(sigmas, m),
                                  std::span<real_t* const>(outs, m));
      }
    }
  };

  // One in-flight placement of a job on this shard.
  struct Attempt {
    int qi = 0;             ///< Queue index.
    int attempts = 0;       ///< Attempts already spent (incremented at start).
    double not_before = 0;  ///< Batch-clock backoff deadline.
    bool degraded = false;  ///< Running the post-deadline degrade config.
  };

  std::map<int, SolveReport> my_reports;  // queue index -> full report
  std::vector<int> my_completed;          // queue indices, completion order
  bool healthy = true;
  // Rounds are bounded: every round either finishes the batch or spends at
  // least one attempt / one rebuild, and attempts are budget-bounded.
  const int max_rounds = std::max(1, opts.retry_budget + 2);

  const auto verbose_line = [&](const char* fmt, auto... args) {
    if (opts.verbose && ctx->sub.rank() == 0) std::printf(fmt, args...);
  };

  for (int round = 0; round < max_rounds; ++round) {
    out.rounds = round + 1;

    // Assignment: pending jobs in scheduling order, round-robin over
    // shards. Identical on every rank (it is a pure function of st).
    std::deque<Attempt> runq;
    std::set<int> my_assigned;
    {
      int k = 0;
      for (int idx : order) {
        if (is_final(st[idx].outcome)) continue;
        if (k % shards == color) {
          runq.push_back({idx, st[idx].attempts, 0.0, false});
          my_assigned.insert(idx);
        }
        ++k;
      }
    }

    // Materialize inputs (and fused pre-smoothing) for this round's
    // placements, inside the fault boundary: a fault mid-smoothing drains
    // the shard's communicators and falls back to per-solve smoothing,
    // which is bitwise identical per field.
    if (healthy && !runq.empty()) {
      std::vector<int> fresh;
      for (const Attempt& a : runq) fresh.push_back(a.qi);
      auto input_fault = [&](const char* what) {
        verbose_line("[batch shard %d] input phase faulted: %s\n", color,
                     what);
        for (int qi : fresh) jobdata[qi].presmoothed = false;
        if (!ctx->registry->recover_after_fault(recover_timeout)) {
          healthy = false;
          return;
        }
        // Second chance without the fused smoothing: the solves smooth
        // in-line, bitwise identical per field. A second fault means the
        // shard is not salvageable this round.
        try {
          for (int qi : fresh) materialize(qi);
        } catch (const grid::NonFiniteFieldError&) {
          healthy = false;
        } catch (const mpisim::CommError&) {
          healthy = false;
        }
      };
      try {
        for (int qi : fresh) materialize(qi);
        presmooth(fresh);
      } catch (const grid::NonFiniteFieldError& e) {
        input_fault(e.what());
      } catch (const mpisim::CommError& e) {
        input_fault(e.what());
      }
    }

    // Finalization helpers (st mutations run identically on every rank of
    // the shard — the ranks execute this loop in lockstep).
    auto finalize_done = [&](const Attempt& a, SolveReport rep) {
      const double done_at = batch_clock.seconds();
      const double deadline = queue_[a.qi].request.deadline_seconds;
      rep.deadline_met = deadline <= 0 || done_at <= deadline;
      JobState& s = st[a.qi];
      s.outcome = a.degraded ? JobOutcome::kDegraded : JobOutcome::kDone;
      s.converged = rep.newton.converged ? 1 : 0;
      s.newton_iters = rep.newton.iterations;
      s.matvecs = rep.newton.total_matvecs;
      s.rel_residual = static_cast<double>(rep.rel_residual);
      s.min_det = static_cast<double>(rep.min_det);
      s.solve_seconds = rep.time_to_solution;
      s.completed_at = done_at;
      s.deadline_met = rep.deadline_met;
      verbose_line(
          "[batch shard %d] job %llu: %s (%s) in %d iters, rel res %.3e, "
          "attempt %d, %.2fs\n",
          color, static_cast<unsigned long long>(rep.job_id),
          rep.newton.converged ? "converged" : "NOT converged",
          to_string(s.outcome), rep.newton.iterations,
          static_cast<double>(rep.rel_residual), s.attempts, done_at);
      my_reports[a.qi] = std::move(rep);
      my_completed.push_back(a.qi);
      persist(ctx->sub, a.qi);
    };

    auto handle_fault = [&](Attempt a, const char* what) {
      verbose_line("[batch shard %d] job %llu attempt %d faulted: %s\n", color,
                   static_cast<unsigned long long>(queue_[a.qi].request.job_id),
                   a.attempts, what);
      if (!ctx->registry->recover_after_fault(recover_timeout)) {
        // Unrecoverable (a rank is down or the wire would not quiesce):
        // stop local execution; the failover round rebuilds this shard and
        // redistributes its unfinished jobs.
        st[a.qi].outcome = JobOutcome::kRetrying;
        healthy = false;
        return;
      }
      if (a.attempts > opts.retry_budget) {
        JobState& s = st[a.qi];
        s.outcome = JobOutcome::kPoisoned;
        s.completed_at = batch_clock.seconds();
        s.deadline_met = queue_[a.qi].request.deadline_seconds <= 0;
        verbose_line("[batch shard %d] job %llu poisoned after %d attempts\n",
                     color,
                     static_cast<unsigned long long>(
                         queue_[a.qi].request.job_id),
                     a.attempts);
        persist(ctx->sub, a.qi);
        return;
      }
      // Deterministic exponential backoff on the batch clock: retry k waits
      // backoff_ms * 2^(k-1). No wall-clock randomness — every rank of the
      // shard computes the same deadline.
      st[a.qi].outcome = JobOutcome::kRetrying;
      a.not_before =
          opts.backoff_ms > 0
              ? batch_clock.seconds() +
                    opts.backoff_ms * std::ldexp(1.0, a.attempts - 1) / 1000.0
              : 0;
      runq.push_back(a);
      persist(ctx->sub, a.qi);
    };

    // The per-job structured-error boundary: the heart of the fault
    // isolation. Each attempt either finalizes its job or requeues it; a
    // CommError / NonFiniteFieldError never propagates past this loop.
    while (healthy && !runq.empty()) {
      Attempt a = runq.front();
      runq.pop_front();
      const BatchJobSpec& spec = queue_[a.qi];
      JobData& jd = jobdata[a.qi];
      while (a.not_before > 0 && batch_clock.seconds() < a.not_before)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

      SolveRequest req = spec.request;
      if (jd.presmoothed) {
        req.rho_t = &jd.t_smooth;
        req.rho_r = &jd.r_smooth;
        req.options.smooth_inputs = false;
      } else {
        req.rho_t = jd.rho_t;
        req.rho_r = jd.rho_r;
      }
      if (jd.has_v0) {
        req.v0 = &jd.v0;
        if (jd.warm_gradient_reference > 0)
          req.options.gradient_reference = jd.warm_gradient_reference;
      }
      if (!st[a.qi].checkpoint.empty())
        req.checkpoint_path = st[a.qi].checkpoint;
      const double deadline = req.deadline_seconds;
      const bool enforce =
          opts.enforce_deadlines && deadline > 0 && !a.degraded;
      if (a.degraded) degrade_options(req.options);

      st[a.qi].attempts = ++a.attempts;
      st[a.qi].shard = color;

      try {
        if (enforce) {
          // Admission check: cancel before spending a solve when the
          // deadline already passed (a shard-collective decision, so every
          // rank takes the same branch).
          if (ctx->sub.allreduce_max(
                  batch_clock.seconds() > deadline ? 1.0 : 0.0) > 0.5)
            throw JobDeadlineError("deadline passed before admission");
          // Cancellation between Newton iterates: the hook throws on every
          // rank at the same iterate (the lateness vote is collective), so
          // the solve terminates cleanly on all ranks. Caller hooks keep
          // running first, mirroring the checkpoint chaining.
          auto caller_hook = req.options.iterate_hook;
          mpisim::Communicator vote = ctx->sub;
          req.options.iterate_hook =
              [caller_hook, vote, deadline,
               &batch_clock](const NewtonIterateInfo& info) mutable {
                if (caller_hook) caller_hook(info);
                if (vote.allreduce_max(
                        batch_clock.seconds() > deadline ? 1.0 : 0.0) > 0.5)
                  throw JobDeadlineError("deadline exceeded mid-solve");
              };
        }
        finalize_done(a, solver_for(spec).solve(req));
      } catch (const JobDeadlineError&) {
        if (opts.degrade && !a.degraded) {
          a.degraded = true;
          st[a.qi].outcome = JobOutcome::kRetrying;
          verbose_line(
              "[batch shard %d] job %llu past deadline, re-admitting "
              "degraded\n",
              color, static_cast<unsigned long long>(spec.request.job_id));
          runq.push_back(a);
        } else {
          JobState& s = st[a.qi];
          s.outcome = JobOutcome::kDeadlineExceeded;
          s.completed_at = batch_clock.seconds();
          s.deadline_met = false;
          verbose_line("[batch shard %d] job %llu cancelled past deadline\n",
                       color,
                       static_cast<unsigned long long>(spec.request.job_id));
          persist(ctx->sub, a.qi);
        }
      } catch (const grid::NonFiniteFieldError& e) {
        handle_fault(a, e.what());
      } catch (const mpisim::CommError& e) {
        handle_fault(a, e.what());
      }
    }

    // Round sync over the PARENT communicator: shard rank 0 contributes the
    // digest rows of this round's placements, every rank contributes its
    // shard-health vote, one allreduce assembles both tables identically on
    // every rank (this is also the cross-shard round barrier).
    constexpr int kCols = 12;
    std::vector<double> flat(
        static_cast<std::size_t>(njobs) * kCols + shards, 0.0);
    if (ctx->sub.rank() == 0) {
      for (int qi : my_assigned) {
        const JobState& s = st[qi];
        double* row = flat.data() + static_cast<std::size_t>(qi) * kCols;
        row[0] = s.shard;
        row[1] = s.converged;
        row[2] = s.newton_iters;
        row[3] = s.matvecs;
        row[4] = s.rel_residual;
        row[5] = s.min_det;
        row[6] = s.solve_seconds;
        row[7] = s.completed_at;
        row[8] = s.deadline_met ? 1 : 0;
        row[9] = static_cast<int>(s.outcome);
        row[10] = s.attempts;
        row[11] = 1;  // contributed
      }
    }
    // Health is voted by EVERY rank of the shard, not just rank 0: a rank
    // whose recovery attempt diverged from its peers must still force the
    // rebuild, or the shard would deadlock split between two beliefs.
    if (!healthy) flat[static_cast<std::size_t>(njobs) * kCols + color] = 1;
    comm_.allreduce_sum(flat);
    for (int j = 0; j < njobs; ++j) {
      const double* row = flat.data() + static_cast<std::size_t>(j) * kCols;
      if (row[11] < 0.5) continue;
      JobState& s = st[j];
      s.shard = static_cast<int>(row[0]);
      s.converged = row[1];
      s.newton_iters = row[2];
      s.matvecs = row[3];
      s.rel_residual = row[4];
      s.min_det = row[5];
      s.solve_seconds = row[6];
      s.completed_at = row[7];
      s.deadline_met = row[8] != 0;
      s.outcome = static_cast<JobOutcome>(static_cast<int>(row[9]));
      s.attempts = static_cast<int>(row[10]);
    }
    std::vector<char> shard_down(static_cast<std::size_t>(shards), 0);
    int down_count = 0;
    for (int s = 0; s < shards; ++s) {
      shard_down[static_cast<std::size_t>(s)] =
          flat[static_cast<std::size_t>(njobs) * kCols + s] > 0.5 ? 1 : 0;
      down_count += shard_down[static_cast<std::size_t>(s)];
    }

    const bool any_pending = std::any_of(
        st.begin(), st.end(),
        [](const JobState& s) { return !is_final(s.outcome); });
    if (!any_pending) break;
    if (round + 1 >= max_rounds) {
      // Out of failover rounds: whatever is still pending is poisoned — a
      // decision every rank reaches identically from the synced table.
      for (int j = 0; j < njobs; ++j) {
        if (is_final(st[j].outcome)) continue;
        st[j].outcome = JobOutcome::kPoisoned;
        st[j].deadline_met = queue_[j].request.deadline_seconds <= 0;
      }
      break;
    }

    // Failover: drain and rebuild every unhealthy shard — purge its
    // registry (plans and pooled transports are bound to the dead shard's
    // communicators), re-split the parent communicator, and start a fresh
    // registry. Healthy shards keep their warm context; the re-split is
    // collective, so they participate and drop the fresh communicator.
    if (down_count > 0) {
      out.shard_rebuilds += down_count;
      verbose_line("[batch shard %d] failover round %d: rebuilding %d "
                   "shard(s)\n",
                   color, round + 1, down_count);
      mpisim::Communicator fresh =
          shards == 1 ? comm_ : comm_.split(color);
      if (shard_down[static_cast<std::size_t>(color)]) {
        solvers.clear();  // solvers reference the purged registry's decomps
        jobdata.clear();
        ctx->registry->purge();
        if (shards == 1) comm_.recover_after_fault(recover_timeout);
        Shard rebuilt;
        rebuilt.sub = fresh;
        rebuilt.registry = std::make_shared<PlanRegistry>(fresh);
        shards_[shards] = std::move(rebuilt);
        ctx = &shards_[shards];
        healthy = true;
      }
    }
  }

  // Deformed templates: co-resident same-shape jobs run their final
  // transport lockstep through the fused exchange (one ghost exchange and
  // one value alltoallv per time step for the whole group). Faults here
  // degrade to per-job transports; a job whose deform still faults leaves
  // an empty field rather than failing the batch.
  const int jn = static_cast<int>(my_completed.size());
  if (opts.want_deformed) {
    out.deformed.resize(static_cast<std::size_t>(jn));
    bool deformed_ok = false;
    try {
      for (int qi : my_completed) materialize(qi);
      std::map<PlanRegistry::TransportKey, std::vector<int>> groups;
      for (int i = 0; i < jn; ++i) {
        const BatchJobSpec& spec = queue_[my_completed[i]];
        groups[PlanRegistry::transport_key(
                   spec.dims, transport_config(spec.request.options))]
            .push_back(i);
      }
      for (auto& [key, members] : groups) {
        const int g = static_cast<int>(members.size());
        const BatchJobSpec& spec0 = queue_[my_completed[members[0]]];
        const semilag::TransportConfig tc =
            transport_config(spec0.request.options);
        auto decomp = ctx->registry->decomp(spec0.dims);
        std::vector<std::shared_ptr<semilag::Transport>> leased(g);
        std::vector<semilag::Transport*> transports(g);
        std::vector<const ScalarField*> templates(g);
        for (int q = 0; q < g; ++q) {
          const int qi = my_completed[members[q]];
          leased[q] = ctx->registry->acquire_transport(spec0.dims, tc);
          transports[q] = leased[q].get();
          transports[q]->set_velocity(my_reports[qi].velocity);
          templates[q] = jobdata[qi].rho_t;  // unsmoothed template
        }
        interp::FusedInterp fused(*decomp, tc.wire, tc.overlap);
        semilag::solve_states_fused(
            std::span<semilag::Transport* const>(transports),
            std::span<const ScalarField* const>(templates), fused);
        for (int q = 0; q < g; ++q) {
          out.deformed[static_cast<std::size_t>(members[q])] =
              transports[q]->final_state();
          ctx->registry->release_transport(spec0.dims, tc,
                                           std::move(leased[q]));
        }
      }
      deformed_ok = true;
    } catch (const grid::NonFiniteFieldError&) {
      ctx->registry->recover_after_fault(recover_timeout);
    } catch (const mpisim::CommError&) {
      ctx->registry->recover_after_fault(recover_timeout);
    }
    if (!deformed_ok) {
      for (int i = 0; i < jn; ++i) {
        const int qi = my_completed[i];
        const BatchJobSpec& spec = queue_[qi];
        try {
          materialize(qi);
          solver_for(spec).deform_template(
              *jobdata[qi].rho_t, my_reports[qi].velocity,
              out.deformed[static_cast<std::size_t>(i)]);
        } catch (const grid::NonFiniteFieldError&) {
          ctx->registry->recover_after_fault(recover_timeout);
        } catch (const mpisim::CommError&) {
          ctx->registry->recover_after_fault(recover_timeout);
        }
      }
    }
  }

  // Full reports of my shard's jobs, in completion order, aligned with
  // out.deformed.
  out.reports.reserve(static_cast<std::size_t>(jn));
  for (int qi : my_completed) out.reports.push_back(std::move(my_reports[qi]));

  out.summary.resize(static_cast<std::size_t>(njobs));
  for (int j = 0; j < njobs; ++j) {
    const JobState& sj = st[j];
    BatchJobSummary& s = out.summary[static_cast<std::size_t>(j)];
    s.job_id = queue_[j].request.job_id;
    s.shard = sj.shard;
    s.ran_here = !sj.from_manifest && sj.shard == color;
    s.outcome = sj.outcome;
    s.attempts = sj.attempts;
    s.converged = sj.converged != 0;
    s.newton_iters = static_cast<int>(sj.newton_iters);
    s.matvecs = static_cast<int>(sj.matvecs);
    s.rel_residual = static_cast<real_t>(sj.rel_residual);
    s.min_det = static_cast<real_t>(sj.min_det);
    s.solve_seconds = sj.solve_seconds;
    s.completed_at_seconds = sj.completed_at;
    s.deadline_met = sj.deadline_met;
  }

  // Final manifest write: every job's terminal outcome, in one atomic
  // replace (the per-finalization updates make this mostly a no-op, but it
  // also records cap-poisoned jobs that never reached a shard update).
  if (manifest_on) {
    std::vector<BatchManifestEntry> all;
    all.reserve(static_cast<std::size_t>(njobs));
    for (int j = 0; j < njobs; ++j) all.push_back(manifest_entry(j));
    update_manifest(comm_, opts.manifest_path, all);
  }

  out.wall_seconds = comm_.allreduce_max(batch_clock.seconds());
  out.registrations_per_sec =
      out.wall_seconds > 0 ? njobs / out.wall_seconds : 0;
  out.registry = ctx->registry->stats();
  queue_.clear();
  return out;
}

}  // namespace diffreg::core
