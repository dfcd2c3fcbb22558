// PlanRegistry: shared plan infrastructure for many-pair registration
// (ROADMAP item 3, the service counterpart of the PR 3 caching contract).
//
// Every plan family the solver builds — pencil decompositions (two
// communicator splits each), spectral operator sets (a distributed FFT plan
// with all transpose buffers), resample plans, and transports (ghost
// exchanger + interpolation plans + time-history storage) — is built ONCE
// per key and leased to jobs. Keys are (dims, process grid, wire precision,
// overlap) plus, for transports, the transport configuration; two jobs with
// the same shape and precision policy share one entry, jobs with different
// shapes or wire formats get distinct entries.
//
// Two lease shapes:
//  * decomp/spectral/resample — genuinely shareable (stateless between
//    calls apart from scratch that every use overwrites): one shared entry,
//    handed out as shared_ptr leases.
//  * transport — job-scoped (it caches the job's velocity, departure-point
//    plans and time histories), so it is POOLED, not shared: acquire checks
//    one out (building only when the free list is empty), release checks it
//    back in with its buffers warm. A transport reused across jobs keeps
//    every allocation; only the per-velocity departure plans rebuild, which
//    is the PR 3 contract (plans follow the velocity, buffers follow the
//    plan object).
//
// `stats()` exposes per-family build counters and the total lease count, so
// tests and the batch bench can assert "B same-shape jobs built each plan
// exactly once" the same way Transport::plan_build_count() proves
// per-velocity reuse.
//
// Collective discipline: decomp construction splits the communicator and a
// first lease builds plans, so lease calls are COLLECTIVE over the
// registry's communicator — all ranks must lease the same keys in the same
// order (the usual SPMD discipline). The registry is per-rank state (each
// rank of an mpisim::run_spmd body constructs its own); it is not
// thread-shared and needs no locks.
#pragma once

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "grid/decomposition.hpp"
#include "semilag/transport.hpp"
#include "spectral/operators.hpp"
#include "spectral/resample.hpp"

namespace diffreg::core {

class PlanRegistry {
 public:
  /// The registry serves plans on (splits of) this communicator; all
  /// decompositions it builds use the default near-square process grid for
  /// the communicator's size.
  explicit PlanRegistry(mpisim::Communicator comm) : comm_(comm) {}

  mpisim::Communicator& comm() { return comm_; }

  /// Decomposition for `dims` (built on first lease; two communicator
  /// splits). Collective.
  std::shared_ptr<grid::PencilDecomp> decomp(const Int3& dims);

  /// Spectral operator set (FFT plan + wavenumber tables) for
  /// (dims, wire, overlap), bound to decomp(dims). Collective.
  std::shared_ptr<spectral::SpectralOps> spectral(const Int3& dims,
                                                  WirePrecision wire,
                                                  bool overlap);

  /// Grid-transfer plan decomp(from) -> decomp(to) at `wire`. Collective.
  std::shared_ptr<spectral::ResamplePlan> resample(const Int3& from,
                                                   const Int3& to,
                                                   WirePrecision wire);

  /// Checks a transport for (dims, tc) out of the pool, building one only
  /// when the free list is empty. The returned transport is invalidated
  /// (no cached velocity or histories) but keeps all buffer capacity from
  /// its previous job. Collective on first build.
  std::shared_ptr<semilag::Transport> acquire_transport(
      const Int3& dims, const semilag::TransportConfig& tc);

  /// Returns a transport to the pool for the next job with the same key.
  void release_transport(const Int3& dims, const semilag::TransportConfig& tc,
                         std::shared_ptr<semilag::Transport> transport);

  /// Collective fault recovery: quiesces and drains the registry's
  /// communicator and every cached decomposition's row/col communicators
  /// (map order — identical on all ranks), discarding stale in-flight
  /// payloads of an aborted exchange so the next lease observes a clean
  /// wire. Pooled transports need no extra scrubbing here: acquire_transport
  /// already invalidates plans/histories on checkout — the stale state a
  /// fault leaves behind lives in the communicators, which is what this
  /// drains. Returns false when any communicator is unrecoverable (a rank
  /// is truly down): the shard should be rebuilt, not reused. Never throws.
  bool recover_after_fault(double timeout_ms);

  /// Drops every cached plan and pooled transport (the failover purge: a
  /// rebuilt shard must not lease plans bound to the dead shard's
  /// communicators). Build counters are cumulative and survive the purge.
  void purge();

  struct Stats {
    int decomp_builds = 0;
    int spectral_builds = 0;
    int resample_builds = 0;
    int transport_builds = 0;
    int leases = 0;  ///< Lease/acquire calls served (builds + cache hits).
  };
  const Stats& stats() const { return stats_; }
  /// Total plan objects constructed across all families — the
  /// `plan_build_count` of the registry contract: stays flat while leases
  /// grow when jobs share infrastructure.
  int plan_build_count() const {
    return stats_.decomp_builds + stats_.spectral_builds +
           stats_.resample_builds + stats_.transport_builds;
  }

  std::size_t decomp_entries() const { return decomps_.size(); }
  std::size_t spectral_entries() const { return spectrals_.size(); }
  std::size_t resample_entries() const { return resamples_.size(); }

  // dims + nt + method + incompressible + wire + overlap: the pool key of a
  // transport, and the group key of the batch's fused deformed-template
  // transport (same key, same lockstep schedule).
  using TransportKey =
      std::tuple<index_t, index_t, index_t, int, int, int, int, int>;
  static TransportKey transport_key(const Int3& d,
                                    const semilag::TransportConfig& tc) {
    return {d[0],
            d[1],
            d[2],
            tc.nt,
            static_cast<int>(tc.method),
            tc.incompressible ? 1 : 0,
            static_cast<int>(tc.wire),
            tc.overlap ? 1 : 0};
  }

 private:
  using DimsKey = std::tuple<index_t, index_t, index_t>;
  // dims + wire + overlap.
  using SpectralKey = std::tuple<index_t, index_t, index_t, int, int>;
  // from-dims + to-dims + wire.
  using ResampleKey = std::tuple<index_t, index_t, index_t, index_t, index_t,
                                 index_t, int>;

  static DimsKey dims_key(const Int3& d) { return {d[0], d[1], d[2]}; }

  mpisim::Communicator comm_;
  std::map<DimsKey, std::shared_ptr<grid::PencilDecomp>> decomps_;
  std::map<SpectralKey, std::shared_ptr<spectral::SpectralOps>> spectrals_;
  std::map<ResampleKey, std::shared_ptr<spectral::ResamplePlan>> resamples_;
  std::map<TransportKey, std::vector<std::shared_ptr<semilag::Transport>>>
      transport_pool_;
  Stats stats_;
};

}  // namespace diffreg::core
