// Shared pieces of the end-to-end registration benchmark driver: the clock,
// medians, the per-rank span tracer, and the per-layer cost replay.
//
// Everything here sits OUTSIDE the solver: spans are recorded around calls
// into the library's public API, never inside it, and the per-layer costs
// come from direct calls to each layer's public functions on the
// workload's own grid, rank count, precision and converged velocity.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/diffreg.hpp"

namespace perfbench {

using diffreg::grid::ScalarField;
using diffreg::grid::VectorField;

/// Monotonic seconds since the first call (steady_clock).
double now_s();

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double median(std::vector<double> v);

/// Span recorder with one track per rank. Each track is written only by
/// its own rank thread, so recording needs no lock; tracks are preallocated
/// so recording allocates nothing until a track outgrows its reserve. A
/// disabled tracer records nothing.
class Tracer {
 public:
  Tracer(bool enabled, int tracks);
  bool enabled() const { return enabled_; }
  void record(int track, const char* name, double t0, double t1);
  /// Writes every span as Chrome trace-event JSON ("X" events, one tid per
  /// rank), loadable in Perfetto or chrome://tracing.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double t0, t1;
  };
  bool enabled_;
  std::vector<std::vector<Span>> tracks_;
};

/// Per-call costs of every layer, keyed by metric name (for example
/// "fft.forward_ms"): medians over `reps` timed calls after one untimed
/// warm-up call, each call bracketed by barriers so the time is that of the
/// slowest rank. Collective over `decomp`'s communicator; every rank
/// returns its own view of the same measurement. `v` is the converged
/// velocity of the workload's solve and `rho_t`/`rho_r` are its
/// (unsmoothed) input blocks.
std::map<std::string, double> measure_layer_costs(
    diffreg::grid::PencilDecomp& decomp,
    const diffreg::core::RegistrationOptions& opt, const ScalarField& rho_t,
    const ScalarField& rho_r, const VectorField& v, int reps, Tracer& tracer,
    int track);

}  // namespace perfbench
