// Reproduces the structure of Table I (paper): computational performance of
// the solver on the synthetic problem of Fig. 5 — compressible case — as a
// function of grid size and task count. Columns: time to solution, FFT
// communication/execution, interpolation communication/execution.
//
// Paper setup: beta = 1e-2, nt = 4, gtol = 1e-2, Gauss-Newton; grids
// 64^3-512^3 on up to 1024 tasks (Maverick). Here: grids 32^3-64^3 on up to
// 4 simulated ranks (2 physical cores) — see the scaling note in
// bench_common.hpp.
#include "bench_common.hpp"

using namespace diffreg;
using namespace diffreg::bench;

int main() {
  print_scaling_header(
      "Table I (structure): synthetic registration, compressible, "
      "beta=1e-2, nt=4, gtol=1e-2, Gauss-Newton");

  struct Entry {
    Int3 dims;
    int ranks;
  };
  const Entry entries[] = {
      {{32, 32, 32}, 1}, {{32, 32, 32}, 2}, {{32, 32, 32}, 4},
      {{48, 48, 48}, 1}, {{48, 48, 48}, 2}, {{48, 48, 48}, 4},
      {{64, 64, 64}, 2}, {{64, 64, 64}, 4},
  };

  int id = 1;
  for (const Entry& e : entries) {
    CaseConfig config;
    config.dims = e.dims;
    config.ranks = e.ranks;
    config.options.beta = 1e-2;
    config.options.gtol = 1e-2;
    config.options.nt = 4;
    config.options.max_newton_iters = 10;
    const CaseResult r = run_case(config);
    print_scaling_row(id++, e.dims, e.ranks, r);
  }

  std::printf(
      "\nExpected shape (paper): for fixed grid, execution times drop with\n"
      "tasks while communication grows in share; interpolation dominates\n"
      "execution; the relative residual is independent of the task count.\n");
  return 0;
}
