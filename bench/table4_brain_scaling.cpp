// Reproduces the structure of Table IV (paper): strong scaling on the
// real-world brain problem (NIREP na01/na02, 256x300x256, 2 Newton
// iterations, beta = 1e-2). Here: procedural brain phantoms on a 48x56x48
// grid — the same anisotropic, non-power-of-two shape class. Both 56 and
// 300 are 61-smooth, so both take the planned mixed-radix FFT path
// (56 = 4*2*7 reaches the generic radix-7 butterfly, 300 = 4*3*5*5).
#include "bench_common.hpp"

using namespace diffreg;
using namespace diffreg::bench;

int main() {
  print_scaling_header(
      "Table IV (structure): brain (phantom) registration strong scaling, "
      "beta=1e-2, 2 Newton iterations");

  int id = 25;  // numbering follows the paper's Table IV (#25...)
  for (int ranks : {1, 2, 4}) {
    CaseConfig config;
    config.dims = {48, 56, 48};
    config.ranks = ranks;
    config.workload = Workload::kBrain;
    config.options.beta = 1e-2;
    config.options.gtol = 1e-2;
    config.options.max_newton_iters = 2;  // as in the paper's Table IV
    const CaseResult r = run_case(config);
    print_scaling_row(id++, config.dims, ranks, r);
  }

  std::printf(
      "\nExpected shape (paper): the whole problem fits on one node and the\n"
      "wall-clock time drops as ranks are added, with FFT and interpolation\n"
      "communication/execution falling accordingly (Table IV #25-29).\n");
  return 0;
}
