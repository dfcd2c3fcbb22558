// Mixed-precision support types (CLAIRE-style: Mang et al. 2019, Brunn et
// al. 2020 run the inexact Gauss-Newton-Krylov inner loop in single
// precision while the outer Newton iteration stays double).
//
// Two independent knobs build on these types:
//
//  * WirePrecision — the payload width of the hot exchange paths (FFT
//    transposes, ghost halos, interpolation value scatter, resample remap).
//    kF32 ships every message at half the bytes: each plan owns an
//    mpisim::WireStage, the exchange down-converts into its fp32 staging
//    and up-converts on receive, and the Timings counters record the bytes
//    that actually crossed the wire plus the volume saved by the narrowing.
//  * Compute precision of the inner Krylov solve — fp32 storage for the PCG
//    recurrence vectors with fp64 accumulation in every dot product/norm
//    (see core/pcg.hpp); the outer Newton step, gradient, objective, and
//    line search stay fp64 throughout.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <string_view>

#include "common/types.hpp"

namespace diffreg {

/// Single-precision scalar / complex used for wire payloads and the inner
/// Krylov storage. `real_t` (double) remains the precision of every field
/// the solver owns.
using real32_t = float;
using complex32_t = std::complex<real32_t>;

/// Payload element width of an exchange path. kF64 ships fields bit-exact;
/// kF32 down-converts on send and up-converts on receive (half the bytes,
/// ~1e-7 relative rounding per value).
enum class WirePrecision {
  kF64,
  kF32,
};

inline std::string_view wire_precision_name(WirePrecision wire) {
  return wire == WirePrecision::kF32 ? "fp32" : "fp64";
}

/// Element-wise down-conversion into a caller-owned staging span.
/// Works for real (double -> float) and complex (complex<double> ->
/// complex<float>) payloads alike.
template <typename Wide, typename Narrow>
inline void narrow_into(std::span<const Wide> in, std::span<Narrow> out) {
  for (size_t i = 0; i < in.size(); ++i)
    out[i] = static_cast<Narrow>(in[i]);
}

/// Element-wise up-conversion, the mirror of narrow_into.
template <typename Narrow, typename Wide>
inline void widen_into(std::span<const Narrow> in, std::span<Wide> out) {
  for (size_t i = 0; i < in.size(); ++i)
    out[i] = static_cast<Wide>(in[i]);
}

}  // namespace diffreg
