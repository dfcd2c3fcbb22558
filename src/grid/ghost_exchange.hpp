// Periodic ghost-layer exchange for pencil-decomposed scalar fields
// (paper section III-C2: "every processor maintains a layer of ghost
// points... values must be synchronized before interpolation takes place").
//
// The tricubic stencil needs `width` extra points on each side. Dims 1 and 2
// are distributed, so their halos come from the four edge neighbours of the
// process grid; corner values are picked up by exchanging dimension 1 first
// and then dimension 2 over the already-widened slabs (two-phase trick).
// Dimension 3 is fully local, so its halo is a periodic wrap in memory.
//
// The exchanger owns persistent pack/unpack buffers, so a steady-state
// exchange performs no heap allocation, and `exchange_many` widens several
// fields through the SAME four neighbour messages (one packed slab per
// direction instead of one per field) — the halo analogue of the batched
// interpolation exchange.
//
// With WirePrecision::kF32 every neighbour slab is down-converted into
// persistent fp32 staging before it ships and up-converted on receive (half
// the halo bytes, ~1e-7 relative rounding); the degenerate single-rank
// directions stay local fp64 copies.
//
// Comm/compute overlap: an `overlap` exchanger posts the FIRST halo receive
// of each dimension nonblocking and packs + sends the SECOND slab while it
// is in flight (buffered sends copy the payload at post, so reusing the
// pack buffer is safe, and plain sends are legal while a receive is
// pending). Same two sends, two receives, and tags per dimension — the
// message schedule and the ghosted result are identical to the blocking
// exchanger, bitwise; the overlapped wire time lands in the Timings
// hidden-comm counter.
#pragma once

#include <span>
#include <vector>

#include "grid/decomposition.hpp"

namespace diffreg::grid {

class GhostExchange {
 public:
  /// `width` ghost points on every side. Requires width <= the smallest
  /// local block extent in dims 1 and 2 (single-neighbour halos).
  /// `overlap` packs/sends the second slab of each dimension under the
  /// first halo's flight; results and message schedule are identical
  /// either way.
  GhostExchange(PencilDecomp& decomp, index_t width,
                TimeKind comm_kind = TimeKind::kInterpComm,
                WirePrecision wire = WirePrecision::kF64,
                bool overlap = false);

  index_t width() const { return width_; }
  WirePrecision wire() const { return stage_.wire(); }
  /// True when the per-dimension halo receives are posted nonblocking.
  bool overlap() const { return overlap_; }
  /// Dimensions of the ghosted block: (n1l + 2w, n2l + 2w, N3 + 2w).
  const Int3& ghost_dims() const { return gdims_; }
  index_t ghost_size() const { return gdims_.prod(); }

  /// Fills `ghosted` (resized to ghost_size()) from the owned block.
  void exchange(std::span<const real_t> local, std::vector<real_t>& ghosted);

  /// Batched exchange: widens `locals.size()` fields into consecutive
  /// ghost_size() blocks of `ghosted` (which must hold exactly
  /// locals.size() * ghost_size() elements). All fields share the four
  /// neighbour messages, so the message count is independent of the batch.
  void exchange_many(std::span<const real_t* const> locals,
                     std::span<real_t> ghosted);

 private:
  /// One distributed dimension's halo pass (dim 1 or 2) over all
  /// `nfields` ghost blocks: slabs are `width_` deep along `dim` and span
  /// [cross_begin, cross_begin + cross_extent) of the other in-plane axis
  /// and the whole ghosted dim 3; they travel to/from the `lo_nbr` /
  /// `hi_nbr` ranks, and the phase is marked `dim` in the schedule hash.
  void exchange_dim(int dim, index_t cross_begin, index_t cross_extent,
                    int lo_nbr, int hi_nbr, std::span<real_t> ghosted,
                    int nfields);
  /// Grows the two slab buffers to fit `nfields` packed slabs.
  void ensure_slab_capacity(int nfields);

  PencilDecomp* decomp_;
  index_t width_;
  Int3 ldims_;   // local owned block
  Int3 gdims_;   // ghosted block
  TimeKind comm_kind_;
  mpisim::WireStage<real_t> stage_;  // wire format of every halo slab
  bool overlap_ = false;

  // Persistent slab buffers (grow-only): sized for the larger of the dim-1
  // and dim-2 slabs times the widest batch seen so far; the stage's fp32
  // staging grows alongside on a kF32 exchanger.
  std::vector<real_t> pack_buf_, recv_buf_;

  static constexpr int kTagLow = 201;   // data travelling toward lower index
  static constexpr int kTagHigh = 202;  // data travelling toward higher index
};

}  // namespace diffreg::grid
