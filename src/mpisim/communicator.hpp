/// @file communicator.hpp
/// mpisim: a thread-backed message-passing runtime.
///
/// The paper's solver is an MPI SPMD program (TACC Maverick/Stampede). This
/// machine has no MPI, so we reproduce the programming model: `run_spmd(p, f)`
/// launches p "ranks" (threads) that may only exchange data through a
/// Communicator — point-to-point messages are copied through per-rank
/// mailboxes, so all data movement that would be network traffic under MPI is
/// real buffer traffic here, and is accounted separately from computation via
/// the Timings categories (the comm/exec split of Tables I-IV).
///
/// The Communicator itself is transport-agnostic: every byte that moves goes
/// through the abstract `Backend` interface (backend.hpp). The collective
/// algorithms, consistency self-checks, wire-precision conversions, and all
/// Timings accounting live HERE, so a real-MPI backend inherits them — and
/// the entire test suite — by implementing six byte-level primitives.
///
/// Supported surface (what the solver needs): rank/size, barrier, send/recv,
/// sendrecv, broadcast, allreduce (sum/max/min, scalar and element-wise
/// vector), allgather, alltoall(v), nonblocking alltoallv / point-to-point
/// variants returning CommRequest completion handles, and communicator
/// splitting (row/col sub-communicators of the pencil grid).
///
/// Collective algorithms (all O(log p) message depth, no rank-0 funnel):
///   broadcast         binomial tree rooted at `root`
///   allgather         Bruck dissemination (works for any p)
///   allreduce scalar  recursive doubling; non-power-of-two ranks fold into
///                     the largest power-of-two group first and get the
///                     result back afterwards
///   allreduce vector  binomial-tree reduce to rank 0 + binomial broadcast
///                     (reduce-then-broadcast, for batched field norms)
///   alltoallv         pairwise exchange (p-1 rounds, bandwidth-bound by
///                     design) with a collective-consistency self-check,
///                     over caller-owned flat buffers so hot paths (the FFT
///                     transposes) allocate nothing per call
/// Scalar allreduce combines operands in subgroup order, so every rank
/// computes bitwise-identical results; the vector form broadcasts rank 0's
/// combination, which is likewise identical everywhere.
///
/// Wire precision lives HERE, not in the plans: a plan hands every exchange
/// its `WireStage` (its WirePrecision plus the fp32 staging it owns), and
/// the exchange narrows the peer payloads to fp32 on a kF32 stage — half
/// the bytes for ~1e-7 relative rounding — or ships them bit-exact on a
/// kF64 one. One post body serves every plan exchange (`alltoallv`,
/// `ialltoallv`, `send`, `recv_into`, `irecv_into` with a stage).
///
/// Nonblocking exchanges (`ialltoallv`, `irecv_into`) post the SAME message
/// schedule as their blocking forms — identical tags, payload order, byte /
/// message / exchange counters; a blocking call IS the post followed by a
/// completion that credits no hidden time — and defer only the receives
/// behind a `CommRequest`. Between post and `wait()` the caller computes;
/// the span of wire time that elapsed under that compute is accounted to
/// the Timings hidden-comm counter, which is how the overlap efficiency of
/// Tables I-IV's comm legs is measured. At most ONE request may be
/// outstanding per Communicator: any receive, barrier, or collective while
/// one is pending throws (wait-before-read enforcement), which turns
/// forgotten waits into loud errors instead of stolen messages. Sends stay
/// legal while a request is in flight — they are buffered and cannot race
/// the pending receives — which is what lets GhostExchange push the second
/// halo slab under the first one's flight.
///
/// Every send is also accounted to the rank's Timings as (bytes, messages)
/// under the communicator's current TimeKind, and each alltoallv entered
/// bumps an exchange counter — this is the comm-volume side of the paper's
/// comm/exec split (Tables I-IV report time; the counters make message-count
/// regressions visible too).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/precision.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "mpisim/backend.hpp"
#include "mpisim/errors.hpp"

namespace diffreg::mpisim {

class Communicator;

namespace detail {

/// One deferred receive of an outstanding nonblocking exchange. The storage
/// lives in the owning Communicator (grow-only, reused across posts) so warm
/// overlapped paths allocate nothing.
struct PendingRecv {
  int src = 0;
  int tag = 0;
  /// Destination bytes: the final buffer (plain receives) or the Wide
  /// buffer a widening receive up-converts into.
  std::byte* dst = nullptr;
  /// Exact wire payload size the matching message must carry.
  size_t payload_bytes = 0;
  /// Element count of a widening receive (payload_bytes / sizeof(Narrow)).
  size_t elems = 0;
  /// Non-null for widening receives: up-converts `elems` Narrow elements of
  /// the wire payload straight into `dst`. Null receives memcpy instead.
  void (*widen)(const std::byte* payload, std::byte* dst, size_t elems) =
      nullptr;
};

/// Widening kernel instantiated per (Wide, Narrow) pair for PendingRecv.
template <typename Wide, typename Narrow>
void widen_payload(const std::byte* payload, std::byte* dst, size_t elems) {
  widen_into(
      std::span<const Narrow>(reinterpret_cast<const Narrow*>(payload), elems),
      std::span<Wide>(reinterpret_cast<Wide*>(dst), elems));
}

/// fp32 wire element of a solver payload element.
template <typename Wide>
struct WireNarrow;
template <>
struct WireNarrow<real_t> {
  using type = real32_t;
};
template <>
struct WireNarrow<complex_t> {
  using type = complex32_t;
};

}  // namespace detail

/// A plan's wire format for one payload type: its WirePrecision plus the
/// two fp32 staging buffers a kF32 exchange narrows into (send) and a
/// real-MPI transport would land narrow payloads in (recv). Plans own one
/// per exchange path and hand it to every Communicator call; the staging
/// grows only under kF32 and only through reserve(), which plans call from
/// their sizing points, so warm exchanges allocate nothing.
template <typename Wide>
class WireStage {
 public:
  using Narrow = typename detail::WireNarrow<Wide>::type;

  explicit WireStage(WirePrecision wire = WirePrecision::kF64)
      : wire_(wire) {}

  WirePrecision wire() const { return wire_; }
  bool narrow() const { return wire_ == WirePrecision::kF32; }

  /// Grows the staging to hold `send` outgoing and `recv` incoming
  /// elements (grow-only; no-op on a kF64 stage).
  void reserve(size_t send, size_t recv) {
    if (!narrow()) return;
    if (send_.size() < send) send_.resize(send);
    if (recv_.size() < recv) recv_.resize(recv);
  }

 private:
  friend class Communicator;
  WirePrecision wire_;
  std::vector<Narrow> send_, recv_;
};

/// Collective-op classes recorded by the schedule verifier
/// (Communicator::set_verify_schedule). The numeric values are folded into
/// the per-rank schedule hash, so they are part of the verifier wire format
/// (docs/ANALYSIS.md): append new kinds at the end, never renumber.
enum class ScheduleOpKind : std::uint8_t {
  kBarrier = 0,
  kBroadcast,
  kAllreduce,
  kAllreduceVec,
  kAllgather,
  kAlltoall,
  kAlltoallv,
  kSplit,
  kMark,
};

namespace detail {

/// Rank-invariant signature of one recorded collective op: exactly the
/// fields the rolling schedule hash folds, retained per op so a detected
/// divergence can be reported as "op k on this rank was X" instead of a
/// bare hash mismatch.
struct ScheduleOpSig {
  ScheduleOpKind kind;
  int tag = 0;  ///< Exchange tag / broadcast root / reduction-op id.
  std::uint32_t wire_bits = 0;  ///< Per-element wire width in bits (0: n/a).
  std::uint64_t extra = 0;      ///< Kind-specific word (vector length).
};

}  // namespace detail

/// Completion handle of a nonblocking exchange (MPI_Request analogue).
/// Move-only; produced by Communicator::ialltoallv and friends.
///
/// The posting call has already pushed every outgoing message (sends are
/// buffered and complete at post), so the handle tracks only the deferred
/// receives. `wait()` blocks until all of them have landed, scatters /
/// widens them into the destination buffers, and credits the wire time that
/// elapsed under the caller's compute to the Timings hidden-comm counter.
/// Destination buffers must not be read before wait()/test() succeeds —
/// and the owning Communicator enforces the discipline by throwing on any
/// receive or collective posted while this request is outstanding.
class CommRequest {
 public:
  /// An already-completed request (what pure-send posts return).
  CommRequest() = default;

  CommRequest(CommRequest&& other) noexcept { *this = std::move(other); }
  CommRequest& operator=(CommRequest&& other) noexcept {
    comm_ = std::exchange(other.comm_, nullptr);
    post_time_ = other.post_time_;
    kind_ = other.kind_;
    return *this;
  }
  CommRequest(const CommRequest&) = delete;
  CommRequest& operator=(const CommRequest&) = delete;

  /// Completes an abandoned request (swallowing errors — destructors must
  /// not throw) so the message schedule stays intact; call wait() yourself
  /// to surface failures.
  ~CommRequest();

  /// True once the request has completed (wait()/test() succeeded or the
  /// post had nothing to defer).
  bool done() const { return comm_ == nullptr; }

  /// Blocks until every deferred receive has landed and delivers the
  /// payloads. Time spent blocked is charged to the exchange's TimeKind as
  /// usual; the post-to-last-arrival span that elapsed BEFORE entering
  /// wait() is credited as hidden comm time.
  void wait() { complete("nonblocking wait", /*credit_hidden=*/true); }

  /// Nonblocking completion probe: returns false while any message is still
  /// in flight; otherwise completes the request (equivalent to wait()) and
  /// returns true.
  bool test();

 private:
  friend class Communicator;
  CommRequest(Communicator* comm, double post_time, TimeKind kind)
      : comm_(comm), post_time_(post_time), kind_(kind) {}

  /// Delivers every deferred receive. Blocking calls complete their own
  /// post right away with `credit_hidden` false, so they hide nothing;
  /// `operation` names the call in a watchdog diagnosis.
  void complete(const char* operation, bool credit_hidden);

  Communicator* comm_ = nullptr;  ///< Owning communicator; null once done.
  double post_time_ = 0.0;        ///< Backend-clock stamp of the post.
  TimeKind kind_ = TimeKind::kOther;  ///< Category captured at post time.
};

/// Handle through which one rank communicates. Cheap to copy (copies share
/// the transport); a Communicator with an outstanding CommRequest must not
/// be copied.
class Communicator {
 public:
  Communicator() = default;
  /// Wraps a transport endpoint. `timings` must outlive the communicator.
  Communicator(std::shared_ptr<Backend> backend, Timings* timings)
      : backend_(std::move(backend)),
        rank_(backend_ ? backend_->rank() : 0),
        size_(backend_ ? backend_->size() : 1),
        timings_(timings) {}

  /// This rank's id in [0, size()).
  int rank() const { return rank_; }
  /// Number of ranks in the communicator.
  int size() const { return size_; }
  bool is_root() const { return rank_ == 0; }

  /// The transport endpoint (for backend-aware tooling; solver code never
  /// needs it).
  Backend* backend() { return backend_.get(); }

  /// Category charged for time spent blocked in communication calls.
  void set_time_kind(TimeKind kind) { time_kind_ = kind; }
  TimeKind time_kind() const { return time_kind_; }
  Timings& timings() { return *timings_; }

  /// Watchdog deadline (milliseconds) for every blocking receive, request
  /// wait, and barrier: instead of hanging, the blocked call throws a
  /// CommTimeoutError carrying a per-rank diagnosis (errors.hpp). 0 (the
  /// default) keeps the historical block-forever behavior. Inherited by
  /// split() sub-communicators.
  void set_comm_timeout_ms(double timeout_ms) { timeout_ms_ = timeout_ms; }
  double comm_timeout_ms() const { return timeout_ms_; }

  /// Wire checksums: every sent payload gains an FNV-1a 64-bit trailer that
  /// is validated and stripped on receive, so truncation and bit-flips
  /// surface as CommIntegrityError instead of wrong answers. Off by default
  /// (the trailer changes the byte/message counters, so counter-gated
  /// benches run without it). Inherited by split() sub-communicators.
  void set_wire_checksums(bool on) { checksums_ = on; }
  bool wire_checksums() const { return checksums_; }

  /// Collective-schedule verification (--verify-schedule): every collective
  /// entered folds its rank-invariant signature (op kind, tag / root /
  /// reduction-op id, wire precision) into a per-rank rolling FNV hash, and
  /// every exchange folds its per-peer payload byte counts into a pair of
  /// transpose-consistency accumulators (sum over sender claims must equal
  /// sum over receiver expectations). At every barrier and exchange-class
  /// collective ENTRY — before any payload moves — the ranks cross-check the
  /// state with one packed allreduce and, on mismatch, throw
  /// ScheduleDivergenceError on EVERY rank naming the first mismatching op
  /// index, instead of deadlocking or silently mispairing exchanges.
  ///
  /// Off by default: when off the only cost is one predicted branch per
  /// collective. When on, the payload schedule is untouched — solver
  /// results stay bitwise identical and the exchange counters do not move
  /// (the checkpoint allreduce adds messages, never exchanges). Inherited
  /// by split() sub-communicators (with fresh hash state; copies of a
  /// communicator carry their own history, compared against the matching
  /// copies on the other ranks).
  void set_verify_schedule(bool on) { verify_ = on; }
  bool verify_schedule() const { return verify_; }

  /// Folds a caller-chosen marker into the schedule hash: the hook for
  /// symmetric point-to-point phases (e.g. the ghost-halo exchange) that
  /// never pass through a collective the verifier could observe. Marks are
  /// checkpointed at entry like the exchange-class collectives — BEFORE the
  /// phase's point-to-point traffic — so a rank skipping a marked phase is
  /// caught in the checkpoint allreduce instead of stranding its neighbours
  /// in blocking receives. No-op when verification is off.
  void verify_mark(int tag) {
    verify_record(ScheduleOpKind::kMark, tag, 0, 0);
    verify_checkpoint("mark");
  }

  /// Collective fault recovery: returns the communicator to a clean state
  /// after an exchange died mid-flight (rank crash, watchdog timeout,
  /// integrity failure). Abandoned request state and the schedule
  /// verifier's rolling hashes are reset on this copy, then the ranks
  /// rendezvous (deadline `timeout_ms`), each drains its own receive queue
  /// — discarding the dead exchange's stale in-flight payloads so the NEXT
  /// exchange cannot match them — and rendezvous again so no rank resumes
  /// sending before every queue is clean. Returns false (after resetting
  /// the local state) when a peer never arrives: the communicator is
  /// unrecoverable — a rank is truly down — and the caller should rebuild
  /// it instead. Never throws. Collective.
  bool recover_after_fault(double timeout_ms);

  /// Blocks until every rank entered. Collective.
  void barrier();

  /// Buffered point-to-point send: copies `data` onto the wire and returns
  /// immediately (never blocks on the receiver). Legal even while a
  /// nonblocking request is outstanding.
  template <typename T>
  void send(std::span<const T> data, int dest, int tag);

  /// Blocking receive of a whole message from (src, tag).
  template <typename T>
  std::vector<T> recv(int src, int tag);

  /// Receives into a caller-provided buffer (no allocation on the caller
  /// side); throws if the message payload does not match `out` exactly.
  template <typename T>
  void recv_into(std::span<T> out, int src, int tag);

  /// Exchanges buffers with a partner rank without deadlocking.
  template <typename T>
  std::vector<T> sendrecv(std::span<const T> send_data, int dest, int src,
                          int tag);

  template <typename T>
  void broadcast(std::vector<T>& data, int root);

  template <typename T>
  T allreduce_sum(T value);
  template <typename T>
  T allreduce_max(T value);
  template <typename T>
  T allreduce_min(T value);

  /// Element-wise in-place vector allreduce (reduce to rank 0, broadcast
  /// back): 2 log p rounds and 2(p-1) messages carrying the whole batch,
  /// versus log p rounds and p log p messages per scalar allreduce — batching
  /// k >= 2 field norms cuts messages, and from k >= 3 also depth. All ranks
  /// must pass the same number of elements; a mismatch poisons the reduction
  /// and throws (never hangs).
  template <typename T>
  void allreduce_sum(std::vector<T>& data);
  template <typename T>
  void allreduce_max(std::vector<T>& data);
  template <typename T>
  void allreduce_min(std::vector<T>& data);

  template <typename T>
  std::vector<T> allgather(T value);

  /// Zero-allocation personalized all-to-all over caller-provided flat
  /// buffers: rank r's chunk occupies send[sum(send_counts[0..r-1]) ..) and
  /// lands in recv at the offset implied by recv_counts. Both count arrays
  /// must have one entry per rank and sum to the corresponding span size;
  /// the caller owns (and can reuse) all four buffers across calls.
  /// Self-exchange is a local copy. The payload ships at the stage's wire
  /// precision: on a kF32 stage every PEER chunk is narrowed into the
  /// stage's send staging, shipped at fp32 and widened on receive; the SELF
  /// chunk is always a direct full-width copy (it never crosses the wire,
  /// so narrowing it would cost two sweeps and fp32 rounding for nothing).
  /// Counts are in ELEMENTS for either wire, so the exchange schedule is
  /// the same; Timings record the bytes that actually crossed the wire plus
  /// the volume the narrowing saved (bytes_saved).
  template <typename T>
  void alltoallv(std::span<const std::type_identity_t<T>> send,
                 std::span<const index_t> send_counts,
                 std::span<std::type_identity_t<T>> recv,
                 std::span<const index_t> recv_counts, WireStage<T>& stage,
                 int tag);

  /// Nonblocking form of the staged alltoallv: the identical checks,
  /// exchange accounting, self copy and sends — the message schedule is the
  /// same as the blocking call — with the p-1 receives deferred behind the
  /// returned CommRequest. `recv` (and, under a real-MPI backend, the
  /// stage's recv staging) must stay untouched until wait()/test()
  /// succeeds; the SELF chunk of `recv` is already valid at return. At most
  /// one request may be outstanding per communicator.
  template <typename T>
  [[nodiscard]] CommRequest ialltoallv(
      std::span<const std::type_identity_t<T>> send,
      std::span<const index_t> send_counts,
      std::span<std::type_identity_t<T>> recv,
      std::span<const index_t> recv_counts, WireStage<T>& stage, int tag);

  /// Full-width alltoallv of any trivially copyable payload (no stage).
  template <typename T>
  void alltoallv(std::span<const T> send, std::span<const index_t> send_counts,
                 std::span<T> recv, std::span<const index_t> recv_counts,
                 int tag) {
    post_alltoallv<T, T>(send, send_counts, recv, recv_counts, {}, {}, false,
                         tag)
        .complete("alltoallv", false);
  }

  /// fp32-wire alltoallv over caller-owned staging spans, which must be at
  /// least as large as the corresponding payload spans.
  template <typename Wide, typename Narrow>
  void alltoallv_converted(std::span<const Wide> send,
                           std::span<const index_t> send_counts,
                           std::span<Wide> recv,
                           std::span<const index_t> recv_counts,
                           std::span<Narrow> send_stage,
                           std::span<Narrow> recv_stage, int tag) {
    post_alltoallv(send, send_counts, recv, recv_counts, send_stage,
                   recv_stage, true, tag)
        .complete("alltoallv", false);
  }

  /// Staged send: ships `data` at the stage's wire precision, narrowed into
  /// the stage's send staging on kF32. Buffered like send().
  template <typename T>
  void send(std::span<const std::type_identity_t<T>> data,
            WireStage<T>& stage, int dest, int tag);

  /// Staged blocking receive of exactly `out.size()` elements at the
  /// stage's wire precision (widened into `out` on kF32).
  template <typename T>
  void recv_into(std::span<std::type_identity_t<T>> out, WireStage<T>& stage,
                 int src, int tag) {
    irecv_into(out, stage, src, tag).complete("recv_into", false);
  }

  /// Nonblocking staged receive: registers the (src, tag) match and
  /// returns; wait() pops the payload and delivers it into `out` (exact
  /// size match enforced). `out` must stay untouched until completion.
  template <typename T>
  [[nodiscard]] CommRequest irecv_into(std::span<std::type_identity_t<T>> out,
                                       WireStage<T>& stage, int src, int tag);

  /// Fixed-count all-to-all: exactly one element to and from every rank,
  /// over caller-owned buffers of p elements each (zero allocation). This is
  /// the count-exchange primitive variable-size plans (e.g. the scattered
  /// interpolation plan) use to learn their alltoallv recv counts.
  template <typename T>
  void alltoall(std::span<const T> send, std::span<T> recv, int tag);

  /// Splits into sub-communicators by color; new ranks are ordered by the
  /// parent rank. Collective over the parent communicator.
  Communicator split(int color);

 private:
  friend class CommRequest;

  template <typename T>
  static std::vector<T> deserialize(std::vector<std::byte> bytes);

  /// Schedule validation of post_alltoallv: checks the per-rank count
  /// tables against the payload element totals (and the self-chunk
  /// symmetry), returning the self chunk's (send offset, recv offset).
  std::pair<index_t, index_t> check_alltoallv_counts(
      std::span<const index_t> send_counts,
      std::span<const index_t> recv_counts, size_t send_size,
      size_t recv_size) const;

  /// Wait-before-read enforcement: throws while a nonblocking request is
  /// outstanding. Guards every receive, barrier, collective, and post —
  /// but NOT plain sends (buffered sends cannot race the pending receives).
  void check_idle() const {
    if (pending_)
      throw CommContractError(
          "mpisim: communication attempted while a nonblocking request is "
          "outstanding — wait() the CommRequest first");
  }

  /// Registers the deferred receives staged in pending_recvs_ and hands out
  /// the completion handle (or a done request when nothing was deferred).
  CommRequest finish_post(double post_time);

  /// The one alltoallv post body behind every alltoallv form: validates,
  /// records and accounts the exchange, copies the self chunk at full
  /// width, ships every peer chunk (narrowed into `send_stage` when
  /// `narrow`), and registers the peer receives.
  template <typename Wide, typename Narrow>
  CommRequest post_alltoallv(std::span<const Wide> send,
                             std::span<const index_t> send_counts,
                             std::span<Wide> recv,
                             std::span<const index_t> recv_counts,
                             std::span<Narrow> send_stage,
                             std::span<Narrow> recv_stage, bool narrow,
                             int tag);

  /// Ships one chunk, narrowed through `stage` (>= chunk.size() elements)
  /// when `narrow`, accounting the bytes the narrowing kept off the wire.
  template <typename Wide, typename Narrow>
  void send_wire(std::span<const Wide> chunk, Narrow* stage, bool narrow,
                 int dest, int tag);

  /// Appends one deferred receive of `out.size()` elements, widened from
  /// an fp32 payload when `narrow`.
  template <typename Wide, typename Narrow>
  void pend_recv(std::span<Wide> out, bool narrow, int src, int tag);

  /// The single blocking-receive funnel: applies the watchdog deadline
  /// (throwing CommTimeoutError with a diagnosis when it expires) and the
  /// wire-checksum validation (throwing CommIntegrityError on corruption).
  /// Every blocking receive path — recv, recv_into, and the collectives
  /// built on them — lands here.
  Incoming receive_payload(int src, int tag, const char* operation);

  /// Appends the checksum trailer and ships payload+trailer as one message.
  void send_with_checksum(std::span<const std::byte> payload, int dest,
                          int tag);

  /// Validates and strips the checksum trailer of a received payload.
  void verify_and_strip_checksum(std::vector<std::byte>& data, int src,
                                 int tag) const;

  /// Assembles the per-rank failure snapshot attached to CommTimeoutError.
  CommDiagnosis make_diagnosis(
      const char* operation, int src, int tag, double waited_ms,
      std::vector<std::pair<int, int>> missing) const;

  // --- Collective-schedule verifier (set_verify_schedule) ----------------

  /// Folds one op signature into the rolling hash and the per-op history.
  /// No-op unless verification is on and this is not the verifier's own
  /// traffic (in_verify_) — and never at size() == 1.
  void verify_record(ScheduleOpKind kind, int tag, std::uint32_t wire_bits,
                     std::uint64_t extra);
  /// Folds one peer chunk into the transpose-consistency accumulators.
  /// Sender and receiver fold the identical (op index, src, dst, bytes)
  /// word, so globally sum(sender claims) == sum(receiver expectations)
  /// iff the per-peer count tables transpose.
  void verify_fold_send(int dest, std::uint64_t bytes);
  void verify_fold_recv(int src, std::uint64_t bytes);
  /// Folds both sides of a validated alltoallv count table (the self chunk
  /// is excluded: it never crosses the wire).
  void verify_fold_counts(std::span<const index_t> send_counts,
                          std::span<const index_t> recv_counts,
                          std::size_t elem_bytes);
  /// Cross-checks the rolling state across the communicator with one packed
  /// allreduce of (hash min, hash max, send sum, recv sum); on mismatch
  /// every rank enters verify_raise_divergence together.
  void verify_checkpoint(const char* operation);
  /// Localizes a detected divergence (per-op history allreduces, padded to
  /// the longest rank's schedule) and throws ScheduleDivergenceError.
  [[noreturn]] void verify_raise_divergence(const char* operation);
  std::string verify_describe_op(long index, bool counts_only) const;

  /// Recursive-doubling scalar allreduce with any associative commutative op.
  template <typename T, typename Op>
  T allreduce_op(T value, Op op, int tag);
  /// Binomial-tree reduce to rank 0 + broadcast, element-wise over `data`.
  template <typename T, typename Op>
  void allreduce_vec(std::vector<T>& data, Op op, int tag);
  /// Collective-consistency self-check: throws on EVERY rank (instead of
  /// hanging some of them) if `value` differs across the communicator. One
  /// O(log p) allreduce of a packed (min, max) pair.
  void check_collective_consistent(std::int64_t value, const char* what);

  std::shared_ptr<Backend> backend_;
  int rank_ = 0;
  int size_ = 1;
  Timings* timings_ = nullptr;
  TimeKind time_kind_ = TimeKind::kOther;

  /// Deferred receives of the (single) outstanding request. Grow-only and
  /// reused across posts, so warm overlapped paths allocate nothing.
  std::vector<detail::PendingRecv> pending_recvs_;
  bool pending_ = false;

  double timeout_ms_ = 0;  ///< Watchdog deadline; 0 = block forever.
  bool checksums_ = false;  ///< FNV-1a trailer on every payload.
  /// Staging for checksummed sends (grow-only, reused across messages).
  std::vector<std::byte> checksum_stage_;

  bool verify_ = false;     ///< Schedule verification enabled.
  bool in_verify_ = false;  ///< Reentrancy guard: the verifier's own traffic.
  std::uint64_t verify_hash_ = 1469598103934665603ull;  ///< Rolling FNV.
  std::uint64_t verify_send_sum_ = 0;  ///< Σ sender-side chunk words.
  std::uint64_t verify_recv_sum_ = 0;  ///< Σ receiver-side chunk words.
  std::vector<std::uint64_t> verify_op_hashes_;  ///< Per-op sig hashes.
  std::vector<detail::ScheduleOpSig> verify_op_sigs_;  ///< For reporting.
  std::vector<std::uint64_t> verify_op_send_sums_;  ///< Per-op send words.
  std::vector<std::uint64_t> verify_op_recv_sums_;  ///< Per-op recv words.

  // Tags above this bound are reserved for collectives.
  static constexpr int kCollectiveTag = 1 << 20;
};

template <typename T>
void Communicator::alltoall(std::span<const T> send, std::span<T> recv,
                            int tag) {
  const int p = size();
  if (static_cast<int>(send.size()) != p ||
      static_cast<int>(recv.size()) != p)
    throw CommContractError("mpisim: alltoall needs one element per rank");
  check_idle();
  // Verifier checkpoints run at collective ENTRY, before any payload moves:
  // ranks that diverged into different collectives still meet in the
  // checkpoint allreduce (same dedicated tag) and all throw, instead of
  // blocking on each other's mismatched payload tags.
  verify_record(ScheduleOpKind::kAlltoall, tag, sizeof(T) * 8, 0);
  verify_checkpoint("alltoall");
  check_collective_consistent(tag, "alltoall tag");
  timings_->add_exchange(time_kind_);
  if (verify_) {
    for (int r = 0; r < p; ++r) {
      if (r == rank_) continue;
      verify_fold_send(r, sizeof(T));
      verify_fold_recv(r, sizeof(T));
    }
  }
  recv[rank_] = send[rank_];
  for (int offset = 1; offset < p; ++offset) {
    const int dest = (rank_ + offset) % p;
    this->send(send.subspan(static_cast<size_t>(dest), 1), dest, tag);
  }
  for (int offset = 1; offset < p; ++offset) {
    const int src = (rank_ - offset + p) % p;
    recv_into(recv.subspan(static_cast<size_t>(src), 1), src, tag);
  }
}

/// Robustness knobs of an SPMD run (fault_injection.hpp, errors.hpp).
/// Default-constructed = the historical behavior: mailbox transport, no
/// faults, block-forever receives, no checksums.
struct SpmdOptions {
  /// Fault-injection spec (FaultSpec grammar); empty = no fault wrapper.
  std::string fault_spec;
  /// Watchdog deadline applied to every rank's communicator; 0 = off.
  double comm_timeout_ms = 0;
  /// Wire checksums on every rank (also enabled by `checksum=1` in the
  /// fault spec).
  bool wire_checksums = false;
  /// Collective-schedule verification on every rank
  /// (Communicator::set_verify_schedule; also enabled by the
  /// DIFFREG_VERIFY_SCHEDULE environment hook in the env-reading overload).
  bool verify_schedule = false;
};

/// Runs `body` on p ranks (threads) and returns the per-rank timings.
/// Exceptions thrown by any rank are rethrown (first one wins). This
/// overload reads the DIFFREG_FAULT_SPEC / DIFFREG_COMM_TIMEOUT_MS
/// environment hooks (the chaos CI mechanism: any existing suite can be
/// rerun under faults without recompiling).
std::vector<Timings> run_spmd(int p,
                              const std::function<void(Communicator&)>& body);

/// run_spmd with explicit robustness options (ignores the environment).
std::vector<Timings> run_spmd(int p,
                              const std::function<void(Communicator&)>& body,
                              const SpmdOptions& options);

/// Standalone single-rank communicator (no threads spawned); all collectives
/// degenerate to local moves. Useful for serial drivers and microbenchmarks.
/// `timings` must outlive the returned communicator.
inline Communicator single_rank(Timings& timings) {
  return Communicator(
      std::make_shared<MailboxBackend>(
          std::make_shared<detail::SharedState>(1), 0),
      &timings);
}

// ---------------------------------------------------------------------------
// Template implementations.

template <typename T>
std::vector<T> Communicator::deserialize(std::vector<std::byte> bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes.size() % sizeof(T) != 0)
    throw CommContractError("mpisim: message size does not match type");
  std::vector<T> data(bytes.size() / sizeof(T));
  if (!bytes.empty()) std::memcpy(data.data(), bytes.data(), bytes.size());
  return data;
}

template <typename T>
void Communicator::send(std::span<const T> data, int dest, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  ScopedTimer timer(*timings_, time_kind_);
  if (checksums_) {
    send_with_checksum(std::as_bytes(data), dest, tag);
    return;
  }
  timings_->add_message(time_kind_, data.size_bytes());
  backend_->send_bytes(std::as_bytes(data), dest, tag);
}

template <typename T>
std::vector<T> Communicator::recv(int src, int tag) {
  check_idle();
  ScopedTimer timer(*timings_, time_kind_);
  return deserialize<T>(receive_payload(src, tag, "recv").data);
}

template <typename T>
void Communicator::recv_into(std::span<T> out, int src, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  check_idle();
  ScopedTimer timer(*timings_, time_kind_);
  const Incoming in = receive_payload(src, tag, "recv_into");
  if (in.data.size() != out.size_bytes())
    throw CommContractError(
        "mpisim: recv_into buffer size does not match message payload");
  if (!in.data.empty()) std::memcpy(out.data(), in.data.data(), in.data.size());
}

template <typename T>
std::vector<T> Communicator::sendrecv(std::span<const T> send_data, int dest,
                                      int src, int tag) {
  // Sends are buffered (never block), so send-then-recv cannot deadlock.
  send(send_data, dest, tag);
  return recv<T>(src, tag);
}

template <typename T>
void Communicator::broadcast(std::vector<T>& data, int root) {
  const int tag = kCollectiveTag + 1;
  const int p = size();
  if (p == 1) return;
  // Record-only (no checkpoint): tree collectives are cheap and frequent,
  // so a divergence here is caught — with the right op index — at the next
  // barrier / exchange-class checkpoint.
  verify_record(ScheduleOpKind::kBroadcast, root, sizeof(T) * 8, 0);
  // Binomial tree in root-relative rank space: vrank 0 is the root; a rank
  // receives from the partner that clears its lowest set bit, then forwards
  // to every vrank obtained by setting a higher-order bit.
  const int vrank = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      data = recv<T>((vrank - mask + root) % p, tag);
      break;
    }
    mask <<= 1;
  }
  // Forward to the subtree children: all bits below the receive bit are
  // clear, so vrank + mask addresses a distinct rank for each smaller mask.
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p)
      send(std::span<const T>(data), (vrank + mask + root) % p, tag);
    mask >>= 1;
  }
}

template <typename T>
std::vector<T> Communicator::allgather(T value) {
  const int tag = kCollectiveTag + 2;
  const int p = size();
  verify_record(ScheduleOpKind::kAllgather, 0, sizeof(T) * 8, 0);
  // Bruck dissemination: after the round with distance d, this rank holds
  // the values of ranks rank .. rank+2d-1 (mod p) in shifted order. ceil(log2
  // p) rounds for any p.
  std::vector<T> shifted{value};
  for (int d = 1; d < p; d <<= 1) {
    const int dest = (rank_ - d + p) % p;
    const int src = (rank_ + d) % p;
    const int count = std::min(d, p - d);
    auto got = sendrecv(
        std::span<const T>(shifted.data(), static_cast<size_t>(count)), dest,
        src, tag);
    shifted.insert(shifted.end(), got.begin(), got.end());
  }
  std::vector<T> all(p);
  for (int j = 0; j < p; ++j) all[(rank_ + j) % p] = shifted[j];
  return all;
}

template <typename T, typename Op>
T Communicator::allreduce_op(T value, Op op, int tag) {
  const int p = size();
  if (p == 1) return value;
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;

  // Fold phase: the odd ranks below 2*rem hand their value to the even
  // neighbour, leaving a power-of-two group (group ids: even folded ranks
  // get rank/2, the rest rank - rem).
  T acc = value;
  int group_id = -1;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 1) {
      send(std::span<const T>(&acc, 1), rank_ - 1, tag);
    } else {
      acc = op(acc, recv<T>(rank_ + 1, tag)[0]);
      group_id = rank_ / 2;
    }
  } else {
    group_id = rank_ - rem;
  }

  // Recursive doubling inside the power-of-two group. Both partners combine
  // (lower subgroup, higher subgroup) in that order, so every rank computes
  // the bitwise-identical result.
  if (group_id >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner_id = group_id ^ mask;
      const int partner = partner_id < rem ? partner_id * 2 : partner_id + rem;
      T other = sendrecv(std::span<const T>(&acc, 1), partner, partner,
                         tag)[0];
      acc = group_id < partner_id ? op(acc, other) : op(other, acc);
    }
  }

  // Unfold phase: folded odd ranks get the finished result back.
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 1)
      acc = recv<T>(rank_ - 1, tag)[0];
    else
      send(std::span<const T>(&acc, 1), rank_ + 1, tag);
  }
  return acc;
}

template <typename T, typename Op>
void Communicator::allreduce_vec(std::vector<T>& data, Op op, int tag) {
  const int p = size();
  if (p == 1) return;
  // Binomial-tree reduce to rank 0 (mirror of the broadcast tree): receive
  // and fold the higher-rank subtrees, then send the partial to the parent.
  // Length validation piggybacks on the tree: a parent seeing a mismatched
  // child length "poisons" the reduction by forwarding an empty buffer, and
  // rank 0 broadcasts the result plus one sentinel element when clean or an
  // empty buffer when poisoned — so mismatches throw instead of hanging, at
  // no extra message cost.
  const size_t my_size = data.size();
  bool poisoned = false;
  int mask = 1;
  while (mask < p) {
    if (rank_ & mask) {
      if (poisoned) data.clear();
      send(std::span<const T>(data), rank_ ^ mask, tag);
      break;
    }
    if (rank_ + mask < p) {
      auto other = recv<T>(rank_ + mask, tag);
      if (other.size() != my_size) {
        poisoned = true;
      } else {
        for (size_t i = 0; i < my_size; ++i) data[i] = op(data[i], other[i]);
      }
    }
    mask <<= 1;
  }
  if (rank_ == 0) {
    if (poisoned)
      data.clear();
    else
      data.push_back(T{});  // sentinel: distinguishes a clean empty result
  }
  broadcast(data, 0);
  if (data.size() != my_size + 1)
    throw CommContractError(
        "mpisim: vector allreduce element counts differ across ranks");
  data.pop_back();
}

// The scalar/vector allreduce wrappers record the reduction-op IDENTITY
// (1 = sum, 2 = max, 3 = min) in the signature's tag slot: all three share
// one wire tag, so a rank doing allreduce_sum while its peers do
// allreduce_max combines values silently — the schedule hash is the only
// thing that can catch that class of divergence.

template <typename T>
T Communicator::allreduce_sum(T value) {
  verify_record(ScheduleOpKind::kAllreduce, 1, sizeof(T) * 8, 0);
  return allreduce_op(value, [](T a, T b) { return a + b; },
                      kCollectiveTag + 3);
}

template <typename T>
T Communicator::allreduce_max(T value) {
  verify_record(ScheduleOpKind::kAllreduce, 2, sizeof(T) * 8, 0);
  return allreduce_op(value, [](T a, T b) { return a > b ? a : b; },
                      kCollectiveTag + 3);
}

template <typename T>
T Communicator::allreduce_min(T value) {
  verify_record(ScheduleOpKind::kAllreduce, 3, sizeof(T) * 8, 0);
  return allreduce_op(value, [](T a, T b) { return a < b ? a : b; },
                      kCollectiveTag + 3);
}

template <typename T>
void Communicator::allreduce_sum(std::vector<T>& data) {
  verify_record(ScheduleOpKind::kAllreduceVec, 1, sizeof(T) * 8, data.size());
  allreduce_vec(data, [](T a, T b) { return a + b; }, kCollectiveTag + 4);
}

template <typename T>
void Communicator::allreduce_max(std::vector<T>& data) {
  verify_record(ScheduleOpKind::kAllreduceVec, 2, sizeof(T) * 8, data.size());
  allreduce_vec(data, [](T a, T b) { return a > b ? a : b; },
                kCollectiveTag + 4);
}

template <typename T>
void Communicator::allreduce_min(std::vector<T>& data) {
  verify_record(ScheduleOpKind::kAllreduceVec, 3, sizeof(T) * 8, data.size());
  allreduce_vec(data, [](T a, T b) { return a < b ? a : b; },
                kCollectiveTag + 4);
}

inline std::pair<index_t, index_t> Communicator::check_alltoallv_counts(
    std::span<const index_t> send_counts,
    std::span<const index_t> recv_counts, size_t send_size,
    size_t recv_size) const {
  const int p = size();
  if (static_cast<int>(send_counts.size()) != p ||
      static_cast<int>(recv_counts.size()) != p)
    throw CommContractError("mpisim: alltoallv needs one count per rank");
  index_t send_total = 0, recv_total = 0;
  for (int r = 0; r < p; ++r) {
    send_total += send_counts[r];
    recv_total += recv_counts[r];
  }
  if (send_total != static_cast<index_t>(send_size) ||
      recv_total != static_cast<index_t>(recv_size))
    throw CommContractError("mpisim: alltoallv counts do not sum to buffers");
  if (send_counts[rank_] != recv_counts[rank_])
    throw CommContractError("mpisim: alltoallv self chunk size mismatch");
  // Offsets are prefix sums of the counts; computed on the fly so the call
  // itself allocates nothing.
  index_t self_send_off = 0, self_recv_off = 0;
  for (int r = 0; r < rank_; ++r) {
    self_send_off += send_counts[r];
    self_recv_off += recv_counts[r];
  }
  return {self_send_off, self_recv_off};
}

template <typename Wide, typename Narrow>
CommRequest Communicator::post_alltoallv(std::span<const Wide> send,
                                         std::span<const index_t> send_counts,
                                         std::span<Wide> recv,
                                         std::span<const index_t> recv_counts,
                                         std::span<Narrow> send_stage,
                                         std::span<Narrow> recv_stage,
                                         bool narrow, int tag) {
  const int p = size();
  const auto [self_send_off, self_recv_off] = check_alltoallv_counts(
      send_counts, recv_counts, send.size(), recv.size());
  if (narrow &&
      (send_stage.size() < send.size() || recv_stage.size() < recv.size()))
    throw CommContractError("mpisim: alltoallv staging buffers too small");
  check_idle();
  // The signature folds the width that crosses the wire, so ranks that
  // disagree about the wire precision of an exchange (same tag) hash
  // differently and all throw at this entry checkpoint.
  const std::size_t wire_bytes = narrow ? sizeof(Narrow) : sizeof(Wide);
  verify_record(ScheduleOpKind::kAlltoallv, tag,
                static_cast<std::uint32_t>(wire_bytes * 8), 0);
  verify_checkpoint("alltoallv");
  // Ranks that entered different alltoallvs (different tags) would pair
  // payloads with the wrong exchange silently; O(log p), negligible next
  // to the pairwise payload exchange.
  check_collective_consistent(tag, "alltoallv tag");
  timings_->add_exchange(time_kind_);
  verify_fold_counts(send_counts, recv_counts, wire_bytes);

  // Self chunk: direct full-width copy (bit-exact, no staging round trip).
  if (send_counts[rank_] > 0)
    std::memcpy(recv.data() + self_recv_off, send.data() + self_send_off,
                static_cast<size_t>(send_counts[rank_]) * sizeof(Wide));

  const double post_time = backend_ ? backend_->now() : 0.0;
  for (int offset = 1; offset < p; ++offset) {
    const int dest = (rank_ + offset) % p;
    index_t off = 0;
    for (int r = 0; r < dest; ++r) off += send_counts[r];
    send_wire(send.subspan(static_cast<size_t>(off),
                           static_cast<size_t>(send_counts[dest])),
              narrow ? send_stage.data() + off : nullptr, narrow, dest, tag);
  }
  pending_recvs_.clear();
  for (int offset = 1; offset < p; ++offset) {
    const int src = (rank_ - offset + p) % p;
    index_t off = 0;
    for (int r = 0; r < src; ++r) off += recv_counts[r];
    pend_recv<Wide, Narrow>(recv.subspan(static_cast<size_t>(off),
                                         static_cast<size_t>(recv_counts[src])),
                            narrow, src, tag);
  }
  return finish_post(post_time);
}

template <typename Wide, typename Narrow>
void Communicator::send_wire(std::span<const Wide> chunk, Narrow* stage,
                             bool narrow, int dest, int tag) {
  if (!narrow) {
    send(chunk, dest, tag);
    return;
  }
  const std::span<Narrow> staged(stage, chunk.size());
  {
    // Conversion sweeps are wire-format work a native fp32 transport would
    // not need, so they are charged to the current comm category.
    ScopedTimer timer(*timings_, time_kind_);
    narrow_into(chunk, staged);
  }
  timings_->add_saved(time_kind_,
                      chunk.size() * (sizeof(Wide) - sizeof(Narrow)));
  send(std::span<const Narrow>(staged), dest, tag);
}

template <typename Wide, typename Narrow>
void Communicator::pend_recv(std::span<Wide> out, bool narrow, int src,
                             int tag) {
  pending_recvs_.push_back(
      {src, tag, reinterpret_cast<std::byte*>(out.data()),
       out.size() * (narrow ? sizeof(Narrow) : sizeof(Wide)), out.size(),
       narrow ? &detail::widen_payload<Wide, Narrow> : nullptr});
}

template <typename T>
void Communicator::alltoallv(std::span<const std::type_identity_t<T>> send,
                             std::span<const index_t> send_counts,
                             std::span<std::type_identity_t<T>> recv,
                             std::span<const index_t> recv_counts,
                             WireStage<T>& stage, int tag) {
  ialltoallv(send, send_counts, recv, recv_counts, stage, tag)
      .complete("alltoallv", false);
}

template <typename T>
CommRequest Communicator::ialltoallv(
    std::span<const std::type_identity_t<T>> send,
    std::span<const index_t> send_counts,
    std::span<std::type_identity_t<T>> recv,
    std::span<const index_t> recv_counts, WireStage<T>& stage, int tag) {
  return post_alltoallv(send, send_counts, recv, recv_counts,
                        std::span(stage.send_), std::span(stage.recv_),
                        stage.narrow(), tag);
}

template <typename T>
void Communicator::send(std::span<const std::type_identity_t<T>> data,
                        WireStage<T>& stage, int dest, int tag) {
  if (stage.narrow() && stage.send_.size() < data.size())
    throw CommContractError("mpisim: send staging buffer too small");
  send_wire(data, stage.send_.data(), stage.narrow(), dest, tag);
}

template <typename T>
CommRequest Communicator::irecv_into(std::span<std::type_identity_t<T>> out,
                                     WireStage<T>& stage, int src, int tag) {
  if (stage.narrow() && stage.recv_.size() < out.size())
    throw CommContractError("mpisim: recv staging buffer too small");
  check_idle();
  const double post_time = backend_ ? backend_->now() : 0.0;
  pending_recvs_.clear();
  pend_recv<T, typename WireStage<T>::Narrow>(out, stage.narrow(), src, tag);
  return finish_post(post_time);
}

inline CommRequest Communicator::finish_post(double post_time) {
  if (pending_recvs_.empty()) return CommRequest();
  pending_ = true;
  return CommRequest(this, post_time, time_kind_);
}

}  // namespace diffreg::mpisim
