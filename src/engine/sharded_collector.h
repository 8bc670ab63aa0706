// Sharded, thread-safe collector storage: the in-RAM CollectorBackend
// behind the Fleet simulator, the transport hub and collector_server.
//
// The seed collector stored reports in std::map<user, std::map<slot, v>>,
// which is pointer-chasing-heavy and single-threaded. ShardedCollector
// replaces it with:
//
//   * N independent shards; a run's shard is a splitmix64 hash of its
//     user id, so concurrent writers touching different users rarely
//     contend.
//   * Flat per-shard bookkeeping: user ids map to dense indices through
//     one unordered_map lookup; with keep_streams the raw values live in
//     slot-major rows (values[slot][dense_user]) with NaN marking missing
//     reports.
//   * One aggregate store: exact fixed-point per-slot aggregates (count
//     and sums of x and x^2, including the reverse update for overwritten
//     reports) kept as their five SlotAggregate::Packed words in a flat
//     64-byte-aligned atomic array, plus uint32 histogram bins when the
//     tier is on. Population means and variances are O(1) per report and
//     bit-identical for any ingest order.
//
// Every write brackets itself with a per-shard seqlock (odd/even
// sequence counter), and aggregate readers copy the words and retry if
// the sequence was odd or moved, so a reader never observes a torn run.
// Readers hold the shard mutex across their copy, which excludes the
// rare capacity doubling of the arrays. The two writer disciplines
// differ only in who holds that mutex while writing:
//
//   * Mutex mode (single_writer = false, the default): any thread may
//     ingest; each run holds its shard's mutex across the whole write,
//     so a reader can never meet an odd sequence (zero retries).
//   * Single-writer mode (single_writer = true): the transport's shard
//     affinity routes every shard to exactly one consumer thread, so the
//     write skips the mutex and takes it only around a grow; concurrent
//     readers retry instead of blocking the owner.
//
// Aggregate-only mode (keep_streams = false) is what lets the engine run
// million-user fleets: per-report cost and memory are independent of the
// population's total report volume. It is also the mode the storage
// tier's checkpoints cover (ExportShardState / RestoreShardState): the
// exact per-shard aggregate state round-trips through
// storage/checkpoint.h, while raw streams are deliberately not
// serialized (they are O(users * slots) and the durable tier exists for
// the aggregate-only production shape).
//
// SlotAggregate and SlotHistogramOptions -- the exact-accumulation
// building blocks -- live in storage/collector_backend.h so every
// backend shares them; this header re-exports them via that include.
#ifndef CAPP_ENGINE_SHARDED_COLLECTOR_H_
#define CAPP_ENGINE_SHARDED_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "storage/collector_backend.h"
#include "telemetry/metrics.h"

namespace capp {

/// Deleter for cache-line-aligned arrays of trivially-destructible
/// payloads (the seqlock-published aggregate store): frees the
/// 64-byte-aligned allocation without running destructors. make_unique
/// only guarantees alignof(std::max_align_t) (16 bytes), which left the
/// packed 5-word aggregate slots starting mid-line -- see
/// sharded_collector.cc's MakeAlignedZeroed for the layout story.
struct AlignedFree {
  void operator()(void* p) const noexcept {
    ::operator delete(p, std::align_val_t{64});
  }
};

template <typename T>
using AlignedAtomicArray = std::unique_ptr<T[], AlignedFree>;

/// Storage knobs for a sharded collector.
struct ShardedCollectorOptions {
  /// Number of independent storage shards (>= 1). More shards mean less
  /// lock contention under concurrent ingest; 16 is plenty below ~32 cores.
  size_t num_shards = 16;
  /// Values per slot (>= 1): a d-dimensional stream stores d attribute
  /// values for every (user, slot). Storage stays one flat array of
  /// "cells" -- cell = slot * dims + dim, the interleaved layout -- so
  /// every ingest, aggregate, digest, and checkpoint path is untouched
  /// arithmetic over cells and dims = 1 is bit-identical to a collector
  /// that never heard of dimensions (cell == slot). The dims-aware
  /// IngestUserRun overload transposes the wire's dim-major payload into
  /// cell order; per-dimension queries slice cells back out.
  size_t dims = 1;
  /// When true, raw per-(user, slot) values are kept and per-user stream
  /// queries work. When false only the per-slot aggregates are maintained:
  /// memory stays O(shards * slots) no matter how many users report, but
  /// each (user, slot) pair must then be ingested at most once (overwrites
  /// cannot be detected without the raw values).
  bool keep_streams = true;
  /// Single-writer (shard-owned) ingest: the caller guarantees that at
  /// most one thread ever ingests into any given shard (the transport's
  /// shard_affinity routing provides exactly this), and in exchange the
  /// ingest path takes the per-shard mutex only to grow the aggregate
  /// arrays (see the class comment). Storage and results are identical
  /// to mutex mode; only the locking discipline differs. Requires
  /// keep_streams = false. Per-user queries (Contains / SlotCount) are
  /// then safe only from the shard's owning thread or after ingest has
  /// quiesced -- which covers every existing caller: the durable tier's
  /// dedup probe runs on the owning consumer, its checkpoints hold an
  /// exclusive lock, and stats readers run after Drain().
  bool single_writer = false;
  /// Per-slot value histograms (off by default: the analytics tier).
  SlotHistogramOptions histogram = {};
};

/// Thread-safe sharded report store with streaming per-slot aggregates.
/// All methods are safe to call concurrently.
class ShardedCollector : public CollectorBackend {
 public:
  static Result<ShardedCollector> Create(ShardedCollectorOptions options = {});

  ShardedCollector(ShardedCollector&&) = default;
  ShardedCollector& operator=(ShardedCollector&&) = default;

  /// Pre-sizes every shard's user index and per-user bookkeeping for an
  /// expected population (a hint; populations may exceed it). Eliminates
  /// rehash stalls while a large fleet registers its users.
  void ReserveUsers(size_t expected_users) override;

  /// Ingests one user's run of consecutive slots: values[i] is the report
  /// for slot base_slot + i; a single report is a run of length 1. The
  /// shard hash, lock acquisition, and user-index resolution happen once
  /// for the whole run, which is published to readers atomically. Slots
  /// may arrive in any order per user; with keep_streams a repeated
  /// (user, slot) pair overwrites (last write wins), matching the legacy
  /// collector. Non-finite values are discarded: they cannot be
  /// represented next to the NaN missing-slot sentinel, and no library
  /// path emits them. Raw streams store any finite value, but the
  /// per-slot aggregates saturate report magnitudes at 2^16 (see
  /// SlotAggregate) -- far beyond any sanitized mechanism output. The
  /// run must end at or below cell kWireMaxRunLength (the bound every
  /// wire frame and EngineConfig obeys); CAPP_CHECKed.
  void IngestUserRun(uint64_t user_id, size_t base_slot,
                     std::span<const double> values) override;

  /// Re-exposes the base class's dims-aware overload (dim-major payload,
  /// transposed to cells); the 3-arg override above would otherwise hide
  /// it under C++ name lookup.
  using CollectorBackend::IngestUserRun;

  /// Values per slot (ShardedCollectorOptions::dims).
  size_t dims() const override { return options_.dims; }

  /// Number of distinct users seen so far.
  size_t user_count() const override;

  /// Total reports ingested (overwrites count once).
  size_t report_count() const override;

  /// Reports whose magnitude exceeded the SlotAggregate saturation bound
  /// (2^16) and were clamped. Nonzero means per-slot count/mean/M2 no
  /// longer describe the true reports -- the transport hub turns this
  /// into a Drain() error and Fleet::Run fails loudly.
  uint64_t saturated_report_count() const override;

  /// The shard a user's reports land in: splitmix64(user_id) % num_shards.
  /// A pure function of (user_id, num_shards), exposed so the transport
  /// tier can route each run to the consumer owning its shard group.
  size_t ShardIndexOf(uint64_t user_id) const override {
    return ShardIndex(user_id);
  }

  /// True if the user has reported at least once.
  bool Contains(uint64_t user_id) const override;

  /// Number of distinct slots reported by a user (0 if unknown). In
  /// aggregate-only mode this counts the user's ingested reports, which
  /// equals distinct slots under that mode's at-most-once contract.
  size_t SlotCount(uint64_t user_id) const;

  /// Highest slot seen + 1 over all users (0 when empty). With dims > 1
  /// this counts *cells* (time slots x dims), matching every other
  /// per-slot query; divide by dims() for the time-slot span.
  size_t SlotSpan() const override;

  /// The user's raw stream over slots [0, user's last slot], with missing
  /// slots gap-filled by the shared last-observation policy (gap_fill.h).
  /// NotFound for unknown users; FailedPrecondition in aggregate-only mode.
  Result<std::vector<double>> GapFilledStream(uint64_t user_id) const;

  /// Mean of the user's reports over slots [begin, begin+len), counting
  /// only slots the user actually reported. NotFound when none exist.
  Result<double> SubsequenceMean(uint64_t user_id, size_t begin,
                                 size_t len) const;

  /// Per-slot population mean over all users that reported each slot, for
  /// slots [0, SlotSpan()). Slots nobody reported yield NaN.
  std::vector<double> PopulationSlotMeans() const;

  /// Per-slot population aggregates (count/mean/variance), merged across
  /// shards, for slots [0, SlotSpan()).
  std::vector<SlotAggregate> PopulationSlotAggregates() const override;

  /// Per-slot value histograms merged across shards, for slots
  /// [0, SlotSpan()). Row t has histogram.row_size() entries laid out
  /// [underflow, bins..., overflow] (SlotHistogramOptions::BinFor).
  /// Integer counts merged by addition: bit-identical for any ingest
  /// order. FailedPrecondition when the tier is disabled.
  Result<std::vector<std::vector<uint64_t>>> PopulationSlotHistograms()
      const override;

  /// Finite reports that fell outside the histogram range [lo, hi] and
  /// were counted in an under/overflow bin (0 when the tier is
  /// disabled). Every report is still counted somewhere -- outliers are
  /// clamped into the edge bins by the analytics layer, exactly like the
  /// pooled-report estimator clamps them -- so nonzero here is expected
  /// for feedback-calibrated PP reports at small budgets; a *large*
  /// fraction means the configured range does not cover the workload.
  uint64_t histogram_outlier_count() const override;

  size_t num_shards() const override { return shards_.size(); }

  /// Exact snapshot of one shard's aggregate-mode state, the checkpoint
  /// serialization unit. FailedPrecondition with keep_streams = true:
  /// raw streams are not serialized, and silently dropping them on a
  /// restore would violate the backend's own query contract.
  Result<CollectorShardState> ExportShardState(size_t shard) const override;

  /// Restores a shard exported by ExportShardState. The shard must be
  /// empty (restore happens before any ingest during recovery), and the
  /// state's histogram layout must match this collector's options; a
  /// restored collector is bit-identical to one that ingested the
  /// covered runs directly.
  Status RestoreShardState(size_t shard, CollectorShardState state) override;

  /// Total seqlock snapshot retries across shards: how often an
  /// aggregate reader observed a write in progress (odd sequence) or a
  /// torn copy (sequence moved) and re-read. Always 0 in mutex mode
  /// (writers hold the mutex a reader copies under), and 0 in
  /// single-writer mode when nobody read during ingest.
  uint64_t seqlock_read_retries() const;

  const ShardedCollectorOptions& options() const { return options_; }

 private:
  // Cache-line aligned: each shard's writer-hot tail (seq and the
  // counters) must not share a line with the next shard's mutex and
  // index, which another consumer writes under shard affinity.
  struct alignas(64) Shard {
    // Held by every aggregate reader across its snapshot and by every
    // grow; in mutex mode also by every writer across its whole run.
    mutable std::mutex mu;
    std::unordered_map<uint64_t, uint32_t> index;  // user id -> dense index
    std::vector<uint32_t> last_slot;               // per dense index
    std::vector<uint32_t> reports_per_user;        // per dense index
    // Slot-major raw values, values[slot][dense_index]; NaN = missing.
    // Inner rows grow lazily, so reads must treat short rows as missing.
    // Unused in aggregate-only mode.
    std::vector<std::vector<double>> values;

    // Seqlock sequence: odd exactly while a writer is inside a write
    // section mutating the atomic words below.
    std::atomic<uint64_t> seq{0};
    // Per-slot aggregates as their SlotAggregate::Packed words (5 per
    // slot) and flat histogram bins, owned_histogram[slot * row_size +
    // bin] (null when the tier is disabled), in atomics so seqlock
    // readers may race with a single writer without UB. The first
    // owned_slots entries are valid; capacity doubles under `mu` (see
    // GrowOwnedSlots), which a reader holds across its whole snapshot,
    // so growth can never reallocate the arrays out from under a racing
    // copy. 32-bit bins keep the tier's working set (shards x slots x
    // bins) half the size of uint64 rows; a bin pinned at 2^32 - 1 stops
    // counting and reports through owned_saturated, the "collector state
    // no longer describes the reports" channel, so even that absurd
    // scale fails loudly, never silently.
    AlignedAtomicArray<std::atomic<uint64_t>> owned_packed;
    AlignedAtomicArray<std::atomic<uint32_t>> owned_histogram;
    size_t owned_slots = 0;     // valid slot prefix; readers see it via mu
    size_t owned_capacity = 0;  // allocated slots
    // Monotonic counters, updated by the writer outside the seqlock and
    // read relaxed: totals, not part of the consistent-snapshot story.
    std::atomic<uint64_t> owned_users{0};
    std::atomic<uint64_t> owned_reports{0};
    std::atomic<uint64_t> owned_saturated{0};  // clamped reports + bins
  };

  explicit ShardedCollector(ShardedCollectorOptions options);

  size_t ShardIndex(uint64_t user_id) const;
  // Resolves (registering on first sight) the run's user and extends its
  // last slot; returns the dense index. Caller is the shard's writer.
  uint32_t RegisterRunUser(Shard& shard, uint64_t user_id, size_t base_slot,
                           size_t first, size_t last);
  // Aggregate-only ingest of one run (values[first..last] are the
  // trimmed finite span) inside one seqlock write section. `lock` is the
  // shard mutex: held by a mutex-mode writer, unheld by a single writer,
  // which then takes it only around GrowOwnedSlots.
  void IngestOwnedRun(Shard& shard, std::unique_lock<std::mutex>& lock,
                      uint64_t user_id, size_t base_slot,
                      std::span<const double> values, size_t first,
                      size_t last);
  // keep_streams ingest of one run: raw values plus last-write-wins
  // overwrites (SlotAggregate::Replace and a bin decrement) inside one
  // seqlock write section. Caller holds the shard mutex.
  void IngestStreamRun(Shard& shard, uint64_t user_id, size_t base_slot,
                       std::span<const double> values, size_t first,
                       size_t last);
  // Grows the atomic arrays to cover end_slot slots. Caller holds the
  // shard mutex, which excludes in-flight seqlock readers.
  void GrowOwnedSlots(Shard& shard, size_t end_slot);
  // Seqlock read: one consistent snapshot of a shard's packed
  // aggregate words (and histogram bins when hist != nullptr and the
  // tier is enabled). Returns the number of valid slots.
  size_t SnapshotOwned(const Shard& shard, std::vector<uint64_t>& packed,
                       std::vector<uint32_t>* hist) const;
  // Sums one of the shards' relaxed monotonic counters.
  uint64_t SumCounter(std::atomic<uint64_t> Shard::*counter) const;
  // Bumps the local retry counter and its registry mirror.
  void CountSeqlockRetry() const;

  ShardedCollectorOptions options_;
  // unique_ptr keeps the collector movable despite the per-shard mutexes.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Seqlock retry count as a telemetry::Counter (striped cells, lock-free
  // reads) -- the same primitive the metrics registry exports, so
  // EngineStats and a live scrape read one source of truth. unique_ptr
  // keeps the collector movable.
  std::unique_ptr<telemetry::Counter> seqlock_read_retries_;
};

}  // namespace capp

#endif  // CAPP_ENGINE_SHARDED_COLLECTOR_H_
