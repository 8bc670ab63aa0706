#include "engine/sharded_collector.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <new>
#include <thread>
#include <type_traits>

#include "core/check.h"
#include "core/math_utils.h"
#include "core/rng.h"
#include "stream/gap_fill.h"
#include "telemetry/instruments.h"
#include "transport/wire_format.h"

namespace capp {
namespace {

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

// Reads values[slot][dense] treating short rows as missing.
double RawValueAt(const std::vector<std::vector<double>>& values, size_t slot,
                  uint32_t dense) {
  if (slot >= values.size()) return kMissing;
  const std::vector<double>& row = values[slot];
  return dense < row.size() ? row[dense] : kMissing;
}

// The aggregate store keeps each SlotAggregate as its five Packed
// words in a flat atomic array; these convert between the two forms.
// All accesses are relaxed: the seqlock's sequence counter and fences
// provide the ordering, the atomics only keep the racing word accesses
// defined.
constexpr size_t kPackedWords = 5;

inline SlotAggregate LoadPackedSlot(const std::atomic<uint64_t>* words) {
  SlotAggregate::Packed packed;
  packed.count = words[0].load(std::memory_order_relaxed);
  packed.sum_hi = words[1].load(std::memory_order_relaxed);
  packed.sum_lo = words[2].load(std::memory_order_relaxed);
  packed.sum_sq_hi = words[3].load(std::memory_order_relaxed);
  packed.sum_sq_lo = words[4].load(std::memory_order_relaxed);
  return SlotAggregate::FromPacked(packed);
}

inline void StorePackedSlot(std::atomic<uint64_t>* words,
                            const SlotAggregate& aggregate) {
  const SlotAggregate::Packed packed = aggregate.ToPacked();
  words[0].store(packed.count, std::memory_order_relaxed);
  words[1].store(packed.sum_hi, std::memory_order_relaxed);
  words[2].store(packed.sum_lo, std::memory_order_relaxed);
  words[3].store(packed.sum_sq_hi, std::memory_order_relaxed);
  words[4].store(packed.sum_sq_lo, std::memory_order_relaxed);
}

// Allocates a zero-initialized, 64-byte-aligned array of atomics for the
// seqlock-published aggregate store. make_unique's allocation is only 16-byte
// aligned, so the packed 5-word (40-byte) aggregate slots started at an
// arbitrary cache-line offset: which line a given slot's words straddle
// depended on where the allocator happened to place the array, and the
// first slots of a hot run could cost an extra straddled line. Aligning
// the base to the line size makes slot-to-line mapping a pure function
// of the slot index (slots t and t+1 share a line on a fixed 8-slot /
// 5-line cadence) and lets the run walk stream through whole lines.
// Measured with the owned-shard ring transport (200k users x 50 slots,
// best of 5): 27.0M -> 31.2M reports/s.
template <typename T>
AlignedAtomicArray<T> MakeAlignedZeroed(size_t n) {
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedFree releases without running destructors");
  T* p = static_cast<T*>(::operator new(n * sizeof(T),
                                        std::align_val_t{64}));
  for (size_t i = 0; i < n; ++i) new (p + i) T();
  return AlignedAtomicArray<T>(p);
}

// Rebuilds an aggregate from five already-snapshotted plain words.
inline SlotAggregate UnpackSnapshotSlot(const uint64_t* words) {
  SlotAggregate::Packed packed;
  packed.count = words[0];
  packed.sum_hi = words[1];
  packed.sum_lo = words[2];
  packed.sum_sq_hi = words[3];
  packed.sum_sq_lo = words[4];
  return SlotAggregate::FromPacked(packed);
}

}  // namespace

Result<ShardedCollector> ShardedCollector::Create(
    ShardedCollectorOptions options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.dims < 1) {
    return Status::InvalidArgument("dims must be >= 1");
  }
  if (options.single_writer && options.keep_streams) {
    // Raw per-user streams are owner-private dense arrays; serving them
    // to concurrent readers would need the very mutex single-writer
    // mode exists to elide.
    return Status::InvalidArgument(
        "single_writer collectors are aggregate-only; set keep_streams "
        "= false");
  }
  if (options.histogram.enabled) {
    if (options.histogram.num_bins < 2) {
      return Status::InvalidArgument("histogram.num_bins must be >= 2");
    }
    if (!std::isfinite(options.histogram.lo) ||
        !std::isfinite(options.histogram.hi) ||
        options.histogram.lo >= options.histogram.hi) {
      return Status::InvalidArgument(
          "histogram range wants finite lo < hi");
    }
  }
  return ShardedCollector(options);
}

ShardedCollector::ShardedCollector(ShardedCollectorOptions options)
    : options_(options),
      seqlock_read_retries_(std::make_unique<telemetry::Counter>()) {
  if (telemetry::Enabled()) {
    telemetry::metrics::CollectorDims().Set(
        static_cast<int64_t>(options_.dims));
  }
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ShardedCollector::ShardIndex(uint64_t user_id) const {
  // Hash rather than modulo directly: sequential fleet user ids would
  // otherwise stripe perfectly, which is fine for balance but makes shard
  // membership depend on the population layout instead of the id alone.
  return SplitMix64Mix(user_id) % shards_.size();
}

void ShardedCollector::GrowOwnedSlots(Shard& shard, size_t end_slot) {
  // The caller's mutex excludes in-flight seqlock readers (they hold it
  // for their whole snapshot), so the swap below can never reallocate
  // the arrays out from under a racing copy. Only the shard's writer
  // grows, so owned_slots / owned_capacity are stable outside the lock
  // for it.
  if (end_slot > shard.owned_capacity) {
    size_t capacity = std::max<size_t>(shard.owned_capacity * 2, 64);
    capacity = std::max(capacity, end_slot);
    // MakeAlignedZeroed value-initializes, so the new tail slots are zero
    // -- an empty SlotAggregate and empty bins.
    auto packed =
        MakeAlignedZeroed<std::atomic<uint64_t>>(capacity * kPackedWords);
    for (size_t w = 0; w < shard.owned_slots * kPackedWords; ++w) {
      packed[w].store(shard.owned_packed[w].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    shard.owned_packed = std::move(packed);
    if (options_.histogram.enabled) {
      const size_t row_size = options_.histogram.row_size();
      auto bins =
          MakeAlignedZeroed<std::atomic<uint32_t>>(capacity * row_size);
      for (size_t b = 0; b < shard.owned_slots * row_size; ++b) {
        bins[b].store(
            shard.owned_histogram[b].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      shard.owned_histogram = std::move(bins);
    }
    shard.owned_capacity = capacity;
  }
  shard.owned_slots = end_slot;
}

uint32_t ShardedCollector::RegisterRunUser(Shard& shard, uint64_t user_id,
                                           size_t base_slot, size_t first,
                                           size_t last) {
  // Writer-private bookkeeping: in mutex mode the writer holds the lock;
  // in single-writer mode exactly one thread ever ingests into this
  // shard, so the user index and dense arrays need no lock. Cross-thread
  // per-user queries are then answered only from the owner or after
  // quiescence (see the header).
  const auto [it, inserted] = shard.index.try_emplace(
      user_id, static_cast<uint32_t>(shard.last_slot.size()));
  const uint32_t dense = it->second;
  if (inserted) {
    shard.last_slot.push_back(static_cast<uint32_t>(base_slot + first));
    shard.reports_per_user.push_back(0);
    shard.owned_users.store(
        shard.owned_users.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
  }
  shard.last_slot[dense] = std::max(
      shard.last_slot[dense], static_cast<uint32_t>(base_slot + last));
  return dense;
}

void ShardedCollector::IngestOwnedRun(Shard& shard,
                                      std::unique_lock<std::mutex>& lock,
                                      uint64_t user_id, size_t base_slot,
                                      std::span<const double> values,
                                      size_t first, size_t last) {
  const uint32_t dense =
      RegisterRunUser(shard, user_id, base_slot, first, last);
  const size_t end_slot = base_slot + last + 1;
  if (end_slot > shard.owned_slots) {
    if (lock.owns_lock()) {
      GrowOwnedSlots(shard, end_slot);
    } else {
      std::lock_guard<std::mutex> grow_lock(shard.mu);
      GrowOwnedSlots(shard, end_slot);
    }
  }

  // Seqlock write section: bump to odd, release-fence so the data
  // stores cannot be ordered before it, mutate, then publish with a
  // store-release back to even. Readers that overlap any of this see an
  // odd or moved sequence and retry.
  const uint64_t seq = shard.seq.load(std::memory_order_relaxed);
  shard.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  size_t ingested = 0;
  uint64_t saturated = 0;
  std::atomic<uint64_t>* const slots_base =
      shard.owned_packed.get() + base_slot * kPackedWords;
  for (size_t i = first; i <= last; ++i) {
    if (!std::isfinite(values[i])) continue;
    std::atomic<uint64_t>* words = slots_base + i * kPackedWords;
    SlotAggregate aggregate = LoadPackedSlot(words);
    saturated += static_cast<uint64_t>(aggregate.Add(values[i]));
    StorePackedSlot(words, aggregate);
    ++ingested;
  }
  const SlotHistogramOptions& hist = options_.histogram;
  if (hist.enabled) {
    const size_t row_size = hist.row_size();
    std::atomic<uint32_t>* rows =
        shard.owned_histogram.get() + base_slot * row_size;
    for (size_t i = first; i <= last; ++i) {
      if (!std::isfinite(values[i])) continue;
      std::atomic<uint32_t>& bin =
          rows[i * row_size + hist.BinFor(values[i])];
      const uint32_t count = bin.load(std::memory_order_relaxed);
      if (count == std::numeric_limits<uint32_t>::max()) {
        ++saturated;  // pinned bin: see Shard::owned_histogram
      } else {
        bin.store(count + 1, std::memory_order_relaxed);
      }
    }
  }
  shard.seq.store(seq + 2, std::memory_order_release);

  // Totals live outside the write section: they are monotonic counters
  // read relaxed, not part of the consistent-snapshot contract.
  shard.reports_per_user[dense] += static_cast<uint32_t>(ingested);
  shard.owned_reports.store(
      shard.owned_reports.load(std::memory_order_relaxed) + ingested,
      std::memory_order_relaxed);
  shard.owned_saturated.store(
      shard.owned_saturated.load(std::memory_order_relaxed) + saturated,
      std::memory_order_relaxed);
}

size_t ShardedCollector::SnapshotOwned(const Shard& shard,
                                       std::vector<uint64_t>& packed,
                                       std::vector<uint32_t>* hist) const {
  // Seqlock read: copy the words, then retry if the owner was inside a
  // write section (odd sequence) or wrote during the copy (sequence
  // moved). Holding the mutex blocks only a single writer's capacity
  // growth -- never its ingest -- so readers cannot perturb its
  // throughput; a mutex-mode writer holds it across its whole run, so
  // there the copy never retries.
  std::lock_guard<std::mutex> lock(shard.mu);
  const size_t slots = shard.owned_slots;
  const size_t words = slots * kPackedWords;
  const size_t bins = (hist != nullptr && options_.histogram.enabled)
                          ? slots * options_.histogram.row_size()
                          : 0;
  packed.resize(words);
  if (hist != nullptr) hist->resize(bins);
  for (;;) {
    const uint64_t seq_before = shard.seq.load(std::memory_order_acquire);
    if (seq_before & 1) {
      CountSeqlockRetry();
      std::this_thread::yield();
      continue;
    }
    for (size_t w = 0; w < words; ++w) {
      packed[w] = shard.owned_packed[w].load(std::memory_order_relaxed);
    }
    for (size_t b = 0; b < bins; ++b) {
      (*hist)[b] = shard.owned_histogram[b].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (shard.seq.load(std::memory_order_relaxed) == seq_before) {
      return slots;
    }
    CountSeqlockRetry();
  }
}

void ShardedCollector::CountSeqlockRetry() const {
  seqlock_read_retries_->Add(1);
  if (telemetry::Enabled()) {
    telemetry::metrics::SeqlockReadRetriesTotal().Add(1);
  }
}

void ShardedCollector::IngestStreamRun(Shard& shard, uint64_t user_id,
                                       size_t base_slot,
                                       std::span<const double> values,
                                       size_t first, size_t last) {
  const uint32_t dense =
      RegisterRunUser(shard, user_id, base_slot, first, last);
  const size_t end_slot = base_slot + last + 1;
  if (end_slot > shard.owned_slots) GrowOwnedSlots(shard, end_slot);
  if (end_slot > shard.values.size()) shard.values.resize(end_slot);
  const SlotHistogramOptions& hist = options_.histogram;
  const size_t row_size = hist.row_size();

  // The same write section as IngestOwnedRun. The caller's mutex already
  // keeps readers out, so the sequence bump only keeps the store's one
  // publication protocol.
  const uint64_t seq = shard.seq.load(std::memory_order_relaxed);
  shard.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  size_t ingested = 0;
  uint64_t saturated = 0;
  for (size_t i = first; i <= last; ++i) {
    if (!std::isfinite(values[i])) continue;
    const size_t slot = base_slot + i;
    std::vector<double>& row = shard.values[slot];
    if (dense >= row.size()) row.resize(dense + 1, kMissing);
    const double old_value = row[dense];
    row[dense] = values[i];
    const bool fresh = std::isnan(old_value);
    std::atomic<uint64_t>* words =
        shard.owned_packed.get() + slot * kPackedWords;
    SlotAggregate aggregate = LoadPackedSlot(words);
    saturated += static_cast<uint64_t>(
        fresh ? aggregate.Add(values[i])
              : aggregate.Replace(old_value, values[i]));
    StorePackedSlot(words, aggregate);
    ingested += fresh ? 1 : 0;  // an overwrite counts once
    if (!hist.enabled) continue;
    std::atomic<uint32_t>* bins =
        shard.owned_histogram.get() + slot * row_size;
    if (!fresh) {
      // Overwrite: move the old value's unit count to the new bin, the
      // histogram analogue of SlotAggregate::Replace.
      std::atomic<uint32_t>& old_bin = bins[hist.BinFor(old_value)];
      old_bin.store(old_bin.load(std::memory_order_relaxed) - 1,
                    std::memory_order_relaxed);
    }
    std::atomic<uint32_t>& bin = bins[hist.BinFor(values[i])];
    const uint32_t count = bin.load(std::memory_order_relaxed);
    if (count == std::numeric_limits<uint32_t>::max()) {
      ++saturated;  // pinned bin: see Shard::owned_histogram
    } else {
      bin.store(count + 1, std::memory_order_relaxed);
    }
  }
  shard.seq.store(seq + 2, std::memory_order_release);

  shard.reports_per_user[dense] += static_cast<uint32_t>(ingested);
  shard.owned_reports.store(
      shard.owned_reports.load(std::memory_order_relaxed) + ingested,
      std::memory_order_relaxed);
  shard.owned_saturated.store(
      shard.owned_saturated.load(std::memory_order_relaxed) + saturated,
      std::memory_order_relaxed);
}

void ShardedCollector::ReserveUsers(size_t expected_users) {
  // Shard assignment is a splitmix64 hash, so the population spreads
  // near-uniformly; a small headroom factor covers the imbalance tail.
  const size_t per_shard = expected_users / shards_.size() +
                           expected_users / (4 * shards_.size()) + 16;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->index.reserve(per_shard);
    shard->last_slot.reserve(per_shard);
    shard->reports_per_user.reserve(per_shard);
  }
}

void ShardedCollector::IngestUserRun(uint64_t user_id, size_t base_slot,
                                     std::span<const double> values) {
  // The wire decoder's bound for in-process callers: every cell of the
  // run lies below kWireMaxRunLength, so base_slot + i can neither wrap
  // nor index past what the store can grow to.
  CAPP_CHECK(RunFitsCellBound(base_slot, /*dims=*/1, values.size()));
  // Non-finite values are discarded -- before registration, so a run
  // with no finite value must not create the user.
  size_t first = 0;
  while (first < values.size() && !std::isfinite(values[first])) ++first;
  if (first == values.size()) return;
  size_t last = values.size() - 1;
  while (!std::isfinite(values[last])) --last;  // exists: first <= last

  telemetry::ScopedTimer ingest_timer;
  if (telemetry::Enabled()) {
    telemetry::metrics::IngestRunsTotal().Add(1);
    telemetry::metrics::IngestReportsTotal().Add(last - first + 1);
    if (telemetry::ShouldSample()) {
      ingest_timer.Arm(&telemetry::metrics::IngestRunSeconds());
    }
  }

  Shard& shard = *shards_[ShardIndex(user_id)];
  // The one place the writer disciplines differ: a mutex-mode writer
  // holds the shard mutex across the whole run; a single writer is the
  // shard's only ingesting thread and locks only around a grow.
  std::unique_lock<std::mutex> lock(shard.mu, std::defer_lock);
  if (!options_.single_writer) lock.lock();
  if (options_.keep_streams) {
    // Create() pairs keep_streams with mutex mode only.
    IngestStreamRun(shard, user_id, base_slot, values, first, last);
    return;
  }
  IngestOwnedRun(shard, lock, user_id, base_slot, values, first, last);
}

uint64_t ShardedCollector::SumCounter(
    std::atomic<uint64_t> Shard::*counter) const {
  // Dedicated atomic counters, so these totals never touch a writer's
  // index map or lock.
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += ((*shard).*counter).load(std::memory_order_relaxed);
  }
  return total;
}

size_t ShardedCollector::user_count() const {
  return SumCounter(&Shard::owned_users);
}

size_t ShardedCollector::report_count() const {
  return SumCounter(&Shard::owned_reports);
}

uint64_t ShardedCollector::saturated_report_count() const {
  return SumCounter(&Shard::owned_saturated);
}

uint64_t ShardedCollector::seqlock_read_retries() const {
  return seqlock_read_retries_->Value();
}

bool ShardedCollector::Contains(uint64_t user_id) const {
  const Shard& shard = *shards_[ShardIndex(user_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.contains(user_id);
}

size_t ShardedCollector::SlotCount(uint64_t user_id) const {
  const Shard& shard = *shards_[ShardIndex(user_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(user_id);
  return it == shard.index.end() ? 0 : shard.reports_per_user[it->second];
}

size_t ShardedCollector::SlotSpan() const {
  size_t span = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    span = std::max(span, shard->owned_slots);
  }
  return span;
}

Result<std::vector<double>> ShardedCollector::GapFilledStream(
    uint64_t user_id) const {
  if (!options_.keep_streams) {
    return Status::FailedPrecondition(
        "per-user streams require keep_streams = true");
  }
  const Shard& shard = *shards_[ShardIndex(user_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(user_id);
  if (it == shard.index.end()) return Status::NotFound("unknown user");
  const uint32_t dense = it->second;
  const size_t n = static_cast<size_t>(shard.last_slot[dense]) + 1;
  std::vector<double> raw(n);
  for (size_t t = 0; t < n; ++t) {
    raw[t] = RawValueAt(shard.values, t, dense);
  }
  return FillGapsForward(raw);
}

Result<double> ShardedCollector::SubsequenceMean(uint64_t user_id,
                                                 size_t begin,
                                                 size_t len) const {
  if (len == 0) return Status::InvalidArgument("len must be >= 1");
  if (!options_.keep_streams) {
    return Status::FailedPrecondition(
        "per-user streams require keep_streams = true");
  }
  const Shard& shard = *shards_[ShardIndex(user_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(user_id);
  if (it == shard.index.end()) return Status::NotFound("unknown user");
  const uint32_t dense = it->second;
  KahanSum sum;
  size_t count = 0;
  for (size_t t = begin; t < begin + len; ++t) {
    const double v = RawValueAt(shard.values, t, dense);
    if (!std::isnan(v)) {
      sum.Add(v);
      ++count;
    }
  }
  if (count == 0) {
    return Status::NotFound("no reports in the requested interval");
  }
  return sum.Total() / static_cast<double>(count);
}

std::vector<SlotAggregate> ShardedCollector::PopulationSlotAggregates() const {
  std::vector<SlotAggregate> merged;
  std::vector<uint64_t> packed;
  for (const auto& shard : shards_) {
    const size_t slots = SnapshotOwned(*shard, packed, nullptr);
    if (slots > merged.size()) merged.resize(slots);
    for (size_t t = 0; t < slots; ++t) {
      merged[t].Merge(UnpackSnapshotSlot(packed.data() + t * kPackedWords));
    }
  }
  return merged;
}

Result<std::vector<std::vector<uint64_t>>>
ShardedCollector::PopulationSlotHistograms() const {
  if (!options_.histogram.enabled) {
    return Status::FailedPrecondition(
        "per-slot histograms require histogram.enabled = true");
  }
  const size_t row_size = options_.histogram.row_size();
  std::vector<std::vector<uint64_t>> merged;
  std::vector<uint64_t> packed;
  std::vector<uint32_t> bins;
  for (const auto& shard : shards_) {
    const size_t slots = SnapshotOwned(*shard, packed, &bins);
    if (slots > merged.size()) {
      merged.resize(slots, std::vector<uint64_t>(row_size, 0));
    }
    for (size_t t = 0; t < slots; ++t) {
      const uint32_t* row = bins.data() + t * row_size;
      for (size_t b = 0; b < row_size; ++b) merged[t][b] += row[b];
    }
  }
  return merged;
}

uint64_t ShardedCollector::histogram_outlier_count() const {
  if (!options_.histogram.enabled) return 0;
  const size_t row_size = options_.histogram.row_size();
  uint64_t total = 0;
  std::vector<uint64_t> packed;
  std::vector<uint32_t> bins;
  for (const auto& shard : shards_) {
    const size_t slots = SnapshotOwned(*shard, packed, &bins);
    // Under/overflow are the first and last entry of each slot row.
    for (size_t t = 0; t < slots; ++t) {
      total += bins[t * row_size] + bins[t * row_size + row_size - 1];
    }
  }
  return total;
}

Result<CollectorShardState> ShardedCollector::ExportShardState(
    size_t shard_index) const {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (options_.keep_streams) {
    return Status::FailedPrecondition(
        "shard snapshots cover aggregate-only mode (keep_streams = "
        "false); raw streams are not serialized");
  }
  // The aggregate arrays come through the seqlock like any reader's.
  // The per-user bookkeeping is copied under the mutex, which makes it
  // consistent with the arrays only once ingest has quiesced -- which
  // the only caller, the checkpoint tier, guarantees with its exclusive
  // lock (and recovery runs before any ingest).
  const Shard& shard = *shards_[shard_index];
  std::vector<uint64_t> packed;
  std::vector<uint32_t> bins;
  CollectorShardState state;
  const size_t slots = SnapshotOwned(shard, packed, &bins);
  state.slots.resize(slots);
  for (size_t t = 0; t < slots; ++t) {
    state.slots[t] = UnpackSnapshotSlot(packed.data() + t * kPackedWords);
  }
  state.histogram.assign(bins.begin(), bins.end());
  std::lock_guard<std::mutex> lock(shard.mu);
  state.users.resize(shard.last_slot.size());
  for (const auto& [user_id, dense] : shard.index) {
    state.users[dense] = {user_id, shard.last_slot[dense],
                          shard.reports_per_user[dense]};
  }
  state.report_count = shard.owned_reports.load(std::memory_order_relaxed);
  state.saturated_reports =
      shard.owned_saturated.load(std::memory_order_relaxed);
  return state;
}

Status ShardedCollector::RestoreShardState(size_t shard_index,
                                           CollectorShardState state) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (options_.keep_streams) {
    return Status::FailedPrecondition(
        "shard snapshots cover aggregate-only mode (keep_streams = false)");
  }
  const size_t expected_histogram =
      options_.histogram.enabled
          ? state.slots.size() * options_.histogram.row_size()
          : 0;
  if (state.histogram.size() != expected_histogram) {
    return Status::InvalidArgument(
        "snapshot histogram layout does not match this collector's "
        "configuration (expected " + std::to_string(expected_histogram) +
        " entries, snapshot has " + std::to_string(state.histogram.size()) +
        ")");
  }
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.index.empty() ||
      shard.owned_reports.load(std::memory_order_relaxed) != 0) {
    return Status::FailedPrecondition(
        "RestoreShardState wants an empty shard (restore runs before any "
        "ingest)");
  }
  shard.index.reserve(state.users.size());
  shard.last_slot.resize(state.users.size());
  shard.reports_per_user.resize(state.users.size());
  for (size_t dense = 0; dense < state.users.size(); ++dense) {
    const CollectorShardState::UserEntry& entry = state.users[dense];
    const bool inserted =
        shard.index.emplace(entry.user_id, static_cast<uint32_t>(dense))
            .second;
    if (!inserted) {
      // A duplicated user id would desynchronize the dense arrays; a
      // snapshot can only contain one by corruption the CRC missed or a
      // writer bug, so refuse and leave this shard partially built --
      // the caller (recovery) discards the whole backend on any error.
      return Status::Internal("snapshot contains a duplicated user id");
    }
    shard.last_slot[dense] = entry.last_slot;
    shard.reports_per_user[dense] = entry.reports;
  }
  // Restore runs single-threaded before any ingest, so plain relaxed
  // stores into freshly allocated atomic arrays suffice.
  const size_t slots = state.slots.size();
  shard.owned_packed =
      MakeAlignedZeroed<std::atomic<uint64_t>>(slots * kPackedWords);
  for (size_t t = 0; t < slots; ++t) {
    StorePackedSlot(shard.owned_packed.get() + t * kPackedWords,
                    state.slots[t]);
  }
  if (options_.histogram.enabled) {
    shard.owned_histogram =
        MakeAlignedZeroed<std::atomic<uint32_t>>(state.histogram.size());
    for (size_t b = 0; b < state.histogram.size(); ++b) {
      shard.owned_histogram[b].store(state.histogram[b],
                                     std::memory_order_relaxed);
    }
  }
  shard.owned_capacity = slots;
  shard.owned_slots = slots;
  shard.owned_users.store(state.users.size(), std::memory_order_relaxed);
  shard.owned_reports.store(state.report_count, std::memory_order_relaxed);
  shard.owned_saturated.store(state.saturated_reports,
                              std::memory_order_relaxed);
  return Status::OK();
}

std::vector<double> ShardedCollector::PopulationSlotMeans() const {
  const std::vector<SlotAggregate> aggregates = PopulationSlotAggregates();
  std::vector<double> means(aggregates.size(), kMissing);
  for (size_t t = 0; t < aggregates.size(); ++t) {
    if (aggregates[t].Count() > 0) means[t] = aggregates[t].Mean();
  }
  return means;
}

}  // namespace capp
