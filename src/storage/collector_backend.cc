#include "storage/collector_backend.h"

#include "telemetry/instruments.h"
#include "telemetry/metrics.h"
#include "transport/wire_format.h"

namespace capp {
namespace {

// FNV-1a over the 8 bytes of `word`, the same byte chain the fleet's
// stream digest uses (engine/fleet.cc); duplicated here because storage
// must not depend on the engine layer.
inline uint64_t FnvMixWord(uint64_t h, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;

}  // namespace

double SlotAggregate::Mean() const {
  if (count_ == 0) return 0.0;
  return (static_cast<double>(sum_) / kSumScale) /
         static_cast<double>(count_);
}

double SlotAggregate::M2() const {
  if (count_ == 0) return 0.0;
  const double sx = static_cast<double>(sum_) / kSumScale;
  const double sxx = static_cast<double>(sum_sq_) / kSqScale;
  const double m2 = sxx - sx * sx / static_cast<double>(count_);
  // The quantized squares and the double conversions can leave a tiny
  // negative residue for near-constant slots.
  return m2 < 0.0 ? 0.0 : m2;
}

void SlotAggregate::Merge(const SlotAggregate& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

void CollectorBackend::IngestUserRun(uint64_t user_id, size_t base_slot,
                                     size_t dims,
                                     std::span<const double> values) {
  // Mismatched dimensionality is caught earlier with a real error
  // (transport decode failure, WAL replay refusal); reaching here with
  // the wrong count is a programming error, not a data error.
  CAPP_CHECK(dims >= 1 && dims == this->dims());
  CAPP_CHECK(values.size() % dims == 0);
  if (dims == 1) {
    IngestUserRun(user_id, base_slot, values);
    return;
  }
  // base_slot * dims below must not wrap (dims == 1 is checked by the
  // cell-level overload itself).
  CAPP_CHECK(RunFitsCellBound(base_slot, dims, values.size()));
  // Transpose the wire's dim-major payload into the interleaved cell
  // order (cell = slot * dims + dim) and hand the flat cell run to the
  // scalar path: one bookkeeping pass, one contiguous aggregate walk,
  // and bit-identical state to ingesting the cells directly.
  const size_t slots = values.size() / dims;
  if (telemetry::Enabled()) {
    telemetry::metrics::IngestDimRowsTotal().Add(dims);
  }
  thread_local std::vector<double> cells;
  cells.resize(values.size());
  for (size_t k = 0; k < dims; ++k) {
    const double* dim_run = values.data() + k * slots;
    for (size_t t = 0; t < slots; ++t) {
      cells[t * dims + k] = dim_run[t];
    }
  }
  IngestUserRun(user_id, base_slot * dims, cells);
}

uint64_t CollectorStateDigest(const CollectorBackend& backend) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvMixWord(h, static_cast<uint64_t>(backend.user_count()));
  h = FnvMixWord(h, static_cast<uint64_t>(backend.report_count()));
  const std::vector<SlotAggregate> aggregates =
      backend.PopulationSlotAggregates();
  h = FnvMixWord(h, static_cast<uint64_t>(aggregates.size()));
  for (const SlotAggregate& aggregate : aggregates) {
    const SlotAggregate::Packed packed = aggregate.ToPacked();
    h = FnvMixWord(h, packed.count);
    h = FnvMixWord(h, packed.sum_hi);
    h = FnvMixWord(h, packed.sum_lo);
    h = FnvMixWord(h, packed.sum_sq_hi);
    h = FnvMixWord(h, packed.sum_sq_lo);
  }
  const auto histograms = backend.PopulationSlotHistograms();
  if (histograms.ok()) {
    for (const std::vector<uint64_t>& row : *histograms) {
      for (uint64_t bin : row) h = FnvMixWord(h, bin);
    }
  }
  return h;
}

}  // namespace capp
