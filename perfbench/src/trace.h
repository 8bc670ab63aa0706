// Tracing for perfbench's traced runs, kept entirely in the benchmark:
// spans are opened around calls into the capp modules' public functions
// (and inside a CollectorBackend decorator), never inside src/.
//
// Each span carries a stage, an id (the user id of the run it works on,
// so a producer's publish span and a consumer's ingest span of one run
// share it) and its parent. Every span adds its self time -- its
// duration minus the time its child spans cover -- to per-thread stage
// sums; spans whose id falls on the sampling grid are also kept whole
// and written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "stats.h"
#include "storage/collector_backend.h"

namespace perfbench {

enum class Stage : int {
  kSynth,        // GenerateUserSignal{,Multi}Into
  kPerturb,      // UserSession::ResetForUser + ReportChunk
  kMultidim,     // MultidimPerturber::ResetForUser + PerturbStream
  kPublish,      // TransportHub::Producer::Publish
  kSmooth,       // SimpleMovingAverageInto
  kDigest,       // UserStreamDigest
  kEncode,       // Append{UserRun,MultiDimRun}Frame
  kDecode,       // DecodeUserRunFrame
  kIngest,       // the outermost timed CollectorBackend::IngestUserRun
  kIngestInner,  // a timed backend nested under another (below a WAL)
  kCount,
};
inline constexpr size_t kStageCount = static_cast<size_t>(Stage::kCount);

const char* StageName(Stage stage);

struct StageTotals {
  std::array<int64_t, kStageCount> self_ns{};
  std::array<int64_t, kStageCount> total_ns{};
  std::array<uint64_t, kStageCount> calls{};

  int64_t self(Stage s) const { return self_ns[static_cast<size_t>(s)]; }
  int64_t total(Stage s) const { return total_ns[static_cast<size_t>(s)]; }
  uint64_t count(Stage s) const { return calls[static_cast<size_t>(s)]; }
  int64_t SelfSum() const;
};

struct SpanRecord {
  Stage stage = Stage::kCount;
  Stage parent = Stage::kCount;  // kCount: a root span
  uint64_t id = 0;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

using ClockFn = int64_t (*)();

/// Process-wide span collector. Disabled spans cost one relaxed load.
class Tracer {
 public:
  static constexpr int kMaxDepth = 8;

  static Tracer& Global();

  /// Starts recording; spans whose id is a multiple of `sample_every`
  /// are kept whole (0 keeps none).
  void Enable(uint64_t sample_every);
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Zeroes every thread's sums and drops kept spans. No span may be open.
  void Reset();

  /// Sums over all threads, in ns. Call only after every traced thread has
  /// finished (joined), which orders their writes before this read.
  StageTotals Totals() const;
  std::vector<SpanRecord> KeptSpans() const;

  /// The clock spans read: TSC ticks (the telemetry clock, calibrated
  /// against steady_clock) unless a test injects a clock counting ns.
  /// nullptr restores the default.
  void SetClock(ClockFn clock);
  int64_t Now() const { return clock_(); }

  struct Frame {
    Stage stage = Stage::kCount;
    uint64_t id = 0;
    int64_t start_ticks = 0;
    int64_t child_ticks = 0;  // ticks covered by child spans
  };
  struct ThreadState {
    uint32_t index = 0;
    int depth = 0;
    Frame stack[kMaxDepth];
    StageTotals totals;             // in clock ticks
    std::vector<SpanRecord> spans;  // in clock ticks
  };

  ThreadState& Local();
  void Close(ThreadState& state);

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  uint64_t sample_every_ = 0;
  ClockFn clock_;
  double ns_per_tick_ = 1.0;
  mutable std::mutex mu_;  // guards threads_
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// RAII span: records nothing while the tracer is disabled.
class SpanScope {
 public:
  SpanScope(Stage stage, uint64_t id);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer::ThreadState* state_ = nullptr;
};

/// Writes kept spans as JSON lines to `path`; false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

/// A CollectorBackend decorator that wraps every IngestUserRun in a span
/// of `stage` (id = user id) and forwards everything else unchanged, so
/// the wrapped backend's state -- and CollectorStateDigest -- is bit for
/// bit what it would be without the decorator. Optionally stamps the
/// arrival time of each run whose user id lies in
/// [arrival_base, arrival_base + arrivals->size()).
class TimingBackend final : public capp::CollectorBackend {
 public:
  TimingBackend(capp::CollectorBackend* inner, Stage stage)
      : inner_(inner), stage_(stage) {}

  void StampArrivals(std::vector<int64_t>* arrivals, uint64_t arrival_base) {
    arrivals_ = arrivals;
    arrival_base_ = arrival_base;
  }

  void IngestUserRun(uint64_t user_id, size_t base_slot,
                     std::span<const double> values) override {
    Stamp(user_id);
    SpanScope span(stage_, user_id);
    inner_->IngestUserRun(user_id, base_slot, values);
  }
  void IngestUserRun(uint64_t user_id, size_t base_slot, size_t dims,
                     std::span<const double> values) override {
    Stamp(user_id);
    SpanScope span(stage_, user_id);
    inner_->IngestUserRun(user_id, base_slot, dims, values);
  }
  void ReserveUsers(size_t expected_users) override {
    inner_->ReserveUsers(expected_users);
  }
  size_t dims() const override { return inner_->dims(); }
  size_t user_count() const override { return inner_->user_count(); }
  size_t report_count() const override { return inner_->report_count(); }
  uint64_t saturated_report_count() const override {
    return inner_->saturated_report_count();
  }
  size_t SlotSpan() const override { return inner_->SlotSpan(); }
  bool Contains(uint64_t user_id) const override {
    return inner_->Contains(user_id);
  }
  size_t ShardIndexOf(uint64_t user_id) const override {
    return inner_->ShardIndexOf(user_id);
  }
  std::vector<capp::SlotAggregate> PopulationSlotAggregates() const override {
    return inner_->PopulationSlotAggregates();
  }
  capp::Result<std::vector<std::vector<uint64_t>>> PopulationSlotHistograms()
      const override {
    return inner_->PopulationSlotHistograms();
  }
  uint64_t histogram_outlier_count() const override {
    return inner_->histogram_outlier_count();
  }
  size_t num_shards() const override { return inner_->num_shards(); }
  capp::Result<capp::CollectorShardState> ExportShardState(
      size_t shard) const override {
    return inner_->ExportShardState(shard);
  }
  capp::Status RestoreShardState(size_t shard,
                                 capp::CollectorShardState state) override {
    return inner_->RestoreShardState(shard, std::move(state));
  }

 private:
  void Stamp(uint64_t user_id) {
    if (arrivals_ == nullptr) return;
    const uint64_t offset = user_id - arrival_base_;
    if (offset < arrivals_->size()) {
      (*arrivals_)[offset] = WallNs();
    }
  }

  capp::CollectorBackend* inner_;
  Stage stage_;
  std::vector<int64_t>* arrivals_ = nullptr;
  uint64_t arrival_base_ = 0;
};

/// An open-loop send schedule: run i is due at start + i / rate.
class PacedSchedule {
 public:
  PacedSchedule(int64_t start_ns, double runs_per_sec)
      : start_ns_(start_ns), period_ns_(1e9 / runs_per_sec) {}
  int64_t DueNs(uint64_t i) const {
    return start_ns_ + static_cast<int64_t>(static_cast<double>(i) * period_ns_);
  }

 private:
  int64_t start_ns_;
  double period_ns_;
};

/// Drives an open-loop generator: for each of `runs` runs, waits (via
/// `wait_until`) until the run is due, then calls send(i). Never sends a
/// run early, and does not slow the schedule when a send is slow: later
/// runs keep their due times. Returns each run's lateness (send time
/// minus due time) and stores the due times in *due_ns.
std::vector<int64_t> RunPacedGenerator(
    size_t runs, const PacedSchedule& schedule, ClockFn clock,
    const std::function<void(int64_t due_ns)>& wait_until,
    const std::function<void(size_t i)>& send, std::vector<int64_t>* due_ns);

/// Blocks until the wall clock reaches `due_ns`: sleeps through long gaps,
/// yields through the last stretch.
void WaitUntilWallNs(int64_t due_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
