// The benchmark's pipelines, rebuilt from the capp modules' public calls
// so that spans can be placed around each stage.
//
//   * RunFleetPipeline repeats Fleet::Run's per-user job (synthesis,
//     perturbation, publish, smoothing, digest) over a TransportHub into
//     a TimingBackend over a ShardedCollector. Its digests must equal
//     Fleet::Run's bit for bit; with one thread and kDirect it is the
//     single-threaded pass the stage sums are reconciled against.
//   * RunCollectorCycle is the collector operator's workload: a TCP
//     SocketCollectorServer over DurableCollector over ShardedCollector,
//     fed by a flood phase and a paced (open-loop) phase, then WAL
//     recovery into a fresh collector.
#ifndef PERFBENCH_PIPELINES_H_
#define PERFBENCH_PIPELINES_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "engine/engine_config.h"
#include "engine/sharded_collector.h"
#include "storage/collector_backend.h"
#include "storage/wal.h"
#include "transport/transport.h"

namespace perfbench {

/// A closed-loop reader: queries the live per-slot aggregates, waits
/// `think_ns`, and repeats until stopped -- an operator polling the
/// published means while ingest runs.
class QueryReader {
 public:
  QueryReader(const capp::CollectorBackend* backend, int64_t think_ns)
      : backend_(backend), think_ns_(think_ns) {}
  ~QueryReader() { Stop(); }
  QueryReader(const QueryReader&) = delete;
  QueryReader& operator=(const QueryReader&) = delete;

  void Start();
  /// Stops and joins the reader; returns the query latencies in us.
  std::vector<double> Stop();

 private:
  const capp::CollectorBackend* backend_;
  int64_t think_ns_;
  std::atomic<bool> stop_{false};
  std::vector<double> latencies_us_;
  std::thread thread_;
};

/// CAPP's publication smoothing window
/// (StreamPerturber::publication_smoothing_window for kCapp).
inline constexpr int kCappSmoothingWindow = 3;

/// Think time between a reader's queries (closed loop).
inline constexpr int64_t kReaderThinkNs = 1000000;

struct FleetPipelineResult {
  uint64_t stream_digest = 0;
  uint64_t collector_digest = 0;
  uint64_t reports = 0;
  uint64_t runs = 0;
  int64_t wall_ns = 0;   // first publish to verified drain
  int64_t drain_ns = 0;  // TransportHub::Drain alone
  int64_t cpu_ns = 0;    // process CPU over wall_ns
  capp::TransportStats transport;
  uint64_t seqlock_read_retries = 0;
  /// Per user: arrival at the collector minus the start of its publish
  /// (ms); filled when record_lag is set.
  std::vector<double> lag_ms;
  std::vector<double> query_us;
};

struct FleetPipelineOptions {
  capp::EngineConfig config;
  bool record_lag = false;
  bool with_reader = false;
};

capp::Result<FleetPipelineResult> RunFleetPipeline(
    const FleetPipelineOptions& options);

/// The collector workload's pre-perturbed d=1 population: every user's
/// CAPP report run, generated as Fleet::Run would generate it.
struct CollectorInputs {
  size_t users = 0;
  size_t slots = 0;
  double epsilon = 1.0;
  int window = 10;
  std::vector<double> reports;     // users x slots, one row per user
  std::vector<double> true_means;  // per slot, over all users
};

capp::Result<CollectorInputs> GenerateCollectorInputs(uint64_t seed,
                                                      size_t users,
                                                      size_t slots,
                                                      double epsilon,
                                                      int window);

/// Collector options shared by the oracle, the live server's backend and
/// the recovery target: aggregate-only, histograms sized for the
/// population's per-slot budget.
capp::Result<capp::ShardedCollectorOptions> CollectorWorkloadOptions(
    const CollectorInputs& inputs, bool single_writer);

/// Published-mean error of a d=1 collector against the true slot means:
/// the collector's per-slot means, smoothed with CAPP's publication
/// window, minus the truth, squared and averaged.
double CollectorSlotMse(const capp::CollectorBackend& collector,
                        const CollectorInputs& inputs);

struct CollectorCycleOptions {
  bool traced = false;
  double paced_runs_per_sec = 0.0;
  std::string wal_dir;
};

struct CollectorCycleResult {
  int64_t startup_ns = 0;       // collector, WAL and server start-up
  uint64_t flood_reports = 0;
  int64_t flood_wall_ns = 0;    // first publish to verified drain + flush
  int64_t flood_cpu_ns = 0;
  int64_t flood_drain_ns = 0;   // FIN sent to last run ingested
  int64_t flood_flush_ns = 0;   // DurableCollector::Flush after the flood
  int64_t paced_wall_ns = 0;    // paced phase, first due time to last arrival
  uint64_t recovery_reports = 0;
  int64_t recovery_ns = 0;
  uint64_t live_digest = 0;
  uint64_t recovered_digest = 0;
  double slot_mse = 0.0;
  std::vector<double> lag_ms;    // paced runs: arrival minus due time
  std::vector<double> late_ms;   // paced runs: send minus due time
  std::vector<double> query_us;  // reader during the paced phase
  capp::TransportStats flood_client;
  capp::TransportStats paced_client;
  capp::TransportStats server;
  capp::WalStats wal;
  uint64_t seqlock_read_retries = 0;
  uint64_t runs = 0;  // runs published (both phases)
};

capp::Result<CollectorCycleResult> RunCollectorCycle(
    const CollectorInputs& inputs, const CollectorCycleOptions& options);

/// WAL options the collector workload uses (kPerFrames fsync policy).
capp::WalOptions CollectorWalOptions(const std::string& dir,
                                     const CollectorInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINES_H_
