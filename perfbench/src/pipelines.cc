#include "pipelines.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <optional>
#include <utility>

#include "algorithms/factory.h"
#include "analysis/streaming_analytics.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/stream_digest.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "engine/thread_pool.h"
#include "multidim/multidim_perturber.h"
#include "stats.h"
#include "storage/durable_collector.h"
#include "stream/session.h"
#include "stream/smoothing.h"
#include "trace.h"
#include "transport/socket_transport.h"
#include "transport/transport_hub.h"

namespace perfbench {
namespace {

using capp::Result;
using capp::Status;

constexpr const char* kLoopbackHost = "127.0.0.1";
// Bound on waiting for a drained flood to reach the collector; a run
// that has not arrived by then is lost, not slow.
constexpr int64_t kArrivalTimeoutNs = 120LL * 1000000000;

Status WaitForUsers(const capp::CollectorBackend& collector, size_t users) {
  const int64_t deadline = WallNs() + kArrivalTimeoutNs;
  while (collector.user_count() < users) {
    if (WallNs() > deadline) {
      return Status::Internal("collector holds " +
                              std::to_string(collector.user_count()) +
                              " users after drain, expected " +
                              std::to_string(users));
    }
    // Sleep rather than spin: the wait's own CPU must not count in the
    // flood's cpu_ns_per_report.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return Status::OK();
}

// Replays a WAL directory into a fresh collector through
// DurableCollector::Create; returns the recovered collector's digest and
// the time Create took.
struct RecoveryResult {
  uint64_t digest = 0;
  int64_t ns = 0;
  uint64_t reports = 0;
};

Result<RecoveryResult> RecoverWal(
    const capp::ShardedCollectorOptions& collector_options,
    const capp::WalOptions& wal_options) {
  CAPP_ASSIGN_OR_RETURN(capp::ShardedCollector fresh,
                        capp::ShardedCollector::Create(collector_options));
  capp::DurableCollectorOptions durable_options;
  durable_options.wal = wal_options;
  const int64_t t0 = WallNs();
  CAPP_ASSIGN_OR_RETURN(auto durable,
                        capp::DurableCollector::Create(&fresh, durable_options));
  const int64_t t1 = WallNs();
  CAPP_RETURN_IF_ERROR(durable->Seal());
  RecoveryResult result;
  result.ns = t1 - t0;
  result.digest = capp::CollectorStateDigest(fresh);
  result.reports = fresh.report_count();
  return result;
}

}  // namespace

void QueryReader::Start() {
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const int64_t t0 = WallNs();
      const std::vector<capp::SlotAggregate> aggregates =
          backend_->PopulationSlotAggregates();
      const int64_t t1 = WallNs();
      latencies_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
      std::this_thread::sleep_for(std::chrono::nanoseconds(think_ns_));
    }
  });
}

std::vector<double> QueryReader::Stop() {
  if (!thread_.joinable()) return {};
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  return std::move(latencies_us_);
}

Result<FleetPipelineResult> RunFleetPipeline(
    const FleetPipelineOptions& options) {
  capp::EngineConfig config = options.config;
  const size_t users = config.num_users;
  const size_t slots = config.num_slots;
  const size_t dims = config.dims;
  const size_t cells = dims * slots;
  const capp::PerturberOptions perturber_options{config.epsilon,
                                                 config.window};
  CAPP_ASSIGN_OR_RETURN(auto probe, capp::CreatePerturber(
                                        config.algorithm, perturber_options));
  const int smoothing = config.smoothing_window != 0
                            ? config.smoothing_window
                            : probe->publication_smoothing_window();

  capp::ShardedCollectorOptions collector_options;
  collector_options.num_shards = config.num_shards;
  collector_options.keep_streams = config.keep_streams;
  collector_options.dims = dims;
  collector_options.single_writer = config.transport.owned_shards;
  CAPP_ASSIGN_OR_RETURN(capp::ShardedCollector collector,
                        capp::ShardedCollector::Create(collector_options));
  TimingBackend timing(&collector, Stage::kIngest);
  std::vector<int64_t> publish_ns;
  std::vector<int64_t> arrival_ns;
  if (options.record_lag) {
    publish_ns.assign(users, 0);
    arrival_ns.assign(users, 0);
    timing.StampArrivals(&arrival_ns, 0);
  }
  if (config.transport.kind == capp::TransportKind::kSocket &&
      config.transport.handshake_fingerprint == 0) {
    config.transport.handshake_fingerprint = capp::StreamHandshakeFingerprint(
        config.epsilon, config.window, dims, config.multidim_strategy);
  }
  timing.ReserveUsers(users);
  CAPP_ASSIGN_OR_RETURN(auto hub,
                        capp::TransportHub::Create(&timing, config.transport));

  const size_t chunk_size = config.chunk_size;
  const size_t num_chunks = (users + chunk_size - 1) / chunk_size;
  const int threads = static_cast<int>(std::min<size_t>(
      capp::ResolveThreadCount(config.num_threads), num_chunks));
  std::vector<uint64_t> chunk_digest(num_chunks, 0);

  QueryReader reader(&collector, kReaderThinkNs);
  if (options.with_reader) reader.Start();
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t0 = WallNs();
  capp::ParallelFor(num_chunks, threads, [&](size_t chunk) {
    const uint64_t begin = chunk * chunk_size;
    const uint64_t end = std::min<uint64_t>(users, begin + chunk_size);
    // Pooled per-worker state, exactly as Fleet::Run pools it: one
    // session (or multi-dim perturber) reseeded per user and buffers
    // reused across the chunk.
    auto session = capp::UserSession::Create(begin, config.algorithm,
                                             perturber_options, /*seed=*/0);
    CAPP_CHECK(session.ok());
    std::optional<capp::MultidimPerturber> multidim;
    if (dims > 1) {
      auto created = capp::MultidimPerturber::Create(
          dims, config.multidim_strategy, perturber_options,
          config.algorithm);
      CAPP_CHECK(created.ok());
      multidim.emplace(std::move(*created));
    }
    std::vector<double> truth;
    std::vector<double> report_values(cells);
    std::vector<double> published;
    std::vector<double> sma_scratch;
    std::vector<double> dim_row;
    std::vector<double> dim_smoothed;
    capp::TransportHub::Producer producer = hub->MakeProducer();
    uint64_t digest = 0;
    for (uint64_t uid = begin; uid < end; ++uid) {
      capp::Rng signal_rng(capp::UserStreamSeed(config.seed, uid, 0));
      const uint64_t perturb_seed = capp::UserStreamSeed(config.seed, uid, 1);
      if (dims == 1) {
        {
          SpanScope span(Stage::kSynth, uid);
          capp::GenerateUserSignalInto(config.signal, slots, signal_rng,
                                       truth);
        }
        SpanScope span(Stage::kPerturb, uid);
        session->ResetForUser(uid, perturb_seed);
        session->ReportChunk(truth, report_values);
      } else {
        {
          SpanScope span(Stage::kSynth, uid);
          capp::GenerateUserSignalMultiInto(config.signal, dims, slots,
                                            signal_rng, truth);
        }
        SpanScope span(Stage::kMultidim, uid);
        multidim->ResetForUser(perturb_seed);
        multidim->PerturbStream(truth, slots, report_values);
      }
      if (options.record_lag) publish_ns[uid] = WallNs();
      {
        SpanScope span(Stage::kPublish, uid);
        producer.Publish(uid, /*base_slot=*/0, dims, report_values);
      }
      {
        SpanScope span(Stage::kSmooth, uid);
        if (dims == 1) {
          CAPP_CHECK(capp::SimpleMovingAverageInto(report_values, smoothing,
                                                   published, sma_scratch)
                         .ok());
        } else {
          published.resize(cells);
          for (size_t k = 0; k < dims; ++k) {
            dim_row.assign(
                report_values.begin() + static_cast<ptrdiff_t>(k * slots),
                report_values.begin() +
                    static_cast<ptrdiff_t>((k + 1) * slots));
            CAPP_CHECK(capp::SimpleMovingAverageInto(dim_row, smoothing,
                                                     dim_smoothed, sma_scratch)
                           .ok());
            std::copy(dim_smoothed.begin(), dim_smoothed.end(),
                      published.begin() + static_cast<ptrdiff_t>(k * slots));
          }
        }
      }
      SpanScope span(Stage::kDigest, uid);
      digest ^= capp::UserStreamDigest(uid, published);
    }
    chunk_digest[chunk] = digest;
  });
  const int64_t d0 = WallNs();
  const Status drained = hub->Drain();
  const int64_t t1 = WallNs();
  const int64_t cpu1 = ProcessCpuNs();

  FleetPipelineResult result;
  result.query_us = reader.Stop();
  CAPP_RETURN_IF_ERROR(drained);
  if (collector.saturated_report_count() > 0) {
    return Status::Internal("collector aggregates saturated");
  }
  for (uint64_t d : chunk_digest) result.stream_digest ^= d;
  result.collector_digest = capp::CollectorStateDigest(collector);
  result.runs = users;
  result.reports = users * cells;
  result.wall_ns = t1 - t0;
  result.drain_ns = t1 - d0;
  result.cpu_ns = cpu1 - cpu0;
  result.transport = hub->stats();
  result.seqlock_read_retries = collector.seqlock_read_retries();
  if (options.record_lag) {
    result.lag_ms.resize(users);
    for (size_t u = 0; u < users; ++u) {
      if (arrival_ns[u] == 0) {
        return Status::Internal("run of user " + std::to_string(u) +
                                " never reached the collector");
      }
      result.lag_ms[u] = static_cast<double>(arrival_ns[u] - publish_ns[u]) / 1e6;
    }
  }
  return result;
}

Result<CollectorInputs> GenerateCollectorInputs(uint64_t seed, size_t users,
                                                size_t slots, double epsilon,
                                                int window) {
  CollectorInputs inputs;
  inputs.users = users;
  inputs.slots = slots;
  inputs.epsilon = epsilon;
  inputs.window = window;
  inputs.reports.assign(users * slots, 0.0);
  constexpr size_t kChunk = 4096;
  const size_t num_chunks = (users + kChunk - 1) / kChunk;
  std::vector<std::vector<double>> chunk_truth(num_chunks);
  const capp::PerturberOptions perturber_options{epsilon, window};
  // Same per-user seeds and calls as Fleet::Run at d = 1, so these runs
  // are exactly the reports a CAPP fleet with this seed would publish.
  capp::ParallelFor(num_chunks, 2, [&](size_t chunk) {
    const size_t begin = chunk * kChunk;
    const size_t end = std::min(users, begin + kChunk);
    auto session = capp::UserSession::Create(begin, capp::AlgorithmKind::kCapp,
                                             perturber_options, 0);
    CAPP_CHECK(session.ok());
    std::vector<double> truth;
    std::vector<double>& sums = chunk_truth[chunk];
    sums.assign(slots, 0.0);
    for (size_t uid = begin; uid < end; ++uid) {
      capp::Rng signal_rng(capp::UserStreamSeed(seed, uid, 0));
      capp::GenerateUserSignalInto(capp::SignalKind::kSinusoid, slots,
                                   signal_rng, truth);
      session->ResetForUser(uid, capp::UserStreamSeed(seed, uid, 1));
      session->ReportChunk(
          truth, std::span<double>(inputs.reports.data() + uid * slots, slots));
      for (size_t t = 0; t < slots; ++t) sums[t] += truth[t];
    }
  });
  inputs.true_means.assign(slots, 0.0);
  for (const auto& sums : chunk_truth) {
    for (size_t t = 0; t < slots; ++t) inputs.true_means[t] += sums[t];
  }
  for (double& m : inputs.true_means) m /= static_cast<double>(users);
  return inputs;
}

Result<capp::ShardedCollectorOptions> CollectorWorkloadOptions(
    const CollectorInputs& inputs, bool single_writer) {
  capp::ShardedCollectorOptions options;
  options.num_shards = 16;
  options.keep_streams = false;
  options.dims = 1;
  options.single_writer = single_writer;
  CAPP_ASSIGN_OR_RETURN(
      options.histogram,
      capp::StreamingAnalyzer::CollectorHistogramOptions(
          inputs.epsilon / inputs.window, /*histogram_buckets=*/32));
  return options;
}

double CollectorSlotMse(const capp::CollectorBackend& collector,
                        const CollectorInputs& inputs) {
  const std::vector<capp::SlotAggregate> aggregates =
      collector.PopulationSlotAggregates();
  std::vector<double> means(inputs.slots, 0.0);
  for (size_t t = 0; t < inputs.slots && t < aggregates.size(); ++t) {
    means[t] = aggregates[t].Mean();
  }
  auto smoothed = capp::SimpleMovingAverage(means, kCappSmoothingWindow);
  CAPP_CHECK(smoothed.ok());
  double sum = 0.0;
  for (size_t t = 0; t < inputs.slots; ++t) {
    const double err = (*smoothed)[t] - inputs.true_means[t];
    sum += err * err;
  }
  return sum / static_cast<double>(inputs.slots);
}

capp::WalOptions CollectorWalOptions(const std::string& dir,
                                     const CollectorInputs& inputs) {
  capp::WalOptions options;
  options.dir = dir;
  const uint64_t words[] = {inputs.users, inputs.slots,
                            std::bit_cast<uint64_t>(inputs.epsilon),
                            static_cast<uint64_t>(inputs.window)};
  options.fingerprint = capp::WalFingerprint(words);
  options.fsync_policy = capp::WalFsyncPolicy::kPerFrames;
  options.fsync_every_frames = 1024;
  return options;
}

Result<CollectorCycleResult> RunCollectorCycle(
    const CollectorInputs& inputs, const CollectorCycleOptions& options) {
  namespace fs = std::filesystem;
  const size_t users = inputs.users;
  const size_t slots = inputs.slots;
  // DurableCollector drops a run whose user it has already seen, so the
  // two phases publish disjoint halves of the population.
  const size_t flood_users = users / 2;
  const size_t paced_users = users - flood_users;
  auto row = [&](uint64_t uid) {
    return std::span<const double>(inputs.reports.data() + uid * slots, slots);
  };
  CollectorCycleResult result;

  // ---- start-up: collector, WAL, server.
  const int64_t s0 = WallNs();
  std::error_code ec;
  fs::remove_all(options.wal_dir, ec);
  CAPP_ASSIGN_OR_RETURN(capp::ShardedCollectorOptions collector_options,
                        CollectorWorkloadOptions(inputs, /*single_writer=*/true));
  CAPP_ASSIGN_OR_RETURN(capp::ShardedCollector collector,
                        capp::ShardedCollector::Create(collector_options));
  // Traced: timed -> DurableCollector -> timed -> ShardedCollector, so
  // the WAL's share is the outer span's self time.
  TimingBackend inner(&collector, Stage::kIngestInner);
  capp::DurableCollectorOptions durable_options;
  durable_options.wal = CollectorWalOptions(options.wal_dir, inputs);
  CAPP_ASSIGN_OR_RETURN(
      auto durable,
      capp::DurableCollector::Create(
          options.traced ? static_cast<capp::CollectorBackend*>(&inner)
                         : static_cast<capp::CollectorBackend*>(&collector),
          durable_options));
  TimingBackend outer(durable.get(), Stage::kIngest);
  std::vector<int64_t> arrivals(paced_users, 0);
  outer.StampArrivals(&arrivals, flood_users);
  const uint64_t fingerprint = capp::StreamHandshakeFingerprint(
      inputs.epsilon, inputs.window, 1, capp::MultidimStrategy::kBudgetSplit);
  capp::SocketCollectorServer::Options server_options;
  server_options.tcp_host = kLoopbackHost;
  server_options.tcp_port = 0;
  server_options.handshake_fingerprint = fingerprint;
  server_options.expected_dims = 1;
  server_options.num_consumers = 2;
  server_options.shard_affinity = true;
  CAPP_ASSIGN_OR_RETURN(auto server, capp::SocketCollectorServer::Create(
                                         &outer, server_options));
  result.startup_ns = WallNs() - s0;

  // The client hubs only read dims() from their collector argument; the
  // reports live in the server's backend.
  CAPP_ASSIGN_OR_RETURN(capp::ShardedCollector client_side,
                        capp::ShardedCollector::Create({}));
  capp::TransportOptions client_options;
  client_options.kind = capp::TransportKind::kSocket;
  client_options.tcp_host = kLoopbackHost;
  client_options.tcp_port = server->tcp_port();
  client_options.handshake_fingerprint = fingerprint;

  // ---- flood: 2 generator threads on 2 striped connections.
  {
    capp::TransportOptions flood_options = client_options;
    flood_options.connect_streams = 2;
    CAPP_ASSIGN_OR_RETURN(auto hub, capp::TransportHub::Create(&client_side,
                                                               flood_options));
    constexpr size_t kGenerators = 2;
    std::vector<capp::TransportHub::Producer> producers;
    for (size_t g = 0; g < kGenerators; ++g) {
      producers.push_back(hub->MakeProducer());  // stripe g
    }
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = WallNs();
    std::vector<std::thread> generators;
    for (size_t g = 0; g < kGenerators; ++g) {
      generators.emplace_back([&, g] {
        capp::TransportHub::Producer producer = std::move(producers[g]);
        const uint64_t begin = g * flood_users / kGenerators;
        const uint64_t end = (g + 1) * flood_users / kGenerators;
        for (uint64_t uid = begin; uid < end; ++uid) {
          SpanScope span(Stage::kPublish, uid);
          producer.Publish(uid, /*base_slot=*/0, row(uid));
        }
      });
    }
    for (std::thread& t : generators) t.join();
    producers.clear();
    const int64_t d0 = WallNs();
    const Status drained = hub->Drain();
    const Status arrived =
        drained.ok() ? WaitForUsers(collector, flood_users) : drained;
    const int64_t f0 = WallNs();
    const Status flushed = arrived.ok() ? durable->Flush() : arrived;
    const int64_t t1 = WallNs();
    const int64_t cpu1 = ProcessCpuNs();
    CAPP_RETURN_IF_ERROR(flushed);
    result.flood_reports = flood_users * slots;
    result.flood_wall_ns = t1 - t0;
    result.flood_cpu_ns = cpu1 - cpu0;
    result.flood_drain_ns = f0 - d0;
    result.flood_flush_ns = t1 - f0;
    result.flood_client = hub->stats();
  }

  // ---- paced: one open-loop generator, one run per chunk, with a
  // closed-loop reader querying the live aggregates alongside.
  {
    capp::TransportOptions paced_options = client_options;
    paced_options.connect_streams = 1;
    paced_options.max_batch_runs = 1;
    CAPP_ASSIGN_OR_RETURN(auto hub, capp::TransportHub::Create(&client_side,
                                                               paced_options));
    QueryReader reader(&collector, kReaderThinkNs);
    reader.Start();
    std::vector<int64_t> due_ns;
    std::vector<int64_t> late_ns;
    int64_t paced_start = 0;
    {
      capp::TransportHub::Producer producer = hub->MakeProducer();
      paced_start = WallNs() + 1000000;
      const PacedSchedule schedule(paced_start, options.paced_runs_per_sec);
      late_ns = RunPacedGenerator(
          paced_users, schedule, &WallNs, &WaitUntilWallNs,
          [&](size_t i) {
            const uint64_t uid = flood_users + i;
            SpanScope span(Stage::kPublish, uid);
            producer.Publish(uid, /*base_slot=*/0, row(uid));
          },
          &due_ns);
    }
    const Status drained = hub->Drain();
    const Status arrived = drained.ok() ? WaitForUsers(collector, users)
                                        : drained;
    result.paced_wall_ns = WallNs() - paced_start;
    result.query_us = reader.Stop();
    CAPP_RETURN_IF_ERROR(arrived);
    result.paced_client = hub->stats();
    result.lag_ms.resize(paced_users);
    result.late_ms.resize(paced_users);
    for (size_t i = 0; i < paced_users; ++i) {
      if (arrivals[i] == 0) {
        return Status::Internal("paced run never reached the collector");
      }
      result.lag_ms[i] = static_cast<double>(arrivals[i] - due_ns[i]) / 1e6;
      result.late_ms[i] = static_cast<double>(late_ns[i]) / 1e6;
    }
  }

  // ---- verdicts, then recovery of the WAL into a fresh collector.
  CAPP_RETURN_IF_ERROR(server->Finish());
  result.server = server->stats();
  CAPP_RETURN_IF_ERROR(durable->Flush());
  CAPP_RETURN_IF_ERROR(durable->Seal());
  result.wal = durable->wal_stats();
  result.seqlock_read_retries = collector.seqlock_read_retries();
  result.live_digest = capp::CollectorStateDigest(collector);
  result.slot_mse = CollectorSlotMse(collector, inputs);
  result.runs = users;
  server.reset();
  durable.reset();

  CAPP_ASSIGN_OR_RETURN(RecoveryResult recovered,
                        RecoverWal(collector_options, durable_options.wal));
  result.recovered_digest = recovered.digest;
  result.recovery_reports = recovered.reports;
  result.recovery_ns = recovered.ns;
  fs::remove_all(options.wal_dir, ec);
  return result;
}

}  // namespace perfbench
