#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/status.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "pipelines.h"
#include "stage_pass.h"
#include "storage/collector_backend.h"
#include "storage/durable_collector.h"
#include "trace.h"
#include "transport/wire_format.h"

namespace perfbench {
namespace {

using capp::EngineConfig;
using capp::Result;
using capp::Status;

// Workload shapes. Each repetition is sized to take a few hundred ms to
// a few s on a 4-core x86 box, so a run holds many repetitions.
constexpr size_t kSlots = 50;
constexpr size_t kRingUsers = 200000;
constexpr size_t kSocketUsers = 50000;
constexpr size_t kSocketDims = 4;
constexpr size_t kCollectorUsers = 100000;
constexpr double kEpsilon = 1.0;
constexpr int kWindow = 10;
// The collector's paced phase offers this many runs (users) per second,
// well under what the flood phase sustains.
constexpr double kPacedRunsPerSec = 40000.0;
// Paced runs sent more than this late count toward gen.late_runs_over_1ms.
constexpr double kLateThresholdMs = 1.0;
// The isolated stage pass and the privacy audit.
constexpr size_t kStageUsers = 10000;
constexpr int kStageRepeats = 3;
constexpr size_t kAuditUsers = 256;
// Fleet lag samples are pooled from every 8th user (a traced fleet run
// sees millions of runs).
constexpr size_t kLagSampleEvery = 8;
// Full spans are kept for user ids on this grid.
constexpr uint64_t kSpanSampleEvery = 1024;
constexpr int kMinRepetitions = 3;
// Set-up (oracle, inputs) is repeated this many times and its median
// reported; the repeats must agree bit for bit.
constexpr int kSetupRuns = 3;

bool IsFleet(const std::string& workload) {
  return workload == "fleet_ring_d1" || workload == "fleet_socket_d4";
}

EngineConfig FleetConfig(const std::string& workload, uint64_t seed) {
  EngineConfig config;
  config.algorithm = capp::AlgorithmKind::kCapp;
  config.epsilon = kEpsilon;
  config.window = kWindow;
  config.num_slots = kSlots;
  config.signal = capp::SignalKind::kSinusoid;
  config.seed = seed;
  config.num_threads = 2;
  config.chunk_size = 4096;
  config.num_shards = 16;
  config.keep_streams = false;
  config.transport.num_consumers = 2;
  config.transport.shard_affinity = true;
  config.transport.owned_shards = true;
  if (workload == "fleet_ring_d1") {
    config.num_users = kRingUsers;
    config.dims = 1;
    config.transport.kind = capp::TransportKind::kQueue;
  } else {
    config.num_users = kSocketUsers;
    config.dims = kSocketDims;
    config.multidim_strategy = capp::MultidimStrategy::kBudgetSplit;
    config.transport.kind = capp::TransportKind::kSocket;
    config.transport.connect_streams = 2;
  }
  return config;
}

// The oracle's shape: the same job ingested in place (kDirect, mutex
// shards). Fleet results do not depend on the thread count, so the
// single-thread reconciliation pass must match it too.
EngineConfig OracleConfig(const EngineConfig& config, int threads) {
  EngineConfig oracle = config;
  oracle.num_threads = threads;
  oracle.transport = capp::TransportOptions{};
  return oracle;
}

// The oracle runs on 4 threads: a single-thread pass swings by a third
// with the host core it lands on, which would make setup_s unsteady.
constexpr int kOracleThreads = 4;

struct FleetOracle {
  uint64_t stream_digest = 0;
  uint64_t collector_digest = 0;
  double slot_mse = 0.0;
};

Result<FleetOracle> RunFleetOracle(const EngineConfig& config) {
  CAPP_ASSIGN_OR_RETURN(capp::Fleet fleet,
                        capp::Fleet::Create(OracleConfig(config, kOracleThreads)));
  CAPP_ASSIGN_OR_RETURN(capp::EngineStats stats, fleet.Run());
  FleetOracle oracle;
  oracle.stream_digest = stats.stream_digest;
  oracle.collector_digest = capp::CollectorStateDigest(fleet.collector());
  oracle.slot_mse = stats.mean_slot_mse;
  return oracle;
}

struct CollectorOracle {
  uint64_t digest = 0;
  double slot_mse = 0.0;
};

Result<CollectorOracle> RunCollectorOracle(const CollectorInputs& inputs) {
  CAPP_ASSIGN_OR_RETURN(capp::ShardedCollectorOptions options,
                        CollectorWorkloadOptions(inputs, false));
  CAPP_ASSIGN_OR_RETURN(capp::ShardedCollector collector,
                        capp::ShardedCollector::Create(options));
  for (size_t uid = 0; uid < inputs.users; ++uid) {
    collector.IngestUserRun(
        uid, 0,
        std::span<const double>(inputs.reports.data() + uid * inputs.slots,
                                inputs.slots));
  }
  CollectorOracle oracle;
  oracle.digest = capp::CollectorStateDigest(collector);
  oracle.slot_mse = CollectorSlotMse(collector, inputs);
  return oracle;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void CheckDigest(RunOutcome* out, const char* what, uint64_t got,
                 uint64_t want) {
  out->Check(got == want, std::string(what) + " " + Hex(got) +
                              " != oracle " + Hex(want));
}

void CheckSameDouble(RunOutcome* out, const char* what, double got,
                     double want) {
  out->Check(std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(want),
             std::string(what) + " differs from the oracle");
}

// Stream errors, decode failures and handshake refusals are failed
// operations (they are zero on a healthy run).
void CountTransportFailures(const capp::TransportStats& stats,
                            RunOutcome* out) {
  const uint64_t failures =
      stats.stream_errors + stats.decode_failures + stats.handshake_rejects;
  if (failures > 0) {
    out->failed += failures;
    out->errors.push_back(std::to_string(failures) +
                          " transport failure(s) (stream errors, decode "
                          "failures or handshake refusals)");
  }
}

void AddFailures(const capp::TransportStats& stats,
                 capp::TransportStats* sum) {
  sum->stream_errors += stats.stream_errors;
  sum->decode_failures += stats.decode_failures;
  sum->handshake_rejects += stats.handshake_rejects;
}

void Fail(RunOutcome* out, const std::string& what, const Status& status) {
  ++out->attempted;
  ++out->failed;
  out->errors.push_back(what + ": " + status.ToString());
}

double ConsumerSkew(const std::vector<uint64_t>& runs) {
  if (runs.empty()) return 1.0;
  uint64_t max = 0;
  uint64_t sum = 0;
  for (uint64_t r : runs) {
    max = std::max(max, r);
    sum += r;
  }
  if (sum == 0) return 1.0;
  return static_cast<double>(max) * static_cast<double>(runs.size()) /
         static_cast<double>(sum);
}

void PrintTail(const char* name, const char* unit,
               const std::vector<double>& samples) {
  const TailSummary tail = SummarizeTail(samples);
  std::printf("  %-22s median %.4g %s, %s %.4g %s (n=%zu)\n", name,
              tail.median, unit, QuantileLabel(tail.top_quantile).c_str(),
              tail.top_value, unit, tail.count);
}

// The per-layer metrics of every traced run, in BENCHMARK.json order.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"engine.synth_ns_per_report", "ns"},
    {"algorithms.perturb_ns_per_report", "ns"},
    {"multidim.perturb_ns_per_report", "ns"},
    {"stream.smooth_ns_per_report", "ns"},
    {"core.digest_ns_per_report", "ns"},
    {"transport.publish_ns_per_report", "ns"},
    {"transport.encode_ns_per_report", "ns"},
    {"transport.decode_ns_per_report", "ns"},
    {"transport.crc_ns_per_byte", "ns/B"},
    {"engine.hist_ns_per_report", "ns"},
    {"transport.wire_bytes_per_report", "B"},
    {"transport.frames", "count"},
    {"transport.push_stalls", "count"},
    {"transport.pop_waits", "count"},
    {"transport.consumer_skew", "ratio"},
    {"transport.drain_s", "s"},
    {"transport.reconnects", "count"},
    {"transport.stream_errors", "count"},
    {"transport.decode_failures", "count"},
    {"transport.handshake_rejects", "count"},
    {"transport.ingest_lag_p50_ms", "ms"},
    {"transport.ingest_lag_p99_ms", "ms"},
    {"engine.ingest_ns_per_report", "ns"},
    {"engine.ingest_busy_frac", "fraction"},
    {"engine.seqlock_read_retries", "count"},
    {"reader.query_p99_us", "us"},
    {"storage.wal_append_ns_per_report", "ns"},
    {"storage.fsyncs", "count"},
    {"storage.wal_bytes_per_report", "B"},
    {"storage.flush_s", "s"},
    {"storage.replay_ns_per_report", "ns"},
    {"gen.late_runs_over_1ms", "count"},
    {"stream.max_window_spend_over_eps", "ratio"},
    {"proc.cpu_util", "cores"},
    {"pipeline.stage_sum_over_wall", "ratio"},
    {"pipeline.tracing_overhead", "ratio"},
};

// Per-layer samples, one per repetition (or one per run); each metric is
// reported as the median of its samples.
class LayerSeries {
 public:
  void Add(const std::string& name, double value) {
    for (auto& entry : entries_) {
      if (entry.first == name) {
        entry.second.push_back(value);
        return;
      }
    }
    entries_.push_back({name, {value}});
  }

  // Every kLayerMetrics entry; one the run did not measure is a failure.
  std::vector<Metric> Render(RunOutcome* out) const {
    std::vector<Metric> metrics;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = std::find_if(
          entries_.begin(), entries_.end(),
          [name = name](const auto& entry) { return entry.first == name; });
      out->Check(it != entries_.end(), std::string("unmeasured ") + name);
      if (it != entries_.end()) metrics.push_back({name, Median(it->second), unit});
    }
    return metrics;
  }

 private:
  std::vector<std::pair<std::string, std::vector<double>>> entries_;
};

// Codec and histogram costs come from the isolated stage pass at the
// workload's dimensionality.
void AddCodecMetrics(const StagePassResult& own, LayerSeries* series) {
  series->Add("transport.encode_ns_per_report", own.encode_ns);
  series->Add("transport.decode_ns_per_report", own.decode_ns);
  series->Add("transport.crc_ns_per_byte", own.crc_ns_per_byte);
  series->Add("engine.hist_ns_per_report", own.ingest_on_ns - own.ingest_off_ns);
}

// One repetition's transport counters (the ingest side's view).
void AddTransportSample(const capp::TransportStats& stats, double reports,
                        LayerSeries* series) {
  series->Add("transport.wire_bytes_per_report",
              static_cast<double>(stats.wire_bytes) / reports);
  series->Add("transport.frames", static_cast<double>(stats.frames));
  series->Add("transport.push_stalls", static_cast<double>(stats.push_stalls));
  series->Add("transport.pop_waits", static_cast<double>(stats.pop_waits));
  series->Add("transport.consumer_skew", ConsumerSkew(stats.consumer_runs));
}

// Counters summed over all repetitions, and tails pooled over them.
struct RunTotals {
  uint64_t reconnects = 0;
  uint64_t seqlock_read_retries = 0;
  capp::TransportStats failures;
  std::vector<double> lag_ms;
  std::vector<double> query_us;

  void AddTo(LayerSeries* series) const {
    series->Add("transport.reconnects", static_cast<double>(reconnects));
    series->Add("transport.stream_errors",
                static_cast<double>(failures.stream_errors));
    series->Add("transport.decode_failures",
                static_cast<double>(failures.decode_failures));
    series->Add("transport.handshake_rejects",
                static_cast<double>(failures.handshake_rejects));
    series->Add("transport.ingest_lag_p50_ms", Percentile(lag_ms, 0.5));
    series->Add("transport.ingest_lag_p99_ms", Percentile(lag_ms, 0.99));
    series->Add("engine.seqlock_read_retries",
                static_cast<double>(seqlock_read_retries));
    series->Add("reader.query_p99_us", Percentile(query_us, 0.99));
  }
};

void PrintStagePass(const StagePassResult& s) {
  std::printf(
      "  stage pass d=%zu (%" PRIu64 " reports, median of %d): synth %.2f, "
      "perturb %.2f, smooth %.2f, digest %.2f, encode %.2f, decode %.2f, "
      "ingest %.2f (hist on %.2f), wal append %.2f, replay %.2f ns/report; "
      "crc %.3f ns/byte\n",
      s.dims, s.reports, kStageRepeats, s.synth_ns, s.perturb_ns, s.smooth_ns,
      s.digest_ns, s.encode_ns, s.decode_ns, s.ingest_off_ns, s.ingest_on_ns,
      s.wal_append_ns, s.replay_ns, s.crc_ns_per_byte);
}

Result<StagePassResult> StagePass(const RunArgs& args, size_t dims) {
  StagePassOptions options;
  options.dims = dims;
  options.users = kStageUsers;
  options.slots = kSlots;
  options.epsilon = kEpsilon;
  options.window = kWindow;
  options.seed = args.seed;
  options.repeats = kStageRepeats;
  options.wal_dir = args.work_dir + "/stage-wal";
  return RunStagePass(options);
}

void PrintStageTotals(const char* title, const StageTotals& totals,
                      double reports) {
  std::printf("  %s self ns/report:", title);
  for (size_t s = 0; s < kStageCount; ++s) {
    if (totals.calls[s] == 0) continue;
    std::printf(" %s %.2f", StageName(static_cast<Stage>(s)),
                static_cast<double>(totals.self_ns[s]) / reports);
  }
  std::printf("\n");
}

bool TimeLeft(int64_t start_ns, const RunArgs& args, int reps) {
  return reps < kMinRepetitions ||
         static_cast<double>(WallNs() - start_ns) < args.seconds * 1e9;
}

// ---------------------------------------------------------------- fleet --

void RunFleetUntraced(const RunArgs& args, RunOutcome* out) {
  const EngineConfig config = FleetConfig(args.workload, args.seed);
  Result<FleetOracle> oracle = Status::Internal("no oracle pass ran");
  std::vector<double> oracle_runs_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    const int64_t s0 = WallNs();
    auto again = RunFleetOracle(config);
    oracle_runs_s.push_back(static_cast<double>(WallNs() - s0) / 1e9);
    if (!again.ok()) return Fail(out, "oracle pass", again.status());
    if (oracle.ok()) {
      CheckDigest(out, "repeated oracle stream digest", again->stream_digest,
                  oracle->stream_digest);
    } else {
      oracle = std::move(again);
    }
  }
  const double oracle_s = Median(oracle_runs_s);
  std::printf("  oracle: stream digest %s, collector digest %s, slot mse "
              "%.6g (%.2f s)\n",
              Hex(oracle->stream_digest).c_str(),
              Hex(oracle->collector_digest).c_str(), oracle->slot_mse,
              oracle_s);

  std::vector<double> rates;
  std::vector<double> cpu_ns;
  std::vector<double> startup_s;
  std::vector<double> rss_mb;
  std::vector<double> queries;
  const int64_t m0 = WallNs();
  for (int rep = 0; TimeLeft(m0, args, rep); ++rep) {
    ResetPeakRss();
    const int64_t c0 = WallNs();
    auto fleet = capp::Fleet::Create(config);
    const int64_t c1 = WallNs();
    if (!fleet.ok()) return Fail(out, "Fleet::Create", fleet.status());
    QueryReader reader(&fleet->collector(), kReaderThinkNs);
    reader.Start();
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t w0 = WallNs();
    auto stats = fleet->Run();
    const int64_t w1 = WallNs();
    const int64_t cpu1 = ProcessCpuNs();
    const std::vector<double> q = reader.Stop();
    rss_mb.push_back(PeakRssMb());
    out->attempted += q.size() + config.num_users;
    queries.insert(queries.end(), q.begin(), q.end());
    if (!stats.ok()) {
      out->failed += config.num_users;
      out->errors.push_back("Fleet::Run: " + stats.status().ToString());
      return;
    }
    CountTransportFailures(stats->transport, out);
    CheckDigest(out, "stream digest", stats->stream_digest,
                oracle->stream_digest);
    CheckDigest(out, "collector digest",
                capp::CollectorStateDigest(fleet->collector()),
                oracle->collector_digest);
    CheckSameDouble(out, "slot mse", stats->mean_slot_mse, oracle->slot_mse);
    const double reports = static_cast<double>(stats->reports);
    rates.push_back(reports / stats->elapsed_seconds);
    cpu_ns.push_back(static_cast<double>(cpu1 - cpu0) / reports);
    startup_s.push_back(static_cast<double>(c1 - c0) / 1e9 +
                        static_cast<double>(w1 - w0) / 1e9 -
                        stats->elapsed_seconds);
  }
  std::printf("  %zu repetitions of %zu users x %zu slots x d=%zu\n",
              rates.size(), config.num_users, config.num_slots, config.dims);
  PrintTail("query latency", "us", queries);
  out->metrics = {
      {"reports_per_sec", Median(rates), "reports/s"},
      {"cpu_ns_per_report", Median(cpu_ns), "ns"},
      {"slot_mse", oracle->slot_mse, "1"},
      {"query_p50_us", Percentile(queries, 0.5), "us"},
      {"setup_s", oracle_s + Median(startup_s), "s"},
      {"peak_rss_mb", Median(rss_mb), "MB"},
  };
}

struct SinglePass {
  double stage_sum_over_wall = 0.0;
  double tracing_overhead = 0.0;
};

// The single-threaded pass of the workload's job, run alternately with
// and without spans: its stage sums reconcile against its wall time, and
// the traced/untraced ratio is the tracing overhead.
template <typename PassFn>
SinglePass ReconcileSingleThread(PassFn pass, RunOutcome* out) {
  Tracer& tracer = Tracer::Global();
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> sum_over_wall;
  StageTotals last;
  double last_reports = 1.0;
  for (int i = 0; i < 2; ++i) {
    tracer.Disable();
    auto plain = pass();
    if (!plain.ok()) {
      Fail(out, "single-thread pass", plain.status());
      return {};
    }
    untraced.push_back(static_cast<double>(plain->first) / plain->second);
    tracer.Reset();
    tracer.Enable(0);
    auto timed = pass();
    tracer.Disable();
    if (!timed.ok()) {
      Fail(out, "traced single-thread pass", timed.status());
      return {};
    }
    last = tracer.Totals();
    last_reports = timed->second;
    traced.push_back(static_cast<double>(timed->first) / timed->second);
    sum_over_wall.push_back(static_cast<double>(last.SelfSum()) /
                            static_cast<double>(timed->first));
  }
  PrintStageTotals("single-thread pass", last, last_reports);
  SinglePass result;
  result.stage_sum_over_wall = Median(sum_over_wall);
  result.tracing_overhead = Median(traced) / Median(untraced);
  std::printf("  single-thread pass: %.2f ns/report untraced, %.2f traced; "
              "stage sum / wall %.3f\n",
              Median(untraced), Median(traced), result.stage_sum_over_wall);
  return result;
}

void RunFleetTraced(const RunArgs& args, RunOutcome* out) {
  const EngineConfig config = FleetConfig(args.workload, args.seed);
  const bool d1 = config.dims == 1;
  auto oracle = RunFleetOracle(config);
  if (!oracle.ok()) return Fail(out, "oracle pass", oracle.status());
  Tracer& tracer = Tracer::Global();

  const SinglePass single = ReconcileSingleThread(
      [&]() -> Result<std::pair<int64_t, double>> {
        FleetPipelineOptions options;
        options.config = OracleConfig(config, 1);
        CAPP_ASSIGN_OR_RETURN(FleetPipelineResult r,
                              RunFleetPipeline(options));
        out->attempted += r.runs;
        CheckDigest(out, "single-thread stream digest", r.stream_digest,
                    oracle->stream_digest);
        CheckDigest(out, "single-thread collector digest", r.collector_digest,
                    oracle->collector_digest);
        return std::make_pair(r.wall_ns, static_cast<double>(r.reports));
      },
      out);

  auto stage1 = StagePass(args, 1);
  if (!stage1.ok()) return Fail(out, "stage pass d=1", stage1.status());
  auto stage4 = StagePass(args, kSocketDims);
  if (!stage4.ok()) return Fail(out, "stage pass d=4", stage4.status());
  PrintStagePass(*stage1);
  PrintStagePass(*stage4);
  const StagePassResult& own = d1 ? *stage1 : *stage4;

  LayerSeries series;
  RunTotals run;
  StageTotals totals;
  double reports = 1.0;
  const int64_t m0 = WallNs();
  for (int rep = 0; TimeLeft(m0, args, rep); ++rep) {
    FleetPipelineOptions options;
    options.config = config;
    options.record_lag = true;
    options.with_reader = true;
    tracer.Reset();
    tracer.Enable(kSpanSampleEvery);
    auto r = RunFleetPipeline(options);
    tracer.Disable();
    if (!r.ok()) return Fail(out, "traced pipeline", r.status());
    out->attempted += r->runs + r->query_us.size();
    CountTransportFailures(r->transport, out);
    CheckDigest(out, "traced stream digest", r->stream_digest,
                oracle->stream_digest);
    CheckDigest(out, "traced collector digest", r->collector_digest,
                oracle->collector_digest);
    totals = tracer.Totals();
    reports = static_cast<double>(r->reports);
    auto per_report = [&](int64_t ns) {
      return static_cast<double>(ns) / reports;
    };
    series.Add("engine.synth_ns_per_report",
               per_report(totals.self(Stage::kSynth)));
    series.Add(d1 ? "algorithms.perturb_ns_per_report"
                  : "multidim.perturb_ns_per_report",
               per_report(totals.self(d1 ? Stage::kPerturb : Stage::kMultidim)));
    series.Add("stream.smooth_ns_per_report",
               per_report(totals.self(Stage::kSmooth)));
    series.Add("core.digest_ns_per_report",
               per_report(totals.self(Stage::kDigest)));
    series.Add("transport.publish_ns_per_report",
               per_report(totals.self(Stage::kPublish)));
    series.Add("engine.ingest_ns_per_report",
               per_report(totals.total(Stage::kIngest)));
    series.Add("engine.ingest_busy_frac",
               static_cast<double>(totals.total(Stage::kIngest)) /
                   (config.transport.num_consumers *
                    static_cast<double>(r->wall_ns)));
    AddTransportSample(r->transport, reports, &series);
    series.Add("transport.drain_s", static_cast<double>(r->drain_ns) / 1e9);
    series.Add("proc.cpu_util", static_cast<double>(r->cpu_ns) /
                                    static_cast<double>(r->wall_ns));
    run.reconnects += r->transport.reconnects;
    AddFailures(r->transport, &run.failures);
    run.seqlock_read_retries += r->seqlock_read_retries;
    for (size_t u = 0; u < r->lag_ms.size(); u += kLagSampleEvery) {
      run.lag_ms.push_back(r->lag_ms[u]);
    }
    run.query_us.insert(run.query_us.end(), r->query_us.begin(),
                        r->query_us.end());
  }
  PrintStageTotals("traced pipeline (last repetition)", totals, reports);
  PrintTail("publish->ingest lag", "ms", run.lag_ms);
  const std::string span_path = args.work_dir + "/spans-" + args.workload +
                                "-" + std::to_string(args.seed) + ".jsonl";
  const std::vector<SpanRecord> spans = tracer.KeptSpans();
  out->Check(WriteSpans(span_path, spans), "writing " + span_path);
  std::printf("  %zu sampled spans written to %s\n", spans.size(),
              span_path.c_str());

  // Privacy audit at each dimension's budget (budget split gives every
  // attribute epsilon / d per window).
  auto audit = AuditWindowSpend(args.seed, config.num_users, config.num_slots,
                                config.epsilon / config.dims, config.window,
                                kAuditUsers);
  if (!audit.ok()) return Fail(out, "privacy audit", audit.status());
  out->Check(*audit <= 1.0 + 1e-9, "w-event window spend exceeds epsilon");

  // The fleets' pipelines hold no WAL and run closed loop: storage costs
  // come from the stage pass, and no run is ever late.
  run.AddTo(&series);
  series.Add(d1 ? "multidim.perturb_ns_per_report"
                : "algorithms.perturb_ns_per_report",
             d1 ? stage4->perturb_ns : stage1->perturb_ns);
  AddCodecMetrics(own, &series);
  series.Add("storage.wal_append_ns_per_report", own.wal_append_ns);
  series.Add("storage.fsyncs", static_cast<double>(own.wal_fsyncs));
  series.Add("storage.wal_bytes_per_report",
             static_cast<double>(own.wal_bytes) /
                 static_cast<double>(own.reports));
  series.Add("storage.flush_s", own.wal_sync_s);
  series.Add("storage.replay_ns_per_report", own.replay_ns);
  series.Add("gen.late_runs_over_1ms", 0.0);
  series.Add("stream.max_window_spend_over_eps", *audit);
  series.Add("pipeline.stage_sum_over_wall", single.stage_sum_over_wall);
  series.Add("pipeline.tracing_overhead", single.tracing_overhead);
  out->metrics = series.Render(out);
}

// ------------------------------------------------------------ collector --

struct CollectorSetup {
  CollectorInputs inputs;
  CollectorOracle oracle;
  double seconds = 0.0;
};

Result<CollectorSetup> PrepareCollector(const RunArgs& args,
                                        RunOutcome* out) {
  CollectorSetup setup;
  std::vector<double> runs_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    const int64_t s0 = WallNs();
    CAPP_ASSIGN_OR_RETURN(setup.inputs,
                          GenerateCollectorInputs(args.seed, kCollectorUsers,
                                                  kSlots, kEpsilon, kWindow));
    CAPP_ASSIGN_OR_RETURN(CollectorOracle oracle,
                          RunCollectorOracle(setup.inputs));
    runs_s.push_back(static_cast<double>(WallNs() - s0) / 1e9);
    if (i > 0) {
      CheckDigest(out, "repeated collector oracle digest", oracle.digest,
                  setup.oracle.digest);
    }
    setup.oracle = oracle;
  }
  setup.seconds = Median(runs_s);
  std::printf("  inputs: %zu users x %zu slots pre-perturbed; oracle digest "
              "%s, slot mse %.6g (%.2f s)\n",
              setup.inputs.users, setup.inputs.slots,
              Hex(setup.oracle.digest).c_str(), setup.oracle.slot_mse,
              setup.seconds);
  return setup;
}

void CheckCycle(const CollectorCycleResult& r, const CollectorOracle& oracle,
                RunOutcome* out) {
  out->attempted += r.runs + r.query_us.size();
  CountTransportFailures(r.server, out);
  CountTransportFailures(r.flood_client, out);
  CountTransportFailures(r.paced_client, out);
  CheckDigest(out, "live collector digest", r.live_digest, oracle.digest);
  CheckDigest(out, "recovered collector digest", r.recovered_digest,
              oracle.digest);
  CheckSameDouble(out, "collector slot mse", r.slot_mse, oracle.slot_mse);
  out->Check(r.recovery_reports == r.runs * kSlots,
             "WAL recovery replayed a wrong report count");
}

CollectorCycleOptions CycleOptions(const RunArgs& args, bool traced) {
  CollectorCycleOptions options;
  options.traced = traced;
  options.paced_runs_per_sec = kPacedRunsPerSec;
  options.wal_dir = args.work_dir + "/collector-wal";
  return options;
}

void RunCollectorUntraced(const RunArgs& args, RunOutcome* out) {
  auto setup = PrepareCollector(args, out);
  if (!setup.ok()) return Fail(out, "collector setup", setup.status());
  std::vector<double> rates;
  std::vector<double> cpu_ns;
  std::vector<double> startup_s;
  std::vector<double> rss_mb;
  std::vector<double> recovery;
  std::vector<double> queries;
  std::vector<double> lag_ms;
  std::vector<double> late_ms;
  const int64_t m0 = WallNs();
  for (int rep = 0; TimeLeft(m0, args, rep); ++rep) {
    ResetPeakRss();
    auto r = RunCollectorCycle(setup->inputs, CycleOptions(args, false));
    rss_mb.push_back(PeakRssMb());
    if (!r.ok()) return Fail(out, "collector cycle", r.status());
    CheckCycle(*r, setup->oracle, out);
    const double flood = static_cast<double>(r->flood_reports);
    rates.push_back(flood * 1e9 / static_cast<double>(r->flood_wall_ns));
    cpu_ns.push_back(static_cast<double>(r->flood_cpu_ns) / flood);
    startup_s.push_back(static_cast<double>(r->startup_ns) / 1e9);
    recovery.push_back(static_cast<double>(r->recovery_reports) * 1e9 /
                       static_cast<double>(r->recovery_ns));
    queries.insert(queries.end(), r->query_us.begin(), r->query_us.end());
    lag_ms.insert(lag_ms.end(), r->lag_ms.begin(), r->lag_ms.end());
    late_ms.insert(late_ms.end(), r->late_ms.begin(), r->late_ms.end());
  }
  std::printf("  %zu cycles; paced phase offered %.0f runs/s; flood "
              "reports/s per cycle:",
              rates.size(), kPacedRunsPerSec);
  for (double rate : rates) std::printf(" %.4g", rate);
  std::printf("\n");
  PrintTail("ingest lag (due->ingest)", "ms", lag_ms);
  PrintTail("generator lateness", "ms", late_ms);
  PrintTail("query latency", "us", queries);
  std::printf("  ingest_lag_p50_ms %.4f ms, ingest_lag_p99_ms %.4f ms, "
              "gen.late_p99_ms %.4f ms, recovery_reports_per_sec %.4g "
              "reports/s\n",
              Percentile(lag_ms, 0.5), Percentile(lag_ms, 0.99),
              Percentile(late_ms, 0.99), Median(recovery));
  out->metrics = {
      {"reports_per_sec", Median(rates), "reports/s"},
      {"cpu_ns_per_report", Median(cpu_ns), "ns"},
      {"slot_mse", setup->oracle.slot_mse, "1"},
      {"query_p50_us", Percentile(queries, 0.5), "us"},
      {"setup_s", setup->seconds + Median(startup_s), "s"},
      {"peak_rss_mb", Median(rss_mb), "MB"},
  };
}

// The collector's single-threaded pass: every run encoded, decoded and
// ingested through timed -> DurableCollector -> timed -> ShardedCollector
// on one thread, with no sockets in between.
Result<std::pair<int64_t, double>> CollectorSerialPass(
    const CollectorInputs& inputs, const CollectorOracle& oracle,
    const std::string& wal_dir, RunOutcome* out) {
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  CAPP_ASSIGN_OR_RETURN(capp::ShardedCollectorOptions options,
                        CollectorWorkloadOptions(inputs, false));
  CAPP_ASSIGN_OR_RETURN(capp::ShardedCollector collector,
                        capp::ShardedCollector::Create(options));
  TimingBackend inner(&collector, Stage::kIngestInner);
  capp::DurableCollectorOptions durable_options;
  durable_options.wal = CollectorWalOptions(wal_dir, inputs);
  CAPP_ASSIGN_OR_RETURN(auto durable, capp::DurableCollector::Create(
                                          &inner, durable_options));
  TimingBackend outer(durable.get(), Stage::kIngest);
  std::vector<uint8_t> bytes;
  std::vector<double> values;
  const int64_t t0 = WallNs();
  for (uint64_t uid = 0; uid < inputs.users; ++uid) {
    bytes.clear();
    {
      SpanScope span(Stage::kEncode, uid);
      capp::AppendUserRunFrame(
          uid, 0,
          std::span<const double>(inputs.reports.data() + uid * inputs.slots,
                                  inputs.slots),
          bytes);
    }
    uint64_t user_id = 0;
    uint64_t base_slot = 0;
    {
      SpanScope span(Stage::kDecode, uid);
      auto used =
          capp::DecodeUserRunFrame(bytes, &user_id, &base_slot, values);
      CAPP_RETURN_IF_ERROR(used.status());
    }
    outer.IngestUserRun(user_id, base_slot, values);
  }
  const int64_t t1 = WallNs();
  CAPP_RETURN_IF_ERROR(durable->Flush());
  CAPP_RETURN_IF_ERROR(durable->Seal());
  out->attempted += inputs.users;
  CheckDigest(out, "single-thread collector digest",
              capp::CollectorStateDigest(collector), oracle.digest);
  std::filesystem::remove_all(wal_dir, ec);
  return std::make_pair(t1 - t0,
                        static_cast<double>(inputs.users * inputs.slots));
}

void RunCollectorTraced(const RunArgs& args, RunOutcome* out) {
  auto setup = PrepareCollector(args, out);
  if (!setup.ok()) return Fail(out, "collector setup", setup.status());
  Tracer& tracer = Tracer::Global();
  const SinglePass single = ReconcileSingleThread(
      [&] {
        return CollectorSerialPass(setup->inputs, setup->oracle,
                                   args.work_dir + "/serial-wal", out);
      },
      out);
  auto stage1 = StagePass(args, 1);
  if (!stage1.ok()) return Fail(out, "stage pass d=1", stage1.status());
  auto stage4 = StagePass(args, kSocketDims);
  if (!stage4.ok()) return Fail(out, "stage pass d=4", stage4.status());
  PrintStagePass(*stage1);
  PrintStagePass(*stage4);

  LayerSeries series;
  RunTotals run;
  uint64_t late_runs = 0;
  StageTotals totals;
  const double reports = static_cast<double>(setup->inputs.users * kSlots);
  const int64_t m0 = WallNs();
  for (int rep = 0; TimeLeft(m0, args, rep); ++rep) {
    tracer.Reset();
    tracer.Enable(kSpanSampleEvery);
    auto r = RunCollectorCycle(setup->inputs, CycleOptions(args, true));
    tracer.Disable();
    if (!r.ok()) return Fail(out, "traced collector cycle", r.status());
    CheckCycle(*r, setup->oracle, out);
    totals = tracer.Totals();
    auto per_report = [&](int64_t ns) {
      return static_cast<double>(ns) / reports;
    };
    const double ingest_wall =
        static_cast<double>(r->flood_wall_ns + r->paced_wall_ns);
    series.Add("transport.publish_ns_per_report",
               per_report(totals.self(Stage::kPublish)));
    series.Add("engine.ingest_ns_per_report",
               per_report(totals.total(Stage::kIngestInner)));
    // The outer span's self time is DurableCollector's own work: the WAL.
    series.Add("storage.wal_append_ns_per_report",
               per_report(totals.self(Stage::kIngest)));
    series.Add("engine.ingest_busy_frac",
               static_cast<double>(totals.total(Stage::kIngest)) /
                   (2.0 * ingest_wall));
    AddTransportSample(r->server, reports, &series);
    series.Add("transport.drain_s", static_cast<double>(r->flood_drain_ns) / 1e9);
    series.Add("storage.fsyncs", static_cast<double>(r->wal.fsyncs));
    series.Add("storage.wal_bytes_per_report",
               static_cast<double>(r->wal.bytes_appended) / reports);
    series.Add("storage.flush_s", static_cast<double>(r->flood_flush_ns) / 1e9);
    series.Add("storage.replay_ns_per_report",
               static_cast<double>(r->recovery_ns) /
                   static_cast<double>(r->recovery_reports));
    series.Add("proc.cpu_util", static_cast<double>(r->flood_cpu_ns) /
                                    static_cast<double>(r->flood_wall_ns));
    run.reconnects += r->flood_client.reconnects + r->paced_client.reconnects;
    AddFailures(r->server, &run.failures);
    run.seqlock_read_retries += r->seqlock_read_retries;
    run.lag_ms.insert(run.lag_ms.end(), r->lag_ms.begin(), r->lag_ms.end());
    run.query_us.insert(run.query_us.end(), r->query_us.begin(),
                        r->query_us.end());
    for (double late : r->late_ms) late_runs += late > kLateThresholdMs;
  }
  PrintStageTotals("traced cycle (last repetition)", totals, reports);
  PrintTail("ingest lag (due->ingest)", "ms", run.lag_ms);
  const std::string span_path = args.work_dir + "/spans-" + args.workload +
                                "-" + std::to_string(args.seed) + ".jsonl";
  const std::vector<SpanRecord> spans = tracer.KeptSpans();
  out->Check(WriteSpans(span_path, spans), "writing " + span_path);
  std::printf("  %zu sampled spans written to %s\n", spans.size(),
              span_path.c_str());

  auto audit = AuditWindowSpend(args.seed, setup->inputs.users, kSlots,
                                kEpsilon, kWindow, kAuditUsers);
  if (!audit.ok()) return Fail(out, "privacy audit", audit.status());
  out->Check(*audit <= 1.0 + 1e-9, "w-event window spend exceeds epsilon");

  // The collector receives pre-perturbed runs: client-side stage costs
  // come from the stage pass.
  run.AddTo(&series);
  series.Add("engine.synth_ns_per_report", stage1->synth_ns);
  series.Add("algorithms.perturb_ns_per_report", stage1->perturb_ns);
  series.Add("multidim.perturb_ns_per_report", stage4->perturb_ns);
  series.Add("stream.smooth_ns_per_report", stage1->smooth_ns);
  series.Add("core.digest_ns_per_report", stage1->digest_ns);
  AddCodecMetrics(*stage1, &series);
  series.Add("gen.late_runs_over_1ms", static_cast<double>(late_runs));
  series.Add("stream.max_window_spend_over_eps", *audit);
  series.Add("pipeline.stage_sum_over_wall", single.stage_sum_over_wall);
  series.Add("pipeline.tracing_overhead", single.tracing_overhead);
  out->metrics = series.Render(out);
}

}  // namespace

void RunOutcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    errors.push_back(what);
  }
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fleet_ring_d1", "fleet_socket_d4", "collector_tcp_wal"};
  return names;
}

void RunWorkload(const RunArgs& args, RunOutcome* outcome) {
  std::filesystem::create_directories(args.work_dir);
  if (IsFleet(args.workload)) {
    if (args.trace) {
      RunFleetTraced(args, outcome);
    } else {
      RunFleetUntraced(args, outcome);
    }
  } else if (args.trace) {
    RunCollectorTraced(args, outcome);
  } else {
    RunCollectorUntraced(args, outcome);
  }
}

}  // namespace perfbench
