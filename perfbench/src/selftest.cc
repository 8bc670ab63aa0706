// Self-tests for perfbench's own logic: percentile selection, span
// self-time subtraction, pass-through of the timing decorators, and the
// paced generator's due-time accounting.
//
//   perfbench_selftest WORK_DIR      (exit 0 when every check passes)
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/rng.h"
#include "engine/sharded_collector.h"
#include "stats.h"
#include "storage/durable_collector.h"
#include "trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void TestPercentiles() {
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  Expect(HighestSupportedQuantile(19) == 0.5, "19 samples support only p50");
  Expect(HighestSupportedQuantile(100) == 0.9, "100 samples support p90");
  Expect(HighestSupportedQuantile(999) == 0.9, "999 samples stop at p90");
  Expect(HighestSupportedQuantile(1000) == 0.99, "1000 samples support p99");
  Expect(HighestSupportedQuantile(9999) == 0.99, "9999 samples stop at p99");
  Expect(HighestSupportedQuantile(10000) == 0.999,
         "10000 samples support p99.9");
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);  // unsorted input
  const TailSummary tail = SummarizeTail(samples);
  Expect(tail.count == 1000, "tail count");
  Expect(tail.median == 500.0, "nearest-rank median of 1..1000 is 500");
  Expect(tail.top_quantile == 0.99 && tail.top_value == 990.0,
         "p99 of 1..1000 is 990 with exactly 10 beyond");
  Expect(QuantileLabel(0.999) == "p99.9", "quantile label");
  Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");
}

// A scripted clock: each read returns the next programmed time.
std::vector<int64_t> g_script;
size_t g_script_pos = 0;
int64_t ScriptedClock() { return g_script[g_script_pos++]; }

void TestSelfTime() {
  Tracer& tracer = Tracer::Global();
  g_script = {100, 130, 180, 250, 300, 340};
  g_script_pos = 0;
  tracer.SetClock(&ScriptedClock);
  tracer.Reset();
  tracer.Enable(/*sample_every=*/1);
  {
    SpanScope publish(Stage::kPublish, 7);  // 100 .. 250
    {
      SpanScope ingest(Stage::kIngest, 7);  // 130 .. 180
    }
  }
  {
    SpanScope digest(Stage::kDigest, 8);  // 300 .. 340
  }
  tracer.Disable();
  const StageTotals totals = tracer.Totals();
  const std::vector<SpanRecord> spans = tracer.KeptSpans();
  tracer.SetClock(nullptr);
  Expect(totals.total(Stage::kPublish) == 150, "publish span duration");
  Expect(totals.self(Stage::kPublish) == 100,
         "publish self time excludes its ingest child");
  Expect(totals.self(Stage::kIngest) == 50 && totals.total(Stage::kIngest) == 50,
         "leaf span self time is its duration");
  Expect(totals.self(Stage::kDigest) == 40, "sibling root span");
  Expect(totals.SelfSum() == 190, "self times partition the traced time");
  bool nested = false;
  for (const SpanRecord& span : spans) {
    nested = nested || (span.stage == Stage::kIngest &&
                        span.parent == Stage::kPublish && span.id == 7 &&
                        span.start_ns == 130 && span.end_ns == 180);
  }
  Expect(spans.size() == 3 && nested,
         "kept spans carry the shared id and their parent");
  tracer.Reset();
}

void TestDecoratorPassThrough(const std::string& work_dir) {
  for (size_t dims : {size_t{1}, size_t{4}}) {
    capp::ShardedCollectorOptions options;
    options.keep_streams = false;
    options.dims = dims;
    options.histogram.enabled = true;
    options.histogram.num_bins = 16;
    options.histogram.lo = -0.5;
    options.histogram.hi = 1.5;
    auto direct = capp::ShardedCollector::Create(options);
    auto wrapped = capp::ShardedCollector::Create(options);
    Expect(direct.ok() && wrapped.ok(), "collectors");
    if (!direct.ok() || !wrapped.ok()) return;
    const std::string dir = work_dir + "/selftest-wal";
    std::filesystem::remove_all(dir);
    TimingBackend inner(&*wrapped, Stage::kIngestInner);
    capp::DurableCollectorOptions durable_options;
    durable_options.wal.dir = dir;
    durable_options.wal.fingerprint = 42;
    auto durable = capp::DurableCollector::Create(&inner, durable_options);
    Expect(durable.ok(), "durable collector");
    if (!durable.ok()) return;
    TimingBackend outer(durable->get(), Stage::kIngest);
    Tracer::Global().Reset();
    Tracer::Global().Enable(0);
    capp::Rng rng(dims);
    std::vector<double> values(dims * 20);
    for (uint64_t uid = 0; uid < 500; ++uid) {
      for (double& v : values) v = rng.Uniform(-0.4, 1.4);
      if (dims == 1) {
        direct->IngestUserRun(uid, uid % 3, values);
        outer.IngestUserRun(uid, uid % 3, values);
      } else {
        direct->IngestUserRun(uid, uid % 3, dims, values);
        outer.IngestUserRun(uid, uid % 3, dims, values);
      }
    }
    Tracer::Global().Disable();
    Expect((*durable)->Flush().ok(), "WAL flush");
    Expect(capp::CollectorStateDigest(*direct) ==
               capp::CollectorStateDigest(*wrapped),
           "timing decorators leave the collector digest unchanged (d=" +
               std::to_string(dims) + ")");
    Expect(capp::CollectorStateDigest(outer) ==
               capp::CollectorStateDigest(*direct),
           "queries through the decorators see the same state");
    Expect(Tracer::Global().Totals().count(Stage::kIngestInner) == 500,
           "every run passed through the inner decorator");
    durable->reset();
    std::filesystem::remove_all(dir);
  }
  Tracer::Global().Reset();
}

// A fake clock for the paced generator: advances 30 ns per read; waits
// jump straight to the due time plus 5 ns; run 3's send takes 250 ns.
int64_t g_fake_now = 0;
int64_t FakeClock() { return g_fake_now += 30; }

void TestPacedAccounting() {
  g_fake_now = 0;
  const PacedSchedule schedule(/*start_ns=*/1000, /*runs_per_sec=*/1e7);
  std::vector<int64_t> sent_at;
  std::vector<int64_t> due;
  const std::vector<int64_t> lateness = RunPacedGenerator(
      8, schedule, &FakeClock,
      [](int64_t due_ns) { g_fake_now = due_ns + 5 - 30; },
      [&](size_t i) {
        sent_at.push_back(g_fake_now);
        if (i == 3) g_fake_now += 250;
      },
      &due);
  bool ok = lateness.size() == 8 && due.size() == 8;
  for (size_t i = 0; ok && i < 8; ++i) {
    ok = due[i] == 1000 + 100 * static_cast<int64_t>(i) &&  // never shifts
         sent_at[i] >= due[i] &&                            // never early
         lateness[i] == sent_at[i] - due[i];
  }
  Expect(ok, "due times follow the schedule and lateness = send - due");
  Expect(lateness[0] == 5 && lateness[4] > 100,
         "a slow send makes later runs late instead of delaying the schedule");
  Expect(schedule.DueNs(40000) == 1000 + 4000000, "due time of run 40000");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(work_dir);
  perfbench::TestPercentiles();
  perfbench::TestSelfTime();
  perfbench::TestDecoratorPassThrough(work_dir);
  perfbench::TestPacedAccounting();
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n",
                 perfbench::g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  return 0;
}
