#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "stats.h"
#include "telemetry/metrics.h"

namespace perfbench {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kSynth: return "synth";
    case Stage::kPerturb: return "perturb";
    case Stage::kMultidim: return "multidim";
    case Stage::kPublish: return "publish";
    case Stage::kSmooth: return "smooth";
    case Stage::kDigest: return "digest";
    case Stage::kEncode: return "encode";
    case Stage::kDecode: return "decode";
    case Stage::kIngest: return "ingest";
    case Stage::kIngestInner: return "ingest_inner";
    case Stage::kCount: break;
  }
  return "root";
}

int64_t StageTotals::SelfSum() const {
  int64_t sum = 0;
  for (int64_t v : self_ns) sum += v;
  return sum;
}

namespace {

int64_t TscTicks() {
  return static_cast<int64_t>(capp::telemetry::NowTicks());
}

}  // namespace

Tracer::Tracer() { SetClock(nullptr); }

void Tracer::SetClock(ClockFn clock) {
  if (clock != nullptr) {
    clock_ = clock;
    ns_per_tick_ = 1.0;
    return;
  }
  // Half the cost of a steady_clock read on virtualized hosts, which
  // keeps span overhead out of the stage sums.
  clock_ = &TscTicks;
  const capp::telemetry::ClockInfo& info = capp::telemetry::Clock();
  ns_per_tick_ = info.rdtsc ? info.ns_per_tick : 1.0;
}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(uint64_t sample_every) {
  sample_every_ = sample_every;
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& state : threads_) {
    state->totals = StageTotals{};
    state->spans.clear();
  }
}

StageTotals Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  StageTotals sum;
  for (const auto& state : threads_) {
    for (size_t s = 0; s < kStageCount; ++s) {
      sum.self_ns[s] += state->totals.self_ns[s];
      sum.total_ns[s] += state->totals.total_ns[s];
      sum.calls[s] += state->totals.calls[s];
    }
  }
  for (size_t s = 0; s < kStageCount; ++s) {
    sum.self_ns[s] = static_cast<int64_t>(
        static_cast<double>(sum.self_ns[s]) * ns_per_tick_);
    sum.total_ns[s] = static_cast<int64_t>(
        static_cast<double>(sum.total_ns[s]) * ns_per_tick_);
  }
  return sum;
}

std::vector<SpanRecord> Tracer::KeptSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> spans;
  for (const auto& state : threads_) {
    spans.insert(spans.end(), state->spans.begin(), state->spans.end());
  }
  for (SpanRecord& span : spans) {
    span.start_ns = static_cast<int64_t>(static_cast<double>(span.start_ns) *
                                         ns_per_tick_);
    span.end_ns = static_cast<int64_t>(static_cast<double>(span.end_ns) *
                                       ns_per_tick_);
  }
  return spans;
}

Tracer::ThreadState& Tracer::Local() {
  // The registry owns every thread's state, so sums outlive the (hub or
  // server) threads that wrote them and are read after those join.
  thread_local ThreadState* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadState>());
    local = threads_.back().get();
    local->index = static_cast<uint32_t>(threads_.size() - 1);
  }
  return *local;
}

void Tracer::Close(ThreadState& state) {
  const int64_t end = Now();
  const Frame frame = state.stack[--state.depth];
  const int64_t duration = end - frame.start_ticks;
  const auto s = static_cast<size_t>(frame.stage);
  state.totals.self_ns[s] += duration - frame.child_ticks;
  state.totals.total_ns[s] += duration;
  ++state.totals.calls[s];
  Stage parent = Stage::kCount;
  if (state.depth > 0) {
    Frame& up = state.stack[state.depth - 1];
    up.child_ticks += duration;
    parent = up.stage;
  }
  if (sample_every_ != 0 && frame.id % sample_every_ == 0) {
    state.spans.push_back(
        {frame.stage, parent, frame.id, state.index, frame.start_ticks, end});
  }
}

SpanScope::SpanScope(Stage stage, uint64_t id) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  Tracer::ThreadState& state = tracer.Local();
  if (state.depth >= Tracer::kMaxDepth) {
    std::fprintf(stderr, "perfbench: span nesting deeper than %d\n",
                 Tracer::kMaxDepth);
    std::abort();
  }
  state_ = &state;
  Tracer::Frame& frame = state.stack[state.depth++];
  frame.stage = stage;
  frame.id = id;
  frame.child_ticks = 0;
  frame.start_ticks = tracer.Now();
}

SpanScope::~SpanScope() {
  if (state_ != nullptr) Tracer::Global().Close(*state_);
}

bool WriteSpans(const std::string& path,
                const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& span : spans) {
    std::fprintf(f,
                 "{\"stage\": \"%s\", \"parent\": \"%s\", \"id\": %llu, "
                 "\"thread\": %u, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 StageName(span.stage), StageName(span.parent),
                 static_cast<unsigned long long>(span.id), span.thread,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> RunPacedGenerator(
    size_t runs, const PacedSchedule& schedule, ClockFn clock,
    const std::function<void(int64_t due_ns)>& wait_until,
    const std::function<void(size_t i)>& send, std::vector<int64_t>* due_ns) {
  std::vector<int64_t> lateness(runs);
  due_ns->resize(runs);
  for (size_t i = 0; i < runs; ++i) {
    const int64_t due = schedule.DueNs(i);
    int64_t now = clock();
    if (now < due) {
      wait_until(due);
      now = clock();
    }
    (*due_ns)[i] = due;
    lateness[i] = now - due;
    send(i);
  }
  return lateness;
}

void WaitUntilWallNs(int64_t due_ns) {
  // Sleeping overshoots by the timer slack (~50-100 us), so only sleep
  // through gaps well beyond it and yield through the rest.
  constexpr int64_t kSleepMarginNs = 200000;
  for (int64_t now = WallNs(); now < due_ns; now = WallNs()) {
    if (due_ns - now > kSleepMarginNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - kSleepMarginNs / 2));
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace perfbench
