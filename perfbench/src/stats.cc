#include "stats.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

constexpr double kLadder[] = {0.9, 0.99, 0.999, 0.9999, 0.99999};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

size_t SamplesBeyond(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return QuantileSorted(samples, q);
}

double HighestSupportedQuantile(size_t n, size_t min_beyond) {
  double best = 0.5;
  for (double q : kLadder) {
    if (SamplesBeyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

TailSummary SummarizeTail(std::vector<double> samples) {
  TailSummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.median = QuantileSorted(samples, 0.5);
  summary.top_quantile = HighestSupportedQuantile(samples.size());
  summary.top_value = QuantileSorted(samples, summary.top_quantile);
  return summary;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string QuantileLabel(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%.10g", q * 100.0);
  return buf;
}

int64_t ProcessCpuNs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

bool ResetPeakRss() {
  // Return freed heap pages first, so the mark starts from live memory
  // rather than from whatever earlier phases left cached in malloc arenas.
  ::malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string RenderResultJson(bool correct, uint64_t attempted,
                             uint64_t failed,
                             const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
