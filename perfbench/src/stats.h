// Sample statistics, process counters and result output for perfbench.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A latency distribution summarized by the benchmark's reporting rule:
/// the median plus the highest percentile of the ladder p90, p99, p99.9,
/// p99.99, p99.999 that still has at least ten samples beyond it.
struct TailSummary {
  size_t count = 0;
  double median = 0.0;
  /// Highest supported quantile (0.5 when even p90 lacks ten samples
  /// beyond it) and its value.
  double top_quantile = 0.5;
  double top_value = 0.0;
};

/// Samples strictly beyond the nearest-rank q-quantile of n samples:
/// n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// Nearest-rank quantile of an ascending-sorted sample (q in [0, 1]).
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Nearest-rank quantile of an unsorted sample (sorts a copy).
double Percentile(std::vector<double> samples, double q);

/// Highest quantile of the ladder with at least `min_beyond` samples
/// beyond it; 0.5 when none qualifies.
double HighestSupportedQuantile(size_t n, size_t min_beyond = 10);

/// Sorts a copy of `samples` and applies the reporting rule.
TailSummary SummarizeTail(std::vector<double> samples);

/// The conventional median (mean of the two middle values for an even
/// count); 0 for an empty sample.
double Median(std::vector<double> samples);

/// "p99", "p99.9", ... for a ladder quantile.
std::string QuantileLabel(double q);

/// Process CPU time (user + system, all threads) in nanoseconds.
int64_t ProcessCpuNs();

/// Trims free heap memory and resets the process's peak-RSS mark (Linux
/// clear_refs); false when the kernel refuses, in which case PeakRssMb
/// keeps the lifetime peak.
bool ResetPeakRss();

/// Peak resident set size of this process in MiB since the last
/// successful ResetPeakRss (VmHWM), else since start (ru_maxrss).
double PeakRssMb();

/// Monotonic wall clock in nanoseconds.
int64_t WallNs();

/// One named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Renders the contract's result line: {"correct": .., "attempted": ..,
/// "failed": .., "metrics": {name: {"value": .., "unit": ..}, ...}}.
std::string RenderResultJson(bool correct, uint64_t attempted,
                             uint64_t failed,
                             const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
