#include "analysis/streaming_analytics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "stream/gap_fill.h"
#include "telemetry/instruments.h"
#include "telemetry/metrics.h"

namespace capp {

Result<SlotHistogramOptions> StreamingAnalyzer::CollectorHistogramOptions(
    double epsilon_per_slot, int histogram_buckets) {
  if (histogram_buckets < 2) {
    return Status::InvalidArgument("histogram_buckets must be >= 2");
  }
  // The memoized params make -b and 1+b here bit-equal to the EM
  // estimator's output_lo/output_hi for the same budget -- the binning
  // equivalence depends on that.
  CAPP_ASSIGN_OR_RETURN(SwParams params, CachedSwParams(epsilon_per_slot));
  SlotHistogramOptions options;
  options.enabled = true;
  options.num_bins = 2 * histogram_buckets;
  options.lo = -params.b;
  options.hi = 1.0 + params.b;
  return options;
}

Result<StreamingAnalyzer> StreamingAnalyzer::Create(
    StreamingAnalyzerOptions options) {
  if (options.window < 1) {
    return Status::InvalidArgument("window must be >= 1");
  }
  if (options.trend.flat_threshold < 0.0) {
    return Status::InvalidArgument("trend.flat_threshold must be >= 0");
  }
  if (options.trend.min_run == 0) {
    return Status::InvalidArgument("trend.min_run must be >= 1");
  }
  CAPP_ASSIGN_OR_RETURN(
      SlotHistogramOptions collector_histogram,
      CollectorHistogramOptions(options.epsilon_per_slot,
                                options.histogram_buckets));
  CAPP_ASSIGN_OR_RETURN(SquareWave sw,
                        SquareWave::CreateCached(options.epsilon_per_slot));
  // Same discretization as the matrix-based PopulationEstimator: the two
  // paths share one transition matrix definition, so only the report
  // pooling differs -- and the histogram tier makes that exact too.
  SwEmOptions em_options;
  em_options.input_buckets = options.histogram_buckets;
  em_options.output_buckets = 2 * options.histogram_buckets;
  CAPP_ASSIGN_OR_RETURN(SwDistributionEstimator estimator,
                        SwDistributionEstimator::Create(sw, em_options));
  return StreamingAnalyzer(options, collector_histogram, std::move(sw),
                           std::move(estimator));
}

Result<WindowAnalytics> StreamingAnalyzer::AnalyzeWindow(
    std::span<const std::vector<uint64_t>> histograms,
    std::span<const SlotAggregate> aggregates, size_t begin,
    size_t len) const {
  if (len == 0) return Status::InvalidArgument("len must be >= 1");
  const size_t slots = std::min(histograms.size(), aggregates.size());
  if (begin + len < len || begin + len > slots) {
    return Status::OutOfRange("window exceeds the collector snapshot");
  }
  const size_t row_size = collector_histogram_.row_size();
  const int num_bins = collector_histogram_.num_bins;

  WindowAnalytics out;
  out.begin = begin;
  out.length = len;
  std::vector<double> counts(num_bins, 0.0);
  SlotAggregate pooled;
  for (size_t t = begin; t < begin + len; ++t) {
    const std::vector<uint64_t>& row = histograms[t];
    if (row.size() != row_size) {
      return Status::InvalidArgument(
          "histogram row size does not match the analyzer's bin layout");
    }
    // Under/overflow clamp into the edge bins for the EM input -- exactly
    // what the pooled-report estimator's range clamp does -- while still
    // being counted as outliers so a mis-ranged workload is visible.
    counts.front() += static_cast<double>(row.front());
    counts.back() += static_cast<double>(row.back());
    out.outliers += row.front() + row.back();
    for (int b = 0; b < num_bins; ++b) {
      counts[b] += static_cast<double>(row[b + 1]);
      out.reports += row[b + 1];
    }
    out.reports += row.front() + row.back();
    pooled.Merge(aggregates[t]);
  }
  if (out.reports != pooled.Count()) {
    return Status::InvalidArgument(
        "histograms and aggregates disagree on the window's report count "
        "(snapshots from different collectors or states?)");
  }
  if (out.reports == 0) {
    return Status::InvalidArgument("window contains no reports");
  }
  out.distribution = estimator_.EstimateFromCounts(counts);
  out.distribution_mean = estimator_.HistogramMean(out.distribution);
  const double mean = pooled.Mean();
  out.crowd_mean = options_.debias_mean ? sw_.UnbiasedEstimate(mean) : mean;
  return out;
}

Status StreamingAnalyzer::CheckCollectorGeometry(
    const ShardedCollector& collector) const {
  const SlotHistogramOptions& have = collector.options().histogram;
  if (!have.enabled) {
    return Status::FailedPrecondition(
        "collector has no histogram tier; set "
        "ShardedCollectorOptions::histogram (see "
        "StreamingAnalyzer::CollectorHistogramOptions)");
  }
  // Bit-compare the range: a collector binned at a different epsilon
  // would silently shift every count into the wrong EM bucket.
  if (have.num_bins != collector_histogram_.num_bins ||
      std::bit_cast<uint64_t>(have.lo) !=
          std::bit_cast<uint64_t>(collector_histogram_.lo) ||
      std::bit_cast<uint64_t>(have.hi) !=
          std::bit_cast<uint64_t>(collector_histogram_.hi)) {
    return Status::FailedPrecondition(
        "collector histogram geometry does not match the analyzer's "
        "budget/resolution");
  }
  return Status::OK();
}

Result<StreamAnalytics> StreamingAnalyzer::AnalyzeCollector(
    const ShardedCollector& collector) const {
  if (collector.dims() > 1) {
    return Status::FailedPrecondition(
        "collector cells interleave " + std::to_string(collector.dims()) +
        " attributes; analyze one at a time with AnalyzeCollectorDim");
  }
  return AnalyzeCollectorDim(collector, 0);
}

Result<StreamAnalytics> StreamingAnalyzer::AnalyzeCollectorDim(
    const ShardedCollector& collector, size_t dim) const {
  const size_t dims = collector.dims();
  if (dim >= dims) {
    return Status::InvalidArgument(
        "dim " + std::to_string(dim) + " out of range for a " +
        std::to_string(dims) + "-dimensional collector");
  }
  CAPP_RETURN_IF_ERROR(CheckCollectorGeometry(collector));
  CAPP_ASSIGN_OR_RETURN(const std::vector<std::vector<uint64_t>> histograms,
                        collector.PopulationSlotHistograms());
  const std::vector<SlotAggregate> aggregates =
      collector.PopulationSlotAggregates();
  // The snapshots are per cell (slot * dims + dim); gather this
  // attribute's slice so the core sees one scalar stream's slots.
  const size_t cells = std::min(histograms.size(), aggregates.size());
  const size_t slots = cells / dims;
  std::vector<std::vector<uint64_t>> dim_histograms;
  std::vector<SlotAggregate> dim_aggregates;
  dim_histograms.reserve(slots);
  dim_aggregates.reserve(slots);
  for (size_t t = 0; t < slots; ++t) {
    dim_histograms.push_back(histograms[t * dims + dim]);
    dim_aggregates.push_back(aggregates[t * dims + dim]);
  }
  return AnalyzeSnapshot(dim_histograms, dim_aggregates);
}

Result<StreamAnalytics> StreamingAnalyzer::AnalyzeSnapshot(
    std::span<const std::vector<uint64_t>> histograms,
    std::span<const SlotAggregate> aggregates) const {
  // The two snapshots are taken back to back without a common lock
  // (each is individually consistent per shard). A report ingested
  // between them surfaces as AnalyzeWindow's histogram-vs-aggregate
  // count mismatch; analyze after the session drains (the CLI surfaces
  // do). Slot growth between the snapshots only extends one of them, so
  // the common span is still analyzable.
  const size_t slots = std::min(histograms.size(), aggregates.size());

  StreamAnalytics out;
  std::vector<double> raw_means(slots,
                                std::numeric_limits<double>::quiet_NaN());
  for (size_t t = 0; t < slots; ++t) {
    out.total_reports += aggregates[t].Count();
    if (aggregates[t].Count() > 0) {
      const double mean = aggregates[t].Mean();
      raw_means[t] =
          options_.debias_mean ? sw_.UnbiasedEstimate(mean) : mean;
    }
  }
  for (const auto& row : histograms) {
    out.total_outliers += row.front() + row.back();
  }
  out.slot_means = FillGapsForward(raw_means);
  CAPP_ASSIGN_OR_RETURN(out.trends,
                        ExtractTrends(out.slot_means, options_.trend));

  const size_t stride =
      options_.stride == 0 ? options_.window : options_.stride;
  for (size_t begin = 0;
       options_.window <= slots && begin + options_.window <= slots;
       begin += stride) {
    uint64_t window_reports = 0;
    for (size_t t = begin; t < begin + options_.window; ++t) {
      window_reports += aggregates[t].Count();
    }
    if (window_reports == 0) continue;  // nothing to reconstruct
    telemetry::ScopedTimer window_timer;
    if (telemetry::Enabled()) {
      telemetry::metrics::AnalyticsWindowsTotal().Add(1);
      window_timer.Arm(&telemetry::metrics::AnalyticsWindowSeconds());
    }
    CAPP_ASSIGN_OR_RETURN(
        WindowAnalytics window,
        AnalyzeWindow(histograms, aggregates, begin, options_.window));
    out.windows.push_back(std::move(window));
  }
  return out;
}

}  // namespace capp
