// Tests for the streaming collector-side analytics tier: the histogram
// geometry contract, the oracle equivalence of StreamingAnalyzer against
// the matrix-based PopulationEstimator on identical reports (CAPP, IPP,
// APP at 10k users), crowd/trend cross-checks, and the edge behavior of
// the histogram tier (empty windows, all-NaN runs, single users,
// saturation-bound and out-of-range values landing in overflow bins).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/reconstruction.h"
#include "analysis/streaming_analytics.h"
#include "analysis/trend.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "mechanisms/square_wave.h"
#include "stream/gap_fill.h"
#include "stream/session.h"

namespace capp {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The pinned oracle tolerance: the streaming path feeds the EM estimator
// the same integer counts the pooled-report path accumulates, so the
// reconstruction should agree to the last bit; 1e-12 guards against a
// future compiler reassociating one of the two count summations.
constexpr double kDistributionTolerance = 1e-12;
// Crowd/trend means differ only by the fixed-point quantization of
// SlotAggregate (< 2^-80 per report).
constexpr double kMeanTolerance = 1e-9;

EngineConfig AnalyticsFleetConfig(AlgorithmKind algorithm) {
  EngineConfig config;
  config.algorithm = algorithm;
  config.epsilon = 1.0;
  config.window = 10;
  config.num_users = 10000;
  config.num_slots = 24;
  config.signal = SignalKind::kSinusoid;
  config.seed = 77;
  config.keep_streams = false;  // aggregate-only: the scaling mode
  config.analytics.enabled = true;
  return config;
}

StreamingAnalyzerOptions AnalyzerOptionsFor(const EngineConfig& config) {
  StreamingAnalyzerOptions options;
  options.epsilon_per_slot = config.epsilon / config.window;
  options.histogram_buckets = config.analytics.histogram_buckets;
  options.window = static_cast<size_t>(config.window);
  return options;
}

// Re-derives the exact per-slot report matrix the fleet's devices
// produced: reports[t][u] in user order. The per-user streams are pure
// functions of (config, user id), which is what makes this oracle
// possible without the collector ever storing a raw value.
std::vector<std::vector<double>> MaterializeReportMatrix(
    const EngineConfig& config) {
  std::vector<std::vector<double>> reports(config.num_slots);
  auto session = UserSession::Create(0, config.algorithm,
                                     {config.epsilon, config.window},
                                     /*seed=*/0);
  CAPP_CHECK(session.ok());
  std::vector<double> truth;
  std::vector<double> out(config.num_slots);
  for (uint64_t uid = 0; uid < config.num_users; ++uid) {
    Rng signal_rng(UserStreamSeed(config.seed, uid, 0));
    GenerateUserSignalInto(config.signal, config.num_slots, signal_rng,
                           truth);
    session->ResetForUser(uid, UserStreamSeed(config.seed, uid, 1));
    session->ReportChunk(truth, out);
    for (size_t t = 0; t < config.num_slots; ++t) {
      reports[t].push_back(out[t]);
    }
  }
  return reports;
}

// ----------------------------------------------------- histogram geometry --

TEST(CollectorHistogramOptionsTest, MatchesSwOutputRange) {
  auto options = StreamingAnalyzer::CollectorHistogramOptions(0.5, 32);
  ASSERT_TRUE(options.ok());
  auto sw = SquareWave::CreateCached(0.5);
  ASSERT_TRUE(sw.ok());
  EXPECT_TRUE(options->enabled);
  EXPECT_EQ(options->num_bins, 64);
  // Bit-equal to the EM estimator's output range: the binning
  // equivalence depends on it.
  EXPECT_EQ(options->lo, sw->output_lo());
  EXPECT_EQ(options->hi, sw->output_hi());

  EXPECT_FALSE(StreamingAnalyzer::CollectorHistogramOptions(0.5, 1).ok());
  EXPECT_FALSE(StreamingAnalyzer::CollectorHistogramOptions(0.0, 32).ok());
}

TEST(SlotHistogramOptionsTest, BinForMatchesEmBucketization) {
  // The collector's per-report binning and the EM estimator's own output
  // bucketization must agree on every in-range value -- this is the
  // property that makes streaming reconstruction equal the pooled
  // oracle.
  auto sw = SquareWave::CreateCached(0.7);
  ASSERT_TRUE(sw.ok());
  SwEmOptions em_options;
  em_options.input_buckets = 16;
  em_options.output_buckets = 32;
  auto estimator = SwDistributionEstimator::Create(*sw, em_options);
  ASSERT_TRUE(estimator.ok());
  auto hist = StreamingAnalyzer::CollectorHistogramOptions(0.7, 16);
  ASSERT_TRUE(hist.ok());

  Rng rng(4242);
  std::vector<double> counts(32, 0.0);
  for (int trial = 0; trial < 5000; ++trial) {
    const double y = rng.Uniform(hist->lo, hist->hi);
    std::fill(counts.begin(), counts.end(), 0.0);
    const double one[] = {y};
    estimator->AccumulateOutputCounts(one, counts);
    size_t em_bin = 0;
    while (em_bin < counts.size() && counts[em_bin] == 0.0) ++em_bin;
    ASSERT_LT(em_bin, counts.size());
    EXPECT_EQ(hist->BinFor(y), em_bin + 1) << "y=" << y;  // +1: underflow
  }
  // Range edges land in the edge bins, not the outlier bins.
  EXPECT_EQ(hist->BinFor(hist->lo), 1u);
  EXPECT_EQ(hist->BinFor(hist->hi), 32u);
  // Outliers land outside the regular bins.
  EXPECT_EQ(hist->BinFor(std::nextafter(hist->lo, -1e9)), 0u);
  EXPECT_EQ(hist->BinFor(std::nextafter(hist->hi, 1e9)), 33u);
  EXPECT_EQ(hist->BinFor(-1e300), 0u);
  EXPECT_EQ(hist->BinFor(1e300), 33u);
}

TEST(SwEmTest, EstimateFromCountsEqualsEstimate) {
  auto sw = SquareWave::CreateCached(1.2);
  ASSERT_TRUE(sw.ok());
  auto estimator = SwDistributionEstimator::Create(*sw);
  ASSERT_TRUE(estimator.ok());
  Rng rng(11);
  std::vector<double> outputs;
  for (int i = 0; i < 2000; ++i) {
    outputs.push_back(sw->Perturb(rng.UniformDouble(), rng));
  }
  std::vector<double> counts(estimator->output_buckets(), 0.0);
  estimator->AccumulateOutputCounts(outputs, counts);
  const auto direct = estimator->Estimate(outputs);
  const auto from_counts = estimator->EstimateFromCounts(counts);
  ASSERT_EQ(direct.size(), from_counts.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(direct[i], from_counts[i]) << i;
  }
  // Zero counts reconstruct the uniform prior, like empty outputs.
  std::fill(counts.begin(), counts.end(), 0.0);
  const auto uniform = estimator->EstimateFromCounts(counts);
  for (double p : uniform) {
    EXPECT_DOUBLE_EQ(p, 1.0 / estimator->input_buckets());
  }
}

// ------------------------------------------------------ oracle equivalence --

TEST(StreamingAnalyzerOracleTest, MatchesPopulationEstimatorAt10kUsers) {
  for (AlgorithmKind algorithm :
       {AlgorithmKind::kCapp, AlgorithmKind::kIpp, AlgorithmKind::kApp}) {
    SCOPED_TRACE(AlgorithmKindName(algorithm));
    const EngineConfig config = AnalyticsFleetConfig(algorithm);
    auto fleet = Fleet::Create(config);
    ASSERT_TRUE(fleet.ok());
    auto stats = fleet->Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    auto analyzer = StreamingAnalyzer::Create(AnalyzerOptionsFor(config));
    ASSERT_TRUE(analyzer.ok());
    auto analysis = analyzer->AnalyzeCollector(fleet->collector());
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    ASSERT_EQ(analysis->windows.size(),
              config.num_slots / static_cast<size_t>(config.window));
    EXPECT_EQ(analysis->total_reports,
              config.num_users * config.num_slots);

    // The matrix-based oracle on the identical reports.
    const std::vector<std::vector<double>> reports =
        MaterializeReportMatrix(config);
    PopulationEstimatorOptions oracle_options;
    oracle_options.epsilon_per_slot = config.epsilon / config.window;
    oracle_options.histogram_buckets = config.analytics.histogram_buckets;
    auto oracle = PopulationEstimator::Create(oracle_options);
    ASSERT_TRUE(oracle.ok());

    for (const WindowAnalytics& window : analysis->windows) {
      SCOPED_TRACE(window.begin);
      EXPECT_EQ(window.reports,
                config.num_users * static_cast<uint64_t>(window.length));
      auto expected = oracle->EstimateWindowDistribution(
          reports, window.begin, window.length);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(window.distribution.size(), expected->size());
      for (size_t b = 0; b < expected->size(); ++b) {
        EXPECT_NEAR(window.distribution[b], (*expected)[b],
                    kDistributionTolerance)
            << "bucket " << b;
      }

      // Crowd mean: the pooled mean of every report in the window.
      double pooled = 0.0;
      size_t count = 0;
      for (size_t t = window.begin; t < window.begin + window.length;
           ++t) {
        for (double y : reports[t]) pooled += y;
        count += reports[t].size();
      }
      EXPECT_NEAR(window.crowd_mean, pooled / count, kMeanTolerance);
    }

    // Per-slot means and the trend segmentation built on them.
    const auto slot_means = oracle->EstimateSlotMeans(reports);
    ASSERT_EQ(analysis->slot_means.size(), slot_means.size());
    for (size_t t = 0; t < slot_means.size(); ++t) {
      EXPECT_NEAR(analysis->slot_means[t], slot_means[t], kMeanTolerance)
          << "slot " << t;
    }
    auto expected_trends =
        ExtractTrends(slot_means, analyzer->options().trend);
    ASSERT_TRUE(expected_trends.ok());
    ASSERT_EQ(analysis->trends.size(), expected_trends->size());
    for (size_t s = 0; s < expected_trends->size(); ++s) {
      EXPECT_EQ(analysis->trends[s].begin, (*expected_trends)[s].begin);
      EXPECT_EQ(analysis->trends[s].end, (*expected_trends)[s].end);
      EXPECT_EQ(analysis->trends[s].direction,
                (*expected_trends)[s].direction);
    }
  }
}

// ---------------------------------------------------- analyzer validation --

ShardedCollector MakeAnalyticsCollector(
    const SlotHistogramOptions& histogram, bool keep_streams = false) {
  ShardedCollectorOptions options;
  options.keep_streams = keep_streams;
  options.histogram = histogram;
  auto collector = ShardedCollector::Create(options);
  CAPP_CHECK(collector.ok());
  return std::move(*collector);
}

TEST(StreamingAnalyzerTest, CreateValidatesOptions) {
  StreamingAnalyzerOptions options;
  options.window = 0;
  EXPECT_FALSE(StreamingAnalyzer::Create(options).ok());
  options = {};
  options.histogram_buckets = 1;
  EXPECT_FALSE(StreamingAnalyzer::Create(options).ok());
  options = {};
  options.epsilon_per_slot = -1.0;
  EXPECT_FALSE(StreamingAnalyzer::Create(options).ok());
  options = {};
  options.trend.min_run = 0;
  EXPECT_FALSE(StreamingAnalyzer::Create(options).ok());
  EXPECT_TRUE(StreamingAnalyzer::Create({}).ok());
}

TEST(StreamingAnalyzerTest, RequiresMatchingHistogramTier) {
  auto analyzer = StreamingAnalyzer::Create({});
  ASSERT_TRUE(analyzer.ok());

  // No histogram tier at all.
  auto plain = ShardedCollector::Create({.keep_streams = false});
  ASSERT_TRUE(plain.ok());
  auto no_tier = analyzer->AnalyzeCollector(*plain);
  EXPECT_FALSE(no_tier.ok());
  EXPECT_EQ(no_tier.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(plain->PopulationSlotHistograms().ok());
  EXPECT_EQ(plain->histogram_outlier_count(), 0u);

  // A tier binned for a different budget: silently wrong EM inputs, so
  // it must be rejected.
  auto other = StreamingAnalyzer::CollectorHistogramOptions(0.5, 32);
  ASSERT_TRUE(other.ok());
  ShardedCollector mismatched = MakeAnalyticsCollector(*other);
  auto wrong = analyzer->AnalyzeCollector(mismatched);
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingAnalyzerTest, WindowValidation) {
  auto analyzer = StreamingAnalyzer::Create({});
  ASSERT_TRUE(analyzer.ok());
  ShardedCollector collector =
      MakeAnalyticsCollector(analyzer->collector_histogram());
  collector.IngestUserRun(1, 0, std::vector<double>{0.5, 0.5, 0.5});
  auto histograms = collector.PopulationSlotHistograms();
  ASSERT_TRUE(histograms.ok());
  const auto aggregates = collector.PopulationSlotAggregates();

  EXPECT_FALSE(
      analyzer->AnalyzeWindow(*histograms, aggregates, 0, 0).ok());
  EXPECT_FALSE(  // past the snapshot
      analyzer->AnalyzeWindow(*histograms, aggregates, 1, 3).ok());
  EXPECT_FALSE(  // overflowing window must not wrap
      analyzer
          ->AnalyzeWindow(*histograms, aggregates,
                          std::numeric_limits<size_t>::max(), 2)
          .ok());
  auto ok_window = analyzer->AnalyzeWindow(*histograms, aggregates, 0, 3);
  ASSERT_TRUE(ok_window.ok()) << ok_window.status().ToString();
  EXPECT_EQ(ok_window->reports, 3u);
  EXPECT_NEAR(ok_window->crowd_mean, 0.5, 1e-9);

  // Mis-sized histogram rows are a caller bug, not UB.
  std::vector<std::vector<uint64_t>> short_rows(3,
                                               std::vector<uint64_t>(4, 0));
  EXPECT_FALSE(
      analyzer->AnalyzeWindow(short_rows, aggregates, 0, 3).ok());
  // Histograms and aggregates from different states disagree loudly.
  std::vector<SlotAggregate> stale(3);
  EXPECT_FALSE(analyzer->AnalyzeWindow(*histograms, stale, 0, 3).ok());
}

TEST(StreamingAnalyzerTest, EmptyWindowIsAnError) {
  auto analyzer = StreamingAnalyzer::Create({});
  ASSERT_TRUE(analyzer.ok());
  ShardedCollector collector =
      MakeAnalyticsCollector(analyzer->collector_histogram());
  // Reports only in slots [4, 6): the leading window is empty.
  collector.IngestUserRun(9, 4, std::vector<double>{0.25, 0.75});
  auto histograms = collector.PopulationSlotHistograms();
  ASSERT_TRUE(histograms.ok());
  const auto aggregates = collector.PopulationSlotAggregates();
  const auto empty =
      analyzer->AnalyzeWindow(*histograms, aggregates, 0, 4);
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingAnalyzerTest, SkipsEmptyWindowsInCollectorSweep) {
  StreamingAnalyzerOptions options;
  options.window = 2;
  auto analyzer = StreamingAnalyzer::Create(options);
  ASSERT_TRUE(analyzer.ok());
  ShardedCollector collector =
      MakeAnalyticsCollector(analyzer->collector_histogram());
  collector.IngestUserRun(9, 4, std::vector<double>{0.25, 0.75});
  auto analysis = analyzer->AnalyzeCollector(collector);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  // Windows [0,2) and [2,4) hold no reports and are skipped; [4,6) is
  // analyzed. The empty slots gap-fill to the prior for the trend series.
  ASSERT_EQ(analysis->windows.size(), 1u);
  EXPECT_EQ(analysis->windows[0].begin, 4u);
  EXPECT_EQ(analysis->windows[0].reports, 2u);
  ASSERT_EQ(analysis->slot_means.size(), 6u);
  EXPECT_DOUBLE_EQ(analysis->slot_means[0], kGapFillPrior);
  EXPECT_NEAR(analysis->slot_means[4], 0.25, 1e-9);
}

// ----------------------------------------------------- histogram edge cases --

TEST(SlotHistogramTest, AllNaNRunRegistersNothing) {
  auto geometry = StreamingAnalyzer::CollectorHistogramOptions(0.1, 32);
  ASSERT_TRUE(geometry.ok());
  for (bool keep_streams : {false, true}) {
    SCOPED_TRACE(keep_streams);
    ShardedCollector collector =
        MakeAnalyticsCollector(*geometry, keep_streams);
    collector.IngestUserRun(
        7, 0,
        std::vector<double>{kNaN, kNaN,
                            std::numeric_limits<double>::infinity()});
    collector.IngestUserRun(8, 0, {});
    EXPECT_EQ(collector.user_count(), 0u);
    EXPECT_EQ(collector.report_count(), 0u);
    auto histograms = collector.PopulationSlotHistograms();
    ASSERT_TRUE(histograms.ok());
    EXPECT_TRUE(histograms->empty());
    EXPECT_EQ(collector.histogram_outlier_count(), 0u);

    // A run with interior NaNs registers only the finite values.
    collector.IngestUserRun(9, 0, std::vector<double>{0.5, kNaN, 0.25});
    EXPECT_EQ(collector.report_count(), 2u);
    histograms = collector.PopulationSlotHistograms();
    ASSERT_TRUE(histograms.ok());
    ASSERT_EQ(histograms->size(), 3u);
    uint64_t total = 0;
    for (const auto& row : *histograms) {
      for (uint64_t c : row) total += c;
    }
    EXPECT_EQ(total, 2u);  // nothing dropped, nothing phantom
  }
}

TEST(SlotHistogramTest, SingleUserPopulationAnalyzes) {
  StreamingAnalyzerOptions options;
  options.epsilon_per_slot = 0.5;
  options.window = 4;
  auto analyzer = StreamingAnalyzer::Create(options);
  ASSERT_TRUE(analyzer.ok());
  ShardedCollector collector =
      MakeAnalyticsCollector(analyzer->collector_histogram());
  collector.IngestUserRun(1, 0, std::vector<double>{0.2, 0.4, 0.6, 0.8});
  auto analysis = analyzer->AnalyzeCollector(collector);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  ASSERT_EQ(analysis->windows.size(), 1u);
  EXPECT_EQ(analysis->windows[0].reports, 4u);
  EXPECT_NEAR(analysis->windows[0].crowd_mean, 0.5, 1e-9);
  double mass = 0.0;
  for (double p : analysis->windows[0].distribution) mass += p;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(SlotHistogramTest, OutOfRangeValuesLandInOverflowBins) {
  // Values outside the configured range -- including ones at and beyond
  // the SlotAggregate saturation bound -- must register in the
  // under/overflow bins and be surfaced, never silently dropped.
  auto geometry = StreamingAnalyzer::CollectorHistogramOptions(0.1, 32);
  ASSERT_TRUE(geometry.ok());
  ShardedCollector collector = MakeAnalyticsCollector(*geometry);
  const size_t row_size = geometry->row_size();
  collector.IngestUserRun(
      1, 0,
      std::vector<double>{0.5, 2.5, -3.0, 65536.0, 65537.0, -1.0e300});
  EXPECT_EQ(collector.report_count(), 6u);
  // 65537 and -1e300 saturated the fixed-point aggregates too.
  EXPECT_EQ(collector.saturated_report_count(), 2u);
  auto histograms = collector.PopulationSlotHistograms();
  ASSERT_TRUE(histograms.ok());
  ASSERT_EQ(histograms->size(), 6u);
  EXPECT_EQ((*histograms)[1][row_size - 1], 1u);  // 2.5: overflow
  EXPECT_EQ((*histograms)[2][0], 1u);             // -3.0: underflow
  EXPECT_EQ((*histograms)[3][row_size - 1], 1u);  // at the bound
  EXPECT_EQ((*histograms)[4][row_size - 1], 1u);  // beyond it
  EXPECT_EQ((*histograms)[5][0], 1u);
  EXPECT_EQ(collector.histogram_outlier_count(), 5u);
  uint64_t total = 0;
  for (const auto& row : *histograms) {
    for (uint64_t c : row) total += c;
  }
  EXPECT_EQ(total, 6u);  // every report counted exactly once

  // The analyzer clamps outliers into the edge EM buckets (the pooled
  // oracle's behavior) and reports them.
  StreamingAnalyzerOptions options;
  options.epsilon_per_slot = 0.1;
  options.window = 6;
  auto analyzer = StreamingAnalyzer::Create(options);
  ASSERT_TRUE(analyzer.ok());
  auto analysis = analyzer->AnalyzeCollector(collector);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_EQ(analysis->total_outliers, 5u);
  ASSERT_EQ(analysis->windows.size(), 1u);
  EXPECT_EQ(analysis->windows[0].outliers, 5u);
  EXPECT_EQ(analysis->windows[0].reports, 6u);
}

TEST(SlotHistogramTest, OverwriteMovesTheBinUnderKeepStreams) {
  auto geometry = StreamingAnalyzer::CollectorHistogramOptions(1.0, 32);
  ASSERT_TRUE(geometry.ok());
  ShardedCollector collector =
      MakeAnalyticsCollector(*geometry, /*keep_streams=*/true);
  for (double value : {0.1, 0.9, 5.0, 0.9}) {
    // Overwrites: last write wins, into the overflow bin and back.
    collector.IngestUserRun(1, 0, {&value, 1});
  }
  EXPECT_EQ(collector.report_count(), 1u);
  auto histograms = collector.PopulationSlotHistograms();
  ASSERT_TRUE(histograms.ok());
  uint64_t total = 0;
  for (uint64_t c : (*histograms)[0]) total += c;
  EXPECT_EQ(total, 1u);
  EXPECT_EQ((*histograms)[0][geometry->BinFor(0.9)], 1u);
  EXPECT_EQ(collector.histogram_outlier_count(), 0u);
}

TEST(SlotHistogramTest, RejectsBadGeometry) {
  ShardedCollectorOptions options;
  options.histogram.enabled = true;
  options.histogram.num_bins = 1;
  EXPECT_FALSE(ShardedCollector::Create(options).ok());
  options.histogram.num_bins = 8;
  options.histogram.lo = 1.0;
  options.histogram.hi = 0.0;
  EXPECT_FALSE(ShardedCollector::Create(options).ok());
  options.histogram.lo = 0.0;
  options.histogram.hi = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ShardedCollector::Create(options).ok());
}

}  // namespace
}  // namespace capp
