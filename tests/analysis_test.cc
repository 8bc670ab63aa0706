// Tests for the analysis module: metrics, empirical distributions,
// crowd-level statistics, and the shared evaluation protocol.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/factory.h"
#include "analysis/crowd.h"
#include "analysis/empirical.h"
#include "analysis/evaluation.h"
#include "analysis/metrics.h"
#include "core/math_utils.h"
#include "core/rng.h"
#include "data/datasets.h"
#include "multidim/multidim_perturber.h"

namespace capp {
namespace {

// ---------------------------------------------------------------- metrics --

TEST(MetricsTest, MseKnownAnswer) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 4.0, 0.0};
  EXPECT_NEAR(Mse(a, b), (0.0 + 4.0 + 9.0) / 3.0, 1e-12);
  EXPECT_NEAR(Rmse(a, b), std::sqrt(13.0 / 3.0), 1e-12);
  EXPECT_NEAR(Mae(a, b), (0.0 + 2.0 + 3.0) / 3.0, 1e-12);
}

TEST(MetricsTest, MseOfIdenticalIsZero) {
  const std::vector<double> a = {0.4, 0.5};
  EXPECT_DOUBLE_EQ(Mse(a, a), 0.0);
  EXPECT_DOUBLE_EQ(Mse({}, {}), 0.0);
}

TEST(MetricsTest, CosineOfParallelVectorsIsZeroDistance) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {2.0, 4.0, 6.0};
  EXPECT_NEAR(CosineDistance(a, b), 0.0, 1e-12);
}

TEST(MetricsTest, CosineOfOrthogonalVectorsIsOne) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  EXPECT_NEAR(CosineDistance(a, b), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-12);
}

TEST(MetricsTest, CosineOfOppositeVectorsIsTwo) {
  const std::vector<double> a = {1.0, 1.0};
  const std::vector<double> b = {-1.0, -1.0};
  EXPECT_NEAR(CosineDistance(a, b), 2.0, 1e-12);
}

TEST(MetricsTest, CosineZeroVectorGuard) {
  const std::vector<double> zero = {0.0, 0.0};
  const std::vector<double> b = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(zero, b), 0.0);
}

TEST(MetricsTest, CosineDistanceBoundedOnRandomData) {
  Rng rng(601);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<double> a, b;
    for (int i = 0; i < 20; ++i) {
      a.push_back(rng.Uniform(-1.0, 1.0));
      b.push_back(rng.Uniform(-1.0, 1.0));
    }
    const double d = CosineDistance(a, b);
    EXPECT_GE(d, 0.0 - 1e-12);
    EXPECT_LE(d, 2.0 + 1e-12);
  }
}

TEST(MetricsTest, JsdProperties) {
  const std::vector<double> p = {0.5, 0.5, 0.0};
  const std::vector<double> q = {0.0, 0.5, 0.5};
  EXPECT_NEAR(JensenShannonDivergence(p, p), 0.0, 1e-12);
  const double js = JensenShannonDivergence(p, q);
  EXPECT_GT(js, 0.0);
  EXPECT_LE(js, std::log(2.0) + 1e-12);
  // Symmetry.
  EXPECT_NEAR(js, JensenShannonDivergence(q, p), 1e-12);
}

TEST(MetricsTest, HistogramFromSamples) {
  const std::vector<double> samples = {0.05, 0.15, 0.15, 0.95, 2.0, -1.0};
  const auto hist = HistogramFromSamples(samples, 10, 0.0, 1.0);
  ASSERT_EQ(hist.size(), 10u);
  EXPECT_NEAR(hist[0], 2.0 / 6.0, 1e-12);  // 0.05 and clamped -1.0
  EXPECT_NEAR(hist[1], 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(hist[9], 2.0 / 6.0, 1e-12);  // 0.95 and clamped 2.0
  double total = 0.0;
  for (double h : hist) total += h;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// -------------------------------------------------------------- empirical --

TEST(EmpiricalCdfTest, BasicEvaluation) {
  auto cdf = EmpiricalCdf::Create(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(cdf.ok());
  EXPECT_DOUBLE_EQ((*cdf)(0.5), 0.0);
  EXPECT_DOUBLE_EQ((*cdf)(1.0), 0.25);
  EXPECT_DOUBLE_EQ((*cdf)(2.5), 0.5);
  EXPECT_DOUBLE_EQ((*cdf)(9.0), 1.0);
}

TEST(EmpiricalCdfTest, RejectsEmpty) {
  EXPECT_FALSE(EmpiricalCdf::Create({}).ok());
}

TEST(EmpiricalCdfTest, KsDistanceKnownAnswer) {
  auto f = EmpiricalCdf::Create(std::vector<double>{0.0, 1.0});
  auto g = EmpiricalCdf::Create(std::vector<double>{2.0, 3.0});
  ASSERT_TRUE(f.ok() && g.ok());
  EXPECT_DOUBLE_EQ(EmpiricalCdf::KsDistance(*f, *g), 1.0);
  EXPECT_DOUBLE_EQ(EmpiricalCdf::KsDistance(*f, *f), 0.0);
}

TEST(WassersteinTest, IdenticalSamplesGiveZero) {
  const std::vector<double> a = {0.1, 0.5, 0.9};
  EXPECT_NEAR(Wasserstein1(a, a), 0.0, 1e-12);
}

TEST(WassersteinTest, TranslationShiftsByDelta) {
  const std::vector<double> a = {0.0, 0.2, 0.4, 0.6};
  std::vector<double> b;
  for (double x : a) b.push_back(x + 0.3);
  EXPECT_NEAR(Wasserstein1(a, b), 0.3, 1e-12);
}

TEST(WassersteinTest, PointMassesDistance) {
  // W1(delta_0, delta_1) = 1.
  EXPECT_NEAR(Wasserstein1(std::vector<double>{0.0},
                           std::vector<double>{1.0}),
              1.0, 1e-12);
}

TEST(WassersteinTest, UnequalSampleSizes) {
  // {0,1} vs {0.5}: integral of |F-G| = 0.5.
  EXPECT_NEAR(Wasserstein1(std::vector<double>{0.0, 1.0},
                           std::vector<double>{0.5}),
              0.5, 1e-12);
}

TEST(WassersteinTest, CdfSumVariantScalesWithGrid) {
  const std::vector<double> a = {0.0, 0.2, 0.4, 0.6};
  std::vector<double> b;
  for (double x : a) b.push_back(x + 0.3);
  const double w_sum = WassersteinCdfSum(a, b, 100);
  EXPECT_GT(w_sum, 0.0);
  // Same ordering as the exact distance for nested comparisons.
  std::vector<double> c;
  for (double x : a) c.push_back(x + 0.6);
  EXPECT_GT(WassersteinCdfSum(a, c, 100), w_sum);
}

// Theorem 5 / DKW-style property: the empirical CDF of N samples converges
// to the truth at rate sqrt(ln(2/delta) / 2N).
TEST(EmpiricalCdfTest, DkwBoundHolds) {
  Rng rng(607);
  const double delta = 1e-4;
  for (int n : {200, 2000, 20000}) {
    std::vector<double> samples;
    samples.reserve(n);
    for (int i = 0; i < n; ++i) samples.push_back(rng.UniformDouble());
    auto cdf = EmpiricalCdf::Create(samples);
    ASSERT_TRUE(cdf.ok());
    double sup = 0.0;
    for (double x : LinSpace(0.0, 1.0, 200)) {
      sup = std::max(sup, std::fabs((*cdf)(x)-x));
    }
    const double bound = std::sqrt(std::log(2.0 / delta) / (2.0 * n));
    EXPECT_LE(sup, bound) << "n=" << n;
  }
}

// ------------------------------------------------------------------ crowd --

TEST(CrowdTest, EstimatesMeansForAllUsers) {
  const Dataset taxi = SimulatedTaxi(30, 60);
  auto collector = StreamCollector::Create();
  ASSERT_TRUE(collector.ok());
  Rng rng(613);
  auto factory = [] {
    return CreatePerturber(AlgorithmKind::kCapp, {2.0, 20});
  };
  auto crowd = EstimateCrowdMeans(taxi.users, 10, 20, factory, *collector,
                                  rng);
  ASSERT_TRUE(crowd.ok());
  EXPECT_EQ(crowd->true_means.size(), 30u);
  EXPECT_EQ(crowd->estimated_means.size(), 30u);
  for (double m : crowd->true_means) {
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
  }
}

TEST(CrowdTest, SkipsShortStreams) {
  std::vector<std::vector<double>> users = {
      std::vector<double>(5, 0.5),   // too short
      std::vector<double>(50, 0.5),  // long enough
  };
  auto collector = StreamCollector::Create();
  ASSERT_TRUE(collector.ok());
  Rng rng(617);
  auto factory = [] {
    return CreatePerturber(AlgorithmKind::kApp, {1.0, 10});
  };
  auto crowd = EstimateCrowdMeans(users, 0, 20, factory, *collector, rng);
  ASSERT_TRUE(crowd.ok());
  EXPECT_EQ(crowd->true_means.size(), 1u);
}

TEST(CrowdTest, FailsWhenNothingFits) {
  std::vector<std::vector<double>> users = {std::vector<double>(5, 0.5)};
  auto collector = StreamCollector::Create();
  ASSERT_TRUE(collector.ok());
  Rng rng(619);
  auto factory = [] {
    return CreatePerturber(AlgorithmKind::kApp, {1.0, 10});
  };
  EXPECT_FALSE(
      EstimateCrowdMeans(users, 0, 20, factory, *collector, rng).ok());
}

// Regression: an empty population, a begin+len that wraps size_t (which
// used to make every length comparison lie), and NaN gaps inside the
// requested subsequence must all be Status errors, not UB or silently
// poisoned estimates.
TEST(CrowdTest, RejectsDegenerateInputs) {
  auto collector = StreamCollector::Create();
  ASSERT_TRUE(collector.ok());
  Rng rng(621);
  auto factory = [] {
    return CreatePerturber(AlgorithmKind::kApp, {1.0, 10});
  };
  EXPECT_FALSE(EstimateCrowdMeans({}, 0, 10, factory, *collector, rng)
                   .ok());

  std::vector<std::vector<double>> users = {std::vector<double>(50, 0.5)};
  const size_t huge = std::numeric_limits<size_t>::max();
  auto wrapped =
      EstimateCrowdMeans(users, huge, 2, factory, *collector, rng);
  EXPECT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), StatusCode::kInvalidArgument);

  users[0][5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      EstimateCrowdMeans(users, 0, 20, factory, *collector, rng).ok());
  // The gap outside the subsequence does not matter.
  EXPECT_TRUE(
      EstimateCrowdMeans(users, 10, 20, factory, *collector, rng).ok());
}

// ------------------------------------------------------------- evaluation --

TEST(EvaluationTest, ValidatesOptions) {
  const Dataset ds = SyntheticSinusoidal(200);
  auto factory = [] {
    return CreatePerturber(AlgorithmKind::kApp, {1.0, 10});
  };
  EvalOptions bad;
  bad.query_length = 0;
  EXPECT_FALSE(EvaluateStreamUtility(ds.stream(), factory, bad).ok());
  bad = EvalOptions{};
  bad.smoothing_window = 2;
  EXPECT_FALSE(EvaluateStreamUtility(ds.stream(), factory, bad).ok());
  bad = EvalOptions{};
  bad.query_length = 1000;  // longer than the stream
  EXPECT_FALSE(EvaluateStreamUtility(ds.stream(), factory, bad).ok());
}

TEST(EvaluationTest, ReportAggregatesRuns) {
  const Dataset ds = SyntheticSinusoidal(300);
  auto factory = [] {
    return CreatePerturber(AlgorithmKind::kCapp, {1.0, 10});
  };
  EvalOptions opts;
  opts.query_length = 10;
  opts.num_subsequences = 5;
  opts.trials = 4;
  auto report = EvaluateStreamUtility(ds.stream(), factory, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->runs, 20);
  EXPECT_GT(report->mean_mse, 0.0);
  EXPECT_GT(report->cosine_distance, 0.0);
  EXPECT_GT(report->pointwise_mse, 0.0);
}

TEST(EvaluationTest, DeterministicUnderFixedSeed) {
  const Dataset ds = SyntheticSinusoidal(300);
  auto factory = [] {
    return CreatePerturber(AlgorithmKind::kApp, {1.0, 10});
  };
  EvalOptions opts;
  opts.query_length = 10;
  opts.num_subsequences = 3;
  opts.trials = 2;
  opts.seed = 99;
  auto a = EvaluateStreamUtility(ds.stream(), factory, opts);
  auto b = EvaluateStreamUtility(ds.stream(), factory, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->mean_mse, b->mean_mse);
  EXPECT_DOUBLE_EQ(a->cosine_distance, b->cosine_distance);
}

TEST(EvaluationTest, DatasetVariantSamplesUsers) {
  const Dataset power = SimulatedPower(20, 96);
  auto factory = [] {
    return CreatePerturber(AlgorithmKind::kApp, {1.0, 10});
  };
  EvalOptions opts;
  opts.query_length = 10;
  opts.num_subsequences = 4;
  opts.trials = 3;
  auto report = EvaluateDatasetUtility(power.users, factory, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->runs, 12);
}

TEST(EvaluationTest, MultiDimVariant) {
  const auto dims = MultiDimSinusoid(3, 120);
  auto factory = [] {
    return MultidimPerturber::Create(3, MultidimStrategy::kSampleSplit,
                                     {1.0, 10}, AlgorithmKind::kApp);
  };
  EvalOptions opts;
  opts.query_length = 20;
  opts.num_subsequences = 3;
  opts.trials = 2;
  auto report = EvaluateMultiDimUtility(dims, factory, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->runs, 6);
  EXPECT_GT(report->cosine_distance, 0.0);
}

}  // namespace
}  // namespace capp
