// End-to-end integration tests: the paper's headline orderings reproduced
// at small scale with fixed seeds, plus full-pipeline privacy audits.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/ba_sw.h"
#include "algorithms/factory.h"
#include "algorithms/pp.h"
#include "algorithms/sampling.h"
#include "analysis/crowd.h"
#include "analysis/empirical.h"
#include "analysis/evaluation.h"
#include "analysis/metrics.h"
#include "core/math_utils.h"
#include "core/rng.h"
#include "data/datasets.h"
#include "stream/accountant.h"
#include "stream/collector.h"
#include "stream/smoothing.h"

namespace capp {
namespace {

PerturberFactory MakeFactory(AlgorithmKind kind, double eps, int w) {
  return [kind, eps, w] { return CreatePerturber(kind, {eps, w}); };
}

EvalOptions FastEval(int q, uint64_t seed) {
  EvalOptions opts;
  opts.query_length = q;
  opts.num_subsequences = 25;
  opts.trials = 10;
  opts.seed = seed;
  return opts;
}

// Fig. 4 ordering: for mean estimation the parameterized algorithms beat
// SW-direct. The gaps at per-slot budgets eps/w are modest (the paper's
// own Fig. 4 shows a few percent to ~20%), so the check uses many runs and
// a generous CAPP margin (its Eq.-11 delta slightly widens the clip range
// at these budgets).
TEST(IntegrationTest, MeanMseOrderingOnC6h6) {
  const Dataset c6h6 = SimulatedC6h6(4000);
  const double eps = 3.0;
  const int w = 10;
  EvalOptions opts = FastEval(w, 1001);
  opts.trials = 20;
  opts.num_subsequences = 40;
  auto eval = [&](AlgorithmKind kind) {
    auto report = EvaluateStreamUtility(c6h6.stream(),
                                        MakeFactory(kind, eps, w), opts);
    EXPECT_TRUE(report.ok());
    return report->mean_mse;
  };
  const double direct = eval(AlgorithmKind::kSwDirect);
  const double app = eval(AlgorithmKind::kApp);
  const double capp = eval(AlgorithmKind::kCapp);
  EXPECT_LT(app, direct);
  EXPECT_LT(capp, 1.15 * app);
}

// Fig. 11 direction: within the paper's recommended delta band
// [-0.25, 0.25], a tuned negative delta (narrower clip interval, less
// denormalized noise) makes CAPP clearly the best algorithm for mean
// estimation -- the clipping lever the paper's Section IV-B motivates.
TEST(IntegrationTest, TunedCappBeatsAppForMeanEstimation) {
  const Dataset c6h6 = SimulatedC6h6(4000);
  const double eps = 1.0;
  const int w = 10;
  EvalOptions opts = FastEval(w, 1002);
  opts.trials = 20;
  opts.num_subsequences = 40;
  auto capp_factory = [&]() -> Result<std::unique_ptr<StreamPerturber>> {
    CAPP_ASSIGN_OR_RETURN(
        auto p, PpPerturber::Create(PpKind::kCapp, {eps, w},
                                    MechanismKind::kSquareWave, -0.25));
    return std::unique_ptr<StreamPerturber>(std::move(p));
  };
  auto capp = EvaluateStreamUtility(c6h6.stream(), capp_factory, opts);
  auto app = EvaluateStreamUtility(c6h6.stream(),
                                   MakeFactory(AlgorithmKind::kApp, eps, w),
                                   opts);
  ASSERT_TRUE(capp.ok() && app.ok());
  EXPECT_LT(capp->mean_mse, app->mean_mse);
}

// Fig. 5 ordering: for stream publication (cosine distance), every PP
// algorithm beats SW-direct -- the PP publication step includes the SMA
// smoothing of Algorithm 2 while the baseline publishes raw reports, and
// the deviation feedback keeps the local level calibrated.
TEST(IntegrationTest, CosineOrderingOnSinusoidal) {
  const Dataset sine = SyntheticSinusoidal(2000);
  const double eps = 1.0;
  const int w = 30;
  auto eval = [&](AlgorithmKind kind) {
    auto report = EvaluateStreamUtility(
        sine.stream(), MakeFactory(kind, eps, w), FastEval(w, 1003));
    EXPECT_TRUE(report.ok());
    return report->cosine_distance;
  };
  const double direct = eval(AlgorithmKind::kSwDirect);
  EXPECT_LT(eval(AlgorithmKind::kIpp), direct);
  EXPECT_LT(eval(AlgorithmKind::kApp), direct);
  EXPECT_LT(eval(AlgorithmKind::kCapp), direct);
}

// Table I: ToPL's mean MSE is orders of magnitude above the SW family.
// The query spans three windows so ToPL's HM publication phase (the source
// of the blow-up) is actually exercised.
TEST(IntegrationTest, ToplFarWorseForMeanEstimation) {
  const Dataset c6h6 = SimulatedC6h6(2000);
  const double eps = 1.0;
  const int w = 20;
  auto direct = EvaluateStreamUtility(
      c6h6.stream(), MakeFactory(AlgorithmKind::kSwDirect, eps, w),
      FastEval(3 * w, 1005));
  auto topl = EvaluateStreamUtility(
      c6h6.stream(), MakeFactory(AlgorithmKind::kTopl, eps, w),
      FastEval(3 * w, 1005));
  ASSERT_TRUE(direct.ok() && topl.ok());
  EXPECT_GT(topl->mean_mse, 10.0 * direct->mean_mse);
}

// Fig. 6: under the paper's full-budget sampling reading with a moderate
// n_s, APP-S beats non-sampling APP for mean estimation by a wide margin
// (see DESIGN.md faithfulness note 3 for the budget-rule discussion).
TEST(IntegrationTest, SamplingImprovesMeanEstimation) {
  const Dataset volume = SimulatedVolume(4000);
  const double eps = 1.0;
  const int w = 30;
  const int q = 30;
  auto app_s_factory = [&]() -> Result<std::unique_ptr<StreamPerturber>> {
    SamplingOptions options{{eps, w}, q / 3};
    options.full_budget_per_upload = true;
    CAPP_ASSIGN_OR_RETURN(auto p,
                          PpSampler::Create(options, PpKind::kApp));
    return std::unique_ptr<StreamPerturber>(std::move(p));
  };
  auto app = EvaluateStreamUtility(volume.stream(),
                                   MakeFactory(AlgorithmKind::kApp, eps, w),
                                   FastEval(q, 1007));
  auto app_s =
      EvaluateStreamUtility(volume.stream(), app_s_factory, FastEval(q, 1007));
  ASSERT_TRUE(app.ok() && app_s.ok());
  EXPECT_LT(app_s->mean_mse, 0.7 * app->mean_mse);
}

// Lemma IV.1: smoothing reduces the published stream's pointwise error.
TEST(IntegrationTest, SmoothingReducesPointwiseMse) {
  const Dataset sine = SyntheticSinusoidal(2000);
  auto factory = MakeFactory(AlgorithmKind::kApp, 1.0, 20);
  EvalOptions smooth = FastEval(20, 1009);
  smooth.smoothing_window = 3;
  EvalOptions raw = FastEval(20, 1009);
  raw.smoothing_window = 1;
  auto with = EvaluateStreamUtility(sine.stream(), factory, smooth);
  auto without = EvaluateStreamUtility(sine.stream(), factory, raw);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_LT(with->pointwise_mse, without->pointwise_mse);
}

// Fig. 8 direction: crowd-level mean-distribution distance is smaller for
// CAPP than for SW-direct.
TEST(IntegrationTest, CrowdDistributionCloserUnderCapp) {
  const Dataset taxi = SimulatedTaxi(120, 80);
  auto collector = StreamCollector::Create();
  ASSERT_TRUE(collector.ok());
  auto run = [&](AlgorithmKind kind) {
    Rng rng(1011);
    auto crowd = EstimateCrowdMeans(taxi.users, 20, 30,
                                    MakeFactory(kind, 1.0, 30), *collector,
                                    rng);
    EXPECT_TRUE(crowd.ok());
    return Wasserstein1(crowd->estimated_means, crowd->true_means);
  };
  EXPECT_LT(run(AlgorithmKind::kCapp), run(AlgorithmKind::kSwDirect));
}

// Power + large eps: BA-SW with the population-coordinated decisions of
// LDP-IDS wins on the constant-heavy Power streams (the paper's
// Fig. 4(d)(h)(l) observation), while SW-direct does not benefit from the
// constancy at all.
TEST(IntegrationTest, BaSwWinsOnPowerAtLargeEpsilon) {
  const Dataset power = SimulatedPower(60, 96);
  const double eps = 3.0;
  const int w = 10;
  auto ba_factory = [&]() -> Result<std::unique_ptr<StreamPerturber>> {
    BaSwOptions options{{eps, w}, 0.5,
                        BaSwDecisionMode::kPopulationCoordinated};
    CAPP_ASSIGN_OR_RETURN(auto p, BaSw::Create(options));
    return std::unique_ptr<StreamPerturber>(std::move(p));
  };
  auto ba = EvaluateDatasetUtility(power.users, ba_factory,
                                   FastEval(w, 1013));
  auto direct = EvaluateDatasetUtility(
      power.users, MakeFactory(AlgorithmKind::kSwDirect, eps, w),
      FastEval(w, 1013));
  ASSERT_TRUE(ba.ok() && direct.ok());
  EXPECT_LT(ba->mean_mse, direct->mean_mse);
}

// Full-pipeline privacy audit across every algorithm on every simulated
// dataset: no window may overspend.
TEST(IntegrationTest, FullPipelineLedgerAudit) {
  const Dataset c6h6 = SimulatedC6h6(400);
  const double eps = 1.0;
  const int w = 10;
  for (AlgorithmKind kind :
       {AlgorithmKind::kSwDirect, AlgorithmKind::kIpp, AlgorithmKind::kApp,
        AlgorithmKind::kCapp, AlgorithmKind::kBaSw, AlgorithmKind::kTopl,
        AlgorithmKind::kSampling, AlgorithmKind::kAppS,
        AlgorithmKind::kCappS}) {
    auto p = CreatePerturber(kind, {eps, w});
    ASSERT_TRUE(p.ok());
    WEventAccountant ledger;
    (*p)->AttachAccountant(&ledger);
    Rng rng(1017);
    (*p)->PerturbSequence(
        std::span<const double>(c6h6.stream().data(), 200), rng);
    EXPECT_TRUE(ledger.VerifyBudget(w, eps).ok())
        << AlgorithmKindName(kind) << " max window spend "
        << ledger.MaxWindowSpend(w);
  }
}

// Theorem 5 end-to-end: with bounded per-user estimation error, the
// estimated mean distribution converges to the truth as users grow.
TEST(IntegrationTest, CrowdDistributionConvergesWithPopulation) {
  auto collector = StreamCollector::Create();
  ASSERT_TRUE(collector.ok());
  auto run = [&](size_t users) {
    const Dataset taxi = SimulatedTaxi(users, 60);
    Rng rng(1019);
    auto crowd = EstimateCrowdMeans(taxi.users, 10, 30,
                                    MakeFactory(AlgorithmKind::kCapp, 3.0, 30),
                                    *collector, rng);
    EXPECT_TRUE(crowd.ok());
    // KS distance between estimated and true mean distributions.
    auto f = EmpiricalCdf::Create(crowd->estimated_means);
    auto g = EmpiricalCdf::Create(crowd->true_means);
    EXPECT_TRUE(f.ok() && g.ok());
    return EmpiricalCdf::KsDistance(*f, *g);
  };
  // Not strictly monotone run-to-run, but 20 -> 500 users should clearly
  // tighten the distribution estimate.
  EXPECT_LT(run(500), run(20) + 0.05);
}

// Reports published by the full pipeline are finite and the collector's
// mean matches the raw-report mean.
TEST(IntegrationTest, CollectorMeanMatchesReports) {
  const Dataset volume = SimulatedVolume(500);
  auto p = CreatePerturber(AlgorithmKind::kCapp, {1.0, 10});
  ASSERT_TRUE(p.ok());
  auto collector = StreamCollector::Create();
  ASSERT_TRUE(collector.ok());
  Rng rng(1021);
  const std::span<const double> window(volume.stream().data(), 50);
  const auto reports = (*p)->PerturbSequence(window, rng);
  const auto published = collector->Publish(reports);
  EXPECT_EQ(published.size(), reports.size());
  for (double v : published) EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(collector->EstimateMean(reports), Mean(reports), 1e-12);
}

}  // namespace
}  // namespace capp
