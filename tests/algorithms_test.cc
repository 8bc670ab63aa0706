// Tests for the perturbation-parameterization algorithms: SW-direct, IPP,
// APP, CAPP, the clip-bound selector, and the factory. Includes the
// w-event budget-ledger audit for each algorithm (the deterministic part of
// the paper's Theorems 3 and 4).
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/clip_bounds.h"
#include "algorithms/factory.h"
#include "algorithms/pp.h"
#include "algorithms/sw_direct.h"
#include "core/math_utils.h"
#include "core/rng.h"
#include "core/stream_digest.h"
#include "data/generators.h"
#include "stream/accountant.h"

namespace capp {
namespace {

std::vector<double> TestStream(size_t n, uint64_t seed = 5) {
  Rng rng(seed);
  return ReflectedRandomWalk(n, 0.05, 0.5, rng);
}

// ------------------------------------------------------------- validation --

TEST(PerturberOptionsTest, Validation) {
  EXPECT_TRUE(ValidatePerturberOptions({1.0, 10}).ok());
  EXPECT_FALSE(ValidatePerturberOptions({0.0, 10}).ok());
  EXPECT_FALSE(ValidatePerturberOptions({-1.0, 10}).ok());
  EXPECT_FALSE(ValidatePerturberOptions({51.0, 10}).ok());
  EXPECT_FALSE(ValidatePerturberOptions({1.0, 0}).ok());
  EXPECT_FALSE(
      ValidatePerturberOptions({std::nan(""), 10}).ok());
}

TEST(FactoryTest, CreatesEveryKind) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kSwDirect, AlgorithmKind::kIpp, AlgorithmKind::kApp,
        AlgorithmKind::kCapp, AlgorithmKind::kBaSw, AlgorithmKind::kTopl,
        AlgorithmKind::kSampling, AlgorithmKind::kAppS,
        AlgorithmKind::kCappS}) {
    auto p = CreatePerturber(kind, {1.0, 10});
    ASSERT_TRUE(p.ok()) << AlgorithmKindName(kind);
    EXPECT_EQ((*p)->name(), AlgorithmKindName(kind));
  }
}

TEST(FactoryTest, ParseRoundTrips) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kSwDirect, AlgorithmKind::kCapp,
        AlgorithmKind::kCappS}) {
    auto parsed = ParseAlgorithmKind(AlgorithmKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseAlgorithmKind("bogus").ok());
}

TEST(FactoryTest, MechanismVariants) {
  auto p = CreatePerturberWithMechanism(AlgorithmKind::kApp, {1.0, 10},
                                        MechanismKind::kLaplace);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->name(), "laplace-app");
  // CAPP over a non-SW mechanism routes through the proxy-selected bounds.
  auto capp_laplace = CreatePerturberWithMechanism(
      AlgorithmKind::kCapp, {1.0, 10}, MechanismKind::kLaplace);
  ASSERT_TRUE(capp_laplace.ok());
  EXPECT_EQ((*capp_laplace)->name(), "laplace-capp");
  // CAPP over SW routes to the standard factory.
  EXPECT_TRUE(CreatePerturberWithMechanism(AlgorithmKind::kCapp, {1.0, 10},
                                           MechanismKind::kSquareWave)
                  .ok());
  // Baselines still reject non-SW mechanisms.
  EXPECT_FALSE(CreatePerturberWithMechanism(AlgorithmKind::kBaSw, {1.0, 10},
                                            MechanismKind::kLaplace)
                   .ok());
}

TEST(CappTest, NonSwMechanismRequiresExplicitDelta) {
  EXPECT_FALSE(
      PpPerturber::Create(PpKind::kCapp, {1.0, 10}, MechanismKind::kPiecewise)
          .ok());
  auto p = PpPerturber::Create(PpKind::kCapp, {1.0, 10},
                               MechanismKind::kPiecewise, -0.1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->name(), "pm-capp");
  Rng rng(251);
  Rng data_rng(252);
  const auto stream = ReflectedRandomWalk(40, 0.05, 0.5, data_rng);
  const auto reports = (*p)->PerturbSequence(stream, rng);
  EXPECT_EQ(reports.size(), stream.size());
  for (double y : reports) EXPECT_TRUE(std::isfinite(y));
  // Deviation telescoping holds for any mechanism.
  EXPECT_NEAR(Mean(reports),
              Mean(stream) - (*p)->deviation() / stream.size(),
              1e-12);
}

// -------------------------------------------------------------- SW-direct --

TEST(SwDirectTest, PerSlotBudgetIsEpsilonOverW) {
  auto p = MechanismDirect::Create({2.0, 20});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR((*p)->epsilon_per_slot(), 0.1, 1e-12);
}

TEST(SwDirectTest, ReportsStayInSwRange) {
  auto p = MechanismDirect::Create({1.0, 10});
  ASSERT_TRUE(p.ok());
  Rng rng(211);
  const auto stream = TestStream(200);
  for (double x : stream) {
    const double y = (*p)->ProcessValue(x, rng);
    EXPECT_GE(y, -0.51);
    EXPECT_LE(y, 1.51);
  }
  EXPECT_EQ((*p)->slots_processed(), 200u);
}

TEST(SwDirectTest, LaplaceVariantMapsDomain) {
  auto p = MechanismDirect::Create({1.0, 10}, MechanismKind::kLaplace);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->name(), "laplace-direct");
  Rng rng(213);
  RunningMoments m;
  for (int i = 0; i < 50000; ++i) m.Add((*p)->ProcessValue(0.7, rng));
  // Laplace is unbiased; the affine [0,1]<->[-1,1] map preserves that.
  EXPECT_NEAR(m.Mean(), 0.7, 0.2);
}

// ------------------------------------------------------------------- IPP --

TEST(IppTest, TracksLastDeviationExactly) {
  auto p = PpPerturber::Create(PpKind::kIpp, {1.0, 5});
  ASSERT_TRUE(p.ok());
  Rng rng(217);
  const double x = 0.42;
  const double y = (*p)->ProcessValue(x, rng);
  EXPECT_DOUBLE_EQ((*p)->deviation(), x - y);
}

TEST(IppTest, ResetClearsState) {
  auto p = PpPerturber::Create(PpKind::kIpp, {1.0, 5});
  ASSERT_TRUE(p.ok());
  Rng rng(219);
  (*p)->ProcessValue(0.3, rng);
  (*p)->Reset();
  EXPECT_DOUBLE_EQ((*p)->deviation(), 0.0);
  EXPECT_EQ((*p)->slots_processed(), 0u);
}

// Lemma III.1: IPP's mean deviation is below SW-direct's.
TEST(IppTest, MeanDeviationBelowDirect) {
  const auto stream = TestStream(40, 7);
  const int trials = 400;
  double dev_ipp = 0.0, dev_direct = 0.0;
  for (int t = 0; t < trials; ++t) {
    Rng rng_a(1000 + t), rng_b(1000 + t);
    auto ipp = PpPerturber::Create(PpKind::kIpp, {1.0, 40});
    auto direct = MechanismDirect::Create({1.0, 40});
    ASSERT_TRUE(ipp.ok() && direct.ok());
    const auto yi = (*ipp)->PerturbSequence(stream, rng_a);
    const auto yd = (*direct)->PerturbSequence(stream, rng_b);
    dev_ipp += std::fabs(Mean(yi) - Mean(stream));
    dev_direct += std::fabs(Mean(yd) - Mean(stream));
  }
  EXPECT_LT(dev_ipp, dev_direct);
}

// ------------------------------------------------------------------- APP --

TEST(AppTest, AccumulatedDeviationIsExactTelescope) {
  auto p = PpPerturber::Create(PpKind::kApp, {1.0, 10});
  ASSERT_TRUE(p.ok());
  Rng rng(223);
  const auto stream = TestStream(50);
  double expect_d = 0.0;
  for (double x : stream) {
    const double y = (*p)->ProcessValue(x, rng);
    expect_d += x - y;
    EXPECT_NEAR((*p)->deviation(), expect_d, 1e-12);
  }
}

// Telescoping identity: sum of reports = sum of truths - D, i.e. the mean
// error of APP's reports equals -D/n exactly.
TEST(AppTest, MeanErrorEqualsMinusDOverN) {
  auto p = PpPerturber::Create(PpKind::kApp, {1.0, 10});
  ASSERT_TRUE(p.ok());
  Rng rng(227);
  const auto stream = TestStream(64);
  const auto reports = (*p)->PerturbSequence(stream, rng);
  const double d = (*p)->deviation();
  // With D = sum(x - y): sum(y) = sum(x) - D, so mean(y) = mean(x) - D/n.
  EXPECT_NEAR(Mean(reports), Mean(stream) - d / stream.size(), 1e-12);
}

// APP's subsequence-mean error beats SW-direct's (Lemma IV.2 / Fig. 4).
// At per-slot budgets eps/w the feedback gain is the mean-line slope
// alpha ~ 2b(p-q), so the advantage is real but modest -- consistent with
// the paper's own Fig. 4 gaps of a few percent to ~20%.
TEST(AppTest, MeanMseBelowDirect) {
  const auto stream = TestStream(30, 11);
  const int trials = 600;
  double mse_app = 0.0, mse_direct = 0.0;
  for (int t = 0; t < trials; ++t) {
    Rng rng_a(2000 + t), rng_b(2000 + t);
    auto app = PpPerturber::Create(PpKind::kApp, {1.0, 30});
    auto direct = MechanismDirect::Create({1.0, 30});
    ASSERT_TRUE(app.ok() && direct.ok());
    const auto ya = (*app)->PerturbSequence(stream, rng_a);
    const auto yd = (*direct)->PerturbSequence(stream, rng_b);
    const double ea = Mean(ya) - Mean(stream);
    const double ed = Mean(yd) - Mean(stream);
    mse_app += ea * ea;
    mse_direct += ed * ed;
  }
  EXPECT_LT(mse_app, mse_direct);
}

TEST(AppTest, WorksWithAlternativeMechanisms) {
  for (MechanismKind kind : {MechanismKind::kLaplace, MechanismKind::kDuchiSr,
                             MechanismKind::kPiecewise}) {
    auto p = PpPerturber::Create(PpKind::kApp, {2.0, 5}, kind);
    ASSERT_TRUE(p.ok()) << MechanismKindName(kind);
    Rng rng(229);
    const auto stream = TestStream(20);
    const auto reports = (*p)->PerturbSequence(stream, rng);
    EXPECT_EQ(reports.size(), stream.size());
    for (double y : reports) EXPECT_TRUE(std::isfinite(y));
  }
}

// ------------------------------------------------------------ clip bounds --

TEST(ClipBoundsTest, ErrorsArePositive) {
  for (double eps : {0.05, 0.3, 1.0, 3.0}) {
    auto sw = SquareWave::Create(eps);
    ASSERT_TRUE(sw.ok());
    EXPECT_GT(SwSensitivityError(*sw), 0.0) << eps;
    EXPECT_GT(SwDiscardingError(*sw), 0.0) << eps;
  }
}

TEST(ClipBoundsTest, SensitivityErrorShrinksWithEpsilon) {
  auto lo = SquareWave::Create(0.05);
  auto hi = SquareWave::Create(5.0);
  ASSERT_TRUE(lo.ok() && hi.ok());
  EXPECT_GT(SwSensitivityError(*lo), SwSensitivityError(*hi));
}

TEST(ClipBoundsTest, DiscardingErrorShrinksWithEpsilon) {
  auto lo = SquareWave::Create(0.05);
  auto hi = SquareWave::Create(5.0);
  ASSERT_TRUE(lo.ok() && hi.ok());
  EXPECT_GT(SwDiscardingError(*lo), SwDiscardingError(*hi));
}

TEST(ClipBoundsTest, SelectedDeltaWithinRecommendedRange) {
  for (double eps : {0.02, 0.05, 0.1, 0.3, 1.0, 3.0}) {
    auto bounds = SelectClipBounds(eps);
    ASSERT_TRUE(bounds.ok()) << eps;
    EXPECT_GE(bounds->delta, kMinDelta) << eps;
    EXPECT_LE(bounds->delta, kMaxDelta) << eps;
    EXPECT_DOUBLE_EQ(bounds->l, -bounds->delta);
    EXPECT_DOUBLE_EQ(bounds->u, 1.0 + bounds->delta);
  }
}

TEST(ClipBoundsTest, SmallBudgetPrefersWiderInterval) {
  // Paper: "smaller eps values are associated with larger optimal delta".
  auto small = SelectClipBounds(0.05);
  auto large = SelectClipBounds(3.0);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GT(small->delta, large->delta);
}

TEST(ClipBoundsTest, ExplicitDeltaValidated) {
  EXPECT_TRUE(ClipBoundsFromDelta(0.2).ok());
  EXPECT_TRUE(ClipBoundsFromDelta(-0.45).ok());
  EXPECT_FALSE(ClipBoundsFromDelta(-0.5).ok());
  EXPECT_FALSE(ClipBoundsFromDelta(-0.7).ok());
  EXPECT_FALSE(ClipBoundsFromDelta(std::nan("")).ok());
}

TEST(ClipBoundsTest, PaperMuMatchesExactMoment) {
  // The paper's Section V closed form for E[SW(1)] agrees with the exact
  // density integral.
  for (double eps : {0.1, 0.5, 1.0, 2.0}) {
    auto sw = SquareWave::Create(eps);
    ASSERT_TRUE(sw.ok());
    EXPECT_NEAR(PaperMuAtOne(sw->params()), sw->OutputMean(1.0), 1e-9)
        << eps;
  }
}

TEST(ClipBoundsTest, PaperExpectedDxConsistentAtOne) {
  // E[D_x] = x - E[SW(x)]; check the paper's closed form at x = 1.
  for (double eps : {0.1, 0.5, 1.0, 2.0}) {
    auto sw = SquareWave::Create(eps);
    ASSERT_TRUE(sw.ok());
    EXPECT_NEAR(PaperExpectedDx(sw->params(), 1.0), 1.0 - sw->OutputMean(1.0),
                1e-9)
        << eps;
  }
}

// The paper's printed Var(D_x) closed form (Section IV-B) agrees exactly
// with the integral of the SW output density at x = 1.
TEST(ClipBoundsTest, PaperVarDxMatchesExactMoment) {
  for (double eps : {0.05, 0.1, 0.5, 1.0, 2.0, 4.0}) {
    auto sw = SquareWave::Create(eps);
    ASSERT_TRUE(sw.ok());
    EXPECT_NEAR(PaperVarDx(sw->params()), sw->OutputVariance(1.0), 1e-9)
        << eps;
  }
}

// ------------------------------------------------------------------ CAPP --

TEST(CappTest, AutoBoundsComeFromSelector) {
  auto p = PpPerturber::Create(PpKind::kCapp, {1.0, 10});
  ASSERT_TRUE(p.ok());
  auto expected = SelectClipBounds(0.1);
  ASSERT_TRUE(expected.ok());
  EXPECT_DOUBLE_EQ((*p)->bounds().delta, expected->delta);
}

TEST(CappTest, ExplicitDeltaRespected) {
  auto p = PpPerturber::Create(PpKind::kCapp, {1.0, 10},
                               MechanismKind::kSquareWave, 0.15);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ((*p)->bounds().l, -0.15);
  EXPECT_DOUBLE_EQ((*p)->bounds().u, 1.15);
}

TEST(CappTest, RejectsDegenerateDelta) {
  EXPECT_FALSE(PpPerturber::Create(PpKind::kCapp, {1.0, 10},
                                   MechanismKind::kSquareWave, -0.5)
                   .ok());
  // Only CAPP widens its interval; direct perturbation is MechanismDirect.
  EXPECT_FALSE(PpPerturber::Create(PpKind::kApp, {1.0, 10},
                                   MechanismKind::kSquareWave, 0.1)
                   .ok());
  EXPECT_FALSE(PpPerturber::Create(PpKind::kDirect, {1.0, 10}).ok());
}

TEST(CappTest, ReportsStayInDenormalizedRange) {
  auto p = PpPerturber::Create(PpKind::kCapp, {1.0, 10},
                               MechanismKind::kSquareWave, 0.2);
  ASSERT_TRUE(p.ok());
  auto sw = SquareWave::Create(0.1);
  ASSERT_TRUE(sw.ok());
  const double width = (*p)->bounds().u - (*p)->bounds().l;
  const double lo = (*p)->bounds().l - sw->params().b * width;
  const double hi = (*p)->bounds().u + sw->params().b * width;
  Rng rng(233);
  const auto stream = TestStream(300);
  for (double x : stream) {
    const double y = (*p)->ProcessValue(x, rng);
    EXPECT_GE(y, lo - 1e-9);
    EXPECT_LE(y, hi + 1e-9);
  }
}

TEST(CappTest, DeviationTelescopesLikeApp) {
  auto p = PpPerturber::Create(PpKind::kCapp, {1.0, 10});
  ASSERT_TRUE(p.ok());
  Rng rng(239);
  const auto stream = TestStream(40);
  const auto reports = (*p)->PerturbSequence(stream, rng);
  EXPECT_NEAR(Mean(reports),
              Mean(stream) - (*p)->deviation() / stream.size(),
              1e-12);
}

TEST(CappTest, ResetRestoresInitialState) {
  auto p = PpPerturber::Create(PpKind::kCapp, {1.0, 10});
  ASSERT_TRUE(p.ok());
  Rng rng(241);
  (*p)->ProcessValue(0.5, rng);
  (*p)->Reset();
  EXPECT_DOUBLE_EQ((*p)->deviation(), 0.0);
}

// ---------------------------------------------------------- known answers --

// Pin input: a sinusoid in [0.05, 0.95] with out-of-domain, signed-zero
// and boundary readings planted early.
std::vector<double> PinInputs() {
  std::vector<double> x(200);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 + 0.45 * std::sin(0.37 * static_cast<double>(i));
  }
  x[3] = -0.25;
  x[7] = 1.5;
  x[11] = -0.0;
  x[13] = 0.0;
  x[17] = 1.0;
  return x;
}

// UserStreamDigest(0, reports) of the pin input from Rng(77). The per-slot
// loop and, after Reset(), the batched chunk must both give it.
uint64_t PinDigest(StreamPerturber& p) {
  const std::vector<double> x = PinInputs();
  Rng rng(77);
  std::vector<double> scalar;
  for (double v : x) scalar.push_back(p.ProcessValue(v, rng));
  p.Reset();
  Rng chunk_rng(77);
  std::vector<double> chunk(x.size());
  p.ProcessChunk(x, chunk, chunk_rng);
  EXPECT_EQ(UserStreamDigest(0, chunk), UserStreamDigest(0, scalar));
  return UserStreamDigest(0, scalar);
}

// Every online algorithm over every mechanism it accepts, pinned to the
// reports of the per-algorithm classes the PP recurrence replaced. SR and
// HM agree: at eps/w = 0.1 the hybrid mechanism is pure SR.
TEST(KnownAnswerTest, OnlineAlgorithmsArePinned) {
  struct Pin {
    AlgorithmKind kind;
    uint64_t digest[5];  // sw, laplace, sr, pm, hm; 0 = refused
  };
  const Pin pins[] = {
      {AlgorithmKind::kSwDirect,
       {0x80c6993d1cfb0052, 0xc25b3bae35eefeab, 0x9a7a589787e18f2c,
        0x59550bc197e7c39e, 0x9a7a589787e18f2c}},
      {AlgorithmKind::kIpp,
       {0xbd2cbb60478a167e, 0xa2629adc1d8a278d, 0x4831fa1e51804564,
        0x28fbe9f4ddc16311, 0x4831fa1e51804564}},
      {AlgorithmKind::kApp,
       {0x7bbea77c4e5ec572, 0x26bfd962c112bdbb, 0xc985919eb968ddc3,
        0x380029dc6a91e8f6, 0xc985919eb968ddc3}},
      {AlgorithmKind::kCapp,
       {0x275a5512e0e8df04, 0x60e3d7733bc5b795, 0xf6b322ad591a9298,
        0xecf44ee5ce321f8b, 0xf6b322ad591a9298}},
      {AlgorithmKind::kBaSw, {0xd057a9fb58f581e8, 0, 0, 0, 0}},
      {AlgorithmKind::kTopl, {0xa3e09077f1440438, 0, 0, 0, 0}},
  };
  const MechanismKind mechanisms[] = {
      MechanismKind::kSquareWave, MechanismKind::kLaplace,
      MechanismKind::kDuchiSr, MechanismKind::kPiecewise,
      MechanismKind::kHybrid};
  for (const Pin& pin : pins) {
    for (size_t m = 0; m < 5; ++m) {
      SCOPED_TRACE(std::string(AlgorithmKindName(pin.kind)) + " over " +
                   std::string(MechanismKindName(mechanisms[m])));
      auto p = CreatePerturberWithMechanism(pin.kind, {1.0, 10},
                                            mechanisms[m]);
      ASSERT_EQ(p.ok(), pin.digest[m] != 0) << p.status().ToString();
      if (!p.ok()) continue;
      EXPECT_EQ(PinDigest(**p), pin.digest[m]);
    }
  }
}

// CAPP at explicit clip widenings (Fig. 11, bench_ablation_bounds). At
// delta = 0 the interval is [0, 1] and CAPP is APP: eps = 1 reproduces
// the APP pin above bit for bit.
TEST(KnownAnswerTest, ExplicitDeltaCappIsPinned) {
  struct Pin {
    double delta;
    uint64_t digest[3];  // eps = 0.5, 1, 3
  };
  const Pin pins[] = {
      {-0.25, {0x5f81fb3b11436824, 0x7303e8b25a6b251d, 0xfee11b1c184a9473}},
      {0.0, {0x55dfc23fd264a513, 0x7bbea77c4e5ec572, 0x19a6787453526496}},
      {0.15, {0x133c55430917df8e, 0x815bcad44f997893, 0x4390401ef0782b38}},
      {0.4, {0x2a1821e5a24ed923, 0x3383657c5249470d, 0x1c14d51e68512ac7}},
  };
  const double epsilons[] = {0.5, 1.0, 3.0};
  for (const Pin& pin : pins) {
    for (size_t e = 0; e < 3; ++e) {
      SCOPED_TRACE(testing::Message() << "delta " << pin.delta << " eps "
                                      << epsilons[e]);
      auto p = PpPerturber::Create(PpKind::kCapp, {epsilons[e], 10},
                                   MechanismKind::kSquareWave, pin.delta);
      ASSERT_TRUE(p.ok());
      EXPECT_EQ(PinDigest(**p), pin.digest[e]);
    }
  }
}

// ----------------------------------------------- w-event ledger audit -----

struct LedgerCase {
  AlgorithmKind kind;
  double epsilon;
  int window;
};

class LedgerAuditTest : public ::testing::TestWithParam<LedgerCase> {};

TEST_P(LedgerAuditTest, WindowSpendNeverExceedsBudget) {
  const auto& param = GetParam();
  auto p = CreatePerturber(param.kind, {param.epsilon, param.window});
  ASSERT_TRUE(p.ok()) << AlgorithmKindName(param.kind);
  WEventAccountant ledger;
  (*p)->AttachAccountant(&ledger);
  Rng rng(251);
  const auto stream = TestStream(240, 13);
  (*p)->PerturbSequence(stream, rng);
  const Status budget = ledger.VerifyBudget(param.window, param.epsilon);
  EXPECT_TRUE(budget.ok()) << AlgorithmKindName(param.kind) << ": "
                           << budget.ToString();
  // The ledger must also show real spending (at least half the budget in
  // some window for the always-on algorithms).
  if (param.kind != AlgorithmKind::kBaSw) {
    EXPECT_GT(ledger.MaxWindowSpend(param.window), 0.45 * param.epsilon)
        << AlgorithmKindName(param.kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, LedgerAuditTest,
    ::testing::Values(
        LedgerCase{AlgorithmKind::kSwDirect, 1.0, 10},
        LedgerCase{AlgorithmKind::kSwDirect, 3.0, 50},
        LedgerCase{AlgorithmKind::kIpp, 1.0, 10},
        LedgerCase{AlgorithmKind::kIpp, 0.5, 30},
        LedgerCase{AlgorithmKind::kApp, 1.0, 10},
        LedgerCase{AlgorithmKind::kApp, 2.0, 20},
        LedgerCase{AlgorithmKind::kCapp, 1.0, 10},
        LedgerCase{AlgorithmKind::kCapp, 3.0, 30},
        LedgerCase{AlgorithmKind::kBaSw, 1.0, 10},
        LedgerCase{AlgorithmKind::kBaSw, 3.0, 20},
        LedgerCase{AlgorithmKind::kTopl, 1.0, 20},
        LedgerCase{AlgorithmKind::kSampling, 1.0, 10},
        LedgerCase{AlgorithmKind::kAppS, 1.0, 10},
        LedgerCase{AlgorithmKind::kCappS, 2.0, 30}));

}  // namespace
}  // namespace capp
