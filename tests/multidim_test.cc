// Tests for the high-dimensional strategies: Budget-Split and Sample-Split
// (Section IV-C, Fig. 10) as run by MultidimPerturber, their pinned
// reports and w-event ledgers, and the
// engine-path equivalence contract -- a d-dimensional Fleet run must be an
// exact composition of the offline per-user oracle (same seeds, same
// strategies, same smoothing) with accuracy inside the fig10 tolerance.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/stream_digest.h"
#include "data/datasets.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "multidim/multidim_perturber.h"
#include "stream/accountant.h"
#include "stream/session.h"
#include "stream/smoothing.h"

namespace capp {
namespace {

// Dim-major pin input: a sinusoid with out-of-domain, signed-zero and
// boundary readings planted early, repeated across dims * slots cells.
std::vector<double> PinTruth(size_t cells) {
  std::vector<double> x(200);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 + 0.45 * std::sin(0.37 * static_cast<double>(i));
  }
  x[3] = -0.25;
  x[7] = 1.5;
  x[11] = -0.0;
  x[13] = 0.0;
  x[17] = 1.0;
  std::vector<double> truth(cells);
  for (size_t i = 0; i < cells; ++i) truth[i] = x[i % x.size()];
  return truth;
}

constexpr AlgorithmKind kOnlineKinds[] = {
    AlgorithmKind::kSwDirect, AlgorithmKind::kIpp,  AlgorithmKind::kApp,
    AlgorithmKind::kCapp,     AlgorithmKind::kBaSw, AlgorithmKind::kTopl};

MultidimPerturber MustCreate(size_t dims, MultidimStrategy strategy,
                             PerturberOptions options, AlgorithmKind inner) {
  auto created = MultidimPerturber::Create(dims, strategy, options, inner);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

TEST(BudgetSplitTest, RejectsZeroDimensions) {
  EXPECT_FALSE(MultidimPerturber::Create(0, MultidimStrategy::kBudgetSplit,
                                         {1.0, 10}, AlgorithmKind::kSwDirect)
                   .ok());
}

TEST(BudgetSplitTest, NamesReflectInnerAlgorithm) {
  EXPECT_EQ(MustCreate(3, MultidimStrategy::kBudgetSplit, {1.0, 10},
                       AlgorithmKind::kApp)
                .name(),
            "app-bs");
  EXPECT_EQ(MustCreate(3, MultidimStrategy::kSampleSplit, {1.0, 10},
                       AlgorithmKind::kCapp)
                .name(),
            "capp-ss");
}

TEST(BudgetSplitTest, OutputHasOneReportPerDimension) {
  MultidimPerturber bs = MustCreate(4, MultidimStrategy::kBudgetSplit,
                                    {1.0, 10}, AlgorithmKind::kSwDirect);
  bs.ResetForUser(501);
  const std::vector<double> x = {0.1, 0.4, 0.6, 0.9};  // one slot
  std::vector<double> y;
  bs.PerturbStream(x, 1, y);
  EXPECT_EQ(y.size(), 4u);
}

TEST(BudgetSplitTest, LedgerSumsAcrossDimensions) {
  const size_t d = 5;
  const double eps = 1.0;
  const int w = 10;
  MultidimPerturber bs = MustCreate(d, MultidimStrategy::kBudgetSplit,
                                    {eps, w}, AlgorithmKind::kCapp);
  WEventAccountant ledger;
  bs.AttachAccountant(&ledger);
  bs.ResetForUser(503);
  const std::vector<double> x(d * 50, 0.5);
  std::vector<double> y;
  bs.PerturbStream(x, 50, y);
  // Each slot spends d * eps/(d*w) = eps/w; any window spends exactly eps.
  EXPECT_TRUE(ledger.VerifyBudget(w, eps).ok())
      << ledger.MaxWindowSpend(w);
  EXPECT_NEAR(ledger.MaxWindowSpend(w), eps, 1e-9);
}

// Runs `slots` slots of a constant d-vector one slot per PerturbStream
// call and returns each slot's d reports.
std::vector<std::vector<double>> PerturbSlots(MultidimPerturber& perturber,
                                              const std::vector<double>& x,
                                              int slots) {
  std::vector<std::vector<double>> reports;
  for (int t = 0; t < slots; ++t) {
    reports.emplace_back();
    perturber.PerturbStream(x, 1, reports.back());
  }
  return reports;
}

TEST(SampleSplitTest, OnlyActiveDimensionChanges) {
  const size_t d = 3;
  MultidimPerturber ss = MustCreate(d, MultidimStrategy::kSampleSplit,
                                    {1.0, 10}, AlgorithmKind::kSwDirect);
  ss.ResetForUser(509);
  const auto y = PerturbSlots(ss, {0.2, 0.5, 0.8}, 12);
  for (int t = 1; t < 12; ++t) {
    int changed = 0;
    for (size_t k = 0; k < d; ++k) {
      if (y[t][k] != y[t - 1][k]) ++changed;
    }
    EXPECT_LE(changed, 1) << "slot " << t;
  }
}

TEST(SampleSplitTest, RoundRobinCoversAllDimensions) {
  const size_t d = 4;
  MultidimPerturber ss = MustCreate(d, MultidimStrategy::kSampleSplit,
                                    {1.0, 10}, AlgorithmKind::kSwDirect);
  ss.ResetForUser(521);
  const auto y = PerturbSlots(ss, {0.2, 0.4, 0.6, 0.8}, static_cast<int>(d));
  std::vector<bool> updated(d, false);
  updated[0] = true;  // slot 0 updates dim 0
  for (size_t t = 1; t < d; ++t) {
    for (size_t k = 0; k < d; ++k) {
      if (y[t][k] != y[t - 1][k]) updated[k] = true;
    }
  }
  for (size_t k = 0; k < d; ++k) EXPECT_TRUE(updated[k]) << "dim " << k;
}

TEST(SampleSplitTest, LedgerSpendsEpsOverWPerSlot) {
  const size_t d = 4;
  const double eps = 2.0;
  const int w = 8;
  MultidimPerturber ss = MustCreate(d, MultidimStrategy::kSampleSplit,
                                    {eps, w}, AlgorithmKind::kApp);
  WEventAccountant ledger;
  ss.AttachAccountant(&ledger);
  ss.ResetForUser(523);
  const std::vector<double> x(d * 40, 0.5);
  std::vector<double> y;
  ss.PerturbStream(x, 40, y);
  EXPECT_TRUE(ledger.VerifyBudget(w, eps).ok());
  EXPECT_NEAR(ledger.MaxWindowSpend(w), eps, 1e-9);
  EXPECT_NEAR(ledger.SlotSpend(0), eps / w, 1e-12);
}

TEST(SampleSplitTest, ResetRestartsRoundRobin) {
  MultidimPerturber ss = MustCreate(2, MultidimStrategy::kSampleSplit,
                                    {1.0, 10}, AlgorithmKind::kSwDirect);
  const std::vector<double> x = {0.3, 0.7};
  std::vector<double> y;
  ss.ResetForUser(541);
  ss.PerturbStream(x, 1, y);
  ss.ResetForUser(541);
  WEventAccountant ledger;
  ss.AttachAccountant(&ledger);
  ss.PerturbStream(x, 1, y);
  EXPECT_GT(ledger.SlotSpend(0), 0.0);  // slot counter restarted at 0
}

// True for the combinations Create refuses: BA-SW and ToPL under sample
// split at d >= 2 (see RefusesAdaptiveInnerUnderSampleSplit).
bool Refused(size_t dims, MultidimStrategy strategy, AlgorithmKind inner) {
  return dims > 1 && strategy == MultidimStrategy::kSampleSplit &&
         (inner == AlgorithmKind::kBaSw || inner == AlgorithmKind::kTopl);
}

// Every (d, strategy, inner) combination, pinned: XOR over users
// u = 0..2 of UserStreamDigest(u, reports) for 60 slots of the pin input
// after ResetForUser(1000 + u) -- the reports of the per-strategy classes
// MultidimPerturber replaced. The refused combinations check the refusal
// instead (their digest slot is 0).
TEST(MultidimPerturberTest, ReportsArePinned) {
  struct Pin {
    size_t dims;
    MultidimStrategy strategy;
    uint64_t digest[6];  // kOnlineKinds order
  };
  const Pin pins[] = {
      {2, MultidimStrategy::kBudgetSplit,
       {0x66ca8d7e6bf902ad, 0x210fa2a303b6b59a, 0xb920bc18950b00e4,
        0x7d2f0e4e4ed3ff6c, 0xba8a7c43b26d8a26, 0xd8ba5df6cf00fa31}},
      {2, MultidimStrategy::kSampleSplit,
       {0x407c0dc2f8efa193, 0x236d074ac00df4bc, 0x5984709a3849a113,
        0x4cf899bea5b7e264, 0, 0}},
      {3, MultidimStrategy::kBudgetSplit,
       {0x563c1701fa864d3e, 0x4484545349d0203a, 0x42702af8fa81f95d,
        0xa83c298c5a361d23, 0x302e994bb1757ecb, 0xe2236921f66f71c2}},
      {3, MultidimStrategy::kSampleSplit,
       {0x155ee5b7b1f68693, 0xa29d80fdf0b5c51f, 0x791600d9bd64d24c,
        0x9497ad42bd8144a7, 0, 0}},
      {4, MultidimStrategy::kBudgetSplit,
       {0xb5a5d2f8e736b7bd, 0x3651c0968acf7771, 0x930721ced802ed91,
        0x79ca6ce3ba2a2024, 0x22a61e8858ee1bc7, 0x365fe04dd65417c4}},
      {4, MultidimStrategy::kSampleSplit,
       {0x57ca45fa09285937, 0x685b95d41fc1da0e, 0x18dec2520f865783,
        0xbd32c45a54b7bbd3, 0, 0}},
  };
  constexpr size_t kSlots = 60;
  for (const Pin& pin : pins) {
    const std::vector<double> truth = PinTruth(pin.dims * kSlots);
    for (size_t i = 0; i < 6; ++i) {
      SCOPED_TRACE(testing::Message()
                   << "d=" << pin.dims << " "
                   << MultidimStrategyName(pin.strategy) << " "
                   << AlgorithmKindName(kOnlineKinds[i]));
      if (Refused(pin.dims, pin.strategy, kOnlineKinds[i])) {
        EXPECT_FALSE(MultidimPerturber::Create(pin.dims, pin.strategy,
                                               {1.0, 10}, kOnlineKinds[i])
                         .ok());
        continue;
      }
      MultidimPerturber perturber =
          MustCreate(pin.dims, pin.strategy, {1.0, 10}, kOnlineKinds[i]);
      uint64_t digest = 0;
      std::vector<double> out;
      for (uint64_t u = 0; u < 3; ++u) {
        perturber.ResetForUser(1000 + u);
        perturber.PerturbStream(truth, kSlots, out);
        digest ^= UserStreamDigest(u, out);
      }
      EXPECT_EQ(digest, pin.digest[i]);
    }
  }
}

// The w-event ledger of every d-dimensional pipeline the fleet can run,
// 3 users x 60 slots of the pin input at eps = 1, w = 10, one ledger per
// user; every ledger passes VerifyBudget. The PP kinds and SW-direct
// spend exactly eps/w per upload, so their windows sum to eps under both
// strategies. BA-SW and ToPL under budget split -- and at d = 1, where
// both strategies are the inner algorithm recording its own spends --
// record what their own policies spend, pinned per user; under sample
// split at d >= 2 they are refused.
TEST(MultidimPerturberTest, LedgerAuditCoversEveryPipeline) {
  constexpr double kEps = 1.0;
  constexpr int kW = 10;
  constexpr size_t kSlots = 60;
  // BA-SW's per-user max window spend at d = 1..4 (ToPL's is 0.5).
  const double ba_sw[4][3] = {{1.0, 0.95, 1.0},
                              {0.925, 0.925, 0.9},
                              {0.95, 0.95, 0.95},
                              {0.9375, 0.9, 0.9125}};
  for (size_t dims : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    const std::vector<double> truth = PinTruth(dims * kSlots);
    for (MultidimStrategy strategy : {MultidimStrategy::kBudgetSplit,
                                      MultidimStrategy::kSampleSplit}) {
      for (AlgorithmKind kind : kOnlineKinds) {
        SCOPED_TRACE(testing::Message()
                     << "d=" << dims << " " << MultidimStrategyName(strategy)
                     << " " << AlgorithmKindName(kind));
        if (Refused(dims, strategy, kind)) {
          EXPECT_FALSE(
              MultidimPerturber::Create(dims, strategy, {kEps, kW}, kind).ok());
          continue;
        }
        MultidimPerturber perturber =
            MustCreate(dims, strategy, {kEps, kW}, kind);
        std::vector<double> out;
        for (uint64_t u = 0; u < 3; ++u) {
          WEventAccountant ledger;
          perturber.AttachAccountant(&ledger);
          perturber.ResetForUser(1000 + u);
          perturber.PerturbStream(truth, kSlots, out);
          EXPECT_TRUE(ledger.VerifyBudget(kW, kEps).ok()) << "user " << u;
          const bool own_policy =
              kind == AlgorithmKind::kBaSw || kind == AlgorithmKind::kTopl;
          double expected = kEps;
          if (own_policy) {
            expected = kind == AlgorithmKind::kTopl ? 0.5 : ba_sw[dims - 1][u];
          }
          EXPECT_NEAR(ledger.MaxWindowSpend(kW), expected, 1e-9)
              << "user " << u;
        }
      }
    }
  }
}

// ------------------------------------------- engine adapter + equivalence ----

TEST(MultidimPerturberTest, RejectsZeroDimensions) {
  EXPECT_FALSE(MultidimPerturber::Create(0, MultidimStrategy::kSampleSplit,
                                         {1.0, 10}, AlgorithmKind::kCapp)
                   .ok());
}

// The sampling kinds perturb whole subsequences and have no per-slot
// path: every strategy constructor must refuse them up front rather than
// abort at the first perturbation.
TEST(MultidimPerturberTest, RefusesOfflineInnerAlgorithms) {
  for (AlgorithmKind inner : {AlgorithmKind::kSampling, AlgorithmKind::kAppS,
                              AlgorithmKind::kCappS}) {
    SCOPED_TRACE(AlgorithmKindName(inner));
    for (MultidimStrategy strategy : {MultidimStrategy::kBudgetSplit,
                                      MultidimStrategy::kSampleSplit}) {
      for (size_t dims : {size_t{1}, size_t{4}}) {
        auto created =
            MultidimPerturber::Create(dims, strategy, {1.0, 10}, inner);
        ASSERT_FALSE(created.ok());
        EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

// Regression: under sample split at d >= 2, BA-SW and ToPL pace eps over
// w of their own uploads, which span d * w global slots -- BA-SW's real
// spend in a w-slot window reached 1.30/1.40/1.40 eps at d = 2/3/4 while
// the strategy's ledger read eps. Both the perturber and the fleet refuse
// the combination; budget split and d = 1 still run them.
TEST(MultidimPerturberTest, RefusesAdaptiveInnerUnderSampleSplit) {
  for (AlgorithmKind inner : {AlgorithmKind::kBaSw, AlgorithmKind::kTopl}) {
    SCOPED_TRACE(AlgorithmKindName(inner));
    for (size_t dims : {size_t{2}, size_t{3}, size_t{4}}) {
      SCOPED_TRACE(dims);
      auto created = MultidimPerturber::Create(
          dims, MultidimStrategy::kSampleSplit, {1.0, 10}, inner);
      ASSERT_FALSE(created.ok());
      EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
      EXPECT_TRUE(MultidimPerturber::Create(
                      dims, MultidimStrategy::kBudgetSplit, {1.0, 10}, inner)
                      .ok());

      EngineConfig config;
      config.algorithm = inner;
      config.dims = dims;
      config.multidim_strategy = MultidimStrategy::kSampleSplit;
      auto fleet = Fleet::Create(config);
      ASSERT_FALSE(fleet.ok());
      EXPECT_EQ(fleet.status().code(), StatusCode::kInvalidArgument);
    }
    EXPECT_TRUE(MultidimPerturber::Create(1, MultidimStrategy::kSampleSplit,
                                          {1.0, 10}, inner)
                    .ok());
  }
}

// d = 1 is the one-dimension case of the device pipeline: for every
// online algorithm and either strategy label, a pooled one-dimensional
// MultidimPerturber reports exactly what a UserSession reports through
// ReportChunk and through Report, bit for bit, user after user.
TEST(MultidimPerturberTest, OneDimensionMatchesUserSessionBitForBit) {
  constexpr size_t kSlots = 40;
  for (AlgorithmKind kind :
       {AlgorithmKind::kSwDirect, AlgorithmKind::kIpp, AlgorithmKind::kApp,
        AlgorithmKind::kCapp, AlgorithmKind::kBaSw, AlgorithmKind::kTopl}) {
    for (MultidimStrategy strategy : {MultidimStrategy::kBudgetSplit,
                                      MultidimStrategy::kSampleSplit}) {
      SCOPED_TRACE(AlgorithmKindName(kind));
      SCOPED_TRACE(MultidimStrategyName(strategy));
      const PerturberOptions options{1.5, 8};
      auto perturber = MultidimPerturber::Create(1, strategy, options, kind);
      ASSERT_TRUE(perturber.ok()) << perturber.status().ToString();
      std::vector<double> reports;
      for (uint64_t uid = 0; uid < 4; ++uid) {
        SCOPED_TRACE(uid);
        // Out-of-domain and non-finite inputs included: both paths map
        // them through SanitizeUnitValue (+-inf and NaN to 0.5).
        Rng input_rng(900 + uid);
        std::vector<double> truth(kSlots);
        for (double& x : truth) x = input_rng.Uniform(-0.25, 1.25);
        truth[1] = std::numeric_limits<double>::infinity();
        truth[3] = -std::numeric_limits<double>::infinity();
        truth[6] = std::numeric_limits<double>::quiet_NaN();
        const uint64_t seed = UserStreamSeed(31, uid, 1);
        perturber->ResetForUser(seed);
        perturber->PerturbStream(truth, kSlots, reports);
        auto session = UserSession::Create(uid, kind, options, seed);
        ASSERT_TRUE(session.ok());
        std::vector<double> expected(kSlots);
        session->ReportChunk(truth, expected);
        auto per_slot = UserSession::Create(uid, kind, options, seed);
        ASSERT_TRUE(per_slot.ok());
        ASSERT_EQ(reports.size(), kSlots);
        for (size_t t = 0; t < kSlots; ++t) {
          EXPECT_EQ(std::bit_cast<uint64_t>(reports[t]),
                    std::bit_cast<uint64_t>(expected[t]))
              << "slot " << t;
          EXPECT_EQ(std::bit_cast<uint64_t>(reports[t]),
                    std::bit_cast<uint64_t>(per_slot->Report(truth[t]).value))
              << "slot " << t;
        }
      }
    }
  }
}

TEST(MultidimPerturberTest, StrategyNamesRoundTrip) {
  for (MultidimStrategy strategy :
       {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
    auto parsed = ParseMultidimStrategy(MultidimStrategyName(strategy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, strategy);
  }
  EXPECT_FALSE(ParseMultidimStrategy("round-robin").ok());
}

TEST(MultidimPerturberTest, PerturbStreamIsSeedDeterministic) {
  auto perturber = MultidimPerturber::Create(
      3, MultidimStrategy::kSampleSplit, {1.0, 10}, AlgorithmKind::kCapp);
  ASSERT_TRUE(perturber.ok());
  const size_t slots = 16;
  std::vector<double> truth(3 * slots, 0.5);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = 0.25 + 0.5 * static_cast<double>(i % slots) / slots;
  }
  std::vector<double> first;
  std::vector<double> second;
  perturber->ResetForUser(991);
  perturber->PerturbStream(truth, slots, first);
  ASSERT_EQ(first.size(), truth.size());
  perturber->ResetForUser(991);
  perturber->PerturbStream(truth, slots, second);
  EXPECT_EQ(first, second);
  // A different seed draws a different stream.
  perturber->ResetForUser(992);
  perturber->PerturbStream(truth, slots, second);
  EXPECT_NE(first, second);
}

// Offline oracle for one d-dimensional fleet: replays every user with the
// same seeds, strategies, and per-dimension smoothing the engine uses,
// from public surfaces only (GenerateUserSignalMultiInto,
// MultidimPerturber, SimpleMovingAverage). Returns per-cell population
// means of truth and published streams, dim-major.
struct MultidimOracle {
  std::vector<double> true_mean;
  std::vector<double> published_mean;
};

MultidimOracle RunOracle(const EngineConfig& config, int smoothing) {
  const size_t slots = config.num_slots;
  const size_t cells = config.dims * slots;
  MultidimOracle oracle;
  oracle.true_mean.assign(cells, 0.0);
  std::vector<double> report_mean(cells, 0.0);
  auto perturber = MultidimPerturber::Create(
      config.dims, config.multidim_strategy,
      {config.epsilon, config.window}, config.algorithm);
  EXPECT_TRUE(perturber.ok());
  std::vector<double> truth;
  std::vector<double> reports;
  for (uint64_t uid = 0; uid < config.num_users; ++uid) {
    Rng signal_rng(UserStreamSeed(config.seed, uid, 0));
    GenerateUserSignalMultiInto(config.signal, config.dims, slots,
                                signal_rng, truth);
    perturber->ResetForUser(UserStreamSeed(config.seed, uid, 1));
    perturber->PerturbStream(truth, slots, reports);
    for (size_t c = 0; c < cells; ++c) {
      oracle.true_mean[c] += truth[c];
      report_mean[c] += reports[c];
    }
  }
  const double inv = 1.0 / static_cast<double>(config.num_users);
  oracle.published_mean.resize(cells);
  for (size_t c = 0; c < cells; ++c) {
    oracle.true_mean[c] *= inv;
    report_mean[c] *= inv;
  }
  // The collector-side smoothing is per attribute over its own slots.
  for (size_t k = 0; k < config.dims; ++k) {
    const std::vector<double> row(
        report_mean.begin() + static_cast<ptrdiff_t>(k * slots),
        report_mean.begin() + static_cast<ptrdiff_t>((k + 1) * slots));
    auto smoothed = SimpleMovingAverage(row, smoothing);
    EXPECT_TRUE(smoothed.ok());
    std::copy(smoothed->begin(), smoothed->end(),
              oracle.published_mean.begin() +
                  static_cast<ptrdiff_t>(k * slots));
  }
  return oracle;
}

// The engine-path equivalence contract at 10k users: the Fleet's
// published per-attribute series must reproduce the offline oracle
// exactly (the engine adds transport and sharding, never arithmetic),
// and every attribute's MSE against truth must sit inside the pinned
// fig10-scale tolerance for eps=1, w=10 sinusoids.
TEST(MultidimEngineTest, FleetMatchesOfflineOraclePerAttribute) {
  // The chunk reduction averages in a fixed order, so the oracle's
  // single-pass mean only matches bit-for-bit when one chunk covers a
  // whole attribute row -- hence exact-sum comparison via tolerance 0 on
  // the published series is replaced by a tight epsilon on means and an
  // exact check on the engine's own reported per-dim errors.
  constexpr double kMeanTolerance = 1e-12;
  constexpr double kPinnedMseTolerance = 0.03;  // fig10 scale at eps=1
  for (MultidimStrategy strategy :
       {MultidimStrategy::kBudgetSplit, MultidimStrategy::kSampleSplit}) {
    SCOPED_TRACE(MultidimStrategyName(strategy));
    EngineConfig config;
    config.algorithm = AlgorithmKind::kCapp;
    config.signal = SignalKind::kSinusoid;
    config.epsilon = 1.0;
    config.window = 10;
    config.num_users = 10000;
    config.num_slots = 24;
    config.seed = 77;
    config.dims = 4;
    config.multidim_strategy = strategy;
    config.smoothing_window = 3;  // pinned so the oracle smooths alike
    config.keep_streams = false;
    auto fleet = Fleet::Create(config);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    auto stats = fleet->Run();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->dims, config.dims);
    const size_t cells = config.dims * config.num_slots;
    ASSERT_EQ(stats->true_slot_means.size(), cells);
    ASSERT_EQ(stats->published_slot_means.size(), cells);
    ASSERT_EQ(stats->per_dim_mse.size(), config.dims);

    const MultidimOracle oracle = RunOracle(config, config.smoothing_window);
    for (size_t c = 0; c < cells; ++c) {
      EXPECT_NEAR(stats->true_slot_means[c], oracle.true_mean[c],
                  kMeanTolerance)
          << "cell " << c;
      EXPECT_NEAR(stats->published_slot_means[c], oracle.published_mean[c],
                  kMeanTolerance)
          << "cell " << c;
    }
    for (size_t k = 0; k < config.dims; ++k) {
      SCOPED_TRACE(k);
      // Recompute attribute k's MSE from the oracle series and pin the
      // engine's reported number to it.
      double mse = 0.0;
      for (size_t t = 0; t < config.num_slots; ++t) {
        const size_t c = k * config.num_slots + t;
        const double err =
            oracle.published_mean[c] - oracle.true_mean[c];
        mse += err * err;
      }
      mse /= static_cast<double>(config.num_slots);
      EXPECT_NEAR(stats->per_dim_mse[k], mse, kMeanTolerance);
      EXPECT_GT(stats->per_dim_mse[k], 0.0);
      EXPECT_LT(stats->per_dim_mse[k], kPinnedMseTolerance);
    }
  }
}

// The fleet's synthesis, pinned: UserStreamDigest(0, ...) of every
// workload family at d = 1 and d = 3 from a fixed RNG state, through both
// generator entry points. Every committed fleet digest depends on these
// streams and their RNG draw order. d > 1 sinusoid attributes are also
// distinct but stay in range.
TEST(MultidimEngineTest, SignalGeneratorIsPinned) {
  struct Pin {
    SignalKind kind;
    uint64_t d1;
    uint64_t d3;
  };
  const Pin pins[] = {
      {SignalKind::kConstant, 0xbd86d98908aa99e3, 0x5b8a479e166a2b08},
      {SignalKind::kSinusoid, 0x15beeca027b46ca8, 0xb8dae28f7a437f7e},
      {SignalKind::kAr1, 0x9c94e95420f1937e, 0xb409e7080a6444bc},
      {SignalKind::kRandomWalk, 0x36d436e7dc32a46c, 0xce4a871ece4483bd},
      {SignalKind::kPiecewise, 0x67bdde593b6b675b, 0x0bd7e2d7b0f38dff},
  };
  const size_t slots = 48;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(SignalKindName(pin.kind));
    for (size_t dims : {size_t{1}, size_t{3}}) {
      Rng rng(4242);
      std::vector<double> out;
      GenerateUserSignalMultiInto(pin.kind, dims, slots, rng, out);
      ASSERT_EQ(out.size(), dims * slots);
      EXPECT_EQ(UserStreamDigest(0, out), dims == 1 ? pin.d1 : pin.d3)
          << "dims " << dims;
    }
    Rng rng(4242);
    std::vector<double> scalar;
    GenerateUserSignalInto(pin.kind, slots, rng, scalar);
    EXPECT_EQ(UserStreamDigest(0, scalar), pin.d1);
  }
  Rng rng(4242);
  std::vector<double> dims3;
  GenerateUserSignalMultiInto(SignalKind::kSinusoid, 3, slots, rng, dims3);
  const std::vector<double> d0(dims3.begin(), dims3.begin() + slots);
  const std::vector<double> d1(dims3.begin() + slots,
                               dims3.begin() + 2 * slots);
  EXPECT_NE(d0, d1);
  for (double v : dims3) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

// The config and handshake fingerprints stamped into WAL segments,
// checkpoints and socket handshakes, pinned: d = 1 ignores the strategy
// (its fingerprint predates dimensions), d > 1 covers dims and strategy.
TEST(MultidimEngineTest, FingerprintsArePinned) {
  for (MultidimStrategy strategy : {MultidimStrategy::kBudgetSplit,
                                    MultidimStrategy::kSampleSplit}) {
    SCOPED_TRACE(MultidimStrategyName(strategy));
    EngineConfig config;
    config.multidim_strategy = strategy;
    EXPECT_EQ(EngineConfigFingerprint(config), 0xe67a1b13ba49b2d0u);
    EXPECT_EQ(StreamHandshakeFingerprint(1.0, 10, 1, strategy),
              0x7531b2b3dac147f2u);
  }
  EngineConfig config;
  config.dims = 4;
  config.multidim_strategy = MultidimStrategy::kBudgetSplit;
  EXPECT_EQ(EngineConfigFingerprint(config), 0x4293936a9cde47d4u);
  config.multidim_strategy = MultidimStrategy::kSampleSplit;
  EXPECT_EQ(EngineConfigFingerprint(config), 0x618e5a73a7cd91f5u);
  EXPECT_EQ(StreamHandshakeFingerprint(1.0, 10, 4,
                                       MultidimStrategy::kBudgetSplit),
            0x8857ec8ed3005576u);
  EXPECT_EQ(StreamHandshakeFingerprint(1.0, 10, 4,
                                       MultidimStrategy::kSampleSplit),
            0xa752b397ddef9f97u);
}

TEST(MultiDimSinusoidTest, ShapeAndRange) {
  const auto dims = MultiDimSinusoid(5, 200);
  ASSERT_EQ(dims.size(), 5u);
  for (const auto& dim : dims) {
    ASSERT_EQ(dim.size(), 200u);
    for (double v : dim) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
  // Distinct frequencies -> dimensions differ.
  EXPECT_NE(dims[0], dims[1]);
}

}  // namespace
}  // namespace capp
