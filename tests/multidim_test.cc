// Tests for the high-dimensional strategies: Budget-Split and Sample-Split
// (Section IV-C, Fig. 10), the MultidimPerturber engine adapter, and the
// engine-path equivalence contract -- a d-dimensional Fleet run must be an
// exact composition of the offline per-user oracle (same seeds, same
// strategies, same smoothing) with accuracy inside the fig10 tolerance.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/stream_digest.h"
#include "data/datasets.h"
#include "engine/engine_config.h"
#include "engine/fleet.h"
#include "multidim/budget_split.h"
#include "multidim/multidim_perturber.h"
#include "multidim/sample_split.h"
#include "stream/accountant.h"
#include "stream/session.h"
#include "stream/smoothing.h"

namespace capp {
namespace {

TEST(BudgetSplitTest, RejectsZeroDimensions) {
  EXPECT_FALSE(BudgetSplitPerturber::Create(0, {1.0, 10}).ok());
}

TEST(BudgetSplitTest, NamesReflectInnerAlgorithm) {
  auto bs = BudgetSplitPerturber::Create(3, {1.0, 10}, AlgorithmKind::kApp);
  ASSERT_TRUE(bs.ok());
  EXPECT_EQ((*bs)->name(), "app-bs");
  EXPECT_EQ((*bs)->dimensions(), 3u);
}

TEST(BudgetSplitTest, OutputHasOneReportPerDimension) {
  auto bs = BudgetSplitPerturber::Create(4, {1.0, 10});
  ASSERT_TRUE(bs.ok());
  Rng rng(501);
  const std::vector<double> x = {0.1, 0.4, 0.6, 0.9};
  const auto y = (*bs)->ProcessVector(x, rng);
  EXPECT_EQ(y.size(), 4u);
}

TEST(BudgetSplitTest, LedgerSumsAcrossDimensions) {
  const size_t d = 5;
  const double eps = 1.0;
  const int w = 10;
  auto bs = BudgetSplitPerturber::Create(d, {eps, w}, AlgorithmKind::kCapp);
  ASSERT_TRUE(bs.ok());
  WEventAccountant ledger;
  (*bs)->AttachAccountant(&ledger);
  Rng rng(503);
  const std::vector<double> x(d, 0.5);
  for (int t = 0; t < 50; ++t) (*bs)->ProcessVector(x, rng);
  // Each slot spends d * eps/(d*w) = eps/w; any window spends exactly eps.
  EXPECT_TRUE(ledger.VerifyBudget(w, eps).ok())
      << ledger.MaxWindowSpend(w);
  EXPECT_NEAR(ledger.MaxWindowSpend(w), eps, 1e-9);
}

TEST(SampleSplitTest, OnlyActiveDimensionChanges) {
  const size_t d = 3;
  auto ss = SampleSplitPerturber::Create(d, {1.0, 10});
  ASSERT_TRUE(ss.ok());
  Rng rng(509);
  const std::vector<double> x = {0.2, 0.5, 0.8};
  auto prev = (*ss)->ProcessVector(x, rng);
  for (int t = 1; t < 12; ++t) {
    const auto cur = (*ss)->ProcessVector(x, rng);
    int changed = 0;
    for (size_t k = 0; k < d; ++k) {
      if (cur[k] != prev[k]) ++changed;
    }
    EXPECT_LE(changed, 1) << "slot " << t;
    prev = cur;
  }
}

TEST(SampleSplitTest, RoundRobinCoversAllDimensions) {
  const size_t d = 4;
  auto ss = SampleSplitPerturber::Create(d, {1.0, 10});
  ASSERT_TRUE(ss.ok());
  Rng rng(521);
  const std::vector<double> x = {0.2, 0.4, 0.6, 0.8};
  std::vector<double> first = (*ss)->ProcessVector(x, rng);
  std::vector<bool> updated(d, false);
  updated[0] = true;  // slot 0 updates dim 0
  auto prev = first;
  for (int t = 1; t < static_cast<int>(d); ++t) {
    const auto cur = (*ss)->ProcessVector(x, rng);
    for (size_t k = 0; k < d; ++k) {
      if (cur[k] != prev[k]) updated[k] = true;
    }
    prev = cur;
  }
  for (size_t k = 0; k < d; ++k) EXPECT_TRUE(updated[k]) << "dim " << k;
}

TEST(SampleSplitTest, LedgerSpendsEpsOverWPerSlot) {
  const size_t d = 4;
  const double eps = 2.0;
  const int w = 8;
  auto ss = SampleSplitPerturber::Create(d, {eps, w}, AlgorithmKind::kApp);
  ASSERT_TRUE(ss.ok());
  WEventAccountant ledger;
  (*ss)->AttachAccountant(&ledger);
  Rng rng(523);
  const std::vector<double> x(d, 0.5);
  for (int t = 0; t < 40; ++t) (*ss)->ProcessVector(x, rng);
  EXPECT_TRUE(ledger.VerifyBudget(w, eps).ok());
  EXPECT_NEAR(ledger.MaxWindowSpend(w), eps, 1e-9);
  EXPECT_NEAR(ledger.SlotSpend(0), eps / w, 1e-12);
}

TEST(SampleSplitTest, ResetRestartsRoundRobin) {
  auto ss = SampleSplitPerturber::Create(2, {1.0, 10});
  ASSERT_TRUE(ss.ok());
  Rng rng(541);
  const std::vector<double> x = {0.3, 0.7};
  (*ss)->ProcessVector(x, rng);
  (*ss)->Reset();
  WEventAccountant ledger;
  (*ss)->AttachAccountant(&ledger);
  (*ss)->ProcessVector(x, rng);
  EXPECT_GT(ledger.SlotSpend(0), 0.0);  // slot counter restarted at 0
}

// ------------------------------------------- engine adapter + equivalence ----

TEST(MultidimPerturberTest, RejectsZeroDimensions) {
  EXPECT_FALSE(MultidimPerturber::Create(0, MultidimStrategy::kBudgetSplit,
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
    EXPECT_FALSE(BudgetSplitPerturber::Create(4, {1.0, 10}, inner).ok());
    EXPECT_FALSE(SampleSplitPerturber::Create(4, {1.0, 10}, inner).ok());
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

// d = 1 is the one-dimension case of the device pipeline: for every
// online algorithm and either strategy label, a pooled one-dimensional
// MultidimPerturber reports exactly what a UserSession reports, bit for
// bit, user after user.
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
        // Finite inputs, out-of-domain ones included (both paths clamp).
        Rng input_rng(900 + uid);
        std::vector<double> truth(kSlots);
        for (double& x : truth) x = input_rng.Uniform(-0.25, 1.25);
        const uint64_t seed = UserStreamSeed(31, uid, 1);
        perturber->ResetForUser(seed);
        perturber->PerturbStream(truth, kSlots, reports);
        auto session = UserSession::Create(uid, kind, options, seed);
        ASSERT_TRUE(session.ok());
        std::vector<double> expected(kSlots);
        session->ReportChunk(truth, expected);
        ASSERT_EQ(reports.size(), kSlots);
        for (size_t t = 0; t < kSlots; ++t) {
          EXPECT_EQ(std::bit_cast<uint64_t>(reports[t]),
                    std::bit_cast<uint64_t>(expected[t]))
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
