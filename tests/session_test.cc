// Tests for the device-side UserSession API, and for the collector side
// of the same deployment: user sessions feeding a ShardedCollector that
// keeps per-user streams.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/math_utils.h"
#include "engine/sharded_collector.h"
#include "stream/report.h"
#include "stream/session.h"

namespace capp {
namespace {

// A single report is a run of length 1.
void IngestReport(ShardedCollector& collector, const SlotReport& report) {
  collector.IngestUserRun(report.user_id, report.slot, {&report.value, 1});
}

TEST(UserSessionTest, RejectsSamplingAlgorithms) {
  EXPECT_FALSE(
      UserSession::Create(1, AlgorithmKind::kAppS, {1.0, 10}, 7).ok());
  EXPECT_FALSE(
      UserSession::Create(1, AlgorithmKind::kSampling, {1.0, 10}, 7).ok());
}

TEST(UserSessionTest, RejectsBadOptions) {
  EXPECT_FALSE(
      UserSession::Create(1, AlgorithmKind::kCapp, {0.0, 10}, 7).ok());
  EXPECT_FALSE(
      UserSession::Create(1, AlgorithmKind::kCapp, {1.0, 0}, 7).ok());
}

TEST(UserSessionTest, ReportsCarrySlotAndUser) {
  auto session = UserSession::Create(42, AlgorithmKind::kCapp, {1.0, 10}, 7);
  ASSERT_TRUE(session.ok());
  for (size_t t = 0; t < 25; ++t) {
    const SlotReport report = session->Report(0.4);
    EXPECT_EQ(report.user_id, 42u);
    EXPECT_EQ(report.slot, t);
    EXPECT_TRUE(std::isfinite(report.value));
  }
  EXPECT_EQ(session->slots_processed(), 25u);
}

TEST(UserSessionTest, BudgetAuditStaysGreen) {
  auto session = UserSession::Create(7, AlgorithmKind::kApp, {2.0, 5}, 11);
  ASSERT_TRUE(session.ok());
  for (int t = 0; t < 100; ++t) session->Report(0.3 + 0.001 * t);
  EXPECT_TRUE(session->AuditBudget().ok());
  EXPECT_NEAR(session->MaxWindowSpend(), 2.0, 1e-9);
}

TEST(UserSessionTest, DeterministicForSameSeed) {
  auto a = UserSession::Create(1, AlgorithmKind::kIpp, {1.0, 10}, 99);
  auto b = UserSession::Create(1, AlgorithmKind::kIpp, {1.0, 10}, 99);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int t = 0; t < 50; ++t) {
    EXPECT_DOUBLE_EQ(a->Report(0.6).value, b->Report(0.6).value);
  }
}

// ------------------------------------------- collector with user streams --

TEST(KeepStreamsCollectorTest, IngestAndCount) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  IngestReport(*collector, {1, 0, 0.5});
  IngestReport(*collector, {1, 1, 0.6});
  IngestReport(*collector, {2, 0, 0.4});
  EXPECT_EQ(collector->user_count(), 2u);
  EXPECT_EQ(collector->SlotCount(1), 2u);
  EXPECT_EQ(collector->SlotCount(2), 1u);
  EXPECT_EQ(collector->SlotCount(3), 0u);
}

TEST(KeepStreamsCollectorTest, GapFilledStreamCarriesForward) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  IngestReport(*collector, {1, 0, 0.2});
  IngestReport(*collector, {1, 3, 0.8});  // slots 1, 2 missing
  auto stream = collector->GapFilledStream(1);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(stream->size(), 4u);
  EXPECT_DOUBLE_EQ((*stream)[0], 0.2);
  EXPECT_DOUBLE_EQ((*stream)[1], 0.2);  // carried forward
  EXPECT_DOUBLE_EQ((*stream)[2], 0.2);
  EXPECT_DOUBLE_EQ((*stream)[3], 0.8);
}

TEST(KeepStreamsCollectorTest, UnknownUserIsNotFound) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  EXPECT_FALSE(collector->GapFilledStream(9).ok());
  EXPECT_FALSE(collector->SubsequenceMean(9, 0, 5).ok());
}

TEST(KeepStreamsCollectorTest, SubsequenceMeanOverReports) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  IngestReport(*collector, {1, 0, 0.2});
  IngestReport(*collector, {1, 1, 0.4});
  IngestReport(*collector, {1, 2, 0.9});
  auto mean = collector->SubsequenceMean(1, 0, 2);
  ASSERT_TRUE(mean.ok());
  EXPECT_NEAR(*mean, 0.3, 1e-12);
  EXPECT_FALSE(collector->SubsequenceMean(1, 5, 2).ok());
  EXPECT_FALSE(collector->SubsequenceMean(1, 0, 0).ok());
}

TEST(KeepStreamsCollectorTest, PopulationSlotMeans) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  IngestReport(*collector, {1, 0, 0.2});
  IngestReport(*collector, {2, 0, 0.4});
  IngestReport(*collector, {1, 2, 1.0});
  const auto means = collector->PopulationSlotMeans();
  ASSERT_EQ(means.size(), 3u);
  EXPECT_NEAR(means[0], 0.3, 1e-12);
  EXPECT_TRUE(std::isnan(means[1]));  // nobody reported slot 1
  EXPECT_NEAR(means[2], 1.0, 1e-12);
}

TEST(KeepStreamsCollectorTest, EmptyCollectorBehaves) {
  auto collector = ShardedCollector::Create();
  ASSERT_TRUE(collector.ok());
  EXPECT_EQ(collector->user_count(), 0u);
  EXPECT_TRUE(collector->PopulationSlotMeans().empty());
}

// End-to-end: many user sessions feeding one collector; the population
// mean tracks the true common signal.
TEST(SessionIntegrationTest, PopulationMeanTracksSignal) {
  auto collector = ShardedCollector::Create({.keep_streams = true});
  ASSERT_TRUE(collector.ok());
  const int kUsers = 400;
  // The deviation feedback corrects the running mean with time constant
  // ~1/alpha slots (alpha = SW's mean-line slope, ~0.07 at eps/w = 0.2),
  // so give it a long enough horizon to converge.
  const int kSlots = 100;
  std::vector<UserSession> sessions;
  sessions.reserve(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    auto session = UserSession::Create(static_cast<uint64_t>(u),
                                       AlgorithmKind::kApp, {2.0, 10},
                                       1000 + u);
    ASSERT_TRUE(session.ok());
    sessions.push_back(std::move(*session));
  }
  // Signal centered at 0.5: APP's feedback equilibrium stays inside the
  // [0,1] clip range. (A mean far below SW's output intercept ~0.45
  // saturates the clip and the plain-APP calibration stalls -- the exact
  // pathology CAPP's widened bounds address.)
  std::vector<double> signal;
  for (int t = 0; t < kSlots; ++t) {
    const double x = 0.5 + 0.15 * std::sin(t / 3.0);
    signal.push_back(x);
    for (auto& session : sessions) {
      IngestReport(*collector, session.Report(x));
    }
  }
  const auto means = collector->PopulationSlotMeans();
  ASSERT_EQ(means.size(), signal.size());
  for (double m : means) EXPECT_TRUE(std::isfinite(m));
  // APP's raw reports are per-slot biased toward mid-domain (SW's output
  // mean line is nearly flat at stream budgets); what the deviation
  // feedback guarantees is that the *window average* of the published
  // stream matches the signal's average (Lemma IV.2). Per-slot tracking
  // needs the debiasing collector of analysis/reconstruction.h instead.
  EXPECT_NEAR(Mean(means), Mean(signal), 0.04);
}

}  // namespace
}  // namespace capp
