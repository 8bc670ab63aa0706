// Tests for the stream framework: w-event accountant, SMA smoothing, and
// the collector.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/math_utils.h"
#include "core/rng.h"
#include "stream/accountant.h"
#include "stream/collector.h"
#include "stream/smoothing.h"

namespace capp {
namespace {

// -------------------------------------------------------------- accountant --

TEST(AccountantTest, EmptyLedger) {
  WEventAccountant acc;
  EXPECT_EQ(acc.num_slots(), 0u);
  EXPECT_DOUBLE_EQ(acc.TotalSpend(), 0.0);
  EXPECT_DOUBLE_EQ(acc.MaxWindowSpend(5), 0.0);
  EXPECT_TRUE(acc.VerifyBudget(5, 1.0).ok());
}

TEST(AccountantTest, SingleSlotAccumulates) {
  WEventAccountant acc;
  acc.Record(0, 0.25);
  acc.Record(0, 0.25);
  EXPECT_DOUBLE_EQ(acc.SlotSpend(0), 0.5);
  EXPECT_DOUBLE_EQ(acc.TotalSpend(), 0.5);
}

TEST(AccountantTest, SparseSlotsFillZero) {
  WEventAccountant acc;
  acc.Record(4, 1.0);
  EXPECT_EQ(acc.num_slots(), 5u);
  EXPECT_DOUBLE_EQ(acc.SlotSpend(2), 0.0);
  EXPECT_DOUBLE_EQ(acc.SlotSpend(10), 0.0);
}

TEST(AccountantTest, MaxWindowSpendSlides) {
  WEventAccountant acc;
  // Spends: 1 0 0 2 1
  acc.Record(0, 1.0);
  acc.Record(3, 2.0);
  acc.Record(4, 1.0);
  EXPECT_DOUBLE_EQ(acc.MaxWindowSpend(1), 2.0);
  EXPECT_DOUBLE_EQ(acc.MaxWindowSpend(2), 3.0);  // slots 3+4
  EXPECT_DOUBLE_EQ(acc.MaxWindowSpend(4), 3.0);  // slots 1..4 (0+0+2+1)
  EXPECT_DOUBLE_EQ(acc.MaxWindowSpend(5), 4.0);  // whole stream
  EXPECT_DOUBLE_EQ(acc.MaxWindowSpend(100), 4.0);  // window > stream
}

TEST(AccountantTest, VerifyBudgetDetectsViolation) {
  WEventAccountant acc;
  acc.Record(0, 0.6);
  acc.Record(1, 0.6);
  EXPECT_TRUE(acc.VerifyBudget(1, 0.6).ok());
  EXPECT_FALSE(acc.VerifyBudget(2, 1.0).ok());
  EXPECT_TRUE(acc.VerifyBudget(2, 1.2).ok());
}

TEST(AccountantTest, VerifyBudgetToleratesRounding) {
  WEventAccountant acc;
  for (int i = 0; i < 10; ++i) acc.Record(i, 0.1);
  // Sum may exceed 1.0 by float rounding; the tolerance must absorb it.
  EXPECT_TRUE(acc.VerifyBudget(10, 1.0).ok());
}

TEST(AccountantTest, ResetClears) {
  WEventAccountant acc;
  acc.Record(0, 1.0);
  acc.Reset();
  EXPECT_EQ(acc.num_slots(), 0u);
  EXPECT_DOUBLE_EQ(acc.TotalSpend(), 0.0);
}

// --------------------------------------------------------------- smoothing --

TEST(SmaTest, RejectsEvenOrNonPositiveWindow) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_FALSE(SimpleMovingAverage(xs, 0).ok());
  EXPECT_FALSE(SimpleMovingAverage(xs, 2).ok());
  EXPECT_FALSE(SimpleMovingAverage(xs, 4).ok());
}

TEST(SmaTest, WindowOneIsIdentity) {
  const std::vector<double> xs = {1.0, 5.0, -2.0};
  auto out = SimpleMovingAverage(xs, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, xs);
}

TEST(SmaTest, CenteredAverageInterior) {
  const std::vector<double> xs = {0.0, 3.0, 6.0, 9.0, 12.0};
  auto out = SimpleMovingAverage(xs, 3);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[2], 6.0);
  EXPECT_DOUBLE_EQ((*out)[1], 3.0);
}

TEST(SmaTest, BoundaryAveragesAvailableValues) {
  // The paper: "when dealing with boundary windows ... average the
  // available values".
  const std::vector<double> xs = {0.0, 3.0, 6.0};
  auto out = SimpleMovingAverage(xs, 3);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[0], 1.5);   // (0+3)/2
  EXPECT_DOUBLE_EQ((*out)[2], 4.5);   // (3+6)/2
}

TEST(SmaTest, WindowLargerThanSeries) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  auto out = SimpleMovingAverage(xs, 9);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)[1], 2.0);  // full average
}

TEST(SmaTest, EmptyAndSingleton) {
  EXPECT_TRUE(SimpleMovingAverage({}, 3)->empty());
  const std::vector<double> one = {7.0};
  auto out = SimpleMovingAverage(one, 3);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, one);
}

TEST(SmaTest, ConstantSeriesFixedPoint) {
  const std::vector<double> xs(50, 0.4);
  auto out = SimpleMovingAverage(xs, 5);
  ASSERT_TRUE(out.ok());
  // Prefix-sum evaluation has O(n) rounding; values stay within 1e-12.
  for (double v : *out) EXPECT_NEAR(v, 0.4, 1e-12);
}

// Lemma IV.1: smoothing reduces per-point variance of i.i.d. noise by
// roughly the window size.
TEST(SmaTest, VarianceReductionMatchesLemma) {
  Rng rng(71);
  const int n = 20000;
  const int window = 5;
  std::vector<double> noise;
  noise.reserve(n);
  for (int i = 0; i < n; ++i) noise.push_back(rng.Gaussian(0.0, 1.0));
  auto smoothed = SimpleMovingAverage(noise, window);
  ASSERT_TRUE(smoothed.ok());
  // Ignore the boundary region where fewer samples are averaged.
  std::vector<double> interior(smoothed->begin() + window,
                               smoothed->end() - window);
  const double var = Variance(interior);
  EXPECT_NEAR(var, 1.0 / window, 0.02);
}

TEST(SmaTest, MeanIsPreservedUpToBoundary) {
  Rng rng(73);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.UniformDouble());
  auto out = SimpleMovingAverage(xs, 3);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(Mean(*out), Mean(xs), 0.002);
}

TEST(SmaTest, Sma3Convenience) {
  const std::vector<double> xs = {0.0, 3.0, 6.0};
  const auto out = Sma3(xs);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
}

// --------------------------------------------------------------- collector --

TEST(CollectorTest, RejectsEvenWindow) {
  CollectorOptions opts;
  opts.smoothing_window = 4;
  EXPECT_FALSE(StreamCollector::Create(opts).ok());
}

TEST(CollectorTest, PublishSmooths) {
  auto collector = StreamCollector::Create();
  ASSERT_TRUE(collector.ok());
  const std::vector<double> reports = {0.0, 3.0, 6.0, 9.0, 12.0};
  const auto published = collector->Publish(reports);
  EXPECT_DOUBLE_EQ(published[2], 6.0);
}

TEST(CollectorTest, ClampOption) {
  CollectorOptions opts;
  opts.smoothing_window = 1;
  opts.clamp_to_unit = true;
  auto collector = StreamCollector::Create(opts);
  ASSERT_TRUE(collector.ok());
  const std::vector<double> reports = {-0.4, 0.5, 1.3};
  const auto published = collector->Publish(reports);
  EXPECT_DOUBLE_EQ(published[0], 0.0);
  EXPECT_DOUBLE_EQ(published[1], 0.5);
  EXPECT_DOUBLE_EQ(published[2], 1.0);
}

TEST(CollectorTest, EstimateMeanUsesRawReports) {
  auto collector = StreamCollector::Create();
  ASSERT_TRUE(collector.ok());
  const std::vector<double> reports = {0.2, 0.4, 0.9};
  EXPECT_NEAR(collector->EstimateMean(reports), 0.5, 1e-12);
}

}  // namespace
}  // namespace capp
