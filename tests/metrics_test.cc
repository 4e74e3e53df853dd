#include "common/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace streamlake {
namespace {

// The registry is process-global; every test uses names scoped under
// "test.metrics." and resets values (registrations persist by design).
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().ResetForTest(); }
};

TEST_F(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.metrics.counter");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST_F(MetricsTest, SameNameReturnsSamePointer) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("test.metrics.same"),
            registry.GetCounter("test.metrics.same"));
  EXPECT_EQ(registry.GetGauge("test.metrics.same_gauge"),
            registry.GetGauge("test.metrics.same_gauge"));
  EXPECT_EQ(registry.GetHistogram("test.metrics.same_hist"),
            registry.GetHistogram("test.metrics.same_hist"));
}

TEST_F(MetricsTest, GaugeMovesBothWays) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test.metrics.gauge");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 7);
  g->Add(5);
  EXPECT_EQ(g->Value(), 12);
}

TEST_F(MetricsTest, CounterValueForUnregisteredNameIsZero) {
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("test.metrics.never"), 0u);
}

using MetricsDeathTest = MetricsTest;

TEST_F(MetricsDeathTest, NameRegisteredAsTwoKindsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry::Global().GetCounter("test.metrics.kind_conflict");
  EXPECT_DEATH(
      MetricsRegistry::Global().GetGauge("test.metrics.kind_conflict"),
      "kind_conflict");
}

TEST_F(MetricsTest, HistogramSmallValuesAreExact) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.metrics.exact");
  for (uint64_t v = 0; v < 16; ++v) h->Record(v);
  EXPECT_EQ(h->Count(), 16u);
  EXPECT_EQ(h->Sum(), 120u);
  EXPECT_EQ(h->Min(), 0u);
  EXPECT_EQ(h->Max(), 15u);
  // Below 16 every value has its own bucket, so quantiles are exact.
  EXPECT_EQ(h->ValueAtQuantile(0.0), 0u);
  EXPECT_EQ(h->ValueAtQuantile(1.0), 15u);
}

TEST_F(MetricsTest, HistogramPercentilesWithinRelativeError) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.metrics.pctl");
  for (uint64_t v = 1; v <= 1000; ++v) h->Record(v);
  // Log-linear bucketing with 16 sub-buckets per octave bounds relative
  // error by ~1/16; allow 10%.
  for (auto [q, expected] : {std::pair<double, double>{0.5, 500.0},
                             {0.9, 900.0},
                             {0.99, 990.0}}) {
    double got = static_cast<double>(h->ValueAtQuantile(q));
    EXPECT_NEAR(got, expected, expected * 0.10) << "q=" << q;
  }
}

TEST_F(MetricsTest, HistogramLargeValuesKeepMinMaxExact) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.metrics.large");
  h->Record(1ULL << 40);
  h->Record((1ULL << 40) + 12345);
  h->Record(1ULL << 20);
  EXPECT_EQ(h->Min(), 1ULL << 20);
  EXPECT_EQ(h->Max(), (1ULL << 40) + 12345);
  // Quantiles are clamped into [Min, Max] even at bucket edges.
  EXPECT_GE(h->ValueAtQuantile(0.0), h->Min());
  EXPECT_LE(h->ValueAtQuantile(1.0), h->Max());
}

TEST_F(MetricsTest, ConcurrentIncrementsLoseNothing) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("test.metrics.mt_counter");
  Histogram* h = registry.GetHistogram("test.metrics.mt_hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Registration from inside threads races with other registrations
      // and with Snapshot(); the registry mutex must make it safe.
      Gauge* g = registry.GetGauge("test.metrics.mt_gauge");
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        g->Add(1);
        h->Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  // Concurrent snapshots while writers run: must not crash or deadlock,
  // and counts must be monotonic between consecutive snapshots.
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot snap = registry.Snapshot();
    uint64_t now = snap.counters["test.metrics.mt_counter"];
    EXPECT_GE(now, last);
    last = now;
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(registry.GetGauge("test.metrics.mt_gauge")->Value(),
            int64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->Count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->Min(), 0u);
  EXPECT_EQ(h->Max(), uint64_t{kThreads} * kPerThread - 1);
}

TEST_F(MetricsTest, SnapshotContainsAllRegisteredMetrics) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.metrics.snap_counter")->Increment(7);
  registry.GetGauge("test.metrics.snap_gauge")->Set(-3);
  Histogram* h = registry.GetHistogram("test.metrics.snap_hist");
  h->Record(5);
  h->Record(9);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test.metrics.snap_counter"), 7u);
  EXPECT_EQ(snap.gauges.at("test.metrics.snap_gauge"), -3);
  const HistogramSnapshot& hs = snap.histograms.at("test.metrics.snap_hist");
  EXPECT_EQ(hs.count, 2u);
  EXPECT_EQ(hs.sum, 14u);
  EXPECT_EQ(hs.min, 5u);
  EXPECT_EQ(hs.max, 9u);
}

TEST_F(MetricsTest, ResetForTestZeroesValuesButKeepsPointers) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("test.metrics.reset");
  c->Increment(100);
  registry.ResetForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("test.metrics.reset"), c);
}

TEST_F(MetricsTest, ReportsContainMetricNamesAndValues) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.metrics.report_counter")->Increment(13);
  registry.GetHistogram("test.metrics.report_hist")->Record(4);
  std::string json = registry.JsonReport();
  EXPECT_NE(json.find("\"test.metrics.report_counter\": 13"),
            std::string::npos);
  EXPECT_NE(json.find("\"test.metrics.report_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

}  // namespace
}  // namespace streamlake
