/**
 * @file
 * The metrics registry (DESIGN.md §13): instrument semantics,
 * registry interning, snapshot shape, and thread safety of concurrent
 * recording.
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/metrics.h"

namespace overlap {
namespace {

TEST(MetricsTest, CounterCountsAndResets)
{
    Counter c;
    c.Add();
    c.Add(41);
    EXPECT_EQ(c.value(), 42);
    c.Reset();
    EXPECT_EQ(c.value(), 0);
}

TEST(MetricsTest, GaugeKeepsLastValue)
{
    Gauge g;
    g.Set(3.0);
    g.Set(-7.5);
    EXPECT_EQ(g.value(), -7.5);
    g.Reset();
    EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricsTest, HistogramSummarizesSamples)
{
    Histogram h;
    h.Record(1.0);
    h.Record(2.0);
    h.Record(4.0);
    Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 3);
    EXPECT_DOUBLE_EQ(snap.sum, 7.0);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, 4.0);
    EXPECT_NEAR(snap.mean(), 7.0 / 3.0, 1e-12);
    // The quantile is an upper bucket edge: within 2x above the true
    // value and never below it.
    EXPECT_GE(snap.Quantile(0.99), 4.0);
    EXPECT_LE(snap.Quantile(0.99), 8.0);
    EXPECT_GE(snap.Quantile(0.0), 1.0);
    h.Reset();
    EXPECT_EQ(h.snapshot().count, 0);
}

TEST(MetricsTest, QuantileInterpolatesWithinBucket)
{
    // 8 samples spread across one bucket [4, 8): interpolation must
    // land strictly inside the bucket, not pin to the upper edge.
    Histogram h;
    for (int i = 0; i < 8; ++i) {
        h.Record(4.0 + 0.5 * static_cast<double>(i));
    }
    Histogram::Snapshot snap = h.snapshot();
    double p50 = snap.p50();
    EXPECT_GT(p50, 4.0);
    EXPECT_LT(p50, 8.0);
    // Rank 4 of 8 -> halfway through the bucket.
    EXPECT_NEAR(p50, 6.0, 1e-12);
    // A one-sided quantile clamps at the observed max, never above.
    EXPECT_LE(snap.p999(), snap.max);
}

TEST(MetricsTest, QuantilesAreMonotoneAndClamped)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i) {
        h.Record(static_cast<double>(i) * 1e-3);  // 1ms .. 1s
    }
    Histogram::Snapshot snap = h.snapshot();
    EXPECT_LE(snap.p50(), snap.p99());
    EXPECT_LE(snap.p99(), snap.p999());
    EXPECT_LE(snap.p999(), snap.max);
    EXPECT_GE(snap.p50(), snap.min);
    // The log2 buckets bound each quantile within 2x of the truth.
    EXPECT_GE(snap.p50(), 0.5 * 0.5);
    EXPECT_LE(snap.p50(), 2.0 * 0.5);
    EXPECT_GE(snap.p999(), 0.5 * 0.999);
}

TEST(MetricsTest, QuantileOfSingleSampleIsThatSample)
{
    Histogram h;
    h.Record(3.0);
    Histogram::Snapshot snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.p50(), 3.0);
    EXPECT_DOUBLE_EQ(snap.p99(), 3.0);
    EXPECT_DOUBLE_EQ(snap.p999(), 3.0);
    EXPECT_DOUBLE_EQ(h.snapshot().Quantile(0.0), 3.0);
}

TEST(MetricsTest, RegistryInternsStablePointers)
{
    MetricsRegistry registry;
    Counter* c1 = registry.counter("a.count");
    Counter* c2 = registry.counter("a.count");
    EXPECT_EQ(c1, c2);
    EXPECT_NE(registry.counter("b.count"), c1);
    Histogram* h1 = registry.histogram("a.seconds");
    EXPECT_EQ(h1, registry.histogram("a.seconds"));
    Gauge* g1 = registry.gauge("a.bytes");
    EXPECT_EQ(g1, registry.gauge("a.bytes"));
}

TEST(MetricsTest, ResetAllZeroesButKeepsRegistrations)
{
    MetricsRegistry registry;
    Counter* c = registry.counter("x");
    Histogram* h = registry.histogram("y");
    c->Add(3);
    h->Record(1.0);
    registry.ResetAll();
    EXPECT_EQ(c->value(), 0);
    EXPECT_EQ(h->snapshot().count, 0);
    EXPECT_EQ(registry.counter("x"), c);  // same instrument, zeroed
}

TEST(MetricsTest, SnapshotJsonNamesEveryInstrument)
{
    MetricsRegistry registry;
    registry.counter("sub.count")->Add(2);
    registry.gauge("sub.bytes")->Set(128.0);
    registry.histogram("sub.seconds")->Record(0.5);
    std::string json = registry.SnapshotJson();
    EXPECT_NE(json.find("\"sub.count\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"sub.bytes\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"sub.seconds\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
}

TEST(MetricsTest, ConcurrentRecordingLosesNothing)
{
    MetricsRegistry registry;
    Counter* c = registry.counter("threads.count");
    Histogram* h = registry.histogram("threads.seconds");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([c, h]() {
            for (int i = 0; i < kPerThread; ++i) {
                c->Add();
                h->Record(1.0);
            }
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(c->value(), kThreads * kPerThread);
    EXPECT_EQ(h->snapshot().count, kThreads * kPerThread);
}

}  // namespace
}  // namespace overlap
