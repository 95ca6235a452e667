// obs::Registry / Counter / Gauge / Histogram: bucket-boundary pins, stable
// handle identity, snapshot accounting, the slow-query ring, and an 8-thread
// hammer meant to run under MBR_SANITIZE=thread (label: obs).

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/span.h"

namespace mbr::obs {
namespace {

TEST(Log2BucketTest, BoundaryPins) {
  // Bucket b holds [2^b, 2^(b+1)); bucket 0 absorbs 0.
  EXPECT_EQ(Log2Bucket(0), 0);
  EXPECT_EQ(Log2Bucket(1), 0);
  EXPECT_EQ(Log2Bucket(2), 1);
  EXPECT_EQ(Log2Bucket(3), 1);
  EXPECT_EQ(Log2Bucket(4), 2);
  EXPECT_EQ(Log2Bucket(7), 2);
  EXPECT_EQ(Log2Bucket(8), 3);
  for (int k = 0; k < kHistogramBuckets; ++k) {
    EXPECT_EQ(Log2Bucket(uint64_t{1} << k), k) << "k=" << k;
    if (k > 0) {
      EXPECT_EQ(Log2Bucket((uint64_t{1} << k) - 1), k - 1) << "k=" << k;
    }
  }
  // Everything past the last bucket's lower bound clamps to it.
  EXPECT_EQ(Log2Bucket(uint64_t{1} << 32), kHistogramBuckets - 1);
  EXPECT_EQ(Log2Bucket(std::numeric_limits<uint64_t>::max()),
            kHistogramBuckets - 1);
}

TEST(InstrumentTest, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);

  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
}

TEST(InstrumentTest, HistogramCountsSumAndBuckets) {
  Histogram h;
  for (uint64_t v : {0u, 1u, 2u, 3u, 4u, 1024u, 1025u}) h.Record(v);
  EXPECT_EQ(h.Count(), 7u);
  EXPECT_EQ(h.Sum(), 0u + 1 + 2 + 3 + 4 + 1024 + 1025);
  EXPECT_EQ(h.BucketCount(0), 2u);   // 0, 1
  EXPECT_EQ(h.BucketCount(1), 2u);   // 2, 3
  EXPECT_EQ(h.BucketCount(2), 1u);   // 4
  EXPECT_EQ(h.BucketCount(10), 2u);  // 1024, 1025
  Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 7u);
  uint64_t total = 0;
  for (uint64_t b : s.buckets) total += b;
  EXPECT_EQ(total, s.count);
}

TEST(InstrumentTest, PercentileLowerBoundPins) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.TakeSnapshot().PercentileLowerBound(0.5), 0.0);  // empty
  // 90 samples in bucket 3 ([8,16)), 10 in bucket 7 ([128,256)).
  for (int i = 0; i < 90; ++i) h.Record(9);
  for (int i = 0; i < 10; ++i) h.Record(200);
  const Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_DOUBLE_EQ(s.PercentileLowerBound(0.50), 8.0);
  EXPECT_DOUBLE_EQ(s.PercentileLowerBound(0.90), 8.0);
  EXPECT_DOUBLE_EQ(s.PercentileLowerBound(0.95), 128.0);
  EXPECT_DOUBLE_EQ(s.PercentileLowerBound(0.99), 128.0);
}

// Percentile readout over a snapshot's raw buckets (the inputs the
// engine's STATS percentiles are computed from).
TEST(SnapshotPercentileTest, OneMicrosecondStreamReportsOne) {
  Histogram::Snapshot s;
  s.buckets[Log2Bucket(1)] = 1000;
  EXPECT_EQ(s.PercentileLowerBound(0.5), 1.0);
  EXPECT_EQ(s.PercentileLowerBound(0.99), 1.0);
}

TEST(SnapshotPercentileTest, SplitStreamReportsBucketLowerBounds) {
  Histogram::Snapshot s;
  s.buckets[0] = 50;  // 1 µs samples
  s.buckets[3] = 50;  // 8–15 µs samples
  EXPECT_EQ(s.PercentileLowerBound(0.25), 1.0);
  EXPECT_EQ(s.PercentileLowerBound(0.75), 8.0);
  EXPECT_EQ(s.PercentileLowerBound(1.0), 8.0);
}

TEST(SnapshotPercentileTest, EmptyHistogramIsZero) {
  Histogram::Snapshot s;
  EXPECT_EQ(s.PercentileLowerBound(0.5), 0.0);
}

TEST(MetricsSnapshotTest, TakeSnapshotCoversEveryKindWithLookups) {
  Registry r;
  r.GetCounter("t_total", "h")->Increment(3);
  r.GetCounter("t_total", "h", {{"b", "2"}, {"a", "1"}})->Increment(5);
  r.GetGauge("t_gauge", "h")->Set(-4);
  r.GetHistogram("t_lat", "h")->Record(8);
  const MetricsSnapshot s = r.TakeSnapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  ASSERT_EQ(s.gauges.size(), 1u);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.CounterValue("t_total"), 3u);
  EXPECT_EQ(s.CounterValue("t_total", {{"a", "1"}, {"b", "2"}}), 5u);
  EXPECT_EQ(s.GaugeValue("t_gauge"), -4);
  EXPECT_EQ(s.HistogramValue("t_lat").count, 1u);
  EXPECT_EQ(s.HistogramValue("t_lat").buckets[3], 1u);
  // Absent series read as zero / empty.
  EXPECT_EQ(s.CounterValue("t_missing_total"), 0u);
  EXPECT_EQ(s.CounterValue("t_total", {{"a", "9"}}), 0u);
  EXPECT_EQ(s.GaugeValue("t_missing"), 0);
  EXPECT_EQ(s.HistogramValue("t_missing").count, 0u);
}

TEST(MetricsSnapshotTest, MergeSumsCountersAndBucketsAndMaxesGauges) {
  Registry a;
  a.GetCounter("t_total", "h")->Increment(2);
  a.GetGauge("t_epoch", "h")->Set(7);
  a.GetHistogram("t_lat", "h")->Record(1);
  Registry b;
  b.GetCounter("t_total", "h")->Increment(5);
  b.GetCounter("t_only_b_total", "h", {{"k", "v"}})->Increment(1);
  b.GetGauge("t_epoch", "h")->Set(3);
  b.GetHistogram("t_lat", "h")->Record(1);
  b.GetHistogram("t_lat", "h")->Record(600);

  MetricsSnapshot m = a.TakeSnapshot();
  m.Merge(b.TakeSnapshot());
  EXPECT_EQ(m.CounterValue("t_total"), 7u);
  EXPECT_EQ(m.CounterValue("t_only_b_total", {{"k", "v"}}), 1u);
  EXPECT_EQ(m.GaugeValue("t_epoch"), 7);
  const Histogram::Snapshot lat = m.HistogramValue("t_lat");
  EXPECT_EQ(lat.count, 3u);
  EXPECT_EQ(lat.sum, 602u);
  EXPECT_EQ(lat.buckets[0], 2u);
  EXPECT_EQ(lat.buckets[Log2Bucket(600)], 1u);
  EXPECT_EQ(m.counters.size(), 2u);  // one series per key, not per source
}

TEST(MetricsSnapshotTest, MergedHistogramGivesFleetPercentiles) {
  // One shard served 99 queries at 1 µs, another 1 at 600 µs. The fleet
  // p50 is 1 µs; taking the max of per-shard percentiles would say 512.
  MetricsSnapshot fleet;
  MetricsSnapshot shard0;
  shard0.histograms.push_back({"t_lat", {}, {}});
  shard0.histograms[0].value.buckets[0] = 99;
  MetricsSnapshot shard1;
  shard1.histograms.push_back({"t_lat", {}, {}});
  shard1.histograms[0].value.buckets[9] = 1;
  fleet.Merge(shard0);
  fleet.Merge(shard1);
  const Histogram::Snapshot lat = fleet.HistogramValue("t_lat");
  EXPECT_EQ(lat.PercentileLowerBound(0.50), 1.0);
  EXPECT_EQ(lat.PercentileLowerBound(0.99), 1.0);
  EXPECT_EQ(lat.PercentileLowerBound(1.0), 512.0);
}

TEST(RegistryTest, ReRegistrationReturnsTheSameHandle) {
  Registry r;
  Counter* a = r.GetCounter("t_total", "help a");
  Counter* b = r.GetCounter("t_total", "ignored later help");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->Value(), 3u);

  auto snap = r.SnapshotCounters();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first.help, "help a");  // first registration wins
  EXPECT_EQ(snap[0].second, 3u);
}

TEST(RegistryTest, LabelsDistinguishSeriesAndOrderDoesNot) {
  Registry r;
  Histogram* ab = r.GetHistogram("t_lat", "h", {{"a", "1"}, {"b", "2"}});
  Histogram* ba = r.GetHistogram("t_lat", "h", {{"b", "2"}, {"a", "1"}});
  Histogram* other = r.GetHistogram("t_lat", "h", {{"a", "1"}, {"b", "3"}});
  EXPECT_EQ(ab, ba);  // label order is not identity
  EXPECT_NE(ab, other);
  auto snap = r.SnapshotHistograms();
  ASSERT_EQ(snap.size(), 2u);
  // Labels come back sorted regardless of registration order.
  EXPECT_EQ(snap[0].first.labels, (Labels{{"a", "1"}, {"b", "2"}}));
}

TEST(RegistryTest, HandlePointersSurviveLaterRegistrations) {
  Registry r;
  Counter* first = r.GetCounter("t_first_total", "h");
  first->Increment();
  // Force enough registrations that vector storage would have reallocated.
  for (int i = 0; i < 200; ++i) {
    r.GetCounter("t_fill_total", "h", {{"i", std::to_string(i)}});
    r.GetGauge("t_fill_gauge", "h", {{"i", std::to_string(i)}});
    r.GetHistogram("t_fill_lat", "h", {{"i", std::to_string(i)}});
  }
  first->Increment();  // must still be valid
  EXPECT_EQ(first->Value(), 2u);
  EXPECT_EQ(r.GetCounter("t_first_total", "h"), first);
}

TEST(RegistryTest, SnapshotsPreserveRegistrationOrder) {
  Registry r;
  r.GetCounter("t_b_total", "h");
  r.GetCounter("t_a_total", "h");
  r.GetGauge("t_g", "h");
  auto counters = r.SnapshotCounters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first.name, "t_b_total");
  EXPECT_EQ(counters[1].first.name, "t_a_total");
  ASSERT_EQ(r.SnapshotGauges().size(), 1u);
}

// The TSan target: concurrent recording on shared handles plus concurrent
// registration of the same names must be exact, not approximately right.
TEST(RegistryTest, ConcurrentHammerIsExact) {
  Registry r;
  constexpr int kThreads = 8;
  constexpr int kIters = 5'000;
  Counter* c = r.GetCounter("t_hammer_total", "h");
  Gauge* g = r.GetGauge("t_hammer_gauge", "h");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, c, g, t] {
      // Every thread re-registers the shared histogram: registration must
      // be thread-safe and return the same handle each time.
      for (int i = 0; i < kIters; ++i) {
        Histogram* h = r.GetHistogram("t_hammer_lat", "h");
        h->Record(static_cast<uint64_t>(t * kIters + i));
        c->Increment();
        g->Add(t % 2 == 0 ? 1 : -1);
        if (i % 128 == 0) {
          r.SnapshotHistograms();  // readers race writers
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(g->Value(), 0);
  Histogram* h = r.GetHistogram("t_hammer_lat", "h");
  EXPECT_EQ(h->Count(), static_cast<uint64_t>(kThreads) * kIters);
  uint64_t total = 0;
  Histogram::Snapshot s = h->TakeSnapshot();
  for (uint64_t b : s.buckets) total += b;
  EXPECT_EQ(total, h->Count());
}

#ifndef MBR_OBS_NOOP
TEST(SpanTest, DisabledSpansSkipRecording) {
  // MBR_SPAN registers into Registry::Default(); use a unique stage name so
  // other tests in this binary cannot perturb the count.
  Histogram* h = StageHistogram("test.gate");
  const uint64_t before = h->Count();
  SetEnabled(false);
  { MBR_SPAN("test.gate"); }
  EXPECT_EQ(h->Count(), before);
  SetEnabled(true);
  { MBR_SPAN("test.gate"); }
  EXPECT_EQ(h->Count(), before + 1);
}
#endif

TEST(SlowQueryLogTest, ThresholdAndRingCapacity) {
  SlowQueryLog log(SlowQueryLog::Config{.threshold_micros = 0, .capacity = 2});
  for (uint64_t u = 1; u <= 3; ++u) {
    QueryTrace trace(&log, /*user=*/u, /*topic=*/4, /*top_n=*/10);
    QueryTrace::AppendStage("test.stage", 100 * u);
  }
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);  // capacity 2: oldest entry evicted
  EXPECT_EQ(entries[0].user, 2u);
  EXPECT_EQ(entries[1].user, 3u);
  ASSERT_EQ(entries[1].stages.size(), 1u);
  EXPECT_EQ(entries[1].stages[0].micros, 300u);

  // A threshold far above any test query keeps the log empty.
  SlowQueryLog quiet(
      SlowQueryLog::Config{.threshold_micros = 60'000'000, .capacity = 4});
  { QueryTrace trace(&quiet, 1, 2, 3); }
  EXPECT_TRUE(quiet.Entries().empty());
}

TEST(SlowQueryLogTest, FormatIsGreppable) {
  SlowQueryEntry e;
  e.user = 7;
  e.topic = 3;
  e.top_n = 10;
  e.total_micros = 15'632;
  e.stages.push_back({"scorer.explore", 15'000});
  EXPECT_EQ(e.Format(),
            "slow-query user=7 topic=3 top_n=10 total=15632us "
            "scorer.explore=15000us");
}

TEST(SlowQueryLogTest, NullLogTraceIsInert) {
  QueryTrace trace(nullptr, 1, 2, 3);
  QueryTrace::AppendStage("test.stage", 5);  // must not crash or leak state
}

}  // namespace
}  // namespace mbr::obs
