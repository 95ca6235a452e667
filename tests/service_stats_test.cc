// The serving log line (service/serving_stats.h): FormatStatsLine renders
// the mbr_engine_* / mbr_net_* series of a registry snapshot, which is the
// same value the STATS wire reply carries.

#include <chrono>

#include <gtest/gtest.h>

#include "core/authority.h"
#include "graph/labeled_graph.h"
#include "obs/metrics.h"
#include "service/query_engine.h"
#include "service/serving_stats.h"
#include "topics/similarity_matrix.h"

namespace mbr::service {
namespace {

using graph::GraphBuilder;
using graph::LabeledGraph;
using topics::TopicSet;

TEST(ServingStatsTest, SnapshotProjectsCountersAndPercentiles) {
  obs::Registry r;
  r.GetCounter("mbr_engine_queries_total", "")->Increment(120);
  r.GetCounter("mbr_engine_cache_hits_total", "")->Increment(50);
  r.GetCounter("mbr_engine_cache_misses_total", "")->Increment(70);
  r.GetCounter("mbr_engine_deadline_exceeded_total", "")->Increment(6);
  // 90 samples in bucket 5 ([32, 64) us), 10 in bucket 10 ([1024, 2048)).
  obs::Histogram* latency = r.GetHistogram("mbr_engine_latency_us", "");
  for (int i = 0; i < 90; ++i) latency->Record(40);
  for (int i = 0; i < 10; ++i) latency->Record(1500);

  const obs::MetricsSnapshot s = r.TakeSnapshot();
  EXPECT_EQ(s.CounterValue("mbr_engine_queries_total"), 120u);
  const obs::Histogram::Snapshot h = s.HistogramValue("mbr_engine_latency_us");
  EXPECT_DOUBLE_EQ(h.PercentileLowerBound(0.50), 32.0);
  EXPECT_DOUBLE_EQ(h.PercentileLowerBound(0.99), 1024.0);
  EXPECT_EQ(FormatStatsLine(s),
            "queries=120 hit=41.7% shed=0+0 expired=6 conns=0/0 p50=32us "
            "p90=32us p99=1024us tiers=0/0/0 degraded=0");
}

TEST(ServingStatsTest, SnapshotOfFreshEngineIsAllZeros) {
  GraphBuilder b(2, 1);
  b.AddEdge(0, 1, TopicSet::Single(0));
  LabeledGraph g = std::move(b).Build();
  core::AuthorityIndex auth(g);
  EngineConfig ec;
  ec.num_threads = 1;
  QueryEngine engine(g, auth, topics::TwitterSimilarity(), ec);
  const obs::MetricsSnapshot s = engine.registry().TakeSnapshot();
  EXPECT_EQ(s.CounterValue("mbr_engine_queries_total"), 0u);
  EXPECT_EQ(s.GaugeValue("mbr_engine_params_epoch"), 0);
  EXPECT_EQ(FormatStatsLine(s),
            "queries=0 hit=0.0% shed=0+0 expired=0 conns=0/0 p50=0us p90=0us "
            "p99=0us tiers=0/0/0 degraded=0");
}

TEST(ServingStatsTest, FormatLineContainsEveryField) {
  obs::MetricsSnapshot s;
  s.counters = {{"mbr_engine_queries_total", {}, 120},
                {"mbr_engine_cache_hits_total", {}, 50},
                {"mbr_engine_cache_misses_total", {}, 70},
                {"mbr_net_shed_overload_total", {}, 3},
                {"mbr_net_shed_deadline_total", {}, 1},
                {"mbr_engine_deadline_exceeded_total", {}, 2},
                {"mbr_net_connections_accepted_total", {}, 17},
                {"mbr_net_connections_closed_total", {}, 15},
                {"mbr_engine_tier_served_total", {{"tier", "exact"}}, 100},
                {"mbr_engine_tier_served_total", {{"tier", "approx"}}, 15},
                {"mbr_engine_tier_served_total", {{"tier", "stale"}}, 5},
                {"mbr_engine_degraded_total", {}, 20}};
  s.histograms.push_back({"mbr_engine_latency_us", {}, {}});
  s.histograms[0].value.buckets[5] = 50;    // 32 us
  s.histograms[0].value.buckets[6] = 40;    // 64 us
  s.histograms[0].value.buckets[10] = 10;   // 1024 us
  std::string line = FormatStatsLine(s);
  EXPECT_NE(line.find("queries=120"), std::string::npos) << line;
  EXPECT_NE(line.find("hit=41.7%"), std::string::npos) << line;
  EXPECT_NE(line.find("shed=3+1"), std::string::npos) << line;
  EXPECT_NE(line.find("expired=2"), std::string::npos) << line;
  EXPECT_NE(line.find("conns=2/17"), std::string::npos) << line;
  EXPECT_NE(line.find("p50=32us"), std::string::npos) << line;
  EXPECT_NE(line.find("p90=64us"), std::string::npos) << line;
  EXPECT_NE(line.find("p99=1024us"), std::string::npos) << line;
  EXPECT_NE(line.find("tiers=100/15/5"), std::string::npos) << line;
  EXPECT_NE(line.find("degraded=20"), std::string::npos) << line;
}

TEST(ServingStatsTest, LiveEngineRoundTrip) {
  GraphBuilder b(4, 4);
  b.AddEdge(0, 1, TopicSet::Single(0));
  b.AddEdge(1, 2, TopicSet::Single(0));
  LabeledGraph g = std::move(b).Build();
  core::AuthorityIndex auth(g);
  EngineConfig ec;
  ec.num_threads = 1;
  ec.cache_capacity = 16;
  QueryEngine engine(g, auth, topics::TwitterSimilarity(), ec);
  engine.TopN(0, 0, 5);
  engine.TopN(0, 0, 5);

  obs::MetricsSnapshot s = engine.registry().TakeSnapshot();
  EXPECT_EQ(s.CounterValue("mbr_engine_queries_total"), 2u);
  EXPECT_EQ(s.CounterValue("mbr_engine_cache_hits_total"), 1u);
  EXPECT_EQ(s.CounterValue("mbr_engine_cache_misses_total"), 1u);
  // The two queries landed somewhere in the histogram: p50 is a valid
  // bucket lower bound (>= 1 us by construction of the log2 buckets).
  EXPECT_GE(s.HistogramValue("mbr_engine_latency_us").PercentileLowerBound(0.5),
            1.0);

  // An already-expired deadline is rejected at admission and shows up in
  // the snapshot (and therefore in the STATS reply and the serve log line).
  core::Query q =
      core::Query::TopN(0, 0, 5).WithDeadline(std::chrono::milliseconds(-1));
  auto r = engine.Recommend(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  s = engine.registry().TakeSnapshot();
  EXPECT_EQ(s.CounterValue("mbr_engine_deadline_exceeded_total"), 1u);
  EXPECT_NE(FormatStatsLine(s).find("expired=1"), std::string::npos);

  // The params epoch is a gauge, set where the epoch is bumped.
  engine.Invalidate();
  engine.Invalidate();
  EXPECT_EQ(engine.registry().TakeSnapshot().GaugeValue(
                "mbr_engine_params_epoch"),
            static_cast<int64_t>(engine.params_epoch()));
  EXPECT_EQ(engine.params_epoch(), 2u);
}

}  // namespace
}  // namespace mbr::service
