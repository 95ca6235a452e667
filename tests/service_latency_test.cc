// Pins the engine's latency-histogram bucketing convention (bug fix: the
// old `64 - clz` mapping put a 1 µs sample in bucket 1, doubling every
// reported percentile): the engine records into obs::Log2Bucket buckets,
// and every query lands in mbr_engine_latency_us. The percentile readout
// itself is pinned on obs::Histogram::Snapshot in obs_registry_test.

#include "service/query_engine.h"

#include <cstdint>
#include <numeric>

#include <gtest/gtest.h>

#include "core/authority.h"
#include "datagen/twitter_generator.h"
#include "obs/metrics.h"
#include "topics/similarity_matrix.h"

namespace mbr::service {
namespace {

using obs::kHistogramBuckets;
using obs::Log2Bucket;

TEST(LatencyBucketTest, FloorLog2Boundaries) {
  // Bucket b holds [2^b, 2^(b+1)) µs; bucket 0 also absorbs sub-µs.
  EXPECT_EQ(Log2Bucket(0), 0);
  EXPECT_EQ(Log2Bucket(1), 0);  // the bug fix: 1 µs -> bucket 0, not 1
  EXPECT_EQ(Log2Bucket(2), 1);
  EXPECT_EQ(Log2Bucket(3), 1);
  EXPECT_EQ(Log2Bucket(4), 2);
  EXPECT_EQ(Log2Bucket(7), 2);
  EXPECT_EQ(Log2Bucket(8), 3);
  EXPECT_EQ(Log2Bucket(1023), 9);
  EXPECT_EQ(Log2Bucket(1024), 10);
  EXPECT_EQ(Log2Bucket(1025), 10);
}

TEST(LatencyBucketTest, PowersOfTwoLandInTheirOwnBucket) {
  for (int k = 0; k < kHistogramBuckets - 1; ++k) {
    EXPECT_EQ(Log2Bucket(uint64_t{1} << k), k) << "k=" << k;
  }
}

TEST(LatencyBucketTest, ClampsToLastBucket) {
  EXPECT_EQ(Log2Bucket(uint64_t{1} << 40), kHistogramBuckets - 1);
  EXPECT_EQ(Log2Bucket(~uint64_t{0}), kHistogramBuckets - 1);
}

TEST(LatencyPercentileTest, EngineHistogramCountsEveryQuery) {
  datagen::TwitterConfig gc;
  gc.num_nodes = 300;
  datagen::GeneratedDataset ds = datagen::GenerateTwitter(gc);
  core::AuthorityIndex auth(ds.graph);
  EngineConfig cfg;
  cfg.num_threads = 2;
  cfg.params.max_depth = 2;
  QueryEngine engine(ds.graph, auth, topics::TwitterSimilarity(), cfg);
  for (graph::NodeId u : {1u, 2u, 3u, 4u, 5u}) {
    engine.TopN(u, 0, 5);
  }
  const obs::MetricsSnapshot s = engine.registry().TakeSnapshot();
  const obs::Histogram::Snapshot latency =
      s.HistogramValue("mbr_engine_latency_us");
  uint64_t histogram_total = std::accumulate(
      latency.buckets.begin(), latency.buckets.end(), uint64_t{0});
  EXPECT_EQ(histogram_total, 5u);
  EXPECT_EQ(s.CounterValue("mbr_engine_queries_total"), 5u);
}

}  // namespace
}  // namespace mbr::service
