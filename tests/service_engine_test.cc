// service::QueryEngine: concurrent serving must exactly match a sequential
// TrRecommender oracle, batches must preserve input order, and the serving
// stats must add up. The 8-thread hammer test is the one meant to run
// under MBR_SANITIZE=thread (see DESIGN.md).

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/authority.h"
#include "core/recommender.h"
#include "datagen/twitter_generator.h"
#include "landmark/index.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"

namespace mbr::service {
namespace {

// One engine counter, read through the registry snapshot.
uint64_t Counted(QueryEngine& engine, std::string_view name,
                 const obs::Labels& labels = {}) {
  return engine.registry().TakeSnapshot().CounterValue(name, labels);
}

using util::ScoredId;

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::TwitterConfig cfg;
    cfg.num_nodes = 400;
    cfg.seed = 77;
    ds_ = datagen::GenerateTwitter(cfg);
    auth_ = std::make_unique<core::AuthorityIndex>(ds_.graph);
    oracle_ = std::make_unique<core::TrRecommender>(
        ds_.graph, topics::TwitterSimilarity(), core::ScoreParams{});
  }

  Query MakeQuery(uint32_t i) const {
    // A deterministic mix with plenty of repeats (cache contention).
    Query q;
    q.user = (i * 13) % ds_.graph.num_nodes();
    q.topic = static_cast<topics::TopicId>((i * 7) % ds_.graph.num_topics());
    q.top_n = 10;
    return q;
  }

  void ExpectMatchesOracle(const Query& q,
                           const std::vector<ScoredId>& got) const {
    std::vector<ScoredId> want = oracle_->Recommend(q.user, q.topic, q.top_n);
    ASSERT_EQ(got.size(), want.size())
        << "user=" << q.user << " topic=" << q.topic;
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].id, want[r].id)
          << "user=" << q.user << " topic=" << q.topic << " rank=" << r;
      EXPECT_DOUBLE_EQ(got[r].score, want[r].score)
          << "user=" << q.user << " topic=" << q.topic << " rank=" << r;
    }
  }

  datagen::GeneratedDataset ds_;
  std::unique_ptr<core::AuthorityIndex> auth_;
  std::unique_ptr<core::TrRecommender> oracle_;
};

TEST_F(QueryEngineTest, EightThreadsMatchSequentialOracle) {
  EngineConfig ec;
  ec.num_threads = 4;
  ec.cache_capacity = 512;  // overlapping queries exercise the cache too
  QueryEngine engine(ds_.graph, *auth_, topics::TwitterSimilarity(), ec);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::vector<std::vector<std::vector<ScoredId>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([this, th, &engine, &got] {
      got[th].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        Query q = MakeQuery(static_cast<uint32_t>(th * kPerThread + i) % 90);
        got[th].push_back(engine.TopN(q.user, q.topic, q.top_n).value());
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int th = 0; th < kThreads; ++th) {
    for (int i = 0; i < kPerThread; ++i) {
      Query q = MakeQuery(static_cast<uint32_t>(th * kPerThread + i) % 90);
      ExpectMatchesOracle(q, got[th][i]);
    }
  }
  const uint64_t queries = Counted(engine, "mbr_engine_queries_total");
  const uint64_t hits = Counted(engine, "mbr_engine_cache_hits_total");
  EXPECT_EQ(queries, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hits + Counted(engine, "mbr_engine_cache_misses_total"), queries);
  EXPECT_GT(hits, 0u);  // only 90 distinct queries among 320
}

TEST_F(QueryEngineTest, RecommendManyPreservesInputOrder) {
  EngineConfig ec;
  ec.num_threads = 4;
  ec.cache_capacity = 0;  // cache off: every query runs a scorer
  QueryEngine engine(ds_.graph, *auth_, topics::TwitterSimilarity(), ec);

  std::vector<Query> batch;
  for (uint32_t i = 0; i < 64; ++i) batch.push_back(MakeQuery(i));
  auto results = engine.RecommendMany(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ExpectMatchesOracle(batch[i], results[i].value().ranking.entries);
  }
  const obs::MetricsSnapshot s = engine.registry().TakeSnapshot();
  EXPECT_EQ(s.CounterValue("mbr_engine_batches_total"), 1u);
  EXPECT_EQ(s.CounterValue("mbr_engine_queries_total"), batch.size());
  EXPECT_EQ(s.CounterValue("mbr_engine_cache_hits_total"), 0u);
  EXPECT_EQ(s.CounterValue("mbr_engine_cache_misses_total"), batch.size());
}

TEST_F(QueryEngineTest, EmptyBatchIsANoOp) {
  EngineConfig ec;
  ec.num_threads = 2;
  QueryEngine engine(ds_.graph, *auth_, topics::TwitterSimilarity(), ec);
  auto results = engine.RecommendMany({});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(Counted(engine, "mbr_engine_queries_total"), 0u);
}

TEST_F(QueryEngineTest, LandmarkModeServesApproximation) {
  std::vector<graph::NodeId> landmarks;
  for (graph::NodeId v = 0; v < ds_.graph.num_nodes(); v += 29) {
    landmarks.push_back(v);
  }
  landmark::LandmarkIndexConfig lc;
  lc.top_n = 50;
  lc.num_threads = 1;
  landmark::LandmarkIndex index(ds_.graph, *auth_,
                                topics::TwitterSimilarity(), landmarks, lc);

  EngineConfig ec;
  ec.num_threads = 2;
  ec.cache_capacity = 128;
  ec.landmarks = &index;
  QueryEngine engine(ds_.graph, *auth_, topics::TwitterSimilarity(), ec);

  landmark::ApproxConfig ac;
  ac.params = ec.params;
  landmark::ApproxRecommender reference(
      ds_.graph, *auth_, topics::TwitterSimilarity(), index, ac);

  for (uint32_t i = 0; i < 20; ++i) {
    Query q = MakeQuery(i);
    auto got = engine.TopN(q.user, q.topic, q.top_n).value();
    auto want = reference.TopN(q.user, q.topic, q.top_n);
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].id, want[r].id);
      EXPECT_DOUBLE_EQ(got[r].score, want[r].score);
    }
  }
}

TEST_F(QueryEngineTest, LatencyHistogramCoversEveryQuery) {
  EngineConfig ec;
  ec.num_threads = 2;
  ec.cache_capacity = 64;
  QueryEngine engine(ds_.graph, *auth_, topics::TwitterSimilarity(), ec);
  std::vector<Query> batch;
  for (uint32_t i = 0; i < 32; ++i) batch.push_back(MakeQuery(i % 8));
  engine.RecommendMany(batch);
  engine.RecommendMany(batch);  // warm repeat
  const obs::MetricsSnapshot s = engine.registry().TakeSnapshot();
  uint64_t histogram_total = 0;
  const obs::Histogram::Snapshot latency =
      s.HistogramValue("mbr_engine_latency_us");
  for (uint64_t c : latency.buckets) histogram_total += c;
  EXPECT_EQ(histogram_total, s.CounterValue("mbr_engine_queries_total"));
  EXPECT_GT(latency.PercentileLowerBound(0.5), 0.0);
  EXPECT_GE(latency.PercentileLowerBound(0.99),
            latency.PercentileLowerBound(0.5));
}

}  // namespace
}  // namespace mbr::service
