// EXTENSION (serving layer): batched-query throughput of the concurrent
// QueryEngine.
//
// Sweeps worker count {1, 2, 4, 8} x cache {off, on} over a Zipf-skewed
// query mix (skewed users AND skewed topics — the shape of real "who to
// follow" traffic) against a datagen Twitter graph. For each setting the
// same batch runs twice: cold (every query scored) and warm (repeats can
// hit the cache). Reported: queries/s for both passes, the warm hit rate,
// and p50/p99 serving latency.
//
// Scaling knobs (bench_common.h): MBR_SCALE multiplies the graph size,
// MBR_TRIALS overrides the query count, MBR_SEED the dataset seed.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/authority.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace {

using namespace mbr;

struct Row {
  uint32_t threads;
  bool cache;
  double cold_qps;
  double warm_qps;
  double hit_rate;
  double p50_us;
  double p99_us;
};

}  // namespace

int main() {
  bench::PrintHeader(
      "ext_serving_throughput — concurrent QueryEngine sweep",
      "extension beyond the paper: serving-layer scaling (threads x cache)");

  datagen::TwitterConfig cfg = bench::BenchTwitterConfig(4000);
  datagen::GeneratedDataset ds = datagen::GenerateTwitter(cfg);
  core::AuthorityIndex auth(ds.graph);
  const topics::SimilarityMatrix& sim = topics::TwitterSimilarity();
  std::printf("graph: %u nodes, %llu edges, %d topics | hardware threads: %u\n",
              ds.graph.num_nodes(),
              static_cast<unsigned long long>(ds.graph.num_edges()),
              ds.graph.num_topics(), std::thread::hardware_concurrency());

  // Zipf-skewed query mix: popular users are asked about far more often,
  // popular topics dominate — this is what makes a serving cache pay.
  const uint32_t num_queries = bench::EnvTrials(3000);
  util::Rng rng(bench::EnvSeed(20160316));
  util::ZipfDistribution user_zipf(ds.graph.num_nodes(), 1.1);
  util::ZipfDistribution topic_zipf(
      static_cast<uint32_t>(ds.graph.num_topics()), 1.0);
  std::vector<service::Query> batch;
  batch.reserve(num_queries);
  for (uint32_t i = 0; i < num_queries; ++i) {
    service::Query q;
    q.user = user_zipf.Sample(&rng);
    q.topic = static_cast<topics::TopicId>(topic_zipf.Sample(&rng));
    q.top_n = 10;
    batch.push_back(q);
  }

  std::vector<Row> rows;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (bool cache : {false, true}) {
      service::EngineConfig ec;
      ec.num_threads = threads;
      ec.cache_capacity = cache ? 1u << 15 : 0;
      service::QueryEngine engine(ds.graph, auth, sim, ec);

      util::WallTimer timer;
      engine.RecommendMany(batch);
      const double cold = timer.ElapsedSeconds();
      const obs::MetricsSnapshot after_cold = engine.registry().TakeSnapshot();
      timer.Restart();
      engine.RecommendMany(batch);
      const double warm = timer.ElapsedSeconds();
      const obs::MetricsSnapshot s = engine.registry().TakeSnapshot();

      // Warm-pass hit rate: of the repeated batch's queries, how many were
      // O(1) cache lookups.
      const char* hits = "mbr_engine_cache_hits_total";
      const double warm_hit_rate =
          static_cast<double>(s.CounterValue(hits) -
                              after_cold.CounterValue(hits)) /
          static_cast<double>(num_queries);
      const obs::Histogram::Snapshot latency =
          s.HistogramValue("mbr_engine_latency_us");
      rows.push_back({threads, cache, num_queries / cold,
                      num_queries / warm, warm_hit_rate,
                      latency.PercentileLowerBound(0.5),
                      latency.PercentileLowerBound(0.99)});
    }
  }

  std::printf("\n%8s %6s %12s %12s %9s %9s %9s\n", "threads", "cache",
              "cold q/s", "warm q/s", "warm-hit", "p50(us)", "p99(us)");
  for (const Row& r : rows) {
    std::printf("%8u %6s %12.0f %12.0f %8.1f%% %9.0f %9.0f\n", r.threads,
                r.cache ? "on" : "off", r.cold_qps, r.warm_qps,
                100.0 * r.hit_rate, r.p50_us, r.p99_us);
  }

  // Headline numbers the acceptance criteria track.
  double qps1 = 0, qps4 = 0, warm_hit = 0;
  for (const Row& r : rows) {
    if (!r.cache && r.threads == 1) qps1 = r.cold_qps;
    if (!r.cache && r.threads == 4) qps4 = r.cold_qps;
    if (r.cache && r.threads == 4) warm_hit = r.hit_rate;
  }
  std::printf(
      "\nbatched speedup 4t vs 1t (cache off, cold): %.2fx "
      "(needs >= 4 hardware threads to show parallel scaling)\n",
      qps1 > 0 ? qps4 / qps1 : 0.0);
  std::printf("warm-pass hit rate at 4t with cache on: %.1f%%\n",
              100.0 * warm_hit);
  return 0;
}
