// EXTENSION (network layer): loopback throughput/latency of the epoll
// serving front end (src/net/) versus the same engine called in-process.
//
// Sweeps {1, 4, 16} client connections x {RECOMMEND, RECOMMEND_BATCH}
// over the same Zipf-skewed query mix as ext_serving_throughput. Each
// connection runs a blocking request/reply loop (the client library), so
// single-connection RECOMMEND measures full round-trip cost per query and
// batching shows how much of that is frame overhead. A final saturation
// phase hammers a max_inflight=1 server from 16 connections and reports
// the OVERLOADED shed rate — admission control visibly working.
//
// Scaling knobs (bench_common.h): MBR_SCALE multiplies the graph size,
// MBR_TRIALS overrides the query count, MBR_SEED the dataset seed.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/authority.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace {

using namespace mbr;

struct Row {
  uint32_t conns;
  const char* mode;
  double qps;
  double p50_us;
  double p99_us;
};

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * (v->size() - 1));
  return (*v)[idx];
}

net::ClientConfig ClientFor(uint16_t port) {
  net::ClientConfig cc;
  cc.port = port;
  cc.request_timeout_ms = 60000;
  return cc;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "ext_net_throughput — epoll serving front end over loopback",
      "extension beyond the paper: network serving vs in-process engine");

  datagen::TwitterConfig cfg = bench::BenchTwitterConfig(2000);
  datagen::GeneratedDataset ds = datagen::GenerateTwitter(cfg);
  core::AuthorityIndex auth(ds.graph);
  const topics::SimilarityMatrix& sim = topics::TwitterSimilarity();

  service::EngineConfig ec;
  ec.num_threads = 2;
  ec.cache_capacity = 1u << 15;
  service::QueryEngine engine(ds.graph, auth, sim, ec);
  std::printf("graph: %u nodes, %llu edges | hardware threads: %u\n",
              ds.graph.num_nodes(),
              static_cast<unsigned long long>(ds.graph.num_edges()),
              std::thread::hardware_concurrency());

  const uint32_t num_queries = bench::EnvTrials(2000);
  util::Rng rng(bench::EnvSeed(20160316));
  util::ZipfDistribution user_zipf(ds.graph.num_nodes(), 1.1);
  util::ZipfDistribution topic_zipf(
      static_cast<uint32_t>(ds.graph.num_topics()), 1.0);
  std::vector<net::RecommendRequest> mix;
  mix.reserve(num_queries);
  for (uint32_t i = 0; i < num_queries; ++i) {
    mix.push_back({user_zipf.Sample(&rng),
                   static_cast<uint32_t>(topic_zipf.Sample(&rng)), 10});
  }

  // In-process baseline on the identical mix. The cold pass warms the
  // cache; the warm pass is the fair comparison with the network passes
  // below, which run against the same (already-warm) engine.
  double inproc_cold_qps = 0;
  double inproc_warm_qps = 0;
  {
    std::vector<service::Query> batch;
    batch.reserve(mix.size());
    for (const auto& q : mix) {
      batch.push_back({q.user, static_cast<topics::TopicId>(q.topic),
                       q.top_n});
    }
    util::WallTimer timer;
    engine.RecommendMany(batch);
    inproc_cold_qps = num_queries / timer.ElapsedSeconds();
    timer.Restart();
    engine.RecommendMany(batch);
    inproc_warm_qps = num_queries / timer.ElapsedSeconds();
  }

  net::ServerConfig scfg;
  scfg.max_inflight = 128;
  scfg.dispatch_threads = 2;
  scfg.request_deadline_ms = 0;  // measuring latency, not enforcing SLOs
  net::Server server(engine, scfg);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return 1;
  }

  std::vector<Row> rows;
  for (uint32_t conns : {1u, 4u, 16u}) {
    for (bool batched : {false, true}) {
      std::vector<std::vector<double>> lat(conns);
      util::WallTimer timer;
      std::vector<std::thread> workers;
      for (uint32_t c = 0; c < conns; ++c) {
        workers.emplace_back([&, c] {
          auto client = net::Client::Connect(ClientFor(server.port()));
          if (!client.ok()) return;
          // Strided share of the mix so every connection sees the skew.
          std::vector<net::RecommendRequest> share;
          for (size_t i = c; i < mix.size(); i += conns) {
            share.push_back(mix[i]);
          }
          if (batched) {
            constexpr size_t kChunk = 64;
            for (size_t i = 0; i < share.size(); i += kChunk) {
              std::vector<net::RecommendRequest> chunk(
                  share.begin() + i,
                  share.begin() + std::min(i + kChunk, share.size()));
              util::WallTimer t;
              auto r = client->RecommendBatch(chunk);
              if (r.ok()) {
                lat[c].push_back(t.ElapsedSeconds() * 1e6 / chunk.size());
              }
            }
          } else {
            for (const auto& q : share) {
              util::WallTimer t;
              auto r = client->Recommend(q.user, q.topic, q.top_n);
              if (r.ok()) lat[c].push_back(t.ElapsedSeconds() * 1e6);
            }
          }
        });
      }
      for (auto& w : workers) w.join();
      const double elapsed = timer.ElapsedSeconds();
      std::vector<double> all;
      for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
      rows.push_back({conns, batched ? "BATCH" : "RECOMMEND",
                      num_queries / elapsed, Percentile(&all, 0.5),
                      Percentile(&all, 0.99)});
    }
  }
  server.RequestStop();
  server.Wait();

  std::printf("\n%6s %10s %12s %10s %10s\n", "conns", "mode", "q/s",
              "p50(us)", "p99(us)");
  for (const Row& r : rows) {
    std::printf("%6u %10s %12.0f %10.0f %10.0f\n", r.conns, r.mode, r.qps,
                r.p50_us, r.p99_us);
  }
  std::printf("in-process RecommendMany baseline: %.0f q/s cold, %.0f q/s "
              "warm\n",
              inproc_cold_qps, inproc_warm_qps);
  for (const Row& r : rows) {
    if (r.conns == 1 && std::string(r.mode) == "RECOMMEND") {
      std::printf("network round-trip overhead at 1 conn (warm cache): "
                  "%.1fx slower than in-process\n",
                  r.qps > 0 ? inproc_warm_qps / r.qps : 0.0);
    }
  }

  // Saturation: a deliberately tiny server (one in-flight slot, one
  // dispatcher) hammered by 16 connections. OVERLOADED replies are the
  // admission controller shedding instead of queueing unboundedly.
  net::ServerConfig tight;
  tight.max_inflight = 1;
  tight.dispatch_threads = 1;
  tight.request_deadline_ms = 0;
  net::Server small(engine, tight);
  if (!small.Start().ok()) {
    std::fprintf(stderr, "saturation server failed to start\n");
    return 1;
  }
  std::atomic<uint64_t> ok_count{0}, shed_count{0};
  {
    std::vector<std::thread> workers;
    for (uint32_t c = 0; c < 16; ++c) {
      workers.emplace_back([&, c] {
        auto client = net::Client::Connect(ClientFor(small.port()));
        if (!client.ok()) return;
        for (uint32_t i = 0; i < 50; ++i) {
          const auto& q = mix[(c * 997 + i * 131) % mix.size()];
          auto r = client->Recommend(q.user, q.topic, q.top_n);
          if (r.ok()) {
            ok_count.fetch_add(1);
          } else if (r.status().code() == util::StatusCode::kUnavailable) {
            shed_count.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  const obs::MetricsSnapshot sat = small.StatsNow();
  small.RequestStop();
  small.Wait();
  const uint64_t total = ok_count.load() + shed_count.load();
  std::printf(
      "\nsaturation (max_inflight=1, 16 conns): %llu served, %llu shed "
      "(%.1f%% OVERLOADED), server shed counter %llu\n",
      static_cast<unsigned long long>(ok_count.load()),
      static_cast<unsigned long long>(shed_count.load()),
      total > 0 ? 100.0 * static_cast<double>(shed_count.load()) /
                      static_cast<double>(total)
                : 0.0,
      static_cast<unsigned long long>(
          sat.CounterValue("mbr_net_shed_overload_total")));
  return 0;
}
