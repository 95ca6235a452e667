// EXTENSION (coordinator tier): loopback throughput/latency of routed
// scatter-gather serving (src/coord/) versus a single-node server over the
// full graph.
//
// Boots complete partitioned stacks over {1, 2, 4} shards — shard plan,
// `serve --shard`-equivalent shard servers, and a router — and drives the
// same Zipf-skewed query mix through each, reporting q/s and p50/p99
// round-trip latency next to the single-node baseline (the router's merge
// is byte-identical to single-node, so the delta is pure coordination
// cost). A final saturation phase throttles the shard fleet
// (max_inflight=1) and hammers the router: shard OVERLOADED sheds surface
// as partial merges (coordinator trailer partial=1, counted by
// mbr_coord_partial_total), never as client failures.
//
// Output: a human-readable table on stdout plus BENCH_coord.json.
// Scaling knobs (bench_common.h): MBR_SCALE multiplies the graph size,
// MBR_TRIALS overrides the query count, MBR_SEED the dataset seed.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "coord/router.h"
#include "coord/shard_plan.h"
#include "coord/shard_replica.h"
#include "core/authority.h"
#include "distributed/partition.h"
#include "landmark/index.h"
#include "landmark/selection.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace {

using namespace mbr;

struct Lat {
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t ok = 0;
  uint64_t partial = 0;
};

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * (v->size() - 1));
  return (*v)[idx];
}

// One partitioned deployment on loopback.
struct Stack {
  coord::ShardPlan plan;
  std::vector<std::unique_ptr<coord::ShardContext>> contexts;
  std::vector<std::unique_ptr<net::Server>> servers;
  std::unique_ptr<coord::Router> router;

  ~Stack() {
    if (router) {
      router->RequestStop();
      router->Wait();
    }
    for (auto& s : servers) {
      if (s) {
        s->RequestStop();
        s->Wait();
      }
    }
  }
};

std::unique_ptr<Stack> MakeStack(const graph::LabeledGraph& g,
                                 const landmark::LandmarkIndex& index,
                                 uint32_t shards, uint32_t max_inflight) {
  distributed::PartitionConfig pcfg;
  pcfg.num_partitions = shards;
  distributed::Partitioning p = PartitionGraph(
      g, distributed::PartitionStrategy::kCommunity, pcfg);
  auto stack = std::make_unique<Stack>();
  stack->plan =
      coord::ShardPlan(std::move(p), distributed::PartitionStrategy::kCommunity,
                       /*halo_depth=*/1, g.num_topics(),
                       std::vector<coord::ShardEndpoint>(shards));
  for (uint32_t s = 0; s < shards; ++s) {
    service::EngineConfig ec;
    ec.num_threads = 1;
    ec.cache_capacity = 1u << 14;
    auto ctx = coord::BuildShardContext(g, topics::TwitterSimilarity(),
                                        stack->plan, s, &index, ec);
    if (!ctx.ok()) {
      std::fprintf(stderr, "shard %u warm start failed: %s\n", s,
                   ctx.status().ToString().c_str());
      return nullptr;
    }
    stack->contexts.push_back(std::move(*ctx));
    coord::ShardContext& sc = *stack->contexts.back();
    net::ServerConfig scfg;
    scfg.dispatch_threads = 1;
    scfg.max_inflight = max_inflight;
    scfg.request_deadline_ms = 0;
    scfg.shard_owned = &sc.owned;
    scfg.shard_index = sc.index.get();
    scfg.shard = s;
    scfg.shards_total = shards;
    stack->servers.push_back(std::make_unique<net::Server>(*sc.engine, scfg));
    if (!stack->servers.back()->Start().ok()) {
      std::fprintf(stderr, "shard %u server failed to start\n", s);
      return nullptr;
    }
    stack->plan.SetEndpoint(s, {"127.0.0.1", stack->servers.back()->port()});
  }
  coord::RouterConfig rcfg;
  rcfg.shard_timeout_ms = 10000;
  stack->router = std::make_unique<coord::Router>(stack->plan, rcfg);
  if (!stack->router->Start().ok()) {
    std::fprintf(stderr, "router failed to start\n");
    return nullptr;
  }
  return stack;
}

// Drives `mix` through `port` from `conns` blocking connections.
Lat Drive(uint16_t port, const std::vector<net::RecommendRequest>& mix,
          uint32_t conns) {
  std::vector<std::vector<double>> lat(conns);
  std::atomic<uint64_t> ok{0}, partial{0};
  util::WallTimer timer;
  std::vector<std::thread> workers;
  for (uint32_t c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      net::ClientConfig cc;
      cc.port = port;
      cc.request_timeout_ms = 60000;
      auto client = net::Client::Connect(cc);
      if (!client.ok()) return;
      for (size_t i = c; i < mix.size(); i += conns) {
        util::WallTimer t;
        auto r = client->RecommendEx(mix[i]);
        if (r.ok()) {
          lat[c].push_back(t.ElapsedSeconds() * 1e6);
          ok.fetch_add(1);
          if (r->coord.partial != 0) partial.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = timer.ElapsedSeconds();
  std::vector<double> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  Lat out;
  out.qps = elapsed > 0 ? static_cast<double>(ok.load()) / elapsed : 0;
  out.p50_us = Percentile(&all, 0.5);
  out.p99_us = Percentile(&all, 0.99);
  out.ok = ok.load();
  out.partial = partial.load();
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "ext_coord_throughput — routed scatter-gather vs single-node serving",
      "extension beyond the paper: the coordinator tier of DESIGN.md §6.7");

  datagen::TwitterConfig cfg = bench::BenchTwitterConfig(2000);
  datagen::GeneratedDataset ds = datagen::GenerateTwitter(cfg);
  core::AuthorityIndex auth(ds.graph);
  const topics::SimilarityMatrix& sim = topics::TwitterSimilarity();

  landmark::SelectionConfig sel;
  sel.num_landmarks = 32;
  std::vector<graph::NodeId> landmarks =
      landmark::SelectLandmarks(ds.graph,
                                landmark::SelectionStrategy::kOutDeg, sel)
          .landmarks;
  landmark::LandmarkIndexConfig icfg;
  icfg.top_n = 40;
  icfg.num_threads = 1;
  landmark::LandmarkIndex index(ds.graph, auth, sim, landmarks, icfg);
  std::printf("graph: %u nodes, %llu edges | %zu landmarks\n",
              ds.graph.num_nodes(),
              static_cast<unsigned long long>(ds.graph.num_edges()),
              landmarks.size());

  const uint32_t num_queries = bench::EnvTrials(800);
  util::Rng rng(bench::EnvSeed(20160316));
  util::ZipfDistribution user_zipf(ds.graph.num_nodes(), 1.1);
  util::ZipfDistribution topic_zipf(
      static_cast<uint32_t>(ds.graph.num_topics()), 1.0);
  std::vector<net::RecommendRequest> mix;
  mix.reserve(num_queries);
  for (uint32_t i = 0; i < num_queries; ++i) {
    net::RecommendRequest q;
    q.user = user_zipf.Sample(&rng);
    q.topic = static_cast<uint32_t>(topic_zipf.Sample(&rng));
    q.top_n = 10;
    mix.push_back(std::move(q));
  }
  const uint32_t kConns = 2;

  // Single-node baseline: one server over the full graph, same mix.
  Lat single;
  {
    service::EngineConfig ec;
    ec.num_threads = 1;
    ec.cache_capacity = 1u << 14;
    ec.landmarks = &index;
    service::QueryEngine engine(ds.graph, auth, sim, ec);
    net::ServerConfig scfg;
    scfg.dispatch_threads = 1;
    scfg.request_deadline_ms = 0;
    net::Server server(engine, scfg);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "single-node server failed to start\n");
      return 1;
    }
    single = Drive(server.port(), mix, kConns);
    server.RequestStop();
    server.Wait();
  }

  struct RoutedRow {
    uint32_t shards;
    Lat lat;
  };
  std::vector<RoutedRow> routed;
  for (uint32_t shards : {1u, 2u, 4u}) {
    auto stack = MakeStack(ds.graph, index, shards, /*max_inflight=*/64);
    if (stack == nullptr) return 1;
    routed.push_back({shards, Drive(stack->router->port(), mix, kConns)});
  }

  std::printf("\n%12s %12s %10s %10s %9s\n", "config", "q/s", "p50(us)",
              "p99(us)", "partial");
  std::printf("%12s %12.0f %10.0f %10.0f %9llu\n", "single-node", single.qps,
              single.p50_us, single.p99_us,
              static_cast<unsigned long long>(single.partial));
  for (const RoutedRow& r : routed) {
    char label[32];
    std::snprintf(label, sizeof(label), "%u-shard", r.shards);
    std::printf("%12s %12.0f %10.0f %10.0f %9llu\n", label, r.lat.qps,
                r.lat.p50_us, r.lat.p99_us,
                static_cast<unsigned long long>(r.lat.partial));
  }

  // Saturation: throttled shard fleet (max_inflight=1) under 8
  // connections. Shard sheds must degrade to partial merges, not errors.
  Lat sat;
  uint64_t sat_partial_counter = 0;
  uint64_t sat_shard_errors = 0;
  {
    auto stack = MakeStack(ds.graph, index, /*shards=*/2, /*max_inflight=*/1);
    if (stack == nullptr) return 1;
    sat = Drive(stack->router->port(), mix, /*conns=*/8);
    sat_partial_counter = stack->router->registry()
                              .GetCounter("mbr_coord_partial_total", "")
                              ->Value();
    sat_shard_errors = stack->router->registry()
                           .GetCounter("mbr_coord_shard_errors_total", "")
                           ->Value();
  }
  std::printf(
      "\nsaturation (2 shards, max_inflight=1, 8 conns): %llu answered, "
      "%llu partial (%.1f%%), %llu shard RPC errors — zero client "
      "failures by policy\n",
      static_cast<unsigned long long>(sat.ok),
      static_cast<unsigned long long>(sat.partial),
      sat.ok > 0 ? 100.0 * static_cast<double>(sat.partial) /
                       static_cast<double>(sat.ok)
                 : 0.0,
      static_cast<unsigned long long>(sat_shard_errors));

  FILE* f = std::fopen("BENCH_coord.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_coord.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ext_coord_throughput\",\n");
  std::fprintf(f, "  \"num_nodes\": %u,\n  \"num_queries\": %u,\n",
               ds.graph.num_nodes(), num_queries);
  std::fprintf(f,
               "  \"single_node\": {\"qps\": %.1f, \"p50_us\": %.1f, "
               "\"p99_us\": %.1f},\n",
               single.qps, single.p50_us, single.p99_us);
  std::fprintf(f, "  \"routed\": [\n");
  for (size_t i = 0; i < routed.size(); ++i) {
    const RoutedRow& r = routed[i];
    std::fprintf(f,
                 "    {\"shards\": %u, \"qps\": %.1f, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f, \"partial\": %llu}%s\n",
                 r.shards, r.lat.qps, r.lat.p50_us, r.lat.p99_us,
                 static_cast<unsigned long long>(r.lat.partial),
                 i + 1 < routed.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"saturation\": {\"shards\": 2, \"max_inflight\": 1, "
               "\"conns\": 8, \"answered\": %llu, \"partial\": %llu, "
               "\"partial_counter\": %llu, \"shard_errors\": %llu, "
               "\"qps\": %.1f, \"p99_us\": %.1f}\n}\n",
               static_cast<unsigned long long>(sat.ok),
               static_cast<unsigned long long>(sat.partial),
               static_cast<unsigned long long>(sat_partial_counter),
               static_cast<unsigned long long>(sat_shard_errors), sat.qps,
               sat.p99_us);
  std::fclose(f);
  std::printf("wrote BENCH_coord.json\n");
  return 0;
}
