#include "stack.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/authority.h"
#include "datagen/twitter_generator.h"
#include "distributed/partition.h"
#include "graph/snapshot.h"
#include "landmark/selection.h"
#include "net/client.h"
#include "topics/similarity_matrix.h"

namespace perfbench {

using mbr::util::Status;

namespace {

// Rates and limits were fixed when the benchmark was defined, on a
// 4-vCPU x86-64 virtual machine: every open-loop rate is at most a third of
// the closed-loop throughput measured at that commit on a quiet host (so a
// host that takes half the machine away still builds no backlog), and
// every goodput limit is about 10x the workload's unloaded p50.
const std::vector<WorkloadSpec>& Table() {
  static const std::vector<WorkloadSpec> table = [] {
    std::vector<WorkloadSpec> t;
    WorkloadSpec hot;
    hot.name = "hot_read";
    hot.nodes = 20000;
    hot.keys = Keys::kHot;
    hot.hot_keys = 512;
    hot.open_rate = 4000;
    hot.read_conns = 4;
    hot.busy_wait = true;
    hot.limit_us = 550;
    hot.engine_threads = 2;
    hot.dispatch_threads = 2;
    t.push_back(hot);

    WorkloadSpec cold = hot;
    cold.name = "cold_exact";
    cold.keys = Keys::kCold;
    cold.hot_keys = 0;
    cold.open_rate = 20;
    cold.read_conns = 2;
    cold.busy_wait = false;
    cold.limit_us = 190000;
    t.push_back(cold);

    WorkloadSpec churn;
    churn.name = "churn_mix";
    churn.nodes = 2000;
    churn.landmark = true;
    churn.churn = true;
    churn.keys = Keys::kCold;
    churn.open_rate = 200;
    churn.read_conns = 2;
    churn.busy_wait = true;
    churn.fill = true;
    churn.write_rate = 0.5;
    churn.write_batch = 8;
    churn.limit_us = 80000;
    churn.engine_threads = 2;
    churn.dispatch_threads = 2;
    t.push_back(churn);

    WorkloadSpec routed;
    routed.name = "routed_read";
    routed.nodes = 2000;
    routed.landmark = true;
    routed.routed = true;
    routed.keys = Keys::kZipf;
    routed.open_rate = 500;
    routed.read_conns = 4;
    routed.busy_wait = true;
    routed.fill = true;
    routed.limit_us = 6200;
    routed.engine_threads = 1;
    routed.dispatch_threads = 1;
    t.push_back(routed);
    return t;
  }();
  return table;
}

// Writes through a temporary name so an interrupted generation never
// leaves a truncated input behind.
template <typename SaveFn>
Status SaveAtomically(const std::string& path, SaveFn&& save) {
  const std::string tmp = path + ".tmp";
  Status s = save(tmp);
  if (!s.ok()) return s;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::Internal("rename " + tmp + ": " + ec.message());
  return Status::Ok();
}

bool Exists(const std::string& path) {
  return !path.empty() && std::filesystem::exists(path);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Table()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t DerivedSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 31;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 29;
  return z;
}

std::vector<mbr::graph::NodeId> SelectServedLandmarks(
    const mbr::graph::LabeledGraph& g) {
  mbr::landmark::SelectionConfig sel;
  sel.num_landmarks = kNumLandmarks;
  sel.seed = kGraphSeed;
  return mbr::landmark::SelectLandmarks(
             g, mbr::landmark::SelectionStrategy::kFollow, sel)
      .landmarks;
}

mbr::coord::ShardPlan BuildShardPlan(const mbr::graph::LabeledGraph& g) {
  mbr::distributed::PartitionConfig pcfg;
  pcfg.num_partitions = kShards;
  pcfg.seed = kGraphSeed;
  return mbr::coord::ShardPlan(
      mbr::distributed::PartitionGraph(
          g, mbr::distributed::PartitionStrategy::kCommunity, pcfg),
      mbr::distributed::PartitionStrategy::kCommunity, /*halo_depth=*/1,
      static_cast<uint32_t>(g.num_topics()),
      std::vector<mbr::coord::ShardEndpoint>(kShards));
}

DataPaths PathsFor(const std::string& dir, const WorkloadSpec& spec) {
  const std::string base = dir + "/twitter-n" + std::to_string(spec.nodes) +
                           "-s" + std::to_string(kGraphSeed);
  DataPaths p;
  p.snapshot = base + ".snap";
  if (spec.landmark) p.index = base + ".lmk.idx";
  if (spec.routed) p.plan = base + ".plan";
  return p;
}

Status GenerateInputs(const WorkloadSpec& spec, const DataPaths& paths) {
  if (Exists(paths.snapshot) && (paths.index.empty() || Exists(paths.index)) &&
      (paths.plan.empty() || Exists(paths.plan))) {
    return Status::Ok();
  }
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(paths.snapshot).parent_path(), ec);
  if (ec) return Status::Internal("create input directory: " + ec.message());
  mbr::datagen::TwitterConfig cfg;
  cfg.num_nodes = spec.nodes;
  cfg.seed = kGraphSeed;
  const mbr::datagen::GeneratedDataset ds = mbr::datagen::GenerateTwitter(cfg);
  const mbr::graph::LabeledGraph& g = ds.graph;
  if (!Exists(paths.snapshot)) {
    Status s = SaveAtomically(paths.snapshot, [&](const std::string& p) {
      return mbr::graph::Snapshot::Save(g, p);
    });
    if (!s.ok()) return s;
  }
  if (!paths.index.empty() && !Exists(paths.index)) {
    mbr::core::AuthorityIndex auth(g);
    const std::vector<mbr::graph::NodeId> landmarks = SelectServedLandmarks(g);
    mbr::landmark::LandmarkIndexConfig icfg;
    icfg.top_n = kLandmarkTopN;
    icfg.num_threads = 0;
    mbr::landmark::LandmarkIndex index(g, auth, mbr::topics::TwitterSimilarity(),
                                       landmarks, icfg);
    Status s = SaveAtomically(paths.index, [&](const std::string& p) {
      return index.SaveTo(p);
    });
    if (!s.ok()) return s;
  }
  if (!paths.plan.empty() && !Exists(paths.plan)) {
    const mbr::coord::ShardPlan plan = BuildShardPlan(g);
    Status s = SaveAtomically(paths.plan, [&](const std::string& p) {
      return plan.SaveTo(p);
    });
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

mbr::service::EngineConfig EngineConfigFor(const WorkloadSpec& spec,
                                           mbr::obs::Registry* registry) {
  mbr::service::EngineConfig ec;
  ec.num_threads = spec.engine_threads;
  ec.cache_capacity = kCacheCapacity;
  ec.registry = registry;
  return ec;
}

Stack::~Stack() {
  if (router) {
    router->RequestStop();
    router->Wait();
  }
  for (auto& s : shard_servers) {
    s->RequestStop();
    s->Wait();
  }
  if (server) {
    server->RequestStop();
    server->Wait();
  }
  if (repairer) repairer->Stop();
}

const mbr::graph::LabeledGraph& Stack::graph() const {
  return full_graph ? *full_graph : replica->graph;
}

namespace {

Status StartServer(mbr::service::QueryEngine& engine,
                   mbr::net::ServerConfig cfg, Stack* stack,
                   std::unique_ptr<mbr::net::Server>* out) {
  cfg.registry = stack->registry.get();
  *out = std::make_unique<mbr::net::Server>(engine, cfg);
  return (*out)->Start();
}

Status BootSingle(const WorkloadSpec& spec, const DataPaths& paths,
                  Stack* stack, SpanBuffer* spans, uint64_t request,
                  uint64_t root) {
  const auto& sim = mbr::topics::TwitterSimilarity();
  int64_t t = NowNs();
  auto replica = mbr::service::WarmStart(
      paths.snapshot, spec.landmark ? paths.index : "", sim,
      EngineConfigFor(spec, stack->registry.get()));
  if (!replica.ok()) return replica.status();
  stack->replica = std::move(*replica);
  spans->Add("service.warm_start", request, root, t, NowNs());

  mbr::service::QueryEngine& engine = *stack->replica->engine;
  mbr::net::ServerConfig scfg;
  scfg.dispatch_threads = spec.dispatch_threads;
  if (spec.churn) {
    t = NowNs();
    stack->applier = std::make_unique<mbr::service::MutationApplier>(
        stack->replica->graph, *stack->replica->authority, engine);
    mbr::service::RepairConfig rc;
    rc.mode = mbr::service::RepairConfig::Mode::kTouched;
    stack->repairer = std::make_unique<mbr::service::LandmarkRepairer>(
        *stack->replica->landmarks, engine, sim,
        stack->applier->current_graph(), stack->applier->current_authority(),
        rc);
    stack->applier->SetRepairer(stack->repairer.get());
    engine.SetStaleProbe(stack->repairer->MakeStaleProbe());
    stack->repairer->Start();
    scfg.applier = stack->applier.get();
    spans->Add("service.mutation_init", request, root, t, NowNs());
  }
  t = NowNs();
  Status s = StartServer(engine, scfg, stack, &stack->server);
  if (!s.ok()) return s;
  stack->port = stack->server->port();
  spans->Add("net.server_start", request, root, t, NowNs());
  return Status::Ok();
}

Status BootRouted(const WorkloadSpec& spec, const DataPaths& paths,
                  Stack* stack, SpanBuffer* spans, uint64_t request,
                  uint64_t root) {
  const auto& sim = mbr::topics::TwitterSimilarity();
  int64_t t = NowNs();
  auto g = mbr::graph::Snapshot::Load(paths.snapshot);
  if (!g.ok()) return g.status();
  stack->full_graph =
      std::make_unique<mbr::graph::LabeledGraph>(std::move(*g));
  spans->Add("graph.load", request, root, t, NowNs());

  t = NowNs();
  auto plan = mbr::coord::ShardPlan::LoadFrom(paths.plan);
  if (!plan.ok()) return plan.status();
  stack->plan = std::make_unique<mbr::coord::ShardPlan>(std::move(*plan));
  spans->Add("coord.plan_load", request, root, t, NowNs());

  t = NowNs();
  auto index = mbr::landmark::LandmarkIndex::LoadFrom(
      paths.index, stack->full_graph->num_nodes());
  if (!index.ok()) return index.status();
  stack->global_index =
      std::make_unique<mbr::landmark::LandmarkIndex>(std::move(*index));
  spans->Add("landmark.index_load", request, root, t, NowNs());

  for (uint32_t s = 0; s < stack->plan->num_shards(); ++s) {
    t = NowNs();
    mbr::service::EngineConfig ec =
        EngineConfigFor(spec, stack->registry.get());
    ec.params = stack->global_index->config().params;
    auto ctx = mbr::coord::BuildShardContext(*stack->full_graph, sim,
                                             *stack->plan, s,
                                             stack->global_index.get(), ec);
    if (!ctx.ok()) return ctx.status();
    stack->shards.push_back(std::move(*ctx));
    spans->Add("coord.shard_boot", request, root, t, NowNs());

    t = NowNs();
    mbr::coord::ShardContext& sc = *stack->shards.back();
    mbr::net::ServerConfig scfg;
    scfg.dispatch_threads = spec.dispatch_threads;
    scfg.shard_owned = &sc.owned;
    scfg.shard_index = sc.index.get();
    scfg.shard = s;
    scfg.shards_total = stack->plan->num_shards();
    stack->shard_servers.emplace_back();
    Status st = StartServer(*sc.engine, scfg, stack,
                            &stack->shard_servers.back());
    if (!st.ok()) return st;
    stack->plan->SetEndpoint(s,
                             {"127.0.0.1", stack->shard_servers.back()->port()});
    spans->Add("net.server_start", request, root, t, NowNs());
  }

  t = NowNs();
  mbr::coord::RouterConfig rcfg;
  rcfg.landmark_mode = true;
  rcfg.registry = stack->registry.get();
  stack->router = std::make_unique<mbr::coord::Router>(*stack->plan, rcfg);
  Status st = stack->router->Start();
  if (!st.ok()) return st;
  stack->port = stack->router->port();
  spans->Add("coord.router_start", request, root, t, NowNs());
  return Status::Ok();
}

}  // namespace

mbr::util::Result<std::unique_ptr<Stack>> Boot(const WorkloadSpec& spec,
                                               const DataPaths& paths,
                                               SpanBuffer* spans,
                                               uint64_t request) {
  const int64_t t0 = NowNs();
  auto stack = std::make_unique<Stack>();
  stack->registry = std::make_unique<mbr::obs::Registry>();
  // The root span's id must exist before its children; its interval is
  // fixed up once the first PING has been answered.
  const uint64_t root = spans->Add("setup", request, 0, t0, t0);
  Status s = spec.routed ? BootRouted(spec, paths, stack.get(), spans,
                                      request, root)
                         : BootSingle(spec, paths, stack.get(), spans, request,
                                      root);
  if (!s.ok()) return s;

  const int64_t t = NowNs();
  mbr::net::ClientConfig cc;
  cc.port = stack->port;
  auto client = mbr::net::Client::Connect(cc);
  if (!client.ok()) return client.status();
  s = client->Ping();
  if (!s.ok()) return s;
  const int64_t t1 = NowNs();
  spans->Add("net.first_ping", request, root, t, t1);
  spans->SetEnd(root, t1);
  return stack;
}

}  // namespace perfbench
