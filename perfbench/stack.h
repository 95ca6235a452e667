#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

// The four workloads' serving stacks: what each one serves, the input
// files it boots from, and booting / tearing down a stack on loopback.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coord/router.h"
#include "coord/shard_plan.h"
#include "coord/shard_replica.h"
#include "harness.h"
#include "landmark/index.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/landmark_repair.h"
#include "service/mutation.h"
#include "service/warm_start.h"
#include "util/status.h"

namespace perfbench {

enum class Keys {
  kHot,   // Zipf(1.1) over a fixed key set, warmed before timing
  kCold,  // users uniform, topics Zipf(1.0)
  kZipf,  // users Zipf(1.1), topics Zipf(1.0)
};

struct WorkloadSpec {
  std::string name;
  uint32_t nodes = 0;
  bool landmark = false;  // landmark engine (Algorithm 2) instead of exact
  bool churn = false;     // mutable server + write lane + lazy repair
  bool routed = false;    // 2-shard plan behind a landmark-mode router
  Keys keys = Keys::kZipf;
  uint32_t hot_keys = 0;
  double open_rate = 0;      // reads/s, open-loop phase
  uint32_t read_conns = 0;   // open-loop read connections
  bool busy_wait = false;    // open-loop connections wait by yielding
  bool fill = false;         // both phases keep every hardware thread busy
  double write_rate = 0;     // write batches/s (churn only)
  uint32_t write_batch = 0;  // records per write batch
  // Goodput latency limit (µs): about 10x the unloaded p50 measured once
  // when the benchmark was defined; never recalibrated.
  double limit_us = 0;
  uint32_t engine_threads = 0;
  uint32_t dispatch_threads = 0;
};

// The workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Landmark configuration of the landmark workloads.
inline constexpr uint32_t kNumLandmarks = 16;
inline constexpr uint32_t kLandmarkTopN = 100;
inline constexpr uint32_t kShards = 2;
inline constexpr uint32_t kCacheCapacity = 4096;
inline constexpr uint32_t kTopN = 10;

// Seed of the generated graph, its landmark selection and its shard plan:
// the graph is the repository's standard synthetic Twitter dataset at
// every run seed, and the seed varies the traffic only, so runs with
// different seeds measure the same serving work.
inline constexpr uint64_t kGraphSeed = 20160315;

// The landmark selection and the shard plan the input files are built
// with; the per-layer replays call the same functions.
std::vector<mbr::graph::NodeId> SelectServedLandmarks(
    const mbr::graph::LabeledGraph& g);
mbr::coord::ShardPlan BuildShardPlan(const mbr::graph::LabeledGraph& g);

// Input files of one graph size.
struct DataPaths {
  std::string snapshot;
  std::string index;  // landmark workloads
  std::string plan;   // routed workload
};
DataPaths PathsFor(const std::string& dir, const WorkloadSpec& spec);

// Seeds the generators of one input kind from the run seed.
uint64_t DerivedSeed(uint64_t seed, uint64_t salt);

// Writes the workload's input files (graph snapshot, landmark index, shard
// plan) unless they already exist.
mbr::util::Status GenerateInputs(const WorkloadSpec& spec,
                                 const DataPaths& paths);

// Everything one booted workload serves. Destruction stops every server
// and thread before the state they use goes away.
struct Stack {
  std::unique_ptr<mbr::obs::Registry> registry;
  // Single-node serving.
  std::unique_ptr<mbr::service::ServingReplica> replica;
  std::unique_ptr<mbr::service::MutationApplier> applier;
  std::unique_ptr<mbr::service::LandmarkRepairer> repairer;
  std::unique_ptr<mbr::net::Server> server;
  // Routed serving.
  std::unique_ptr<mbr::graph::LabeledGraph> full_graph;
  std::unique_ptr<mbr::landmark::LandmarkIndex> global_index;
  std::unique_ptr<mbr::coord::ShardPlan> plan;
  std::vector<std::unique_ptr<mbr::coord::ShardContext>> shards;
  std::vector<std::unique_ptr<mbr::net::Server>> shard_servers;
  std::unique_ptr<mbr::coord::Router> router;

  uint16_t port = 0;  // where clients connect

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack();

  // The graph the stack serves from (the full graph when routed).
  const mbr::graph::LabeledGraph& graph() const;
};

// Boots the workload from its files up to a listening server, recording a
// `setup` span tree into `spans` (root request id `request`).
mbr::util::Result<std::unique_ptr<Stack>> Boot(const WorkloadSpec& spec,
                                               const DataPaths& paths,
                                               SpanBuffer* spans,
                                               uint64_t request);

// Engine configuration shared by the served engines and the replay and
// oracle instances built beside them.
mbr::service::EngineConfig EngineConfigFor(const WorkloadSpec& spec,
                                           mbr::obs::Registry* registry);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
