// Serving benchmark: drives one workload against the real serving stack on
// loopback and prints its metrics (see README.md for the definitions).
//
//   serving_bench gen --workload W --dir D
//       writes the workload's input files (snapshot, landmark index, plan)
//   serving_bench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       boots from those files, measures, checks the outputs, and prints a
//       detail record followed by the result line (last line of stdout)
//
// With --trace 0 the run measures the end-to-end metrics: an open-loop
// phase at the workload's fixed rate, then a closed-loop phase with two
// connections (one on the churn workload) for goodput. With --trace 1 it
// runs the open loop twice, untraced then traced, and replays sampled
// requests through each layer's public entry point to break the traced
// latency down by layer.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>


#include "core/authority.h"
#include "core/recommender.h"
#include "graph/snapshot.h"
#include "harness.h"
#include "landmark/approx.h"
#include "landmark/index.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "service/query_engine.h"
#include "stack.h"
#include "topics/similarity_matrix.h"
#include "util/kendall.h"
#include "util/rng.h"
#include "util/zipf.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using mbr::net::RankedList;

// The timed figures are taken over windows of a run and summarized at the
// quietest tenth: latencies at this quantile of the windows, setup time at
// this quantile of the boots, goodput at one minus it. On a shared virtual
// machine the host takes CPUs away for stretches of a second or more; a
// run's quietest windows still read the program.
constexpr double kWindowQuantile = 0.1;
// setup_s is taken over at least kSetupMinBoots boots, and over more
// while booting and tearing down have taken less than kSetupBudgetS in all
// (a routed stack takes longer to tear down than to boot).
constexpr int kSetupMinBoots = 21;
constexpr int kSetupMaxBoots = 201;
constexpr double kSetupBudgetS = 2.0;
// Open-loop read latency is summarized per window of the phase (by
// scheduled send time): at most kLatencyWindows windows, each of at least
// kMinWindowSamples reads (enough for the tail rule to reach p95).
constexpr size_t kLatencyWindows = 20;
constexpr size_t kMinWindowSamples = 200;
constexpr size_t kClosedPool = 1u << 17;
constexpr size_t kOracleKeys = 32;
constexpr size_t kReplaySamples = 256;
constexpr size_t kExactReplaySamples = 48;
constexpr int kChurnProbes = 30;
// A traced connection sends a PING after every kPingEvery-th read.
constexpr uint64_t kPingEvery = 8;
// Reconciliation tolerance: the traced breakdown (mean per read, summed
// over layers plus the unattributed remainder) should land within this
// share of the untraced mean read latency. The outcome is reported
// (`reconciled`), not treated as an output failure: the two phases run at
// different moments, and host stalls move a mean.
constexpr double kReconcileTolerance = 0.25;
// A breakdown row below -kNegativeRowSlackUs is counted as negative.
constexpr double kNegativeRowSlackUs = 1.0;

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string cmd;
  std::string workload;
  std::string dir = ".bench_build/perfbench-data";
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->cmd = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stoi(v);
    } else if (k == "--trace") {
      a->trace = std::stoi(v);
    } else if (k == "--dir") {
      a->dir = v;
    } else {
      return false;
    }
  }
  return (a->cmd == "gen" || a->cmd == "run") && !a->workload.empty() &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

// ---------------------------------------------------------------------------
// Small utilities.

double ProcStatusKb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(f, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::stod(line.substr(n + 1));
    }
  }
  return 0.0;
}

uint64_t HashList(const RankedList& list) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(list.size());
  for (const auto& e : list) {
    uint64_t bits = 0;
    std::memcpy(&bits, &e.score, sizeof(bits));
    mix(e.id);
    mix(bits);
  }
  return h;
}

// Same ids in the same order with the same raw score bits.
bool SameBits(const RankedList& a, const RankedList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Milliseconds a fixed single-threaded integer loop takes: a probe of the
// host's speed, recorded beside the figures (it is not a metric) so that a
// run on a host slowed by its neighbours can be told from a slower program.
double HostProbeMs() {
  const int64_t t0 = NowNs();
  uint64_t x = 1;
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));
  }
  return static_cast<double>(NowNs() - t0) / 1e6;
}

// Registry series captured by name{labels}, for deltas over a phase.
struct RegSnap {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists;  // count, sum

  static std::string Key(const mbr::obs::MetricMeta& m) {
    std::string k = m.name;
    if (!m.labels.empty()) {
      k += "{";
      for (size_t i = 0; i < m.labels.size(); ++i) {
        if (i > 0) k += ",";
        k += m.labels[i].first + "=" + m.labels[i].second;
      }
      k += "}";
    }
    return k;
  }
  static RegSnap Take(const mbr::obs::Registry& r) {
    RegSnap s;
    for (const auto& [meta, v] : r.SnapshotCounters()) s.counters[Key(meta)] = v;
    for (const auto& [meta, h] : r.SnapshotHistograms()) {
      s.hists[Key(meta)] = {h.count, h.sum};
    }
    return s;
  }
};

struct RegDelta {
  RegSnap a, b;
  double Counter(const std::string& k) const {
    auto ib = b.counters.find(k);
    if (ib == b.counters.end()) return 0.0;
    auto ia = a.counters.find(k);
    return static_cast<double>(ib->second -
                               (ia == a.counters.end() ? 0 : ia->second));
  }
  double Count(const std::string& k) const { return Field(k, true); }
  double Sum(const std::string& k) const { return Field(k, false); }
  double Mean(const std::string& k) const { return Ratio(Sum(k), Count(k)); }

 private:
  double Field(const std::string& k, bool count) const {
    auto ib = b.hists.find(k);
    if (ib == b.hists.end()) return 0.0;
    auto ia = a.hists.find(k);
    const auto base = ia == a.hists.end() ? std::pair<uint64_t, uint64_t>{0, 0}
                                          : ia->second;
    return static_cast<double>(count ? ib->second.first - base.first
                                     : ib->second.second - base.second);
  }
};

// Both registries a stack's series live in: its own (engine, net, coord,
// mutation, repair) and the process default (stage spans, scorer and
// landmark histograms).
struct Registries {
  RegSnap own, def;
  static Registries Take(const Stack& s) {
    return {RegSnap::Take(*s.registry),
            RegSnap::Take(mbr::obs::Registry::Default())};
  }
};
struct PhaseDelta {
  RegDelta own, def;
  PhaseDelta(const Registries& a, const Registries& b)
      : own{a.own, b.own}, def{a.def, b.def} {}
};

// ---------------------------------------------------------------------------
// Traffic, generated from the seed before anything is timed.

struct Read {
  uint32_t user = 0;
  uint16_t topic = 0;
};
inline uint64_t KeyOf(const Read& r) {
  return (static_cast<uint64_t>(r.user) << 16) | r.topic;
}

struct Traffic {
  std::vector<Read> hot_set;   // hot_read's warmed key set
  std::vector<Read> open;      // open-loop stream, in schedule order
  std::vector<Read> open2;     // second open-loop stream (traced run)
  std::vector<Read> closed;    // closed-loop pool, cycled
  std::vector<MutationBatch> writes;
  std::unique_ptr<ShadowEdges> shadow;  // edge set after every write
};

class ReadSource {
 public:
  ReadSource(const WorkloadSpec& spec, const mbr::graph::LabeledGraph& g,
             const std::vector<Read>& hot_set)
      : spec_(spec),
        n_(g.num_nodes()),
        hot_set_(hot_set),
        user_zipf_(g.num_nodes(), 1.1),
        topic_zipf_(static_cast<uint32_t>(g.num_topics()), 1.0),
        hot_zipf_(std::max<uint32_t>(1, static_cast<uint32_t>(hot_set.size())),
                  1.1) {}

  Read Next(mbr::util::Rng* rng) const {
    switch (spec_.keys) {
      case Keys::kHot:
        return hot_set_[hot_zipf_.Sample(rng)];
      case Keys::kCold:
        return {static_cast<uint32_t>(rng->UniformU64(n_)),
                static_cast<uint16_t>(topic_zipf_.Sample(rng))};
      case Keys::kZipf:
        break;
    }
    return {user_zipf_.Sample(rng),
            static_cast<uint16_t>(topic_zipf_.Sample(rng))};
  }

 private:
  const WorkloadSpec& spec_;
  uint32_t n_;
  const std::vector<Read>& hot_set_;
  mbr::util::ZipfDistribution user_zipf_;
  mbr::util::ZipfDistribution topic_zipf_;
  mbr::util::ZipfDistribution hot_zipf_;
};

Traffic MakeTraffic(const WorkloadSpec& spec, const mbr::graph::LabeledGraph& g,
                    uint64_t seed, double open_s, double write_s) {
  Traffic t;
  mbr::util::Rng rng(DerivedSeed(seed, 10));
  if (spec.keys == Keys::kHot) {
    mbr::util::ZipfDistribution topic_zipf(
        static_cast<uint32_t>(g.num_topics()), 1.0);
    std::unordered_set<uint64_t> seen;
    while (t.hot_set.size() < spec.hot_keys) {
      Read r{static_cast<uint32_t>(rng.UniformU64(g.num_nodes())),
             static_cast<uint16_t>(topic_zipf.Sample(&rng))};
      if (seen.insert(KeyOf(r)).second) t.hot_set.push_back(r);
    }
  }
  ReadSource src(spec, g, t.hot_set);
  const size_t open_n = static_cast<size_t>(spec.open_rate * open_s);
  for (size_t i = 0; i < open_n; ++i) t.open.push_back(src.Next(&rng));
  for (size_t i = 0; i < open_n; ++i) t.open2.push_back(src.Next(&rng));
  for (size_t i = 0; i < kClosedPool; ++i) t.closed.push_back(src.Next(&rng));
  if (spec.churn) {
    t.shadow = std::make_unique<ShadowEdges>(g);
    mbr::util::Rng wrng(DerivedSeed(seed, 11));
    const size_t batches = static_cast<size_t>(spec.write_rate * write_s);
    for (size_t i = 0; i < batches; ++i) {
      t.writes.push_back(
          t.shadow->NextBatch(&wrng, spec.write_batch, 0.5, 0.3));
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Load generation.

// Replies to one key, folded by reply content, so what a lane keeps grows
// with the key space and not with the throughput.
struct ReplyCount {
  uint64_t hash = 0;
  uint64_t replies = 0;
  uint64_t in_limit = 0;  // replies within the goodput latency limit
};
struct KeyReplies {
  RankedList first;  // the first complete reply, for the oracle
  std::vector<ReplyCount> counts;
};

struct ReadLane {
  std::vector<OpRecord> ops;  // open loop only, for latency accounting
  std::unordered_map<uint64_t, KeyReplies> replies;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t partial = 0;
  uint64_t stale = 0;
  // Closed loop: complete replies within the limit per goodput window of
  // `window_ns`, counted from `window_origin_ns`.
  int64_t window_origin_ns = 0;
  int64_t window_ns = 1;
  std::vector<uint64_t> window_good;
  SpanBuffer spans;
  explicit ReadLane(bool trace, uint32_t lane) : spans(trace, lane, 1 << 16) {}
};

struct PhaseResult {
  std::vector<ReadLane> lanes;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

mbr::util::Result<mbr::net::Client> Connect(uint16_t port) {
  mbr::net::ClientConfig cc;
  cc.port = port;
  return mbr::net::Client::Connect(cc);
}


// One read: sends it, classifies the reply, and records what the checks
// need. Reconnects once after a failed call so a dropped connection costs
// one failure, not the rest of the phase. Open-loop reads also keep their
// timing record.
void DoRead(mbr::net::Client* client, uint16_t port, const Read& r,
            OpRecord op, uint64_t request, int64_t limit_ns, bool keep_op,
            ReadLane* lane) {
  mbr::net::RecommendRequest req;
  req.user = r.user;
  req.topic = r.topic;
  req.top_n = kTopN;
  op.send_ns = NowNs();
  auto reply = client->RecommendEx(req);
  op.done_ns = NowNs();
  ++lane->attempted;
  if (!reply.ok()) {
    ++lane->errors;
    auto again = Connect(port);
    if (again.ok()) *client = std::move(*again);
  } else if (reply->coord.partial != 0) {
    ++lane->partial;
  } else {
    if (reply->served_tier == static_cast<uint8_t>(mbr::core::Tier::kStale)) {
      ++lane->stale;
    }
    KeyReplies& kr = lane->replies[KeyOf(r)];
    if (kr.counts.empty()) kr.first = reply->entries;
    const uint64_t hash = HashList(reply->entries);
    auto it = std::find_if(kr.counts.begin(), kr.counts.end(),
                           [hash](const ReplyCount& c) { return c.hash == hash; });
    if (it == kr.counts.end()) it = kr.counts.insert(kr.counts.end(), {hash, 0, 0});
    ++it->replies;
    if (op.done_ns - op.sched_ns <= limit_ns) {
      ++it->in_limit;
      const int64_t w = (op.done_ns - lane->window_origin_ns) / lane->window_ns;
      if (w >= 0 && static_cast<size_t>(w) < lane->window_good.size()) {
        ++lane->window_good[w];
      }
    }
  }
  if (keep_op) lane->ops.push_back(op);
  if (lane->spans.enabled()) {
    const uint64_t root =
        lane->spans.Add("read", request, 0, op.sched_ns, op.done_ns);
    lane->spans.Add("loadgen.delay", request, root, op.sched_ns, op.send_ns);
    lane->spans.Add("net.client_call", request, root, op.send_ns, op.done_ns);
  }
}

// Threads that only yield, from construction to destruction, so that
// together with a phase's connection threads every hardware thread stays
// busy (see README.md, "How the generator waits").
class BusyFill {
 public:
  explicit BusyFill(uint32_t threads) {
    for (uint32_t i = 0; i < threads; ++i) {
      threads_.emplace_back([this] {
        while (!stop_.load(std::memory_order_relaxed)) std::this_thread::yield();
      });
    }
  }
  ~BusyFill() {
    stop_ = true;
    for (auto& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Open loop: the stream is dealt round-robin to `conns` connections; the
// requests go out uniformly spaced at `rate` in total. Each connection
// waits for its next send by yielding in a loop (`busy_wait`) or by
// sleeping (SleepUntilNs). Threads that only yield make up `fill_threads`
// threads in all with the connections' threads.
mbr::util::Result<PhaseResult> OpenLoop(uint16_t port,
                                        const std::vector<Read>& stream,
                                        double rate, uint32_t conns,
                                        bool busy_wait, uint32_t fill_threads,
                                        int64_t limit_ns, bool trace,
                                        uint32_t lane_base) {
  std::vector<mbr::net::Client> clients;
  for (uint32_t c = 0; c < conns; ++c) {
    auto cl = Connect(port);
    if (!cl.ok()) return cl.status();
    clients.push_back(std::move(*cl));
  }
  PhaseResult out;
  BusyFill fill(fill_threads > conns ? fill_threads - conns : 0);
  for (uint32_t c = 0; c < conns; ++c) out.lanes.emplace_back(trace, lane_base + c);
  const double interval_ns = 1e9 * conns / rate;
  out.start_ns = NowNs() + 5'000'000;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ReduceTimerSlack();
      ReadLane& lane = out.lanes[c];
      const double phase = static_cast<double>(c) / conns;
      uint64_t k = 0;
      for (size_t i = c; i < stream.size(); i += conns, ++k) {
        OpRecord op;
        op.sched_ns = ScheduledNs(out.start_ns, interval_ns, phase, k);
        if (busy_wait) {
          WaitUntilNs(op.sched_ns);
        } else {
          SleepUntilNs(op.sched_ns);
        }
        DoRead(&clients[c], port, stream[i], op, i, limit_ns, true, &lane);
        if (trace && k % kPingEvery == 0) {
          // The bare round trip on the same connection, for the breakdown.
          const int64_t t0 = NowNs();
          const bool ok = clients[c].Ping().ok();
          if (ok) lane.spans.Add("net.ping", i, 0, t0, NowNs());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  out.end_ns = NowNs();
  return out;
}

// Closed loop: each connection sends its next read as soon as the previous
// reply arrives, until `seconds` have passed; good replies are counted per
// window of `window_ns`. Threads that only yield make up `fill_threads`
// threads in all with the connections' threads.
mbr::util::Result<PhaseResult> ClosedLoop(uint16_t port,
                                          const std::vector<Read>& pool,
                                          uint32_t conns, uint32_t fill_threads,
                                          double seconds, int64_t window_ns,
                                          int64_t limit_ns,
                                          uint32_t lane_base) {
  std::vector<mbr::net::Client> clients;
  for (uint32_t c = 0; c < conns; ++c) {
    auto cl = Connect(port);
    if (!cl.ok()) return cl.status();
    clients.push_back(std::move(*cl));
  }
  PhaseResult out;
  out.start_ns = NowNs() + 5'000'000;
  const int64_t stop_ns = out.start_ns + static_cast<int64_t>(seconds * 1e9);
  const size_t windows =
      static_cast<size_t>((stop_ns - out.start_ns) / window_ns);
  for (uint32_t c = 0; c < conns; ++c) {
    ReadLane& lane = out.lanes.emplace_back(false, lane_base + c);
    lane.window_origin_ns = out.start_ns;
    lane.window_ns = window_ns;
    lane.window_good.assign(windows, 0);
  }
  BusyFill fill(fill_threads > conns ? fill_threads - conns : 0);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      WaitUntilNs(out.start_ns);
      ReadLane& lane = out.lanes[c];
      for (uint64_t k = 0;; ++k) {
        OpRecord op;
        op.sched_ns = NowNs();
        if (op.sched_ns >= stop_ns) break;
        const size_t i = (c + k * conns) % pool.size();
        DoRead(&clients[c], port, pool[i], op, i, limit_ns, false, &lane);
      }
    });
  }
  for (auto& t : threads) t.join();
  out.end_ns = NowNs();
  return out;
}

// The churn workload's write connection: the pre-generated batches go out
// on an open-loop schedule; after the final ack it waits for the landmark
// repairer to catch up (fresh_lag_ms).
struct WriteLane {
  std::vector<OpRecord> ops;
  uint64_t records = 0;
  uint64_t applied = 0;
  uint64_t bad_acks = 0;
  double fresh_lag_ms = 0.0;
  int64_t start_ns = 0;
  SpanBuffer spans;
  explicit WriteLane(bool trace) : spans(trace, 100, 4096) {}
};

void RunWrites(uint16_t port, const std::vector<MutationBatch>& batches,
               double rate, int64_t start_ns,
               mbr::service::LandmarkRepairer* repairer, WriteLane* lane) {
  ReduceTimerSlack();
  auto client = Connect(port);
  lane->start_ns = start_ns;
  const double interval_ns = 1e9 / rate;
  int64_t last_ack = 0;
  for (size_t k = 0; k < batches.size(); ++k) {
    const MutationBatch& b = batches[k];
    std::vector<mbr::net::MutationRecord> recs;
    for (const auto& m : b.records) recs.push_back({m.src, m.dst, m.labels.bits()});
    const mbr::net::MessageKind kind =
        b.op == mbr::service::MutationOp::kFollow
            ? mbr::net::MessageKind::kFollow
        : b.op == mbr::service::MutationOp::kUnfollow
            ? mbr::net::MessageKind::kUnfollow
            : mbr::net::MessageKind::kRelabel;
    OpRecord op;
    op.sched_ns = ScheduledNs(start_ns, interval_ns, 0.5, k);
    SleepUntilNs(op.sched_ns);
    op.send_ns = NowNs();
    bool ok = false;
    if (client.ok()) {
      auto ack = client->Mutate(kind, recs);
      ok = ack.ok() && ack->applied == recs.size() && ack->rejected == 0;
      if (ack.ok()) lane->applied += ack->applied;
    }
    op.done_ns = NowNs();
    lane->records += recs.size();
    if (!ok) ++lane->bad_acks;
    lane->ops.push_back(op);
    last_ack = op.done_ns;
    if (lane->spans.enabled()) {
      const uint64_t root = lane->spans.Add("write", k, 0, op.sched_ns, op.done_ns);
      lane->spans.Add("loadgen.delay", k, root, op.sched_ns, op.send_ns);
      lane->spans.Add("net.client_call", k, root, op.send_ns, op.done_ns);
    }
  }
  repairer->Quiesce();
  lane->fresh_lag_ms = static_cast<double>(NowNs() - last_ack) / 1e6;
}

// Reads sent before timing: every hot key once (so the cache holds them
// all), or a short burst elsewhere to open connections and fault in code.
mbr::util::Status WarmUp(uint16_t port, const Traffic& traffic,
                         const WorkloadSpec& spec) {
  std::vector<Read> reads = traffic.hot_set;
  if (reads.empty()) {
    reads.assign(traffic.closed.end() - 64, traffic.closed.end());
  }
  const uint32_t conns = spec.read_conns;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (uint32_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      auto client = Connect(port);
      if (!client.ok()) {
        failed = true;
        return;
      }
      for (size_t i = c; i < reads.size(); i += conns) {
        mbr::net::RecommendRequest req;
        req.user = reads[i].user;
        req.topic = reads[i].topic;
        req.top_n = kTopN;
        if (!client->RecommendEx(req).ok()) failed = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failed) return mbr::util::Status::Internal("warm-up read failed");
  return mbr::util::Status::Ok();
}

// ---------------------------------------------------------------------------
// Output checks.

struct ReadCheck {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t partial = 0;
  uint64_t wrong = 0;
  uint64_t stale = 0;
  uint64_t oracle_keys = 0;
  std::string why;
  // Expected reply hash per key; empty when replies are not compared
  // (churn_mix, whose answers change as the graph does).
  std::unordered_map<uint64_t, uint64_t> expected;

  bool Correct(uint64_t key, uint64_t hash) const {
    auto it = expected.find(key);
    return it == expected.end() || it->second == hash;
  }
};

// Replies to the same key must agree bit for bit (the graph is static),
// and the sampled keys must match `oracle`, which returns the expected
// list for a key. A zero `sample` means every key is compared.
template <typename OracleFn>
void CheckStaticReplies(const std::vector<const PhaseResult*>& phases,
                        size_t sample, uint64_t seed, OracleFn&& oracle,
                        ReadCheck* rc) {
  std::unordered_map<uint64_t, const RankedList*> first;
  for (const PhaseResult* p : phases) {
    for (const ReadLane& lane : p->lanes) {
      for (const auto& [k, kr] : lane.replies) first.emplace(k, &kr.first);
    }
  }
  std::vector<uint64_t> keys;
  for (const auto& [k, list] : first) {
    keys.push_back(k);
    rc->expected[k] = HashList(*list);
  }
  std::sort(keys.begin(), keys.end());
  if (sample > 0 && keys.size() > sample) {
    mbr::util::Rng rng(DerivedSeed(seed, 20));
    rng.Shuffle(&keys);
    keys.resize(sample);
  }
  for (uint64_t k : keys) {
    const Read r{static_cast<uint32_t>(k >> 16),
                 static_cast<uint16_t>(k & 0xffff)};
    const RankedList want = oracle(r);
    rc->expected[k] = HashList(want);
    if (!SameBits(*first[k], want) && rc->why.empty()) {
      rc->why = "reply for user " + std::to_string(r.user) + " topic " +
                std::to_string(r.topic) + " differs from the oracle";
    }
  }
  rc->oracle_keys = keys.size();
}

// Tallies the phases' reads; a complete reply that differs from the
// expected one for its key counts as wrong.
void TallyReads(const std::vector<const PhaseResult*>& phases, ReadCheck* rc) {
  for (const PhaseResult* p : phases) {
    for (const ReadLane& lane : p->lanes) {
      rc->attempted += lane.attempted;
      rc->errors += lane.errors;
      rc->partial += lane.partial;
      rc->stale += lane.stale;
      for (const auto& [key, kr] : lane.replies) {
        for (const ReplyCount& c : kr.counts) {
          if (rc->Correct(key, c.hash)) continue;
          rc->wrong += c.replies;
          if (rc->why.empty()) rc->why = "replies to one key disagree";
        }
      }
    }
  }
}

// Goodput of a closed-loop phase: complete replies within the limit per
// second, taken at the quietest tenth of its windows (kWindowQuantile), so
// host stalls over part of the phase move it little. A wrong reply fails
// the run (TallyReads), so in a correct run every reply counted here is
// correct.
double WindowedGoodput(const PhaseResult& phase) {
  std::vector<double> rates;
  for (const ReadLane& lane : phase.lanes) {
    rates.resize(std::max(rates.size(), lane.window_good.size()), 0.0);
    for (size_t w = 0; w < lane.window_good.size(); ++w) {
      rates[w] += static_cast<double>(lane.window_good[w]) * 1e9 /
                  static_cast<double>(lane.window_ns);
    }
  }
  std::sort(rates.begin(), rates.end());
  return NearestRank(rates, 1.0 - kWindowQuantile);
}

// Correct replies within the latency limit.
uint64_t GoodReplies(const PhaseResult& phase, const ReadCheck& rc) {
  uint64_t good = 0;
  for (const ReadLane& lane : phase.lanes) {
    for (const auto& [key, kr] : lane.replies) {
      for (const ReplyCount& c : kr.counts) {
        if (rc.Correct(key, c.hash)) good += c.in_limit;
      }
    }
  }
  return good;
}

// churn_mix: after Quiesce(), answers over the wire must match a replica
// freshly built on the final graph under the rule the dynamic serving
// differential test holds kTouched repair to (mean recall@10 >= 0.90 and
// mean Kendall tau distance <= 0.10 against the fresh build), and the live
// graph must hold exactly the benchmark's shadow edge set.
std::string CheckChurn(const Stack& stack, const Traffic& traffic,
                       uint64_t seed) {
  const auto g = stack.applier->current_graph();
  const auto auth = stack.applier->current_authority();
  if (!traffic.shadow->SameEdges(*g)) {
    return "final graph differs from the shadow edge set";
  }
  const mbr::landmark::LandmarkIndex& live_index = *stack.replica->landmarks;
  mbr::landmark::LandmarkIndex fresh(*g, *auth, mbr::topics::TwitterSimilarity(),
                                     live_index.landmarks(),
                                     live_index.config());
  mbr::service::EngineConfig ec;
  ec.num_threads = 1;
  ec.cache_capacity = 0;
  ec.landmarks = &fresh;
  ec.params = fresh.config().params;
  mbr::service::QueryEngine reference(*g, *auth,
                                      mbr::topics::TwitterSimilarity(), ec);
  auto client = Connect(stack.port);
  if (!client.ok()) return "probe connect failed";
  mbr::util::Rng rng(DerivedSeed(seed, 30));
  double recall_sum = 0.0, tau_sum = 0.0;
  int scored = 0;
  for (int p = 0; p < kChurnProbes; ++p) {
    mbr::net::RecommendRequest req;
    req.user = static_cast<uint32_t>(rng.UniformU64(g->num_nodes()));
    req.topic = static_cast<uint32_t>(
        rng.UniformU64(static_cast<uint64_t>(g->num_topics())));
    req.top_n = kTopN;
    auto live = client->RecommendEx(req);
    auto ref = reference.TopN(req.user, static_cast<mbr::topics::TopicId>(req.topic),
                              kTopN);
    if (!live.ok() || !ref.ok()) return "probe failed";
    if (live->entries.empty() && ref->empty()) continue;
    std::vector<uint32_t> live_ids, ref_ids;
    for (const auto& e : live->entries) live_ids.push_back(e.id);
    for (const auto& e : *ref) ref_ids.push_back(e.id);
    size_t hits = 0;
    for (uint32_t id : live_ids) {
      if (std::find(ref_ids.begin(), ref_ids.end(), id) != ref_ids.end()) ++hits;
    }
    recall_sum += static_cast<double>(hits) /
                  static_cast<double>(std::max<size_t>(ref_ids.size(), 1));
    tau_sum += mbr::util::KendallTauTopK(live_ids, ref_ids);
    ++scored;
  }
  if (scored == 0) return "every probe answer was empty";
  if (recall_sum / scored < 0.90) return "post-quiesce recall@10 below 0.90";
  if (tau_sum / scored > 0.10) return "post-quiesce Kendall tau above 0.10";
  return "";
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

// Provenance and every figure of the run, as one JSON object.
struct Detail {
  std::vector<std::pair<std::string, std::string>> fields;  // raw JSON values
  void Add(const std::string& k, double v) { fields.push_back({k, Num(v)}); }
  void AddStr(const std::string& k, const std::string& v) {
    fields.push_back({k, "\"" + v + "\""});
  }
  void AddSummary(const std::string& k, const Summary& s) {
    fields.push_back(
        {k, "{\"samples\": " + Num(static_cast<double>(s.samples)) +
                ", \"p50\": " + Num(s.p50) + ", \"p99\": " + Num(s.p99) +
                ", \"mean\": " + Num(s.mean) +
                ", \"tail\": " + Num(s.tail) +
                ", \"tail_percentile\": " + Num(s.tail_percentile) + "}"});
  }
  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) s += ", ";
      s += "\"" + fields[i].first + "\": " + fields[i].second;
    }
    return s + "}";
  }
};

// ---------------------------------------------------------------------------
// Per-layer replays (traced run).

// Samples up to `n` reads of a phase, in a seeded order.
std::vector<Read> SampleReads(const std::vector<Read>& stream, size_t n,
                              uint64_t seed) {
  std::vector<Read> out = stream;
  mbr::util::Rng rng(DerivedSeed(seed, 40));
  rng.Shuffle(&out);
  if (out.size() > n) out.resize(n);
  return out;
}

// The landmark index a landmark workload serves from.
const mbr::landmark::LandmarkIndex& ServedIndex(const Stack& s) {
  return s.replica ? *s.replica->landmarks : *s.global_index;
}

// Closed-loop read connections: two, so that their threads and the
// server's do not outnumber the hardware threads, or one on the churn
// workload. There, two or more back-to-back readers keep the
// engine's reader-preferring rebind lock held without a gap, so the
// mutation rebind and the landmark repairs wait for as long as the readers
// keep coming; whether a run falls into that regime is chance, and its
// goodput differs by 20x. One reader leaves the lock free between its
// requests, so the writes go on as they do in the open-loop phase.
uint32_t ClosedConns(const WorkloadSpec& spec) {
  return spec.churn ? 1
                    : std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
}

// Goodput window: 1 s, or on the churn workload its write period, so that
// every window holds one write batch and the repairs it causes.
int64_t GoodputWindowNs(const WorkloadSpec& spec) {
  return spec.churn ? static_cast<int64_t>(1e9 / spec.write_rate)
                    : 1'000'000'000;
}

mbr::core::Query QueryOf(const Read& r) {
  return mbr::core::Query::TopN(r.user, r.topic, kTopN);
}

// ---------------------------------------------------------------------------
// Per-layer figures (traced run).

// What the layer replays read.
struct LayerInputs {
  const Args& args;
  const WorkloadSpec& spec;
  const DataPaths& paths;
  const Stack& stack;
  const Traffic& traffic;
  const PhaseDelta& traced;  // registry deltas over the traced phase
  int64_t traced_start_ns;
  double traced_s;
  SpanBuffer* spans;  // replay spans
};

// Times `fn` once, records a span for it, and returns the duration in ms.
template <typename Fn>
double TimedMs(SpanBuffer* spans, const char* name, uint64_t request, Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  const int64_t t1 = NowNs();
  spans->Add(name, request, 0, t0, t1);
  return static_cast<double>(t1 - t0) / 1e6;
}

// QueryEngine::Recommend replays on an instance on the served path: the
// live warm engine for hot_read (hits), a cache-off replica elsewhere. The
// replays also give the engine's hand-off, which no series records: a
// replay's wall time less what mbr_engine_latency_us records for it (the
// scoring on a worker, or the lookup of a hit).
struct EngineReplay {
  Summary recommend;
  double handoff_us = 0.0;
};

mbr::util::Status EngineLayer(const LayerInputs& in, EngineReplay* out) {
  const WorkloadSpec& spec = in.spec;
  const auto& sim = mbr::topics::TwitterSimilarity();
  const mbr::graph::LabeledGraph& g = in.stack.graph();
  mbr::obs::Registry registry;
  std::unique_ptr<mbr::service::ServingReplica> replica;
  std::unique_ptr<mbr::core::AuthorityIndex> auth;
  std::unique_ptr<mbr::service::QueryEngine> routed;
  mbr::service::QueryEngine* engine = nullptr;
  const mbr::obs::Registry* engine_registry = &registry;
  mbr::service::EngineConfig ec = EngineConfigFor(spec, &registry);
  ec.cache_capacity = 0;
  if (spec.keys == Keys::kHot) {
    engine = in.stack.replica->engine.get();
    engine_registry = in.stack.registry.get();
  } else if (spec.routed) {
    auth = std::make_unique<mbr::core::AuthorityIndex>(g);
    ec.landmarks = in.stack.global_index.get();
    ec.params = in.stack.global_index->config().params;
    routed = std::make_unique<mbr::service::QueryEngine>(g, *auth, sim, ec);
    engine = routed.get();
  } else {
    auto r = mbr::service::WarmStart(in.paths.snapshot,
                                     spec.landmark ? in.paths.index : "", sim,
                                     ec);
    if (!r.ok()) return r.status();
    replica = std::move(*r);
    engine = replica->engine.get();
  }
  const size_t n = !spec.landmark && spec.keys == Keys::kCold
                       ? kExactReplaySamples
                       : kReplaySamples;
  const std::vector<Read> sample = SampleReads(in.traffic.open2, n, in.args.seed);
  const RegSnap r0 = RegSnap::Take(*engine_registry);
  std::vector<double> us;
  for (size_t i = 0; i < sample.size(); ++i) {
    mbr::util::Status st;
    us.push_back(1e3 * TimedMs(in.spans, "engine.recommend", i, [&] {
      st = engine->Recommend(QueryOf(sample[i])).status();
    }));
    if (!st.ok()) return st;
  }
  const RegDelta d{r0, RegSnap::Take(*engine_registry)};
  out->recommend = Summarize(us);
  out->handoff_us = std::max(
      0.0, out->recommend.mean - d.Mean("mbr_engine_latency_us"));
  return mbr::util::Status::Ok();
}

// The traced read latency split by layer, as means per read. The rows sum
// to the traced mean read latency (see README.md).
struct ReadBreakdown {
  Summary traced;
  double ping_us = 0.0;
  double client_self_us = 0.0;
  double server_self_us = 0.0;
  double queue_wait_us = 0.0;
  double unattributed_frac = 0.0;
  double reconcile_err = 0.0;
  uint32_t negative_rows = 0;
};

ReadBreakdown BreakDownReads(const LayerInputs& in, const PhaseResult& phase,
                             const std::vector<Span>& spans,
                             const Summary& untraced, double handoff_us,
                             Detail* detail) {
  ReadBreakdown bd;
  OpenLoopAccount acc;
  for (const ReadLane& lane : phase.lanes) AccountConnection(lane.ops, &acc);
  bd.traced = Summarize(acc.latency_us);
  auto totals = TotalsByName(spans);
  const double n = static_cast<double>(totals["read"].count);
  const double root_mean = Ratio(totals["read"].total_us, n);
  const double delay = Ratio(totals["loadgen.delay"].total_us, n);
  const double call = Ratio(totals["net.client_call"].total_us, n);
  bd.ping_us = Ratio(totals["net.ping"].total_us,
                     static_cast<double>(totals["net.ping"].count));

  // The server that scores a read is the one the client talks to, or
  // behind the router the home shard, whose dispatcher serves the
  // RECOMMEND_PARTIAL. Its dispatch time holds the engine's recorded time
  // (mbr_engine_latency_us: the scoring on a worker, or the lookup of a
  // hit); the rest is the dispatcher's: decode, encode, admission (on
  // churn_mix, waiting for the rebind lock a repair holds) and the hand-off
  // to the engine's pool, which no series separates. The replays give that
  // hand-off on an idle engine as engine.queue_wait_us, outside the rows.
  const RegDelta& own = in.traced.own;
  const double eng = Ratio(own.Sum("mbr_engine_latency_us"), n);
  const double disp =
      Ratio(own.Sum(in.spec.routed
                        ? "mbr_net_request_latency_us{op=recommend_partial}"
                        : "mbr_net_request_latency_us{op=recommend}"),
            n);
  // Behind the router the first hop is every shard RPC the router makes
  // for a read: the RECOMMEND_PARTIAL, and the LANDMARK_FETCH calls, which
  // the shards answer on their event loop with no series of their own.
  const double first_hop =
      in.spec.routed ? Ratio(own.Sum("mbr_coord_shard_latency_us"), n) : disp;
  bd.client_self_us = call - first_hop;
  bd.server_self_us = disp - eng;
  bd.queue_wait_us = handoff_us;
  // What no span or counter covers: the client call less a PING round trip
  // on the same connection (socket, framing, event loop) and less the first
  // hop. On one server that is the hand-off to and from the dispatcher
  // threads; behind the router, the router's own work.
  const double unattributed = bd.client_self_us - bd.ping_us;
  bd.unattributed_frac = Ratio(unattributed, root_mean);
  std::vector<Metric> rows = {
      {"loadgen.delay_us", delay, "us"},
      {"net.ping_us", bd.ping_us, "us"},
      {"unattributed_us", unattributed, "us"}};
  if (in.spec.routed) {
    rows.push_back({"coord.shard_rpc_rest_us", first_hop - disp, "us"});
  }
  rows.insert(rows.end(), {{"net.server_self_us", bd.server_self_us, "us"},
                           {"engine.execute_us", eng, "us"}});
  double sum = 0.0;
  std::string negative;
  for (const Metric& m : rows) {
    sum += m.value;
    // Counters record whole microseconds, so a row may read a little
    // below zero; more than that means a row charges time it does not own.
    if (m.value < -kNegativeRowSlackUs) {
      ++bd.negative_rows;
      negative += (negative.empty() ? "" : " ") + m.name;
    }
  }
  if (bd.negative_rows > 0) {
    std::fprintf(stderr, "serving_bench: warning: negative breakdown rows: %s\n",
                 negative.c_str());
  }
  // The rows are means (counters give sums), so they are checked against
  // the untraced phase's mean; trace.overhead_frac compares the medians.
  bd.reconcile_err = std::fabs(sum - untraced.mean) / untraced.mean;
  detail->fields.push_back({"read_breakdown_mean", MetricsJson(rows)});
  detail->AddStr("negative_rows", negative);
  detail->Add("read_traced_mean_us", root_mean);
  detail->AddSummary("read_traced_us", bd.traced);
  detail->Add("reconcile_tolerance", kReconcileTolerance);
  detail->AddStr("reconciled",
                 bd.reconcile_err <= kReconcileTolerance ? "yes" : "no");
  return bd;
}

// Single-caller exact recommender on sampled reads, plus the authority
// index build.
mbr::util::Status CoreLayer(const LayerInputs& in, std::vector<Metric>* out) {
  const mbr::graph::LabeledGraph& g = in.stack.graph();
  std::vector<double> authority_ms;
  for (int i = 0; i < 3; ++i) {
    authority_ms.push_back(TimedMs(in.spans, "core.authority_build", i,
                                   [&] { mbr::core::AuthorityIndex a(g); }));
  }
  mbr::core::TrRecommender tr(g, mbr::topics::TwitterSimilarity(),
                              in.spec.landmark
                                  ? ServedIndex(in.stack).config().params
                                  : mbr::core::ScoreParams{});
  const RegSnap d0 = RegSnap::Take(mbr::obs::Registry::Default());
  const std::vector<Read> sample =
      SampleReads(in.traffic.open2, kExactReplaySamples, in.args.seed + 1);
  std::vector<double> us;
  for (size_t i = 0; i < sample.size(); ++i) {
    us.push_back(1e3 * TimedMs(in.spans, "core.recommend", i, [&] {
      tr.Recommend(sample[i].user, sample[i].topic, kTopN);
    }));
  }
  const RegDelta d{d0, RegSnap::Take(mbr::obs::Registry::Default())};
  const Summary explore = Summarize(us);
  out->insert(out->end(),
              {{"core.explore_us.p50", explore.p50, "us"},
               {"core.explore_us.tail", explore.tail, "us"},
               {"core.frontier_nodes", d.Mean("mbr_scorer_frontier_size"), "count"},
               {"core.iterations", d.Mean("mbr_scorer_iterations"), "count"},
               {"core.authority_build_ms", Median(authority_ms), "ms"}});
  return mbr::util::Status::Ok();
}

// Landmark selection and index build on the served graph, and
// single-caller ApproxRecommender replays over the served index.
mbr::util::Status LandmarkLayer(const LayerInputs& in,
                                std::vector<Metric>* out) {
  const auto& sim = mbr::topics::TwitterSimilarity();
  const mbr::graph::LabeledGraph& g = in.stack.graph();
  const mbr::landmark::LandmarkIndex& index = ServedIndex(in.stack);
  const mbr::core::AuthorityIndex auth(g);
  std::vector<mbr::graph::NodeId> landmarks;
  const double select_ms = TimedMs(in.spans, "landmark.select", 0, [&] {
    landmarks = SelectServedLandmarks(g);
  });
  mbr::landmark::LandmarkIndexConfig icfg = index.config();
  icfg.num_threads = 1;
  const double build_ms = TimedMs(in.spans, "landmark.index_build", 0, [&] {
    mbr::landmark::LandmarkIndex built(g, auth, sim, landmarks, icfg);
  });

  mbr::landmark::ApproxConfig ac;
  ac.params = index.config().params;
  mbr::landmark::ApproxRecommender approx(g, auth, sim, index, ac);
  const RegSnap d0 = RegSnap::Take(mbr::obs::Registry::Default());
  const std::vector<Read> sample =
      SampleReads(in.traffic.open2, kReplaySamples, in.args.seed + 2);
  std::vector<double> us;
  for (size_t i = 0; i < sample.size(); ++i) {
    mbr::util::Status st;
    us.push_back(1e3 * TimedMs(in.spans, "landmark.approx", i, [&] {
      st = approx.Recommend(QueryOf(sample[i])).status();
    }));
    if (!st.ok()) return st;
  }
  const RegDelta d{d0, RegSnap::Take(mbr::obs::Registry::Default())};
  const Summary ap = Summarize(us);
  const double q = static_cast<double>(sample.size());
  out->insert(
      out->end(),
      {{"landmark.select_ms", select_ms, "ms"},
       {"landmark.index_build_ms", build_ms, "ms"},
       {"landmark.approx_us.p50", ap.p50, "us"},
       {"landmark.approx_us.tail", ap.tail, "us"},
       {"landmark.bfs_us",
        Ratio(d.Sum("mbr_stage_latency_us{stage=landmark.bfs}"), q), "us"},
       {"landmark.combine_us",
        Ratio(d.Sum("mbr_stage_latency_us{stage=landmark.combine}"), q), "us"},
       {"landmark.consulted", d.Mean("mbr_landmark_consulted"), "count"},
       {"landmark.index_bytes", static_cast<double>(index.StorageBytes()),
        "B"}});
  return mbr::util::Status::Ok();
}

// The write stream replayed through MutationApplier::Apply on an
// uncontended shadow replica, then RefreshLandmark of every landmark on its
// index; the wire ack time beyond the shadow apply is contention.
mbr::util::Status MutationLayer(const LayerInputs& in, const WriteLane& writes,
                                double ping_us, Detail* detail,
                                std::vector<Metric>* out) {
  const auto& sim = mbr::topics::TwitterSimilarity();
  auto shadow = mbr::service::WarmStart(in.paths.snapshot, in.paths.index, sim,
                                        EngineConfigFor(in.spec, nullptr));
  if (!shadow.ok()) return shadow.status();
  mbr::service::MutationApplier applier((*shadow)->graph, *(*shadow)->authority,
                                        *(*shadow)->engine);
  std::vector<double> apply_ms;
  for (size_t k = 0; k < writes.ops.size(); ++k) {
    apply_ms.push_back(TimedMs(in.spans, "mutation.apply", k, [&] {
      applier.Apply(in.traffic.writes[k].records);
    }));
  }
  mbr::landmark::LandmarkIndex& index = *(*shadow)->landmarks;
  const auto g = applier.current_graph();
  const auto auth = applier.current_authority();
  std::vector<double> refresh_ms;
  for (size_t i = 0; i < index.landmarks().size(); ++i) {
    refresh_ms.push_back(TimedMs(in.spans, "repair.refresh", i, [&] {
      index.RefreshLandmark(index.landmarks()[i], *g, *auth, sim);
    }));
  }
  const Summary apply = Summarize(apply_ms);
  const double refresh = Median(refresh_ms);

  // Write-path breakdown over the traced window, as for reads.
  std::vector<Span> spans;
  for (const Span& s : writes.spans.spans()) {
    if (s.start_ns >= in.traced_start_ns) spans.push_back(s);
  }
  auto wt = TotalsByName(spans);
  const double n = static_cast<double>(wt["write"].count);
  const RegDelta& own = in.traced.own;
  const double disp_us = own.Mean("mbr_net_request_latency_us{op=mutate}");
  const double contention_ms = disp_us / 1e3 - apply.mean;
  detail->fields.push_back(
      {"write_breakdown_mean",
       MetricsJson({{"loadgen.delay_us", Ratio(wt["loadgen.delay"].total_us, n), "us"},
                    {"net.ping_us", ping_us, "us"},
                    {"unattributed_us",
                     Ratio(wt["net.client_call"].total_us, n) - disp_us - ping_us,
                     "us"},
                    {"mutation.contention_us", contention_ms * 1e3, "us"},
                    {"mutation.apply_us", apply.mean * 1e3, "us"}})});
  const double repaired = own.Counter("mbr_repair_repaired_total");
  const double marked = own.Counter("mbr_repair_stale_marked_total");
  const double batches = own.Counter("mbr_mutation_batches_total");
  const double repaired_per_s = Ratio(repaired, in.traced_s);
  out->insert(out->end(),
              {{"mutation.apply_ms.p50", apply.p50, "ms"},
               {"mutation.apply_ms.tail", apply.tail, "ms"},
               {"mutation.contention_ms", contention_ms, "ms"},
               {"repair.refresh_ms", refresh, "ms"},
               {"repair.marked_per_batch", Ratio(marked, batches), "count"},
               {"repair.repaired_per_s", repaired_per_s, "1/s"},
               {"repair.useful_frac", Ratio(repaired, marked), "ratio"},
               {"repair.stall_ms_per_s", repaired_per_s * refresh, "ms/s"}});
  return mbr::util::Status::Ok();
}

// Plan build and shard boot on the full graph, the router's counters, and
// router_self: routed RTT minus the direct home-shard RecommendPartial RTT,
// one request at a time.
mbr::util::Status CoordLayer(const LayerInputs& in, std::vector<Metric>* out) {
  const auto& sim = mbr::topics::TwitterSimilarity();
  const mbr::graph::LabeledGraph& g = in.stack.graph();
  const Stack& stack = in.stack;
  std::unique_ptr<mbr::coord::ShardPlan> plan;
  const double plan_ms = TimedMs(in.spans, "coord.plan_build", 0, [&] {
    plan = std::make_unique<mbr::coord::ShardPlan>(BuildShardPlan(g));
  });
  std::vector<double> boot_ms;
  for (uint32_t s = 0; s < kShards; ++s) {
    mbr::service::EngineConfig ec = EngineConfigFor(in.spec, nullptr);
    ec.params = stack.global_index->config().params;
    mbr::util::Status st;
    boot_ms.push_back(TimedMs(in.spans, "coord.shard_boot", s, [&] {
      st = mbr::coord::BuildShardContext(g, sim, *plan, s,
                                         stack.global_index.get(), ec)
               .status();
    }));
    if (!st.ok()) return st;
  }

  auto router = Connect(stack.port);
  if (!router.ok()) return router.status();
  std::vector<mbr::net::Client> direct;
  for (const auto& srv : stack.shard_servers) {
    auto c = Connect(srv->port());
    if (!c.ok()) return c.status();
    direct.push_back(std::move(*c));
  }
  std::vector<double> router_self;
  const std::vector<Read> sample =
      SampleReads(in.traffic.open2, kReplaySamples, in.args.seed + 3);
  for (size_t i = 0; i < sample.size(); ++i) {
    mbr::net::RecommendRequest req;
    req.user = sample[i].user;
    req.topic = sample[i].topic;
    req.top_n = kTopN;
    const int64_t t0 = NowNs();
    const bool routed_ok = router->RecommendEx(req).ok();
    const int64_t t1 = NowNs();
    const uint64_t root = in.spans->Add("coord.routed", i, 0, t0, t1);
    const bool partial_ok =
        direct[stack.plan->ShardOf(req.user)].RecommendPartial(req).ok();
    const int64_t t2 = NowNs();
    in.spans->Add("coord.direct_partial", i, root, t1, t2);
    if (!routed_ok || !partial_ok) {
      return mbr::util::Status::Internal("coord probe failed");
    }
    router_self.push_back(static_cast<double>((t1 - t0) - (t2 - t1)) / 1e3);
  }
  const RegDelta& own = in.traced.own;
  const double reqs = own.Counter("mbr_coord_requests_total");
  const double fanout = own.Counter("mbr_coord_fanout_total");
  out->insert(
      out->end(),
      {{"coord.plan_build_ms", plan_ms, "ms"},
       {"coord.shard_boot_ms", Median(boot_ms), "ms"},
       {"coord.fanout_per_req", Ratio(fanout, reqs), "count"},
       {"coord.fetches_per_req",
        Ratio(own.Counter("mbr_coord_landmark_fetches_total"), reqs), "count"},
       {"coord.shard_rtt_us", own.Mean("mbr_coord_shard_latency_us"), "us"},
       {"coord.router_self_us", Median(router_self), "us"},
       {"coord.partial_frac", Ratio(own.Counter("mbr_coord_partial_total"), reqs),
        "ratio"},
       {"coord.shard_error_frac",
        Ratio(own.Counter("mbr_coord_shard_errors_total"), fanout), "ratio"}});
  return mbr::util::Status::Ok();
}

// ---------------------------------------------------------------------------
// The run.

// Progress notes on stderr, timed from process start.
void Note(const char* what) {
  static const int64_t t0 = NowNs();
  std::fprintf(stderr, "[serving_bench %7.3f s] %s\n",
               static_cast<double>(NowNs() - t0) / 1e9, what);
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "serving_bench: %s\n", what.c_str());
  return 1;
}

int RunWorkload(const Args& args, const WorkloadSpec& spec) {
  const bool trace = args.trace == 1;
  const DataPaths paths = PathsFor(args.dir, spec);
  const auto& sim = mbr::topics::TwitterSimilarity();
  Detail detail;
  std::vector<Metric> specific;  // layer figures of some workloads only
  SpanBuffer setup_spans(trace, 90, 256);
  SpanBuffer replay_spans(trace, 91, 4096);

  // graph layer, measured first while the heap is fresh so the RSS delta
  // of a load is the graph's own footprint.
  double rss_bytes_per_edge = 0.0;
  std::vector<double> load_ms;
  if (trace) {
    for (int i = 0; i < 3; ++i) {
      const double rss0 = ProcStatusKb("VmRSS");
      const int64_t t0 = NowNs();
      auto g = mbr::graph::Snapshot::Load(paths.snapshot);
      const int64_t t1 = NowNs();
      if (!g.ok()) return Fail(g.status().ToString());
      replay_spans.Add("graph.load", i, 0, t0, t1);
      load_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      if (i == 0) {
        rss_bytes_per_edge =
            (ProcStatusKb("VmRSS") - rss0) * 1024.0 /
            static_cast<double>(std::max<uint64_t>(1, g->num_edges()));
      }
    }
  }

  const double probe_before_ms = HostProbeMs();
  Note("start");
  // setup_s: files on disk -> first PING answered, taken over the boots.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  const int64_t setup_start_ns = NowNs();
  for (int i = 0;
       i < kSetupMaxBoots &&
       (i < kSetupMinBoots ||
        static_cast<double>(NowNs() - setup_start_ns) / 1e9 < kSetupBudgetS);
       ++i) {
    stack.reset();
    const int64_t t0 = NowNs();
    auto booted = Boot(spec, paths, &setup_spans, i);
    if (!booted.ok()) return Fail("boot: " + booted.status().ToString());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    stack = std::move(*booted);
  }
  const mbr::graph::LabeledGraph& g = stack->graph();

  const double secs = args.seconds;
  const double open_s = trace ? 0.4 * secs : 0.6 * secs;
  const double closed_s = trace ? 0.0 : 0.4 * secs;
  const double write_s = trace ? 2 * open_s : open_s + closed_s;
  Traffic traffic = MakeTraffic(spec, g, args.seed, open_s, write_s);

  Note("setup done");
  mbr::util::Status warm = WarmUp(stack->port, traffic, spec);
  if (!warm.ok()) return Fail(warm.ToString());

  Note("warm-up done");
  // Timed phases.
  const Registries reg0 = Registries::Take(*stack);
  WriteLane writes(trace);
  std::thread write_thread;
  if (spec.churn) {
    const int64_t start = NowNs() + 5'000'000;
    write_thread = std::thread([&, start] {
      RunWrites(stack->port, traffic.writes, spec.write_rate, start,
                stack->repairer.get(), &writes);
    });
  }
  const auto limit_ns = static_cast<int64_t>(spec.limit_us * 1e3);
  const uint32_t fill = spec.fill ? std::thread::hardware_concurrency() : 0;
  auto p1 = OpenLoop(stack->port, traffic.open, spec.open_rate,
                     spec.read_conns, spec.busy_wait, fill, limit_ns,
                     /*trace=*/false, 0);
  if (!p1.ok()) return Fail(p1.status().ToString());
  const Registries reg1 = Registries::Take(*stack);
  mbr::util::Result<PhaseResult> p2 = mbr::util::Status::Internal("unset");
  if (trace) {
    p2 = OpenLoop(stack->port, traffic.open2, spec.open_rate, spec.read_conns,
                  spec.busy_wait, fill, limit_ns, /*trace=*/true, 10);
  } else {
    p2 = ClosedLoop(stack->port, traffic.closed, ClosedConns(spec), fill,
                    closed_s, GoodputWindowNs(spec), limit_ns, 10);
  }
  if (!p2.ok()) return Fail(p2.status().ToString());
  const Registries reg2 = Registries::Take(*stack);
  if (write_thread.joinable()) write_thread.join();
  Note("timed phases done");
  const double rss_mb = ProcStatusKb("VmHWM") / 1024.0;
  const double probe_after_ms = HostProbeMs();

  // Output checks.
  ReadCheck rc;
  std::string why;
  const std::vector<const PhaseResult*> phases = {&*p1, &*p2};
  if (!spec.landmark) {
    mbr::core::TrRecommender oracle(g, sim, mbr::core::ScoreParams{});
    CheckStaticReplies(phases, kOracleKeys, args.seed,
                       [&](const Read& r) {
                         return oracle.Recommend(r.user, r.topic, kTopN);
                       },
                       &rc);
  } else if (spec.routed) {
    mbr::core::AuthorityIndex auth(g);
    mbr::service::EngineConfig ec;
    ec.num_threads = 1;
    ec.cache_capacity = 0;
    ec.landmarks = stack->global_index.get();
    ec.params = stack->global_index->config().params;
    mbr::service::QueryEngine reference(g, auth, sim, ec);
    CheckStaticReplies(phases, 0, args.seed,
                       [&](const Read& r) {
                         auto ref = reference.TopN(r.user, r.topic, kTopN);
                         return ref.ok() ? *ref : RankedList{};
                       },
                       &rc);
  } else {
    why = CheckChurn(*stack, traffic, args.seed);
  }
  Note("output checks done");
  TallyReads(phases, &rc);
  if (why.empty()) why = rc.why;
  uint64_t failed_reads = rc.errors + rc.partial + rc.wrong;

  // Open-loop latency (phase 1: untraced in both modes).
  OpenLoopAccount open_acc;
  for (const ReadLane& lane : p1->lanes) AccountConnection(lane.ops, &open_acc);
  const Summary read = Summarize(open_acc.latency_us);
  const Summary late = Summarize(open_acc.late_us);
  std::vector<OpRecord> open_ops;
  for (const ReadLane& lane : p1->lanes) {
    open_ops.insert(open_ops.end(), lane.ops.begin(), lane.ops.end());
  }
  const WindowedLatency read_w =
      SummarizeWindows(open_ops, kLatencyWindows, kMinWindowSamples,
                       kWindowQuantile);

  // Workload validity.
  const PhaseDelta timed(reg0, reg2);
  const double hits = timed.own.Counter("mbr_engine_cache_hits_total");
  const double misses = timed.own.Counter("mbr_engine_cache_misses_total");
  const double hit_rate = Ratio(hits, hits + misses);
  if (why.empty() && spec.keys == Keys::kHot && hit_rate < 0.99) {
    why = "hot_read cache hit rate " + Num(hit_rate) + " below 0.99";
  }
  if (why.empty() && !spec.landmark && spec.keys == Keys::kCold &&
      hit_rate > 0.05) {
    why = "cold_exact cache hit rate " + Num(hit_rate) + " above 0.05";
  }
  const double applied_frac =
      Ratio(static_cast<double>(writes.applied), static_cast<double>(writes.records));
  if (why.empty() && spec.churn && applied_frac < 0.95) {
    why = "churn_mix applied share " + Num(applied_frac) + " below 0.95";
  }
  // The generator must not be the slow part: its lateness at the tail
  // percentile (p95, as for read_tail_us, see harness.h) must stay under
  // the read median. When it does not, every open-loop read the generator
  // sent later than that median counts as failed, since its latency is
  // then mostly the generator's.
  const bool loadgen_valid = late.tail < read.p50;
  uint64_t late_reads = 0;
  if (!loadgen_valid) {
    for (double l : open_acc.late_us) late_reads += l >= read.p50 ? 1 : 0;
    std::fprintf(stderr,
                 "serving_bench: load generator late p%g %.1f us not under "
                 "read p50 %.1f us: %" PRIu64 " late reads count as failed\n",
                 late.tail_percentile, late.tail, read.p50, late_reads);
  }

  // Writes.
  OpenLoopAccount write_acc;
  AccountConnection(writes.ops, &write_acc);
  const Summary write_ack = Summarize(write_acc.latency_us);

  // Provenance.
  detail.AddStr("workload", spec.name);
  detail.Add("seed", static_cast<double>(args.seed));
  detail.Add("seconds", secs);
  detail.Add("trace", args.trace);
  detail.AddStr("build_type", PERFBENCH_BUILD_TYPE);
  detail.Add("nproc", std::thread::hardware_concurrency());
  detail.Add("nodes", g.num_nodes());
  detail.Add("edges", static_cast<double>(g.num_edges()));
  detail.Add("engine_threads", spec.engine_threads);
  detail.Add("dispatch_threads", spec.dispatch_threads);
  detail.Add("shards", spec.routed ? kShards : 1);
  detail.Add("read_conns", spec.read_conns);
  detail.Add("open_rate_per_s", spec.open_rate);
  detail.Add("open_seconds", open_s);
  detail.Add("closed_seconds", closed_s);
  detail.Add("write_rate_per_s", spec.write_rate);
  detail.Add("write_batch", spec.write_batch);
  detail.Add("goodput_limit_us", spec.limit_us);
  detail.Add("hot_keys", spec.hot_keys);
  detail.Add("cache_capacity", kCacheCapacity);
  detail.Add("host_probe_before_ms", probe_before_ms);
  detail.Add("host_probe_after_ms", probe_after_ms);
  detail.AddSummary("setup_s", Summarize(setup_s));
  std::sort(setup_s.begin(), setup_s.end());
  const double setup_q = NearestRank(setup_s, kWindowQuantile);
  detail.Add("setup_s_quantile", kWindowQuantile);
  detail.AddSummary("read_us", read);
  detail.Add("read_p50_windowed_us", read_w.p50);
  detail.Add("read_tail_windowed_us", read_w.tail);
  detail.Add("read_windows", static_cast<double>(read_w.windows));
  detail.Add("read_samples_per_window",
             static_cast<double>(read_w.samples_per_window));
  detail.AddSummary("loadgen_late_us", late);
  detail.AddStr("loadgen_valid", loadgen_valid ? "yes" : "no");
  detail.Add("loadgen_late_reads", static_cast<double>(late_reads));
  detail.Add("reads_attempted", static_cast<double>(rc.attempted));
  detail.Add("read_errors", static_cast<double>(rc.errors));
  detail.Add("read_partial", static_cast<double>(rc.partial));
  detail.Add("read_wrong", static_cast<double>(rc.wrong));
  detail.Add("read_fail_frac", Ratio(static_cast<double>(failed_reads),
                                     static_cast<double>(rc.attempted)));
  detail.Add("oracle_keys", static_cast<double>(rc.oracle_keys));
  detail.Add("cache_hit_rate", hit_rate);
  detail.Add("rss_mb", rss_mb);
  if (spec.churn) {
    detail.AddSummary("write_ack_us", write_ack);
    detail.Add("write_batches", static_cast<double>(writes.ops.size()));
    detail.Add("write_bad_acks", static_cast<double>(writes.bad_acks));
    detail.Add("write_applied_frac", applied_frac);
    detail.Add("fresh_lag_ms", writes.fresh_lag_ms);
    detail.Add("stale_read_frac", Ratio(static_cast<double>(rc.stale),
                                        static_cast<double>(rc.attempted)));
  }

  std::vector<Metric> result;
  if (!trace) {
    // Goodput: closed-loop replies that are correct and within the limit.
    const uint64_t good = GoodReplies(*p2, rc);
    uint64_t closed_n = 0;
    for (const ReadLane& lane : p2->lanes) closed_n += lane.attempted;
    const double goodput = WindowedGoodput(*p2);
    detail.Add("closed_reads", static_cast<double>(closed_n));
    detail.Add("closed_good", static_cast<double>(good));
    detail.Add("closed_good_per_s",
               Ratio(static_cast<double>(good), p2->seconds()));
    detail.Add("goodput_window_s",
               static_cast<double>(GoodputWindowNs(spec)) / 1e9);
    detail.Add("goodput_window_quantile", 1.0 - kWindowQuantile);
    detail.Add("closed_phase_s", p2->seconds());
    result = {{"setup_s", setup_q, "s"},
              {"read_p50_us", read_w.p50, "us"},
              {"read_goodput_qps", goodput, "1/s"},
              {"rss_mb", rss_mb, "MiB"}};
  } else {
    const PhaseDelta traced(reg1, reg2);
    const LayerInputs in{args,  spec,        paths,         *stack,
                         traffic, traced, p2->start_ns, p2->seconds(),
                         &replay_spans};
    std::vector<Span> spans;
    for (const ReadLane& lane : p2->lanes) {
      spans.insert(spans.end(), lane.spans.spans().begin(),
                   lane.spans.spans().end());
    }
    EngineReplay engine_rec;
    std::vector<Metric> core;
    mbr::util::Status st = EngineLayer(in, &engine_rec);
    if (!st.ok()) return Fail(st.ToString());
    const ReadBreakdown bd = BreakDownReads(in, *p2, spans, read,
                                            engine_rec.handoff_us, &detail);
    st = CoreLayer(in, &core);
    if (st.ok() && spec.landmark) st = LandmarkLayer(in, &specific);
    if (st.ok() && spec.churn) {
      st = MutationLayer(in, writes, bd.ping_us, &detail, &specific);
      specific.insert(
          specific.end(),
          {{"write_ack_p50_us", write_ack.p50, "us"},
           {"write_ack_tail_us", write_ack.tail, "us"},
           {"fresh_lag_ms", writes.fresh_lag_ms, "ms"},
           {"stale_read_frac",
            Ratio(static_cast<double>(rc.stale), static_cast<double>(rc.attempted)),
            "ratio"},
           {"mutation.applied_frac", applied_frac, "ratio"}});
    }
    if (st.ok() && spec.routed) st = CoordLayer(in, &specific);
    if (!st.ok()) return Fail(st.ToString());

    const double net_requests = traced.own.Counter("mbr_net_requests_total");
    const double bytes = traced.own.Counter("mbr_net_bytes_read_total") +
                         traced.own.Counter("mbr_net_bytes_written_total");
    const double shed = traced.own.Counter("mbr_net_shed_overload_total") +
                        traced.own.Counter("mbr_net_shed_deadline_total");
    const double hits_t = traced.own.Counter("mbr_engine_cache_hits_total");
    const double miss_t = traced.own.Counter("mbr_engine_cache_misses_total");
    const double tier_n[3] = {
        traced.own.Counter("mbr_engine_tier_served_total{tier=exact}"),
        traced.own.Counter("mbr_engine_tier_served_total{tier=approx}"),
        traced.own.Counter("mbr_engine_tier_served_total{tier=stale}")};
    const double tiers = tier_n[0] + tier_n[1] + tier_n[2];
    result = {
        {"net.client_self_us", bd.client_self_us, "us"},
        {"net.ping_us", bd.ping_us, "us"},
        {"net.server_self_us", bd.server_self_us, "us"},
        {"net.bytes_per_req", Ratio(bytes, net_requests), "B"},
        {"net.shed_frac", Ratio(shed, net_requests), "ratio"},
        {"net.protocol_errors",
         traced.own.Counter("mbr_net_protocol_errors_total"), "count"},
        {"engine.hit_rate", Ratio(hits_t, hits_t + miss_t), "ratio"},
        {"engine.recommend_us.p50", engine_rec.recommend.p50, "us"},
        {"engine.recommend_us.tail", engine_rec.recommend.tail, "us"},
        {"engine.queue_wait_us", bd.queue_wait_us, "us"},
        {"engine.tier_frac.exact", Ratio(tier_n[0], tiers), "ratio"},
        {"engine.tier_frac.approx", Ratio(tier_n[1], tiers), "ratio"},
        {"engine.tier_frac.stale", Ratio(tier_n[2], tiers), "ratio"},
        {"engine.invalidations_per_s",
         Ratio(traced.own.Counter("mbr_engine_invalidations_total"),
               in.traced_s),
         "1/s"},
        {"graph.load_ms", Median(load_ms), "ms"},
        {"graph.rss_bytes_per_edge", rss_bytes_per_edge, "B"},
        {"trace.overhead_frac", bd.traced.p50 / read.p50 - 1.0, "ratio"},
        {"trace.unattributed_frac", bd.unattributed_frac, "ratio"},
        {"trace.reconcile_err", bd.reconcile_err, "ratio"},
        {"trace.negative_rows", static_cast<double>(bd.negative_rows), "count"},
        {"loadgen.late_p99_us", late.p99, "us"},
    };
    result.insert(result.end(), core.begin(), core.end());
    detail.AddSummary("engine_recommend_us", engine_rec.recommend);
    detail.Add("engine_handoff_us", engine_rec.handoff_us);
    detail.fields.push_back({"layer_specific", MetricsJson(specific)});

    // Spans are written out only now, when the run ends.
    std::vector<Span> all = setup_spans.spans();
    all.insert(all.end(), replay_spans.spans().begin(), replay_spans.spans().end());
    all.insert(all.end(), spans.begin(), spans.end());
    all.insert(all.end(), writes.spans.spans().begin(), writes.spans.spans().end());
    const std::string span_path = args.dir + "/spans-" + spec.name + "-s" +
                                  std::to_string(args.seed) + ".jsonl";
    if (WriteSpans(all, span_path)) detail.AddStr("spans_file", span_path);
    detail.Add("spans", static_cast<double>(all.size()));
  }

  const bool correct = why.empty();
  if (!correct) detail.AddStr("failure", why);
  const uint64_t attempted = rc.attempted + writes.ops.size();
  const uint64_t failed = failed_reads + late_reads + writes.bad_acks;
  stack.reset();

  std::printf("%s\n", detail.Json().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(result).c_str());
  if (!correct) std::fprintf(stderr, "serving_bench: check failed: %s\n", why.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serving_bench gen|run --workload W --seed N "
                 "[--seconds S] [--trace 0|1] [--dir D]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) return perfbench::Fail("unknown workload " + args.workload);
  // Touch the similarity matrix once so its lazy construction is not
  // charged to the first timed setup.
  (void)mbr::topics::TwitterSimilarity();
  if (args.cmd == "gen") {
    const perfbench::DataPaths paths =
        perfbench::PathsFor(args.dir, *spec);
    mbr::util::Status s = perfbench::GenerateInputs(*spec, paths);
    if (!s.ok()) return perfbench::Fail(s.ToString());
    return 0;
  }
  return perfbench::RunWorkload(args, *spec);
}
