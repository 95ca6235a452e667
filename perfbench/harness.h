#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Load-generation and measurement helpers of the serving benchmark, kept
// apart from the workloads so the self-tests (harness_test.cc) can pin
// them: the tail-percentile rule, open-loop accounting, the in-memory span
// recorder and the shadow-edge-set mutation generator.

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/labeled_graph.h"
#include "service/mutation.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles.

// Nearest-rank quantile of ascending `sorted`: the smallest sample with at
// least a share p of the samples at or below it. 0 for an empty input.
double NearestRank(const std::vector<double>& sorted, double p);

// A timing's median and tail. The tail is the highest percentile of the
// ladder {95, 90, 75} that leaves at least 10 samples beyond it (p95 needs
// >= 200 samples); below 40 samples no percentile qualifies and the tail
// falls back to the median (tail_percentile = 50). The ladder stops at p95
// because on a shared 4-vCPU virtual machine 1-5% of loopback requests
// land in 1-10 ms host scheduling stalls, so p99 measures the host rather
// than the code; p99 is still reported beside it.
struct Summary {
  size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double tail = 0.0;
  double tail_percentile = 50.0;
};
Summary Summarize(std::vector<double> values);

// ---------------------------------------------------------------------------
// Open-loop accounting.
//
// One connection of an open loop sends request k at its scheduled time
// t0 + (k + phase) * interval, or as soon as the reply to request k-1 has
// arrived if that is later (a blocking connection carries one request at a
// time). Latency is timed from the scheduled time, so a stall also charges
// the requests queued behind it. Lateness is what the generator itself
// adds: the gap between the moment the request could have gone out
// (max(scheduled, previous reply)) and the moment it did.

struct OpRecord {
  int64_t sched_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
};

// Scheduled send time (ns) of request k on a connection.
inline int64_t ScheduledNs(int64_t t0_ns, double interval_ns, double phase,
                           uint64_t k) {
  return t0_ns +
         static_cast<int64_t>((static_cast<double>(k) + phase) * interval_ns);
}

struct OpenLoopAccount {
  std::vector<double> latency_us;  // done - sched, every op
  std::vector<double> late_us;     // send - max(sched, previous done)
};
// `ops` are one connection's records in send order.
void AccountConnection(const std::vector<OpRecord>& ops, OpenLoopAccount* acc);

// Open-loop latency by windows, so that a host stall over part of a phase
// does not move the figures: `ops` (every connection's records of one
// phase, in any order) are cut by scheduled send time into equal windows,
// as many as leave at least `min_samples` records in each and at most
// `max_windows`; each window is summarized by the tail rule, and p50 and
// tail are the given `quantile` (nearest rank) of the windows' figures.
struct WindowedLatency {
  double p50 = 0.0;
  double tail = 0.0;
  size_t windows = 0;
  size_t samples_per_window = 0;
};
WindowedLatency SummarizeWindows(const std::vector<OpRecord>& ops,
                                 size_t max_windows, size_t min_samples,
                                 double quantile);

// Waits for `when_ns` by yielding the processor in a loop rather than
// sleeping: a thread woken from a timed sleep on an idle virtual CPU can be
// late by far more than a loopback round trip, and a generator that keeps
// its CPU busy also keeps the server's wake-ups off halted CPUs. Yielding
// hands the CPU to any server thread that is ready to run.
void WaitUntilNs(int64_t when_ns);

// Waits for `when_ns` by sleeping on an absolute timer until kSpinWindowNs
// before it, then spinning without yielding. For a lane whose sends are
// far apart, so it does not hold a CPU between them.
inline constexpr int64_t kSpinWindowNs = 300'000;
void SleepUntilNs(int64_t when_ns);

// Sets the calling thread's timer slack to 1 ns, so its timed sleeps end
// on time rather than up to the default 50 us late.
void ReduceTimerSlack();

// ---------------------------------------------------------------------------
// Span recorder.
//
// Spans carry a name, a start and an end, the id of the span that caused
// them (0 = root) and a request id shared by every span of one request.
// Each load-generator thread records into its own SpanBuffer, so recording
// takes no lock; the buffers are merged and written out only when the run
// ends. A disabled buffer records nothing and hands out id 0.

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanBuffer {
 public:
  // `lane` makes ids unique across buffers (ids are lane << 40 | seq).
  SpanBuffer(bool enabled, uint32_t lane, size_t reserve = 0);
  bool enabled() const { return enabled_; }
  uint64_t Add(const char* name, uint64_t request, uint64_t parent,
               int64_t start_ns, int64_t end_ns);
  // Closes a span added earlier with a provisional end (a parent whose
  // children are recorded before it ends).
  void SetEnd(uint64_t id, int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint64_t next_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children's intervals (clipped to it).
// Result is parallel to `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Per-name totals over a span set.
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::unordered_map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans);

// Writes one JSON object per span, one per line.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// ---------------------------------------------------------------------------
// Shadow-edge-set mutation generator.
//
// Keeps the benchmark's own copy of the follow-edge set and generates
// batches of one mutation kind against it, updating it as it goes, so every
// generated record applies when the batches reach the server in order:
// FOLLOW picks an absent edge between distinct nodes, UNFOLLOW and RELABEL
// pick a present one; labels are one or two topics of the vocabulary.

struct MutationBatch {
  mbr::service::MutationOp op = mbr::service::MutationOp::kFollow;
  std::vector<mbr::service::Mutation> records;
};

class ShadowEdges {
 public:
  explicit ShadowEdges(const mbr::graph::LabeledGraph& g);

  // One batch of `len` records; its kind is drawn with probabilities
  // follow_share, unfollow_share and the remainder for RELABEL.
  MutationBatch NextBatch(mbr::util::Rng* rng, size_t len,
                          double follow_share, double unfollow_share);

  bool Has(uint32_t src, uint32_t dst) const {
    return slot_.count(Key(src, dst)) != 0;
  }
  size_t num_edges() const { return edges_.size(); }
  // Whether `g` holds exactly this edge set.
  bool SameEdges(const mbr::graph::LabeledGraph& g) const;

 private:
  static uint64_t Key(uint32_t src, uint32_t dst) {
    return (static_cast<uint64_t>(src) << 32) | dst;
  }
  void Insert(uint64_t key);
  void Erase(uint64_t key);
  uint64_t RandomLabels(mbr::util::Rng* rng) const;

  uint32_t num_nodes_;
  int num_topics_;
  std::vector<uint64_t> edges_;                 // dense, for uniform picks
  std::unordered_map<uint64_t, size_t> slot_;   // edge -> index in edges_
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
