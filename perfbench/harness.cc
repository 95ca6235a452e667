#include "harness.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <thread>
#include <utility>

#include "topics/topic.h"

namespace perfbench {

namespace {

// Ladder of tail percentiles in per-mille, highest first.
constexpr uint64_t kTailLadderMilli[] = {950, 900, 750};

// 1-based nearest rank of the per-mille quantile over n samples.
uint64_t RankMilli(uint64_t n, uint64_t milli) {
  return std::max<uint64_t>(1, (milli * n + 999) / 1000);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const uint64_t milli = static_cast<uint64_t>(p * 1000.0 + 0.5);
  return sorted[RankMilli(sorted.size(), milli) - 1];
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  s.p50 = NearestRank(values, 0.5);
  s.p99 = NearestRank(values, 0.99);
  s.tail = s.p50;
  const uint64_t n = values.size();
  for (uint64_t milli : kTailLadderMilli) {
    const uint64_t rank = RankMilli(n, milli);
    if (n - rank >= 10) {
      s.tail = values[rank - 1];
      s.tail_percentile = static_cast<double>(milli) / 10.0;
      break;
    }
  }
  return s;
}

void AccountConnection(const std::vector<OpRecord>& ops,
                       OpenLoopAccount* acc) {
  int64_t prev_done = 0;
  for (const OpRecord& op : ops) {
    acc->latency_us.push_back(static_cast<double>(op.done_ns - op.sched_ns) /
                              1e3);
    const int64_t ready = std::max(op.sched_ns, prev_done);
    acc->late_us.push_back(
        static_cast<double>(std::max<int64_t>(0, op.send_ns - ready)) / 1e3);
    prev_done = op.done_ns;
  }
}

WindowedLatency SummarizeWindows(const std::vector<OpRecord>& ops,
                                 size_t max_windows, size_t min_samples,
                                 double quantile) {
  WindowedLatency out;
  if (ops.empty()) return out;
  int64_t lo = ops.front().sched_ns, hi = lo;
  for (const OpRecord& op : ops) {
    lo = std::min(lo, op.sched_ns);
    hi = std::max(hi, op.sched_ns);
  }
  out.windows = std::clamp<size_t>(ops.size() / std::max<size_t>(min_samples, 1),
                                   1, std::max<size_t>(max_windows, 1));
  out.samples_per_window = ops.size() / out.windows;
  const double span = static_cast<double>(hi - lo) + 1.0;
  std::vector<std::vector<double>> per(out.windows);
  for (const OpRecord& op : ops) {
    const auto w = static_cast<size_t>(static_cast<double>(op.sched_ns - lo) /
                                       span * static_cast<double>(out.windows));
    per[std::min(w, out.windows - 1)].push_back(
        static_cast<double>(op.done_ns - op.sched_ns) / 1e3);
  }
  std::vector<double> p50s, tails;
  for (auto& v : per) {
    const Summary s = Summarize(std::move(v));
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
  }
  std::sort(p50s.begin(), p50s.end());
  std::sort(tails.begin(), tails.end());
  out.p50 = NearestRank(p50s, quantile);
  out.tail = NearestRank(tails, quantile);
  return out;
}

void WaitUntilNs(int64_t when_ns) {
  while (NowNs() < when_ns) std::this_thread::yield();
}

void SleepUntilNs(int64_t when_ns) {
  const int64_t wake_ns = when_ns - kSpinWindowNs;
  if (NowNs() < wake_ns) {
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wake_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wake_ns % 1'000'000'000);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (NowNs() < when_ns) {
  }
}

void ReduceTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

SpanBuffer::SpanBuffer(bool enabled, uint32_t lane, size_t reserve)
    : enabled_(enabled), next_((static_cast<uint64_t>(lane) << 40) + 1) {
  if (enabled_) spans_.reserve(reserve);
}

uint64_t SpanBuffer::Add(const char* name, uint64_t request, uint64_t parent,
                         int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return 0;
  const uint64_t id = next_++;
  spans_.push_back({id, parent, request, name, start_ns, end_ns});
  return id;
}

void SpanBuffer::SetEnd(uint64_t id, int64_t end_ns) {
  if (!enabled_ || id == 0) return;
  const uint64_t seq = id & ((uint64_t{1} << 40) - 1);
  if (seq == 0 || seq > spans_.size()) return;
  spans_[seq - 1].end_ns = end_ns;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    children[it->second].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::unordered_map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::unordered_map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_us += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    t.self_us += static_cast<double>(self[i]) / 1e3;
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

ShadowEdges::ShadowEdges(const mbr::graph::LabeledGraph& g)
    : num_nodes_(g.num_nodes()), num_topics_(g.num_topics()) {
  edges_.reserve(g.num_edges());
  slot_.reserve(g.num_edges());
  for (uint32_t u = 0; u < num_nodes_; ++u) {
    for (uint32_t v : g.OutNeighbors(u)) Insert(Key(u, v));
  }
}

void ShadowEdges::Insert(uint64_t key) {
  slot_.emplace(key, edges_.size());
  edges_.push_back(key);
}

void ShadowEdges::Erase(uint64_t key) {
  auto it = slot_.find(key);
  const size_t pos = it->second;
  slot_.erase(it);
  const uint64_t last = edges_.back();
  edges_.pop_back();
  if (pos < edges_.size()) {
    edges_[pos] = last;
    slot_[last] = pos;
  }
}

uint64_t ShadowEdges::RandomLabels(mbr::util::Rng* rng) const {
  const auto topics = static_cast<uint64_t>(num_topics_);
  uint64_t bits = uint64_t{1} << rng->UniformU64(topics);
  if (rng->Bernoulli(0.3)) bits |= uint64_t{1} << rng->UniformU64(topics);
  return bits;
}

MutationBatch ShadowEdges::NextBatch(mbr::util::Rng* rng, size_t len,
                                     double follow_share,
                                     double unfollow_share) {
  using mbr::service::MutationOp;
  MutationBatch batch;
  const double roll = rng->UniformDouble();
  batch.op = roll < follow_share                    ? MutationOp::kFollow
             : roll < follow_share + unfollow_share ? MutationOp::kUnfollow
                                                    : MutationOp::kRelabel;
  // A graph with too few edges to remove from turns removals into follows.
  if (batch.op != MutationOp::kFollow && edges_.size() < len) {
    batch.op = MutationOp::kFollow;
  }
  for (size_t i = 0; i < len; ++i) {
    mbr::service::Mutation m;
    m.op = batch.op;
    if (batch.op == MutationOp::kFollow) {
      uint32_t src = 0, dst = 0;
      do {
        src = static_cast<uint32_t>(rng->UniformU64(num_nodes_));
        dst = static_cast<uint32_t>(rng->UniformU64(num_nodes_));
      } while (src == dst || Has(src, dst));
      m.src = src;
      m.dst = dst;
      m.labels = mbr::topics::TopicSet(RandomLabels(rng));
      Insert(Key(src, dst));
    } else {
      const uint64_t key = edges_[rng->UniformU64(edges_.size())];
      m.src = static_cast<uint32_t>(key >> 32);
      m.dst = static_cast<uint32_t>(key & 0xffffffffu);
      if (batch.op == MutationOp::kUnfollow) {
        Erase(key);
      } else {
        m.labels = mbr::topics::TopicSet(RandomLabels(rng));
      }
    }
    batch.records.push_back(m);
  }
  return batch;
}

bool ShadowEdges::SameEdges(const mbr::graph::LabeledGraph& g) const {
  if (g.num_edges() != edges_.size()) return false;
  for (uint32_t u = 0; u < g.num_nodes(); ++u) {
    for (uint32_t v : g.OutNeighbors(u)) {
      if (!Has(u, v)) return false;
    }
  }
  return true;
}

}  // namespace perfbench
