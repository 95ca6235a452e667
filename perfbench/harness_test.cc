// Self-tests of the benchmark's measurement helpers.

#include "harness.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/authority.h"
#include "datagen/twitter_generator.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "topics/similarity_matrix.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailRule, P95NeedsTwoHundredSamples) {
  Summary s = Summarize(OneTo(200));
  EXPECT_EQ(s.samples, 200u);
  EXPECT_EQ(s.p50, 100);
  EXPECT_EQ(s.tail_percentile, 95.0);
  EXPECT_EQ(s.tail, 190);  // exactly 10 samples (191..200) beyond it
  EXPECT_EQ(s.p99, 198);

  s = Summarize(OneTo(199));
  EXPECT_EQ(s.tail_percentile, 90.0);  // p95 would leave only 9 beyond
  EXPECT_EQ(s.tail, 180);
}

TEST(TailRule, LadderFollowsSampleCount) {
  Summary s = Summarize(OneTo(100000));
  EXPECT_EQ(s.tail_percentile, 95.0);  // the ladder stops at p95
  EXPECT_EQ(s.p99, 99000);
  s = Summarize(OneTo(240));
  EXPECT_EQ(s.tail_percentile, 95.0);
  EXPECT_EQ(s.tail, 228);
  EXPECT_EQ(Summarize(OneTo(100)).tail_percentile, 90.0);
  EXPECT_EQ(Summarize(OneTo(40)).tail_percentile, 75.0);
  s = Summarize(OneTo(39));
  EXPECT_EQ(s.tail_percentile, 50.0);  // too few samples for any tail
  EXPECT_EQ(s.tail, s.p50);
  EXPECT_EQ(Summarize({}).samples, 0u);
}

TEST(OpenLoop, ScheduleIsUniformWithPhase) {
  EXPECT_EQ(ScheduledNs(1000, 100.0, 0.0, 0), 1000);
  EXPECT_EQ(ScheduledNs(1000, 100.0, 0.5, 0), 1050);
  EXPECT_EQ(ScheduledNs(1000, 100.0, 0.5, 3), 1350);
}

TEST(OpenLoop, LatencyFromScheduleAndLatenessFromReadiness) {
  // Interval 100: op1 is due at 100 but its connection is busy until 250,
  // so it goes out late through no fault of the generator.
  std::vector<OpRecord> ops = {
      {/*sched=*/0, /*send=*/5, /*done=*/250},
      {100, 252, 300},
      {200, 300, 330},
      {300, 340, 360},
  };
  OpenLoopAccount acc;
  AccountConnection(ops, &acc);
  ASSERT_EQ(acc.latency_us.size(), 4u);
  EXPECT_DOUBLE_EQ(acc.latency_us[0], 0.250);  // 250 ns from scheduled time
  EXPECT_DOUBLE_EQ(acc.latency_us[1], 0.200);  // includes the 150 ns backlog
  EXPECT_DOUBLE_EQ(acc.latency_us[2], 0.130);
  EXPECT_DOUBLE_EQ(acc.latency_us[3], 0.060);
  EXPECT_DOUBLE_EQ(acc.late_us[0], 0.005);
  EXPECT_DOUBLE_EQ(acc.late_us[1], 0.002);  // ready at 250, sent at 252
  EXPECT_DOUBLE_EQ(acc.late_us[2], 0.0);    // ready at 300, sent at 300
  EXPECT_DOUBLE_EQ(acc.late_us[3], 0.010);  // ready at 330, sent at 340
}

// 1200 reads 1 ms apart answered in 100 us, except that the first 400
// (two of six windows) hit a 10 ms stall.
std::vector<OpRecord> StalledThird() {
  std::vector<OpRecord> ops;
  for (int64_t k = 0; k < 1200; ++k) {
    OpRecord op;
    op.sched_ns = k * 1'000'000;
    op.send_ns = op.sched_ns;
    op.done_ns = op.sched_ns + (k < 400 ? 10'000'000 : 100'000);
    ops.push_back(op);
  }
  return ops;
}

TEST(Windows, MedianOverWindowsIsNotMovedByAStalledThird) {
  const std::vector<OpRecord> ops = StalledThird();
  const WindowedLatency w = SummarizeWindows(ops, 6, 200, 0.5);
  EXPECT_EQ(w.windows, 6u);
  EXPECT_EQ(w.samples_per_window, 200u);
  EXPECT_EQ(w.p50, 100);
  EXPECT_EQ(w.tail, 100);
  // The whole phase's tail is the stall.
  OpenLoopAccount acc;
  AccountConnection(ops, &acc);
  EXPECT_EQ(Summarize(acc.latency_us).tail, 10'000);
}

// 2000 reads 1 ms apart in ten windows of 200; window w answers in
// (w + 1) * 100 us except its last 20 reads, which take ten times longer.
TEST(Windows, LowQuantilePicksTheQuietWindows) {
  std::vector<OpRecord> ops;
  for (int64_t k = 0; k < 2000; ++k) {
    const int64_t w = k / 200;
    const int64_t us = (w + 1) * 100 * (k % 200 >= 180 ? 10 : 1);
    ops.push_back({k * 1'000'000, k * 1'000'000, k * 1'000'000 + us * 1000});
  }
  const WindowedLatency low = SummarizeWindows(ops, 20, 200, 0.1);
  EXPECT_EQ(low.windows, 10u);
  EXPECT_EQ(low.p50, 100);    // the quietest of ten windows
  EXPECT_EQ(low.tail, 1000);  // its p95 falls in its slow tenth
  const WindowedLatency mid = SummarizeWindows(ops, 20, 200, 0.5);
  EXPECT_EQ(mid.p50, 500);
  EXPECT_EQ(mid.tail, 5000);
}

TEST(Windows, FewSamplesMakeOneWindow) {
  std::vector<OpRecord> ops;
  for (int64_t k = 1; k <= 300; ++k) ops.push_back({k * 1000, k * 1000, k * 2000});
  const WindowedLatency w = SummarizeWindows(ops, 6, 200, 0.5);
  EXPECT_EQ(w.windows, 1u);
  std::vector<double> lat;
  for (const OpRecord& op : ops) lat.push_back((op.done_ns - op.sched_ns) / 1e3);
  const Summary whole = Summarize(lat);
  EXPECT_EQ(w.p50, whole.p50);
  EXPECT_EQ(w.tail, whole.tail);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanBuffer b(true, 1);
  const uint64_t root = b.Add("read", 7, 0, 0, 100);
  b.Add("a", 7, root, 10, 30);
  const uint64_t c = b.Add("b", 7, root, 20, 50);  // overlaps a
  b.Add("c", 7, root, 60, 70);
  b.Add("d", 7, root, 90, 120);  // clipped to the parent's end
  b.Add("e", 7, c, 25, 35);      // grandchild: counts against b only
  const std::vector<int64_t> self = SelfTimesNs(b.spans());
  ASSERT_EQ(self.size(), 6u);
  EXPECT_EQ(self[0], 100 - (40 + 10 + 10));
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 10);
  EXPECT_EQ(self[5], 10);

  auto totals = TotalsByName(b.spans());
  EXPECT_EQ(totals["read"].count, 1u);
  EXPECT_DOUBLE_EQ(totals["read"].self_us, 0.040);
  EXPECT_DOUBLE_EQ(totals["read"].total_us, 0.100);
}

TEST(Spans, ProvisionalEndAndDisabledBuffer) {
  SpanBuffer b(true, 2);
  const uint64_t root = b.Add("setup", 1, 0, 0, 0);
  b.Add("step", 1, root, 10, 20);
  b.SetEnd(root, 40);
  EXPECT_EQ(b.spans()[0].end_ns, 40);
  EXPECT_EQ(SelfTimesNs(b.spans())[0], 30);

  SpanBuffer off(false, 3);
  EXPECT_EQ(off.Add("x", 1, 0, 0, 1), 0u);
  EXPECT_TRUE(off.spans().empty());
}

TEST(ShadowEdges, GeneratedBatchesApply) {
  mbr::datagen::TwitterConfig cfg;
  cfg.num_nodes = 300;
  const mbr::datagen::GeneratedDataset ds = mbr::datagen::GenerateTwitter(cfg);
  const mbr::graph::LabeledGraph& g = ds.graph;
  mbr::core::AuthorityIndex auth(g);
  mbr::service::EngineConfig ec;
  ec.num_threads = 1;
  mbr::service::QueryEngine engine(g, auth, mbr::topics::TwitterSimilarity(),
                                   ec);
  mbr::service::MutationApplier applier(g, auth, engine);

  ShadowEdges shadow(g);
  EXPECT_EQ(shadow.num_edges(), g.num_edges());
  EXPECT_TRUE(shadow.SameEdges(g));
  mbr::util::Rng rng(5);
  uint64_t records = 0, applied = 0;
  for (int b = 0; b < 60; ++b) {
    MutationBatch batch = shadow.NextBatch(&rng, 8, 0.5, 0.3);
    ASSERT_EQ(batch.records.size(), 8u);
    for (const auto& m : batch.records) EXPECT_EQ(m.op, batch.op);
    const mbr::service::MutationOutcome out = applier.Apply(batch.records);
    records += batch.records.size();
    applied += out.applied;
  }
  EXPECT_GE(static_cast<double>(applied), 0.95 * static_cast<double>(records));
  EXPECT_EQ(applied, records);
  EXPECT_TRUE(shadow.SameEdges(*applier.current_graph()));
}

TEST(ShadowEdges, KindMixFollowsShares) {
  mbr::datagen::TwitterConfig cfg;
  cfg.num_nodes = 300;
  const mbr::datagen::GeneratedDataset ds = mbr::datagen::GenerateTwitter(cfg);
  ShadowEdges shadow(ds.graph);
  mbr::util::Rng rng(9);
  int counts[3] = {0, 0, 0};
  const int n = 2000;
  for (int b = 0; b < n; ++b) {
    ++counts[static_cast<int>(shadow.NextBatch(&rng, 8, 0.5, 0.3).op)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.5, 0.05);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.05);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.2, 0.05);
}

}  // namespace
}  // namespace perfbench
