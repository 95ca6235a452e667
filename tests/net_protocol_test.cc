// Wire protocol unit tests: frame encode/parse, CRC coverage, the bounded
// payload codecs, and byte-exact golden frames of every layout. Hostile
// inputs must fail with a clean Status — the live-server counterpart of
// these checks is net_corruption_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "net/protocol.h"

namespace mbr::net {
namespace {

std::vector<uint8_t> Frame(MessageKind kind, uint64_t id,
                           std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  AppendFrame(kind, id, payload, &out);
  return out;
}

TEST(NetProtocolTest, FrameRoundTrip) {
  RecommendRequest req{7, 3, 10};
  std::vector<uint8_t> payload = EncodeRecommend(req);
  std::vector<uint8_t> frame = Frame(MessageKind::kRecommend, 42, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  FrameHeader h;
  WireLimits limits;
  ASSERT_EQ(ParseFrameHeader(frame, limits, &h), HeaderParse::kOk);
  EXPECT_EQ(h.version, kProtocolVersion);
  EXPECT_EQ(h.kind, MessageKind::kRecommend);
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_EQ(h.payload_len, payload.size());

  std::span<const uint8_t> body(frame.data() + kFrameHeaderBytes,
                                h.payload_len);
  ASSERT_TRUE(VerifyPayloadCrc(h, body).ok());
  RecommendRequest back;
  ASSERT_TRUE(CheckFrameVersion(h).ok());
  ASSERT_TRUE(DecodeRecommend(body, limits, &back).ok());
  EXPECT_EQ(back.user, 7u);
  EXPECT_EQ(back.topic, 3u);
  EXPECT_EQ(back.top_n, 10u);
}

TEST(NetProtocolTest, ShortHeaderNeedsMore) {
  std::vector<uint8_t> frame = Frame(MessageKind::kPing, 1, {});
  FrameHeader h;
  WireLimits limits;
  for (size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_EQ(ParseFrameHeader({frame.data(), n}, limits, &h),
              HeaderParse::kNeedMore)
        << "prefix length " << n;
  }
}

TEST(NetProtocolTest, BadMagicIsMalformed) {
  std::vector<uint8_t> frame = Frame(MessageKind::kPing, 1, {});
  frame[0] ^= 0xFF;
  FrameHeader h;
  WireLimits limits;
  EXPECT_EQ(ParseFrameHeader(frame, limits, &h), HeaderParse::kMalformed);
}

TEST(NetProtocolTest, OversizedDeclaredPayloadIsMalformed) {
  std::vector<uint8_t> frame = Frame(MessageKind::kPing, 1, {});
  WireLimits limits;
  uint32_t huge = limits.max_payload_bytes + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));  // payload_len field
  FrameHeader h;
  EXPECT_EQ(ParseFrameHeader(frame, limits, &h), HeaderParse::kMalformed);
}

TEST(NetProtocolTest, CrcCatchesPayloadFlip) {
  std::vector<uint8_t> payload = EncodeRecommend({1, 1, 1});
  std::vector<uint8_t> frame = Frame(MessageKind::kRecommend, 9, payload);
  frame[kFrameHeaderBytes] ^= 0x01;  // first payload byte
  FrameHeader h;
  WireLimits limits;
  ASSERT_EQ(ParseFrameHeader(frame, limits, &h), HeaderParse::kOk);
  std::span<const uint8_t> body(frame.data() + kFrameHeaderBytes,
                                h.payload_len);
  EXPECT_FALSE(VerifyPayloadCrc(h, body).ok());
}

TEST(NetProtocolTest, UnknownVersionStillParsesHeader) {
  // Version is surfaced, not rejected, so the server can send a typed
  // ERROR(UNSUPPORTED_VERSION) echoing the request id.
  std::vector<uint8_t> frame = Frame(MessageKind::kPing, 5, {});
  uint16_t future = kProtocolVersion + 1;
  std::memcpy(frame.data() + 4, &future, sizeof(future));
  FrameHeader h;
  WireLimits limits;
  ASSERT_EQ(ParseFrameHeader(frame, limits, &h), HeaderParse::kOk);
  EXPECT_EQ(h.version, kProtocolVersion + 1);
  EXPECT_EQ(h.request_id, 5u);
}

TEST(NetProtocolTest, CheckFrameVersionRefusesEveryOtherVersionByName) {
  FrameHeader h;
  h.version = kProtocolVersion;
  EXPECT_TRUE(CheckFrameVersion(h).ok());
  for (uint16_t v : {uint16_t{0}, uint16_t{1}, uint16_t{kProtocolVersion - 1},
                     uint16_t{kProtocolVersion + 1}, uint16_t{0xFFFF}}) {
    h.version = v;
    util::Status st = CheckFrameVersion(h);
    ASSERT_FALSE(st.ok()) << "version " << v;
    EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("v" + std::to_string(v)), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("v" + std::to_string(kProtocolVersion)),
              std::string::npos)
        << st.message();
  }
}

TEST(NetProtocolTest, RecommendRejectsZeroAndOversizedTopN) {
  WireLimits limits;
  RecommendRequest out;
  EXPECT_FALSE(
      DecodeRecommend(EncodeRecommend({0, 0, 0}), limits, &out).ok());
  EXPECT_FALSE(DecodeRecommend(EncodeRecommend({0, 0, limits.max_list + 1}),
                               limits, &out)
                   .ok());
}

TEST(NetProtocolTest, RecommendRejectsTrailingBytes) {
  WireLimits limits;
  std::vector<uint8_t> payload = EncodeRecommend({1, 1, 1});
  payload.push_back(0);
  RecommendRequest out;
  EXPECT_FALSE(DecodeRecommend(payload, limits, &out).ok());
}

TEST(NetProtocolTest, BatchRoundTripAndBounds) {
  WireLimits limits;
  std::vector<RecommendRequest> reqs = {{1, 0, 5}, {2, 1, 3}};
  std::vector<RecommendRequest> back;
  ASSERT_TRUE(
      DecodeRecommendBatch(EncodeRecommendBatch(reqs), limits, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].user, 2u);
  EXPECT_EQ(back[1].top_n, 3u);

  // Empty batches and batches over the cap are rejected.
  EXPECT_FALSE(
      DecodeRecommendBatch(EncodeRecommendBatch({}), limits, &back).ok());
  // A declared count far beyond the bytes present must fail before any
  // allocation: craft count=max_batch with a single query's bytes.
  std::vector<uint8_t> lying = EncodeRecommendBatch({{1, 0, 5}});
  std::memcpy(lying.data(), &limits.max_batch, sizeof(uint32_t));
  EXPECT_FALSE(DecodeRecommendBatch(lying, limits, &back).ok());
}

TEST(NetProtocolTest, ResultRoundTripPreservesScores) {
  WireLimits limits;
  RankedList list = {{11, 0.5}, {22, 0.25}, {33, 1e-9}};
  RankedList back;
  uint64_t epoch = 99;
  ASSERT_TRUE(DecodeResult(EncodeResult(list), limits, &back, &epoch).ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].id, 11u);
  EXPECT_DOUBLE_EQ(back[2].score, 1e-9);
  EXPECT_EQ(epoch, 0u);  // default epoch

  std::vector<RankedList> lists = {list, {}, {{1, 1.0}}};
  std::vector<RankedList> lists_back;
  ASSERT_TRUE(
      DecodeResultBatch(EncodeResultBatch(lists), limits, &lists_back).ok());
  ASSERT_EQ(lists_back.size(), 3u);
  EXPECT_TRUE(lists_back[1].empty());
  EXPECT_EQ(lists_back[2][0].id, 1u);
}

TEST(NetProtocolTest, ResultEntryBytesMatchesEncoding) {
  RankedList one = {{1, 1.0}};
  RankedList two = {{1, 1.0}, {2, 2.0}};
  EXPECT_EQ(EncodeResult(two).size() - EncodeResult(one).size(),
            kResultEntryBytes);
}

TEST(NetProtocolTest, V3ResultCarriesGraphEpoch) {
  WireLimits limits;
  RankedList list = {{11, 0.5}, {22, 0.25}};
  RankedList back;
  uint64_t epoch = 0;
  ASSERT_TRUE(
      DecodeResult(EncodeResult(list, 7), limits, &back, &epoch).ok());
  EXPECT_EQ(epoch, 7u);
  ASSERT_EQ(back.size(), 2u);

  // Batch: per-list epochs round-trip.
  std::vector<RankedList> lists = {list, {}};
  std::vector<uint64_t> epochs = {4, 9};
  std::vector<RankedList> lists_back;
  std::vector<uint64_t> epochs_back;
  ASSERT_TRUE(DecodeResultBatch(EncodeResultBatch(lists, epochs), limits,
                                &lists_back, &epochs_back)
                  .ok());
  ASSERT_EQ(lists_back.size(), 2u);
  EXPECT_EQ(epochs_back, (std::vector<uint64_t>{4, 9}));
}

TEST(NetProtocolTest, MutationRoundTripAndBounds) {
  WireLimits limits;
  std::vector<MutationRecord> recs = {{1, 2, 0x5}, {3, 4, 0x1}};
  std::vector<MutationRecord> back;
  ASSERT_TRUE(
      DecodeMutation(EncodeMutation(MessageKind::kFollow, recs), limits,
                     MessageKind::kFollow, &back)
          .ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].src, 1u);
  EXPECT_EQ(back[0].dst, 2u);
  EXPECT_EQ(back[0].labels, 0x5u);

  // UNFOLLOW records omit labels on the wire.
  std::vector<uint8_t> unfollow =
      EncodeMutation(MessageKind::kUnfollow, recs);
  EXPECT_EQ(unfollow.size(), 4u + 2 * 8u);
  ASSERT_TRUE(
      DecodeMutation(unfollow, limits, MessageKind::kUnfollow, &back).ok());
  EXPECT_EQ(back[1].src, 3u);
  EXPECT_EQ(back[1].labels, 0u);

  // Empty batches, oversized batches, and lying counts are rejected.
  EXPECT_FALSE(DecodeMutation(EncodeMutation(MessageKind::kFollow, {}),
                              limits, MessageKind::kFollow, &back)
                   .ok());
  std::vector<uint8_t> lying = EncodeMutation(MessageKind::kFollow, recs);
  std::memcpy(lying.data(), &limits.max_mutations, sizeof(uint32_t));
  EXPECT_FALSE(
      DecodeMutation(lying, limits, MessageKind::kFollow, &back).ok());
  // Every strict prefix fails cleanly.
  std::vector<uint8_t> payload = EncodeMutation(MessageKind::kRelabel, recs);
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeMutation({payload.data(), n}, limits,
                                MessageKind::kRelabel, &back)
                     .ok())
        << "prefix length " << n;
  }
}

TEST(NetProtocolTest, MutateAckRoundTrip) {
  MutateAck ack{3, 1, 42};
  MutateAck back;
  ASSERT_TRUE(DecodeMutateAck(EncodeMutateAck(ack), &back).ok());
  EXPECT_EQ(back.applied, 3u);
  EXPECT_EQ(back.rejected, 1u);
  EXPECT_EQ(back.graph_epoch, 42u);
  std::vector<uint8_t> payload = EncodeMutateAck(ack);
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeMutateAck({payload.data(), n}, &back).ok());
  }
}

// A small snapshot with every series kind, labels and a negative gauge.
obs::MetricsSnapshot SampleSnapshot() {
  obs::MetricsSnapshot s;
  s.counters = {{"mbr_engine_queries_total", {}, 100},
                {"mbr_net_shed_overload_total", {}, 3},
                {"mbr_engine_tier_served_total", {{"tier", "approx"}}, 6}};
  s.gauges = {{"mbr_engine_params_epoch", {}, 9}, {"t_delta", {}, -5}};
  s.histograms.push_back({"mbr_net_request_latency_us", {{"op", "recommend"}},
                          {}});
  s.histograms[0].value.buckets[0] = 1;
  s.histograms[0].value.buckets[10] = 2;
  s.histograms[0].value.count = 3;
  s.histograms[0].value.sum = 2049;
  return s;
}

TEST(NetProtocolTest, StatsRoundTrip) {
  const obs::MetricsSnapshot s = SampleSnapshot();
  obs::MetricsSnapshot back;
  ASSERT_TRUE(DecodeStats(EncodeStats(s), &back).ok());
  EXPECT_EQ(back.CounterValue("mbr_engine_queries_total"), 100u);
  EXPECT_EQ(back.CounterValue("mbr_net_shed_overload_total"), 3u);
  EXPECT_EQ(back.GaugeValue("mbr_engine_params_epoch"), 9);
  EXPECT_EQ(back.GaugeValue("t_delta"), -5);
  const obs::Histogram::Snapshot h =
      back.HistogramValue("mbr_net_request_latency_us", {{"op", "recommend"}});
  EXPECT_EQ(h.buckets, s.histograms[0].value.buckets);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 2049u);

  // Every strict prefix and any trailing byte fail cleanly.
  std::vector<uint8_t> payload = EncodeStats(s);
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeStats({payload.data(), n}, &back).ok())
        << "prefix length " << n;
  }
  payload.push_back(0);
  EXPECT_FALSE(DecodeStats(payload, &back).ok());
}

// The series decoder bounds every count and length against its constant
// and the bytes remaining, and pins the histogram bucket count.
TEST(NetProtocolTest, StatsDecoderBoundsCountsAndLengths) {
  obs::MetricsSnapshot back;
  auto decode = [&back](const std::vector<uint8_t>& p) {
    return DecodeStats(p, &back);
  };
  PayloadWriter huge_count;
  huge_count.PutU32(0xFFFFFFFFu);  // counters: 4G series in 4 bytes
  EXPECT_FALSE(decode(huge_count.Take()).ok());

  PayloadWriter over_bound;  // within the bytes present, over the constant
  over_bound.PutU32(kMaxStatsSeries + 1);
  for (uint32_t i = 0; i <= kMaxStatsSeries; ++i) {
    over_bound.PutString("");
    over_bound.PutU32(0);
    over_bound.PutU64(0);
  }
  over_bound.PutU32(0);
  over_bound.PutU32(0);
  EXPECT_FALSE(decode(over_bound.Take()).ok());

  PayloadWriter long_name;
  long_name.PutU32(1);
  long_name.PutString(std::string(kMaxSeriesNameBytes + 1, 'x'));
  long_name.PutU32(0);
  long_name.PutU64(1);
  long_name.PutU32(0);
  long_name.PutU32(0);
  EXPECT_FALSE(decode(long_name.Take()).ok());

  PayloadWriter many_labels;
  many_labels.PutU32(1);
  many_labels.PutString("t");
  many_labels.PutU32(kMaxSeriesLabels + 1);
  for (uint32_t i = 0; i <= kMaxSeriesLabels; ++i) {
    many_labels.PutString(std::string(1, static_cast<char>('a' + i)));
    many_labels.PutString("v");
  }
  many_labels.PutU64(1);
  many_labels.PutU32(0);
  many_labels.PutU32(0);
  EXPECT_FALSE(decode(many_labels.Take()).ok());

  obs::MetricsSnapshot unsorted;
  unsorted.counters = {{"t", {{"b", "1"}, {"a", "2"}}, 1}};
  EXPECT_FALSE(decode(EncodeStats(unsorted)).ok());

  for (uint32_t buckets : {0u, uint32_t{obs::kHistogramBuckets} - 1,
                           uint32_t{obs::kHistogramBuckets} + 1}) {
    PayloadWriter w;
    w.PutU32(0);
    w.PutU32(0);
    w.PutU32(1);
    w.PutString("t_lat");
    w.PutU32(0);
    w.PutU32(buckets);
    for (uint32_t b = 0; b < buckets; ++b) w.PutU64(0);
    w.PutU64(0);
    w.PutU64(0);
    EXPECT_FALSE(decode(w.Take()).ok()) << buckets << " buckets";
  }
  EXPECT_TRUE(decode(EncodeStats(obs::MetricsSnapshot{})).ok());
}

TEST(NetProtocolTest, ErrorRoundTripAndStatusMapping) {
  WireLimits limits;
  ErrorReply err{WireError::kDeadlineExceeded, "too slow"};
  ErrorReply back;
  ASSERT_TRUE(DecodeError(EncodeError(err), limits, &back).ok());
  EXPECT_EQ(back.code, WireError::kDeadlineExceeded);
  EXPECT_EQ(back.message, "too slow");
  EXPECT_EQ(ErrorReplyToStatus(back).code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(
      ErrorReplyToStatus({WireError::kShuttingDown, ""}).code(),
      util::StatusCode::kUnavailable);
  EXPECT_EQ(
      ErrorReplyToStatus({WireError::kInvalidArgument, ""}).code(),
      util::StatusCode::kInvalidArgument);

  // An ERROR whose message exceeds the cap must not allocate/accept it.
  ErrorReply big{WireError::kInternal,
                 std::string(limits.max_error_msg + 1, 'x')};
  EXPECT_FALSE(DecodeError(EncodeError(big), limits, &back).ok());
}

TEST(NetProtocolTest, PayloadReaderStopsAtTruncation) {
  // Truncate a valid batch payload at every length; decode must never read
  // out of bounds (ASan) and must fail for every strict prefix.
  WireLimits limits;
  std::vector<uint8_t> payload =
      EncodeRecommendBatch({{1, 0, 5}, {2, 1, 3}, {3, 2, 7}});
  std::vector<RecommendRequest> out;
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeRecommendBatch({payload.data(), n}, limits, &out).ok())
        << "prefix length " << n;
  }
}

TEST(NetProtocolTest, V2RecommendCarriesDeadlineAndExclude) {
  WireLimits limits;
  RecommendRequest req;
  req.user = 9;
  req.topic = 2;
  req.top_n = 4;
  req.deadline_ms = 250;
  req.exclude = {3, 14, 15};
  RecommendRequest back;
  ASSERT_TRUE(DecodeRecommend(EncodeRecommend(req), limits, &back).ok());
  EXPECT_EQ(back.user, 9u);
  EXPECT_EQ(back.deadline_ms, 250u);
  EXPECT_EQ(back.exclude, (std::vector<uint32_t>{3, 14, 15}));
}

TEST(NetProtocolTest, V2RecommendRejectsOversizedExclude) {
  WireLimits limits;
  limits.max_exclude = 4;
  RecommendRequest req;
  req.user = 1;
  req.topic = 0;
  req.top_n = 5;
  req.exclude = {1, 2, 3, 4, 5};
  RecommendRequest back;
  EXPECT_FALSE(DecodeRecommend(EncodeRecommend(req), limits, &back).ok());
  req.exclude = {1, 2, 3, 4};
  EXPECT_TRUE(DecodeRecommend(EncodeRecommend(req), limits, &back).ok());
}

TEST(NetProtocolTest, V2BatchRoundTripsPerQueryTails) {
  WireLimits limits;
  RecommendRequest a;
  a.user = 1;
  a.topic = 0;
  a.top_n = 5;
  a.exclude = {7};
  RecommendRequest b;
  b.user = 2;
  b.topic = 1;
  b.top_n = 3;
  b.deadline_ms = 100;
  std::vector<RecommendRequest> back;
  ASSERT_TRUE(
      DecodeRecommendBatch(EncodeRecommendBatch({a, b}), limits, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].exclude, std::vector<uint32_t>{7});
  EXPECT_EQ(back[0].deadline_ms, 0u);
  EXPECT_TRUE(back[1].exclude.empty());
  EXPECT_EQ(back[1].deadline_ms, 100u);
}

TEST(NetProtocolTest, V2PayloadTruncationFailsCleanly) {
  WireLimits limits;
  RecommendRequest req;
  req.user = 1;
  req.topic = 0;
  req.top_n = 5;
  req.deadline_ms = 9;
  req.exclude = {1, 2, 3};
  std::vector<uint8_t> payload = EncodeRecommend(req);
  RecommendRequest out;
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeRecommend({payload.data(), n}, limits, &out).ok())
        << "prefix length " << n;
  }
}

TEST(NetProtocolTest, MetricsResultRoundTrip) {
  WireLimits limits;
  const std::string text =
      "# HELP mbr_engine_queries_total Queries.\n"
      "# TYPE mbr_engine_queries_total counter\n"
      "mbr_engine_queries_total 42\n";
  std::string back;
  ASSERT_TRUE(
      DecodeMetricsResult(EncodeMetricsResult(text), limits, &back).ok());
  EXPECT_EQ(back, text);

  // Truncated payloads fail cleanly.
  std::vector<uint8_t> payload = EncodeMetricsResult(text);
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(
        DecodeMetricsResult({payload.data(), n}, limits, &back).ok());
  }
}

TEST(NetProtocolTest, KindNamesAndClasses) {
  EXPECT_STREQ(MessageKindName(MessageKind::kRecommend), "RECOMMEND");
  EXPECT_TRUE(IsRequestKind(MessageKind::kRecommend));
  EXPECT_FALSE(IsReplyKind(MessageKind::kRecommend));
  EXPECT_TRUE(IsReplyKind(MessageKind::kOverloaded));
  EXPECT_STREQ(MessageKindName(MessageKind::kMetrics), "METRICS");
  EXPECT_TRUE(IsRequestKind(MessageKind::kMetrics));
  EXPECT_TRUE(IsReplyKind(MessageKind::kMetricsResult));
  EXPECT_FALSE(IsRequestKind(static_cast<MessageKind>(200)));
  EXPECT_STREQ(MessageKindName(MessageKind::kFollow), "FOLLOW");
  EXPECT_STREQ(MessageKindName(MessageKind::kMutateAck), "MUTATE_ACK");
  EXPECT_TRUE(IsRequestKind(MessageKind::kUnfollow));
  EXPECT_TRUE(IsReplyKind(MessageKind::kMutateAck));
  EXPECT_TRUE(IsMutationKind(MessageKind::kRelabel));
  EXPECT_FALSE(IsMutationKind(MessageKind::kRecommend));
}

// ---- The served_tier byte (degradation ladder). ----

TEST(NetProtocolTest, V5ResultCarriesServedTier) {
  WireLimits limits;
  RankedList list = {{11, 0.5}, {22, 0.25}};
  CoordTrailer trailer;
  trailer.partial = 1;
  trailer.shards_answered = 3;
  trailer.shards_total = 4;

  RankedList back;
  uint64_t epoch = 0;
  CoordTrailer tback;
  uint8_t tier = 0;
  ASSERT_TRUE(DecodeResult(EncodeResult(list, 7, trailer, 2), limits, &back,
                           &epoch, &tback, &tier)
                  .ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(epoch, 7u);
  EXPECT_EQ(tier, 2u);  // stale
  EXPECT_EQ(tback.partial, 1u);
  EXPECT_EQ(tback.shards_answered, 3u);

  // The tier defaults to 0 (exact) when the caller omits it.
  ASSERT_TRUE(DecodeResult(EncodeResult(list, 7), limits, &back, &epoch,
                           nullptr, &tier)
                  .ok());
  EXPECT_EQ(tier, 0u);
}

TEST(NetProtocolTest, V5ServedTierOutOfRangeIsRejected) {
  WireLimits limits;
  RankedList list = {{11, 0.5}};
  std::vector<uint8_t> payload = EncodeResult(list, 7, {}, 2);
  payload[8] = 3;  // one past kMaxServedTier
  RankedList back;
  util::Status st = DecodeResult(payload, limits, &back);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  payload[8] = 255;
  EXPECT_FALSE(DecodeResult(payload, limits, &back).ok());
}

TEST(NetProtocolTest, V5BatchCarriesPerListTiers) {
  WireLimits limits;
  std::vector<RankedList> lists = {{{11, 0.5}}, {}, {{1, 1.0}, {2, 2.0}}};
  std::vector<uint64_t> epochs = {4, 9, 4};
  std::vector<uint8_t> tiers = {0, 2, 1};

  std::vector<RankedList> lists_back;
  std::vector<uint64_t> epochs_back;
  std::vector<uint8_t> tiers_back;
  ASSERT_TRUE(DecodeResultBatch(EncodeResultBatch(lists, epochs, {}, tiers),
                                limits, &lists_back, &epochs_back, nullptr,
                                &tiers_back)
                  .ok());
  ASSERT_EQ(lists_back.size(), 3u);
  EXPECT_EQ(epochs_back, epochs);
  EXPECT_EQ(tiers_back, tiers);

  // Omitted tiers encode as 0.
  ASSERT_TRUE(DecodeResultBatch(EncodeResultBatch(lists, epochs), limits,
                                &lists_back, nullptr, nullptr, &tiers_back)
                  .ok());
  EXPECT_EQ(tiers_back, (std::vector<uint8_t>{0, 0, 0}));

  // A batch with one out-of-range tier byte fails as a whole.
  const std::vector<uint8_t> bad_tiers = {0, 3, 1};
  std::vector<uint8_t> bad =
      EncodeResultBatch(lists, epochs, {}, bad_tiers);
  EXPECT_FALSE(DecodeResultBatch(bad, limits, &lists_back).ok());
}

TEST(NetProtocolTest, V5StatsCarriesTierCounters) {
  obs::Registry r;
  for (const char* tier : {"exact", "approx", "stale"}) {
    r.GetCounter("mbr_engine_tier_served_total", "", {{"tier", tier}});
  }
  r.GetCounter("mbr_engine_tier_served_total", "", {{"tier", "exact"}})
      ->Increment(6);
  r.GetCounter("mbr_engine_tier_served_total", "", {{"tier", "approx"}})
      ->Increment(3);
  r.GetCounter("mbr_engine_tier_served_total", "", {{"tier", "stale"}})
      ->Increment(1);
  r.GetCounter("mbr_engine_degraded_total", "")->Increment(4);
  obs::MetricsSnapshot back;
  ASSERT_TRUE(DecodeStats(EncodeStats(r.TakeSnapshot()), &back).ok());
  auto tier = [&back](const char* t) {
    return back.CounterValue("mbr_engine_tier_served_total", {{"tier", t}});
  };
  EXPECT_EQ(tier("exact"), 6u);
  EXPECT_EQ(tier("approx"), 3u);
  EXPECT_EQ(tier("stale"), 1u);
  EXPECT_EQ(back.CounterValue("mbr_engine_degraded_total"), 4u);
}

// Hostile-bytes sweep over the RESULT codecs: every single-byte
// truncation and every single-bit flip of a valid payload must either
// decode to in-range values or fail with a clean Status — never crash,
// and never hand back a served_tier outside the enum.
TEST(NetProtocolTest, V5ResultSurvivesTruncationAndBitFlips) {
  WireLimits limits;
  std::vector<RankedList> lists = {{{11, 0.5}, {22, 0.25}}, {{1, 1.0}}};
  CoordTrailer trailer;
  trailer.shards_total = 2;
  trailer.shards_answered = 2;
  const std::vector<uint8_t> single =
      EncodeResult(lists[0], 7, trailer, 1);
  const std::vector<uint64_t> sweep_epochs = {7, 8};
  const std::vector<uint8_t> sweep_tiers = {1, 2};
  const std::vector<uint8_t> batch =
      EncodeResultBatch(lists, sweep_epochs, trailer, sweep_tiers);

  for (size_t keep = 0; keep < single.size(); ++keep) {
    RankedList back;
    std::vector<uint8_t> cut(single.begin(), single.begin() + keep);
    EXPECT_FALSE(DecodeResult(cut, limits, &back).ok())
        << "truncated to " << keep << " bytes";
  }
  for (size_t keep = 0; keep < batch.size(); ++keep) {
    std::vector<RankedList> back;
    std::vector<uint8_t> cut(batch.begin(), batch.begin() + keep);
    EXPECT_FALSE(DecodeResultBatch(cut, limits, &back).ok())
        << "batch truncated to " << keep << " bytes";
  }
  for (size_t byte = 0; byte < batch.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = batch;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      std::vector<RankedList> back;
      std::vector<uint8_t> tiers;
      util::Status st =
          DecodeResultBatch(flipped, limits, &back, nullptr, nullptr, &tiers);
      if (st.ok()) {
        for (uint8_t t : tiers) {
          EXPECT_LE(t, kMaxServedTier)
              << "flip byte " << byte << " bit " << bit;
        }
      }
    }
  }
}


// ---- Golden frames. ----
//
// One byte-exact frame per kind. The payloads were recorded from the v5
// encoder; v6 changed only the STATS_RESULT payload (re-recorded) and the
// version bytes (header bytes 4-5) of every frame. Re-encoding the same
// values must reproduce every byte, and decoding the recorded bytes must
// give the values back (doubles compared by bit pattern), so a layout
// cannot drift silently: changing one means changing these bytes and
// kProtocolVersion.

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr,
                                                  16)));
  }
  return out;
}

// Asserts Frame(kind, id, payload) matches `hex` byte for byte and returns
// the recorded frame's payload (header checked: version, kind, id, CRC).
std::vector<uint8_t> ExpectGolden(MessageKind kind, uint64_t id,
                                  const std::vector<uint8_t>& payload,
                                  const std::string& hex) {
  const std::vector<uint8_t> golden = FromHex(hex);
  EXPECT_EQ(Frame(kind, id, payload), golden) << MessageKindName(kind);
  FrameHeader h;
  EXPECT_EQ(ParseFrameHeader(golden, WireLimits{}, &h), HeaderParse::kOk);
  EXPECT_TRUE(CheckFrameVersion(h).ok());
  EXPECT_EQ(h.kind, kind);
  EXPECT_EQ(h.request_id, id);
  std::vector<uint8_t> body(golden.begin() + kFrameHeaderBytes, golden.end());
  EXPECT_TRUE(VerifyPayloadCrc(h, body).ok());
  return body;
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

void ExpectSameList(const RankedList& a, const RankedList& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "entry " << i;
    EXPECT_EQ(Bits(a[i].score), Bits(b[i].score)) << "entry " << i;
  }
}

RecommendRequest GoldenQuery() {
  RecommendRequest q;
  q.user = 7;
  q.topic = 3;
  q.top_n = 10;
  q.deadline_ms = 250;
  q.exclude = {11, 12};
  return q;
}

const RankedList kGoldenList = {{5, 0.75}, {8, 1.0 / 3.0}};

TEST(NetProtocolGoldenTest, Ping) {
  std::vector<uint8_t> body = ExpectGolden(
      MessageKind::kPing, 1, {},
      "4d4257310600010001000000000000000000000000000000");
  EXPECT_TRUE(body.empty());
}

TEST(NetProtocolGoldenTest, Recommend) {
  const RecommendRequest q = GoldenQuery();
  std::vector<uint8_t> body = ExpectGolden(
      MessageKind::kRecommend, 2, EncodeRecommend(q),
      "4d4257310600020002000000000000001c0000001c54dd070700000003000000"
      "0a000000fa000000020000000b0000000c000000");
  RecommendRequest back;
  ASSERT_TRUE(DecodeRecommend(body, WireLimits{}, &back).ok());
  EXPECT_EQ(back.user, q.user);
  EXPECT_EQ(back.topic, q.topic);
  EXPECT_EQ(back.top_n, q.top_n);
  EXPECT_EQ(back.deadline_ms, q.deadline_ms);
  EXPECT_EQ(back.exclude, q.exclude);
}

TEST(NetProtocolGoldenTest, RecommendBatch) {
  RecommendRequest b;
  b.user = 9;
  b.topic = 1;
  b.top_n = 4;
  std::vector<uint8_t> body = ExpectGolden(
      MessageKind::kRecommendBatch, 3, EncodeRecommendBatch({GoldenQuery(), b}),
      "4d42573106000300030000000000000034000000ffad93da0200000007000000"
      "030000000a000000fa000000020000000b0000000c0000000900000001000000"
      "040000000000000000000000");
  std::vector<RecommendRequest> back;
  ASSERT_TRUE(DecodeRecommendBatch(body, WireLimits{}, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].exclude, GoldenQuery().exclude);
  EXPECT_EQ(back[1].user, 9u);
  EXPECT_EQ(back[1].deadline_ms, 0u);
  EXPECT_TRUE(back[1].exclude.empty());
}

TEST(NetProtocolGoldenTest, Result) {
  std::vector<uint8_t> body = ExpectGolden(
      MessageKind::kResult, 4, EncodeResult(kGoldenList, 42, {}, 1),
      "4d4257310600410004000000000000002a0000002ef9f8da2a00000000000000"
      "010200000005000000000000000000e83f08000000555555555555d53f000100"
      "0100");
  RankedList back;
  uint64_t epoch = 0;
  CoordTrailer coord;
  uint8_t tier = 0;
  ASSERT_TRUE(
      DecodeResult(body, WireLimits{}, &back, &epoch, &coord, &tier).ok());
  ExpectSameList(back, kGoldenList);
  EXPECT_EQ(epoch, 42u);
  EXPECT_EQ(tier, 1u);
  EXPECT_EQ(coord.partial, 0u);
  EXPECT_EQ(coord.shards_answered, 1u);
  EXPECT_EQ(coord.shards_total, 1u);
}

TEST(NetProtocolGoldenTest, ResultBatchWithTrailerAndTiers) {
  const std::vector<RankedList> lists = {kGoldenList, {}, {{2, -0.0}}};
  const std::vector<uint64_t> epochs = {42, 43, 44};
  const std::vector<uint8_t> tiers = {0, 2, 1};
  CoordTrailer partial;
  partial.partial = 1;
  partial.shards_answered = 1;
  partial.shards_total = 2;
  std::vector<uint8_t> body = ExpectGolden(
      MessageKind::kResultBatch, 5,
      EncodeResultBatch(lists, epochs, partial, tiers),
      "4d42573106004200050000000000000054000000d8a1cddf030000002a000000"
      "00000000000200000005000000000000000000e83f08000000555555555555d5"
      "3f2b0000000000000002000000002c0000000000000001010000000200000000"
      "000000000000800101000200");
  std::vector<RankedList> back;
  std::vector<uint64_t> epochs_back;
  CoordTrailer coord;
  std::vector<uint8_t> tiers_back;
  ASSERT_TRUE(DecodeResultBatch(body, WireLimits{}, &back, &epochs_back,
                                &coord, &tiers_back)
                  .ok());
  ASSERT_EQ(back.size(), lists.size());
  for (size_t i = 0; i < lists.size(); ++i) ExpectSameList(back[i], lists[i]);
  EXPECT_EQ(epochs_back, epochs);
  EXPECT_EQ(tiers_back, tiers);
  EXPECT_EQ(coord.partial, 1u);
  EXPECT_EQ(coord.shards_answered, 1u);
  EXPECT_EQ(coord.shards_total, 2u);
}

TEST(NetProtocolGoldenTest, StatsResult) {
  obs::MetricsSnapshot s;
  s.counters = {{"q_total", {}, 1}, {"t_total", {{"tier", "approx"}}, 2}};
  s.gauges = {{"epoch", {}, -3}};
  s.histograms.push_back({"lat_us", {}, {}});
  s.histograms[0].value.buckets[1] = 1;
  s.histograms[0].value.buckets[2] = 2;
  s.histograms[0].value.count = 3;
  s.histograms[0].value.sum = 10;
  std::vector<uint8_t> body = ExpectGolden(
      MessageKind::kStatsResult, 6, EncodeStats(s),
      "4d42573106004300060000000000000083010000932e588d0200000007000000"
      "715f746f74616c00000000010000000000000007000000745f746f74616c0100"
      "0000040000007469657206000000617070726f78020000000000000001000000"
      "0500000065706f636800000000fdffffffffffffff01000000060000006c6174"
      "5f75730000000020000000000000000000000001000000000000000200000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "000000000000000000000003000000000000000a00000000000000");
  obs::MetricsSnapshot back;
  ASSERT_TRUE(DecodeStats(body, &back).ok());
  EXPECT_EQ(back.CounterValue("q_total"), 1u);
  EXPECT_EQ(back.CounterValue("t_total", {{"tier", "approx"}}), 2u);
  EXPECT_EQ(back.GaugeValue("epoch"), -3);
  const obs::Histogram::Snapshot h = back.HistogramValue("lat_us");
  EXPECT_EQ(h.buckets, s.histograms[0].value.buckets);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 10u);
}

TEST(NetProtocolGoldenTest, FollowMutation) {
  const std::vector<MutationRecord> recs = {{1, 2, 0x5}, {3, 4, 0x80}};
  std::vector<uint8_t> body = ExpectGolden(
      MessageKind::kFollow, 7, EncodeMutation(MessageKind::kFollow, recs),
      "4d42573106000700070000000000000024000000011341f80200000001000000"
      "02000000050000000000000003000000040000008000000000000000");
  std::vector<MutationRecord> back;
  ASSERT_TRUE(
      DecodeMutation(body, WireLimits{}, MessageKind::kFollow, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].src, 3u);
  EXPECT_EQ(back[1].dst, 4u);
  EXPECT_EQ(back[1].labels, 0x80u);
}

TEST(NetProtocolGoldenTest, MutateAck) {
  std::vector<uint8_t> body = ExpectGolden(
      MessageKind::kMutateAck, 8, EncodeMutateAck({2, 1, 99}),
      "4d425731060048000800000000000000100000000185daae0200000001000000"
      "6300000000000000");
  MutateAck back;
  ASSERT_TRUE(DecodeMutateAck(body, &back).ok());
  EXPECT_EQ(back.applied, 2u);
  EXPECT_EQ(back.rejected, 1u);
  EXPECT_EQ(back.graph_epoch, 99u);
}

TEST(NetProtocolGoldenTest, RecommendPartial) {
  RecommendRequest q;
  q.user = 4;
  q.topic = 2;
  q.top_n = 5;
  q.deadline_ms = 2000;
  std::vector<uint8_t> body = ExpectGolden(
      MessageKind::kRecommendPartial, 9, EncodeRecommend(q),
      "4d42573106000a00090000000000000014000000356a819d0400000002000000"
      "05000000d007000000000000");
  RecommendRequest back;
  ASSERT_TRUE(DecodeRecommend(body, WireLimits{}, &back).ok());
  EXPECT_EQ(back.user, 4u);
  EXPECT_EQ(back.deadline_ms, 2000u);
}

TEST(NetProtocolGoldenTest, LandmarkVectors) {
  LandmarkVectorsReply vec;
  vec.graph_epoch = 77;
  LandmarkList l1;
  l1.landmark = 30;
  l1.entries = {{31, 0.5, 0.25}, {32, 0.125, 1.5}};
  LandmarkList l2;
  l2.landmark = 40;
  vec.lists = {l1, l2};
  std::vector<uint8_t> body = ExpectGolden(
      MessageKind::kLandmarkVectors, 10, EncodeLandmarkVectors(vec),
      "4d42573106004a000a000000000000004400000038cf54eb4d00000000000000"
      "020000001e000000020000001f000000000000000000e03f000000000000d03f"
      "20000000000000000000c03f000000000000f83f2800000000000000");
  LandmarkVectorsReply back;
  ASSERT_TRUE(DecodeLandmarkVectors(body, WireLimits{}, &back).ok());
  EXPECT_EQ(back.graph_epoch, 77u);
  ASSERT_EQ(back.lists.size(), 2u);
  ASSERT_EQ(back.lists[0].entries.size(), 2u);
  EXPECT_EQ(back.lists[0].entries[1].node, 32u);
  EXPECT_EQ(Bits(back.lists[0].entries[1].sigma), Bits(0.125));
  EXPECT_EQ(Bits(back.lists[0].entries[1].topo_beta), Bits(1.5));
  EXPECT_EQ(back.lists[1].landmark, 40u);
  EXPECT_TRUE(back.lists[1].entries.empty());
}

}  // namespace
}  // namespace mbr::net
