#include "coord/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "core/recommender_iface.h"
#include "landmark/compose.h"
#include "obs/prometheus.h"
#include "util/flat_map.h"
#include "util/logging.h"
#include "util/timer.h"

namespace mbr::coord {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Blocking full write (connection threads are one-per-client and may block).
util::Status SendAll(int fd, std::span<const uint8_t> bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
      continue;
    }
    return util::Status::IoError(Errno("send"));
  }
  return util::Status::Ok();
}

}  // namespace

Router::Router(const ShardPlan& plan, const RouterConfig& config)
    : plan_(plan), config_(config) {
  if (config_.registry != nullptr) {
    registry_ = config_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  metrics_.requests = registry_->GetCounter(
      "mbr_coord_requests_total", "Client queries routed by the coordinator.");
  metrics_.fanout = registry_->GetCounter(
      "mbr_coord_fanout_total", "Shard RPCs issued by the coordinator.");
  metrics_.partial = registry_->GetCounter(
      "mbr_coord_partial_total",
      "Routed replies degraded to a partial merge (shard down/late).");
  metrics_.shard_errors = registry_->GetCounter(
      "mbr_coord_shard_errors_total", "Failed shard RPCs.");
  metrics_.landmark_fetches = registry_->GetCounter(
      "mbr_coord_landmark_fetches_total",
      "LANDMARK_FETCH RPCs for lists homed off the query's home shard.");
  metrics_.shard_latency_us = registry_->GetHistogram(
      "mbr_coord_shard_latency_us",
      "Per-shard RPC round-trip latency in microseconds.");
  metrics_.shards_total = registry_->GetGauge(
      "mbr_coord_shards_total", "Shards in the coordinator's plan.");
  metrics_.shards_up = registry_->GetGauge(
      "mbr_coord_shards_up", "Shards that answered the last STATS rollup.");
  metrics_.shards_total->Set(plan_.num_shards());

  std::vector<net::ClientConfig> endpoints;
  endpoints.reserve(plan_.num_shards());
  for (uint32_t s = 0; s < plan_.num_shards(); ++s) {
    net::ClientConfig c = config_.shard_client;
    c.host = plan_.endpoints()[s].host;
    c.port = static_cast<uint16_t>(plan_.endpoints()[s].port);
    c.request_timeout_ms = config_.shard_timeout_ms;
    endpoints.push_back(std::move(c));
  }
  pool_ = std::make_unique<net::ClientPool>(std::move(endpoints),
                                            config_.pool_idle);
}

Router::~Router() {
  if (started_) {
    RequestStop();
    Wait();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

util::Status Router::Start() {
  if (started_) return util::Status::FailedPrecondition("already started");
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return util::Status::IoError(Errno("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("bad host address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return util::Status::IoError(Errno("bind"));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return util::Status::IoError(Errno("getsockname"));
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) != 0) {
    return util::Status::IoError(Errno("listen"));
  }
  started_ = true;
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::Ok();
}

void Router::RequestStop() { stop_.store(true, std::memory_order_release); }

void Router::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  running_.store(false, std::memory_order_release);
}

void Router::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd p{listen_fd_, POLLIN, 0};
    int r = ::poll(&p, 1, 100);
    if (r <= 0) continue;
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    if (open_connections_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(threads_mu_);
    conn_threads_.emplace_back([this, fd] {
      ServeConnection(fd);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  // Operators poll running() to learn the stop request took effect (the
  // connection threads watch stop_ themselves and drain right after).
  running_.store(false, std::memory_order_release);
}

void Router::ServeConnection(int fd) {
  net::Connection conn(fd, /*gen=*/0, config_.limits);
  uint8_t buf[65536];
  bool alive = true;
  while (alive && !stop_.load(std::memory_order_acquire)) {
    pollfd p{fd, POLLIN, 0};
    int r = ::poll(&p, 1, 100);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    std::vector<net::Connection::Frame> frames;
    if (!conn.Ingest(buf, static_cast<size_t>(n), &frames).ok()) {
      break;  // framing broken: close without reply
    }
    for (const net::Connection::Frame& f : frames) {
      alive = HandleClientFrame(&conn, f);
      if (conn.has_pending_write()) {
        if (!SendAll(fd, conn.pending_write()).ok()) {
          alive = false;
          break;
        }
        conn.ConsumeWritten(conn.pending_write().size());
      }
      if (!alive) break;
    }
  }
  ::close(fd);
}

bool Router::QueueError(net::Connection* conn, uint64_t request_id,
                        net::WireError code, const std::string& message) {
  std::vector<uint8_t> payload = net::EncodeError({code, message});
  return conn->QueueReply(net::MessageKind::kError, request_id, payload);
}

bool Router::HandleClientFrame(net::Connection* conn,
                               const net::Connection::Frame& frame) {
  const net::FrameHeader& h = frame.header;
  if (util::Status st = net::CheckFrameVersion(h); !st.ok()) {
    QueueError(conn, h.request_id, net::WireError::kUnsupportedVersion,
               st.message());
    return false;
  }
  if (util::Status st = net::VerifyPayloadCrc(h, frame.payload); !st.ok()) {
    return QueueError(conn, h.request_id, net::WireError::kBadFrame,
                      st.message());
  }

  switch (h.kind) {
    case net::MessageKind::kPing:
      return conn->QueueReply(net::MessageKind::kPong, h.request_id, {});
    case net::MessageKind::kShutdown: {
      bool ok = conn->QueueReply(net::MessageKind::kShutdownAck,
                                 h.request_id, {});
      RequestStop();
      return ok && false;  // close this connection after the ack flushes
    }
    case net::MessageKind::kStats: {
      std::vector<uint8_t> payload = net::EncodeStats(RollupStats());
      return conn->QueueReply(net::MessageKind::kStatsResult, h.request_id,
                              payload);
    }
    case net::MessageKind::kMetrics: {
      std::vector<uint8_t> payload = net::EncodeMetricsResult(
          obs::RenderPrometheus(*registry_), config_.limits);
      return conn->QueueReply(net::MessageKind::kMetricsResult, h.request_id,
                              payload);
    }
    case net::MessageKind::kFollow:
    case net::MessageKind::kUnfollow:
    case net::MessageKind::kRelabel:
      return QueueError(conn, h.request_id, net::WireError::kInvalidArgument,
                        "the partitioned tier serves read-only "
                        "(mutations are not routed)");
    case net::MessageKind::kRecommendPartial:
    case net::MessageKind::kLandmarkFetch:
      return QueueError(conn, h.request_id, net::WireError::kInvalidArgument,
                        "shard ops are answered by shards, not the router");
    case net::MessageKind::kRecommend:
    case net::MessageKind::kRecommendBatch:
      break;
    default:
      return QueueError(conn, h.request_id, net::WireError::kUnknownKind,
                        "unhandled message kind " +
                            std::to_string(static_cast<uint16_t>(h.kind)));
  }

  std::vector<net::RecommendRequest> decoded;
  if (h.kind == net::MessageKind::kRecommend) {
    net::RecommendRequest r;
    if (util::Status st =
            net::DecodeRecommend(frame.payload, config_.limits, &r);
        !st.ok()) {
      return QueueError(conn, h.request_id, net::WireError::kBadFrame,
                        st.message());
    }
    decoded.push_back(std::move(r));
  } else {
    if (util::Status st =
            net::DecodeRecommendBatch(frame.payload, config_.limits, &decoded);
        !st.ok()) {
      return QueueError(conn, h.request_id, net::WireError::kBadFrame,
                        st.message());
    }
  }
  // Same admission checks a single-node server applies: bounds against the
  // plan's universe, worst-case reply size against the frame cap.
  for (const net::RecommendRequest& r : decoded) {
    if (r.user >= plan_.num_nodes() || r.topic >= plan_.num_topics()) {
      return QueueError(conn, h.request_id, net::WireError::kInvalidArgument,
          "query out of range: user " + std::to_string(r.user) + " (nodes " +
              std::to_string(plan_.num_nodes()) + "), topic " +
              std::to_string(r.topic) + " (topics " +
              std::to_string(plan_.num_topics()) + ")");
    }
  }
  if (net::MaxResultPayloadBytes(decoded) > config_.limits.max_payload_bytes) {
    return QueueError(conn, h.request_id, net::WireError::kInvalidArgument,
                      "reply would exceed the " +
                          std::to_string(config_.limits.max_payload_bytes) +
                          "-byte frame payload cap");
  }

  std::vector<Routed> routed;
  routed.reserve(decoded.size());
  for (const net::RecommendRequest& r : decoded) {
    util::Result<Routed> one = RouteOne(r);
    if (!one.ok()) {
      // First failure speaks for the frame, mirroring the single-node
      // batch contract.
      const util::StatusCode code = one.status().code();
      const net::WireError wire =
          code == util::StatusCode::kDeadlineExceeded
              ? net::WireError::kDeadlineExceeded
              : code == util::StatusCode::kInvalidArgument
                    ? net::WireError::kInvalidArgument
                    : net::WireError::kInternal;
      return QueueError(conn, h.request_id, wire,
                        one.status().message());
    }
    routed.push_back(std::move(*one));
  }

  if (h.kind == net::MessageKind::kRecommend) {
    Routed& one = routed.front();
    std::vector<uint8_t> payload = net::EncodeResult(
        one.entries, one.graph_epoch, one.coord, one.served_tier);
    return conn->QueueReply(net::MessageKind::kResult, h.request_id, payload);
  }
  std::vector<net::RankedList> lists;
  std::vector<uint64_t> epochs;
  std::vector<uint8_t> tiers;
  lists.reserve(routed.size());
  epochs.reserve(routed.size());
  tiers.reserve(routed.size());
  // Per-frame trailer: one partially-merged query marks the whole batch,
  // and the frame reports the worst shard coverage seen. Tiers stay
  // per-list (like epochs): each query names the tier that served it.
  net::CoordTrailer coord;
  coord.shards_total = static_cast<uint16_t>(plan_.num_shards());
  coord.shards_answered = coord.shards_total;
  for (Routed& one : routed) {
    if (one.coord.partial != 0) coord.partial = 1;
    coord.shards_answered =
        std::min(coord.shards_answered, one.coord.shards_answered);
    epochs.push_back(one.graph_epoch);
    tiers.push_back(one.served_tier);
    lists.push_back(std::move(one.entries));
  }
  std::vector<uint8_t> payload =
      net::EncodeResultBatch(lists, epochs, coord, tiers);
  return conn->QueueReply(net::MessageKind::kResultBatch, h.request_id,
                          payload);
}

template <typename Fn>
auto Router::CallShard(uint32_t shard, Fn&& fn)
    -> decltype(fn(std::declval<net::Client&>())) {
  metrics_.fanout->Increment();
  util::WallTimer timer;
  auto checkout = pool_->Checkout(shard);
  if (!checkout.ok()) {
    metrics_.shard_errors->Increment();
    return checkout.status();
  }
  auto result = fn(**checkout);
  metrics_.shard_latency_us->Record(
      static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
  if (result.ok()) {
    pool_->Return(shard, std::move(*checkout));
  } else {
    metrics_.shard_errors->Increment();  // connection dropped, not pooled
  }
  return result;
}

uint32_t Router::ShardDeadlineMs(uint32_t client_deadline_ms) const {
  if (client_deadline_ms == 0) return config_.shard_timeout_ms;
  if (config_.shard_timeout_ms == 0) return client_deadline_ms;
  return std::min(client_deadline_ms, config_.shard_timeout_ms);
}

bool Router::IsShardLoss(const util::Status& status,
                         uint32_t client_deadline_ms) const {
  switch (status.code()) {
    case util::StatusCode::kUnavailable:  // refused / shed / clean close
    case util::StatusCode::kIoError:      // EPIPE / ECONNRESET mid-RPC
      return true;
    case util::StatusCode::kDeadlineExceeded:
      // Only the router's own shard_timeout_ms backstop expired: the
      // client asked for no deadline, so it must not see an error a
      // single-node server would never have produced.
      return client_deadline_ms == 0;
    default:
      return false;
  }
}

util::Result<Router::Routed> Router::RouteOne(
    const net::RecommendRequest& req) {
  metrics_.requests->Increment();
  const uint32_t home = plan_.ShardOf(req.user);
  return config_.landmark_mode ? RouteLandmark(req, home)
                               : RouteExact(req, home);
}

util::Result<Router::Routed> Router::RouteExact(
    const net::RecommendRequest& req, uint32_t home) {
  Routed out;
  out.coord.shards_total = static_cast<uint16_t>(plan_.num_shards());
  net::RecommendRequest sreq = req;
  sreq.deadline_ms = ShardDeadlineMs(req.deadline_ms);
  auto reply =
      CallShard(home, [&](net::Client& c) { return c.RecommendEx(sreq); });
  if (!reply.ok()) {
    if (IsShardLoss(reply.status(), req.deadline_ms)) {
      if (!config_.degrade_partial) {
        return util::Status::Unavailable("home shard " + std::to_string(home) +
                                         " lost: " + reply.status().message());
      }
      // Home shard down/overloaded: degrade, never hang or fail the client.
      metrics_.partial->Increment();
      out.coord.partial = 1;
      out.coord.shards_answered = 0;
      return out;
    }
    return reply.status();  // relayed unchanged (deadline, invalid, ...)
  }
  out.entries = std::move(reply->entries);
  out.graph_epoch = reply->graph_epoch;
  out.served_tier = reply->served_tier;  // max over {home} = the home's tier
  out.coord.shards_answered = 1;
  return out;
}

util::Result<Router::Routed> Router::RouteLandmark(
    const net::RecommendRequest& req, uint32_t home) {
  Routed out;
  out.coord.shards_total = static_cast<uint16_t>(plan_.num_shards());
  net::RecommendRequest sreq = req;
  sreq.deadline_ms = ShardDeadlineMs(req.deadline_ms);
  auto partial = CallShard(
      home, [&](net::Client& c) { return c.RecommendPartial(sreq); });
  if (!partial.ok()) {
    if (IsShardLoss(partial.status(), req.deadline_ms)) {
      if (!config_.degrade_partial) {
        return util::Status::Unavailable("home shard " + std::to_string(home) +
                                         " lost: " +
                                         partial.status().message());
      }
      metrics_.partial->Increment();
      out.coord.partial = 1;
      out.coord.shards_answered = 0;
      return out;
    }
    return partial.status();
  }
  net::PartialReply preply = std::move(*partial);
  out.graph_epoch = preply.graph_epoch;
  // The merged ranking is the landmark approximation by construction, so
  // the routed tier is kApprox regardless of how relaxed the shards were.
  out.served_tier = static_cast<uint8_t>(core::Tier::kApprox);

  // Gather the stored lists of landmarks homed off the home shard, one
  // LANDMARK_FETCH per distinct home. A failed fetch degrades those
  // landmarks' contributions (partial merge), mirroring the shard-down
  // policy, instead of failing the query.
  std::vector<std::vector<uint32_t>> want(plan_.num_shards());
  for (const net::PartialRecord& rec : preply.records) {
    if ((rec.flags & net::kPartialFlagLandmark) != 0 &&
        (rec.flags & net::kPartialFlagInline) == 0) {
      want[plan_.ShardOf(rec.node)].push_back(rec.node);
    }
  }
  uint16_t contacted = 1;  // the home shard
  uint16_t answered = 1;
  std::vector<net::LandmarkVectorsReply> fetched;
  for (uint32_t s = 0; s < plan_.num_shards(); ++s) {
    if (want[s].empty()) continue;
    ++contacted;
    metrics_.landmark_fetches->Increment();
    auto vectors = CallShard(s, [&](net::Client& c) {
      return c.FetchLandmarks(req.topic, want[s]);
    });
    if (!vectors.ok()) {
      if (!config_.degrade_partial) {
        return util::Status::Unavailable("landmark shard " +
                                         std::to_string(s) + " lost: " +
                                         vectors.status().message());
      }
      continue;
    }
    ++answered;
    fetched.push_back(std::move(*vectors));
  }
  std::unordered_map<uint32_t, const net::LandmarkList*> lists;
  for (const net::LandmarkList& l : preply.lists) lists[l.landmark] = &l;
  for (const net::LandmarkVectorsReply& reply : fetched) {
    for (const net::LandmarkList& l : reply.lists) lists[l.landmark] = &l;
  }

  // Replay of ApproxRecommender::ScoresFlat's combine loop over the wire
  // records: records preserve reached order and each stored list is a
  // verbatim copy, so every per-key addition happens in the same order,
  // with the same ComposeViaLandmark expression, as on a single node —
  // the accumulated doubles are bit-identical.
  const uint32_t u = req.user;
  util::FlatMap<graph::NodeId, double> scores(preply.records.size() * 2);
  bool missing_list = false;
  for (const net::PartialRecord& rec : preply.records) {
    scores[rec.node] += rec.sigma;
    if ((rec.flags & net::kPartialFlagLandmark) == 0) continue;
    auto it = lists.find(rec.node);
    if (it == lists.end()) {
      missing_list = true;  // fetch failed or plan/shard disagreement
      continue;
    }
    for (const net::LandmarkEntry& e : it->second->entries) {
      if (e.node == u) continue;
      scores[e.node] += landmark::ComposeViaLandmark(
          rec.sigma, rec.topo_alphabeta, e.sigma, e.topo_beta);
    }
  }

  // Identical ranking semantics to the single-node path: RankingBuilder
  // drops non-positive scores, the query user, and excluded ids; TopK's
  // total order (score desc, id asc) makes offer order irrelevant.
  core::Query q;
  q.user = req.user;
  q.topic = static_cast<topics::TopicId>(req.topic);
  q.top_n = req.top_n;
  q.exclude.assign(req.exclude.begin(), req.exclude.end());
  core::RankingBuilder builder(q);
  for (const auto& [node, score] : scores) builder.Offer(node, score);
  out.entries = builder.Take().entries;

  out.coord.shards_answered = answered;
  if (answered < contacted || missing_list) {
    if (!config_.degrade_partial) {
      return util::Status::Unavailable(
          "landmark merge incomplete with degrade off");
    }
    metrics_.partial->Increment();
    out.coord.partial = 1;
  }
  return out;
}

obs::MetricsSnapshot Router::RollupStats() {
  obs::MetricsSnapshot fleet;
  int64_t up = 0;
  for (uint32_t shard = 0; shard < plan_.num_shards(); ++shard) {
    auto snap = CallShard(shard, [](net::Client& c) { return c.Stats(); });
    if (!snap.ok()) continue;
    ++up;
    fleet.Merge(*snap);
  }
  metrics_.shards_up->Set(up);
  obs::MetricsSnapshot s = registry_->TakeSnapshot();
  s.Merge(fleet);
  return s;
}

}  // namespace mbr::coord
