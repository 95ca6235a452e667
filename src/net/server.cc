#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/prometheus.h"
#include "util/timer.h"

namespace mbr::net {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Server::Server(service::QueryEngine& engine, const ServerConfig& config)
    : engine_(&engine), config_(config) {
  if (config_.max_inflight == 0) config_.max_inflight = 1;
  if (config_.dispatch_threads == 0) config_.dispatch_threads = 1;
  registry_ = config_.registry != nullptr ? config_.registry
                                          : &engine_->registry();
  metrics_.accepted = registry_->GetCounter(
      "mbr_net_connections_accepted_total", "Connections accepted.");
  metrics_.refused = registry_->GetCounter(
      "mbr_net_connections_refused_total",
      "Connections closed at accept (cap reached or draining).");
  metrics_.closed = registry_->GetCounter("mbr_net_connections_closed_total",
                                          "Connections fully closed.");
  metrics_.requests = registry_->GetCounter("mbr_net_requests_total",
                                            "Work requests admitted.");
  metrics_.shed_overload = registry_->GetCounter(
      "mbr_net_shed_overload_total", "Requests answered OVERLOADED.");
  metrics_.shed_deadline = registry_->GetCounter(
      "mbr_net_shed_deadline_total",
      "Requests whose deadline expired before a dispatcher picked them up.");
  metrics_.protocol_errors = registry_->GetCounter(
      "mbr_net_protocol_errors_total", "Malformed frames / bad payloads.");
  metrics_.bytes_read = registry_->GetCounter("mbr_net_bytes_read_total",
                                              "Payload bytes read from peers.");
  metrics_.bytes_written = registry_->GetCounter(
      "mbr_net_bytes_written_total", "Reply bytes written to peers.");
  metrics_.recommend_latency_us = registry_->GetHistogram(
      "mbr_net_request_latency_us",
      "Dispatcher latency per request in microseconds, by op.",
      {{"op", "recommend"}});
  metrics_.batch_latency_us = registry_->GetHistogram(
      "mbr_net_request_latency_us",
      "Dispatcher latency per request in microseconds, by op.",
      {{"op", "recommend_batch"}});
  metrics_.mutate_latency_us = registry_->GetHistogram(
      "mbr_net_request_latency_us",
      "Dispatcher latency per request in microseconds, by op.",
      {{"op", "mutate"}});
  metrics_.partial_latency_us = registry_->GetHistogram(
      "mbr_net_request_latency_us",
      "Dispatcher latency per request in microseconds, by op.",
      {{"op", "recommend_partial"}});
}

Server::~Server() {
  if (started_) {
    RequestStop();
    Wait();
  }
  for (int fd : {listen_fd_, epoll_fd_, stop_event_fd_, completion_event_fd_}) {
    if (fd >= 0) ::close(fd);
  }
}

util::Status Server::Start() {
  if (started_) return util::Status::FailedPrecondition("already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
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
  if (::listen(listen_fd_, 128) != 0) {
    return util::Status::IoError(Errno("listen"));
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  stop_event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  completion_event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || stop_event_fd_ < 0 || completion_event_fd_ < 0) {
    return util::Status::IoError(Errno("epoll_create1/eventfd"));
  }
  for (int fd : {listen_fd_, stop_event_fd_, completion_event_fd_}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return util::Status::IoError(Errno("epoll_ctl ADD"));
    }
  }

  started_ = true;
  running_.store(true, std::memory_order_release);
  for (uint32_t i = 0; i < config_.dispatch_threads; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
  event_thread_ = std::thread([this] { EventLoop(); });
  return util::Status::Ok();
}

void Server::RequestStop() {
  if (stop_event_fd_ < 0) return;
  uint64_t v = 1;
  // write(2) is async-signal-safe; ignore the (impossible for eventfd)
  // short-write result.
  [[maybe_unused]] ssize_t n = ::write(stop_event_fd_, &v, sizeof(v));
}

void Server::Wait() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (event_thread_.joinable()) event_thread_.join();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
}

obs::MetricsSnapshot Server::StatsNow() const {
  obs::MetricsSnapshot s = registry_->TakeSnapshot();
  if (registry_ != &engine_->registry()) {
    s.Merge(engine_->registry().TakeSnapshot());
  }
  return s;
}

// ---------------------------------------------------------------------------
// Event loop.

void Server::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!loop_done_) {
    // Short timeout while draining so the drain-complete / grace checks run
    // even with no socket activity.
    const int timeout_ms = draining_ ? 20 : 500;
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd broken: unrecoverable
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        HandleAccept();
      } else if (fd == stop_event_fd_) {
        uint64_t v;
        while (::read(stop_event_fd_, &v, sizeof(v)) > 0) {
        }
        BeginDrain();
      } else if (fd == completion_event_fd_) {
        uint64_t v;
        while (::read(completion_event_fd_, &v, sizeof(v)) > 0) {
        }
        ProcessCompletions();
      } else {
        HandleConnectionEvent(fd, events[i].events);
      }
    }
    // Completions may have been signalled while we were busy in this batch.
    ProcessCompletions();
    if (draining_) {
      const bool grace_expired =
          Clock::now() >=
          drain_start_ + std::chrono::milliseconds(config_.drain_grace_ms);
      if (DrainComplete() || grace_expired) FinishShutdown();
    }
  }
  running_.store(false, std::memory_order_release);
}

void Server::HandleAccept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error: nothing to accept
    if (draining_ || conns_.size() >= config_.max_connections) {
      metrics_.refused->Increment();
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    metrics_.accepted->Increment();
    conns_[fd] =
        std::make_unique<Connection>(fd, next_gen_++, config_.limits);
    read_shutdown_[fd] = false;
  }
}

void Server::HandleConnectionEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // already closed within this batch
  Connection* conn = it->second.get();

  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConnection(fd);
    return;
  }
  if (events & EPOLLOUT) {
    FlushWrites(conn);
    if (conns_.find(fd) == conns_.end()) return;  // closed by flush
  }
  if (!(events & EPOLLIN)) return;

  uint8_t buf[65536];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      metrics_.bytes_read->Increment(static_cast<uint64_t>(n));
      std::vector<Connection::Frame> frames;
      util::Status st = conn->Ingest(buf, static_cast<size_t>(n), &frames);
      if (!st.ok()) {
        // Framing is broken: the stream can't be re-aligned, so the reply
        // contract is "clean close".
        metrics_.protocol_errors->Increment();
        CloseConnection(fd);
        return;
      }
      for (const Connection::Frame& f : frames) {
        HandleFrame(conn, f);
        if (conns_.find(fd) == conns_.end()) return;  // closed mid-batch
      }
    } else if (n == 0) {
      // Peer half-closed. Finish what it is owed (queued replies and
      // in-flight requests), then close.
      read_shutdown_[fd] = true;
      conn->set_close_after_flush();
      if (!conn->has_pending_write() && conn->inflight() == 0) {
        CloseConnection(fd);
      } else {
        UpdateEpollInterest(conn);
      }
      return;
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(fd);
      return;
    }
  }
  FlushWrites(conn);
}

bool Server::QueueError(Connection* conn, uint64_t request_id,
                        WireError code, const std::string& message) {
  metrics_.protocol_errors->Increment();
  std::vector<uint8_t> payload = EncodeError({code, message});
  if (!conn->QueueReply(MessageKind::kError, request_id, payload)) {
    CloseConnection(conn->fd());
    return false;
  }
  return true;
}

void Server::HandleFrame(Connection* conn, const Connection::Frame& frame) {
  const FrameHeader& h = frame.header;
  if (util::Status st = CheckFrameVersion(h); !st.ok()) {
    if (QueueError(conn, h.request_id, WireError::kUnsupportedVersion,
                   st.message())) {
      conn->set_close_after_flush();
      FlushWrites(conn);
    }
    return;
  }
  if (util::Status st = VerifyPayloadCrc(h, frame.payload); !st.ok()) {
    QueueError(conn, h.request_id, WireError::kBadFrame,
               st.message());
    return;
  }

  switch (h.kind) {
    case MessageKind::kPing:
      if (!conn->QueueReply(MessageKind::kPong, h.request_id, {})) {
        CloseConnection(conn->fd());
      }
      return;
    case MessageKind::kStats: {
      std::vector<uint8_t> payload = EncodeStats(StatsNow());
      if (!conn->QueueReply(MessageKind::kStatsResult, h.request_id, payload)) {
        CloseConnection(conn->fd());
      }
      return;
    }
    case MessageKind::kMetrics: {
      // Render the whole registry (engine + net series) as Prometheus
      // text. Rendered inline on the event loop — exposition is a rare,
      // operator-driven request.
      std::vector<uint8_t> payload = EncodeMetricsResult(
          obs::RenderPrometheus(*registry_), config_.limits);
      if (!conn->QueueReply(MessageKind::kMetricsResult, h.request_id,
                            payload)) {
        CloseConnection(conn->fd());
      }
      return;
    }
    case MessageKind::kShutdown:
      if (!conn->QueueReply(MessageKind::kShutdownAck, h.request_id, {})) {
        CloseConnection(conn->fd());
        return;
      }
      conn->set_close_after_flush();
      FlushWrites(conn);
      BeginDrain();
      return;
    case MessageKind::kFollow:
    case MessageKind::kUnfollow:
    case MessageKind::kRelabel:
      break;  // work requests, handled below
    case MessageKind::kRecommendPartial:
      // Shard op; only a shard-configured server knows which users it
      // homes and which stored lists to inline.
      if (config_.shard_owned == nullptr || config_.shard_index == nullptr) {
        QueueError(conn, h.request_id, WireError::kInvalidArgument,
                   "RECOMMEND_PARTIAL requires a shard-configured server");
        return;
      }
      break;  // work request, handled below
    case MessageKind::kLandmarkFetch: {
      // Shard op, answered inline on the event loop: shard serving is
      // read-only, so the restricted index and the epoch are stable and
      // the reply is a straight copy of stored lists.
      if (config_.shard_owned == nullptr || config_.shard_index == nullptr) {
        QueueError(conn, h.request_id, WireError::kInvalidArgument,
                   "LANDMARK_FETCH requires a shard-configured server");
        return;
      }
      LandmarkFetchRequest fetch;
      if (util::Status st =
              DecodeLandmarkFetch(frame.payload, config_.limits, &fetch);
          !st.ok()) {
        QueueError(conn, h.request_id, WireError::kBadFrame,
                   st.message());
        return;
      }
      if (fetch.topic >= engine_->num_topics()) {
        QueueError(conn, h.request_id, WireError::kInvalidArgument,
                   "topic " + std::to_string(fetch.topic) + " out of range");
        return;
      }
      LandmarkVectorsReply vectors;
      vectors.graph_epoch = engine_->params_epoch();
      for (uint32_t lm : fetch.landmarks) {
        if (lm >= config_.shard_owned->size() ||
            !config_.shard_index->IsLandmark(lm)) {
          QueueError(conn, h.request_id, WireError::kInvalidArgument,
                     "node " + std::to_string(lm) + " is not a landmark");
          return;
        }
        // Landmarks homed elsewhere are silently skipped: the reply names
        // each list, so the router sees exactly which it got.
        if (!(*config_.shard_owned)[lm]) continue;
        LandmarkList list;
        list.landmark = lm;
        const std::vector<landmark::StoredRec>& stored =
            config_.shard_index->Recommendations(
                lm, static_cast<topics::TopicId>(fetch.topic));
        list.entries.reserve(stored.size());
        for (const landmark::StoredRec& rec : stored) {
          list.entries.push_back({rec.node, rec.sigma, rec.topo_beta});
        }
        vectors.lists.push_back(std::move(list));
      }
      std::vector<uint8_t> payload = EncodeLandmarkVectors(vectors);
      if (payload.size() > config_.limits.max_payload_bytes) {
        QueueError(conn, h.request_id, WireError::kInvalidArgument,
                   "landmark vectors reply would exceed the frame cap");
        return;
      }
      if (!conn->QueueReply(MessageKind::kLandmarkVectors, h.request_id,
                            payload)) {
        CloseConnection(conn->fd());
      }
      return;
    }
    case MessageKind::kRecommend:
    case MessageKind::kRecommendBatch:
      break;  // work requests, handled below
    default:
      QueueError(conn, h.request_id, WireError::kUnknownKind,
                 "unhandled message kind " +
                     std::to_string(static_cast<uint16_t>(h.kind)));
      return;
  }

  if (draining_) {
    QueueError(conn, h.request_id, WireError::kShuttingDown,
               "server is draining");
    return;
  }

  // Decode and validate against the engine's current bounds before
  // admission — QueryEngine treats out-of-range queries as hard
  // precondition violations, the wire layer must make them soft errors.
  PendingRequest req;
  req.conn_fd = conn->fd();
  req.conn_gen = conn->gen();
  req.request_id = h.request_id;
  req.kind = h.kind;
  if (IsMutationKind(h.kind)) {
    // Decode fully BEFORE touching the applier: a malformed mutation frame
    // is answered with BAD_FRAME and can never bump the graph epoch.
    std::vector<MutationRecord> records;
    if (util::Status st =
            DecodeMutation(frame.payload, config_.limits, h.kind, &records);
        !st.ok()) {
      QueueError(conn, h.request_id, WireError::kBadFrame,
                 st.message());
      return;
    }
    if (config_.applier == nullptr) {
      QueueError(conn, h.request_id, WireError::kInvalidArgument,
                 "server is read-only (mutations disabled)");
      return;
    }
    const service::MutationOp op =
        h.kind == MessageKind::kFollow     ? service::MutationOp::kFollow
        : h.kind == MessageKind::kUnfollow ? service::MutationOp::kUnfollow
                                           : service::MutationOp::kRelabel;
    req.mutations.reserve(records.size());
    for (const MutationRecord& rec : records) {
      service::Mutation m;
      m.op = op;
      m.src = rec.src;
      m.dst = rec.dst;
      m.labels = topics::TopicSet(rec.labels);
      req.mutations.push_back(m);
    }
    if (config_.request_deadline_ms > 0) {
      req.has_deadline = true;
      req.deadline = Clock::now() +
                     std::chrono::milliseconds(config_.request_deadline_ms);
    }
    uint32_t cur_inflight = inflight_.load(std::memory_order_relaxed);
    if (cur_inflight >= config_.max_inflight) {
      metrics_.shed_overload->Increment();
      if (!conn->QueueReply(MessageKind::kOverloaded, h.request_id, {})) {
        CloseConnection(conn->fd());
      }
      return;
    }
    inflight_.fetch_add(1, std::memory_order_relaxed);
    metrics_.requests->Increment();
    conn->add_inflight();
    {
      std::lock_guard<std::mutex> lock(dispatch_mu_);
      dispatch_queue_.push_back(std::move(req));
    }
    dispatch_cv_.notify_one();
    return;
  }
  std::vector<RecommendRequest> decoded;
  if (h.kind == MessageKind::kRecommend ||
      h.kind == MessageKind::kRecommendPartial) {
    RecommendRequest r;
    if (util::Status st =
            DecodeRecommend(frame.payload, config_.limits, &r);
        !st.ok()) {
      QueueError(conn, h.request_id, WireError::kBadFrame,
                 st.message());
      return;
    }
    decoded.push_back(std::move(r));
  } else {
    if (util::Status st =
            DecodeRecommendBatch(frame.payload, config_.limits, &decoded);
        !st.ok()) {
      QueueError(conn, h.request_id, WireError::kBadFrame,
                 st.message());
      return;
    }
  }
  // A reply the client's own frame cap would reject must never be
  // produced: bound the worst-case result payload up front. A PARTIAL
  // reply's size depends on the exploration, not top_n — it is bounded
  // after execution instead.
  if (h.kind != MessageKind::kRecommendPartial) {
    if (MaxResultPayloadBytes(decoded) > config_.limits.max_payload_bytes) {
      QueueError(conn, h.request_id, WireError::kInvalidArgument,
                 "reply would exceed the " +
                     std::to_string(config_.limits.max_payload_bytes) +
                     "-byte frame payload cap");
      return;
    }
  }
  const uint32_t num_nodes = engine_->num_nodes();
  const uint32_t num_topics = engine_->num_topics();
  // The effective deadline is the tighter of the server-wide bound and the
  // client's per-request deadline_ms (0 = none either way).
  uint32_t deadline_ms = config_.request_deadline_ms;
  for (const RecommendRequest& r : decoded) {
    if (r.deadline_ms > 0 &&
        (deadline_ms == 0 || r.deadline_ms < deadline_ms)) {
      deadline_ms = r.deadline_ms;
    }
  }
  if (deadline_ms > 0) {
    req.has_deadline = true;
    req.deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  req.queries.reserve(decoded.size());
  for (RecommendRequest& r : decoded) {
    if (r.user >= num_nodes || r.topic >= num_topics) {
      QueueError(conn, h.request_id, WireError::kInvalidArgument,
                 "query out of range: user " + std::to_string(r.user) +
                     " (nodes " + std::to_string(num_nodes) + "), topic " +
                     std::to_string(r.topic) + " (topics " +
                     std::to_string(num_topics) + ")");
      return;
    }
    service::Query q;
    q.user = r.user;
    q.topic = static_cast<topics::TopicId>(r.topic);
    q.top_n = r.top_n;
    q.exclude = std::move(r.exclude);
    if (req.has_deadline) q.deadline = req.deadline;
    req.queries.push_back(std::move(q));
  }
  // A partial exploration only makes sense on the user's home shard — the
  // halo guarantees byte-identity for owned users and nothing else.
  if (h.kind == MessageKind::kRecommendPartial &&
      !(*config_.shard_owned)[req.queries.front().user]) {
    QueueError(conn, h.request_id, WireError::kInvalidArgument,
               "user " + std::to_string(req.queries.front().user) +
                   " is not homed on shard " + std::to_string(config_.shard));
    return;
  }

  // Admission control: bounded in-flight, explicit shed beyond it.
  uint32_t cur = inflight_.load(std::memory_order_relaxed);
  if (cur >= config_.max_inflight) {
    metrics_.shed_overload->Increment();
    if (!conn->QueueReply(MessageKind::kOverloaded, h.request_id, {})) {
      CloseConnection(conn->fd());
    }
    return;
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);
  metrics_.requests->Increment();
  conn->add_inflight();
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    dispatch_queue_.push_back(std::move(req));
  }
  dispatch_cv_.notify_one();
}

void Server::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_fd);
    if (it == conns_.end() || it->second->gen() != c.conn_gen) {
      continue;  // connection died while the request was in flight
    }
    Connection* conn = it->second.get();
    conn->sub_inflight();
    if (!conn->QueueEncoded(c.frame)) {
      CloseConnection(c.conn_fd);
      continue;
    }
    FlushWrites(conn);
  }
}

void Server::FlushWrites(Connection* conn) {
  const int fd = conn->fd();
  while (conn->has_pending_write()) {
    std::span<const uint8_t> out = conn->pending_write();
    ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      metrics_.bytes_written->Increment(static_cast<uint64_t>(n));
      conn->ConsumeWritten(static_cast<size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      CloseConnection(fd);
      return;
    }
  }
  if (conn->close_after_flush() && !conn->has_pending_write() &&
      conn->inflight() == 0) {
    CloseConnection(fd);
    return;
  }
  UpdateEpollInterest(conn);
}

void Server::UpdateEpollInterest(Connection* conn) {
  epoll_event ev{};
  ev.data.fd = conn->fd();
  ev.events = 0;
  if (!read_shutdown_[conn->fd()]) ev.events |= EPOLLIN;
  if (conn->has_pending_write()) ev.events |= EPOLLOUT;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev);
}

void Server::CloseConnection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  read_shutdown_.erase(fd);
  metrics_.closed->Increment();
}

void Server::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  drain_start_ = Clock::now();
  // Closing the listen socket refuses new connections at the kernel.
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool Server::DrainComplete() {
  if (inflight_.load(std::memory_order_acquire) != 0) return false;
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    if (!dispatch_queue_.empty()) return false;
  }
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [fd, conn] : conns_) {
    if (conn->has_pending_write()) return false;
  }
  return true;
}

void Server::FinishShutdown() {
  // Final completion sweep so a reply that raced the checks is not lost
  // for connections that can still take it.
  ProcessCompletions();
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it != conns_.end()) FlushWrites(it->second.get());
    CloseConnection(fd);
  }
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    dispatch_stop_ = true;
    dispatch_queue_.clear();
  }
  dispatch_cv_.notify_all();
  loop_done_ = true;
}

// ---------------------------------------------------------------------------
// Dispatchers.

void Server::DispatchLoop() {
  for (;;) {
    PendingRequest req;
    {
      std::unique_lock<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.wait(lock, [this] {
        return dispatch_stop_ || !dispatch_queue_.empty();
      });
      if (dispatch_queue_.empty()) return;  // stopping, queue drained
      req = std::move(dispatch_queue_.front());
      dispatch_queue_.pop_front();
    }

    std::vector<uint8_t> frame;
    if (req.has_deadline && Clock::now() > req.deadline) {
      metrics_.shed_deadline->Increment();
      std::vector<uint8_t> payload =
          EncodeError({WireError::kDeadlineExceeded,
                       "deadline expired before execution"});
      AppendFrame(MessageKind::kError, req.request_id, payload, &frame);
    } else if (IsMutationKind(req.kind)) {
      util::WallTimer timer;
      const service::MutationOutcome outcome =
          config_.applier->Apply(req.mutations);
      MutateAck ack;
      ack.applied = outcome.applied;
      ack.rejected = outcome.rejected;
      ack.graph_epoch = outcome.graph_epoch;
      std::vector<uint8_t> payload = EncodeMutateAck(ack);
      AppendFrame(MessageKind::kMutateAck, req.request_id, payload, &frame);
      metrics_.mutate_latency_us->Record(
          static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
    } else if (req.kind == MessageKind::kRecommendPartial) {
      util::WallTimer timer;
      const service::Query& q = req.queries.front();
      util::Result<service::QueryEngine::PartialExploration> partial =
          engine_->ExplorePartial(q);
      if (!partial.ok()) {
        const util::StatusCode code = partial.status().code();
        const WireError wire =
            code == util::StatusCode::kDeadlineExceeded
                ? WireError::kDeadlineExceeded
                : code == util::StatusCode::kInvalidArgument
                      ? WireError::kInvalidArgument
                      : WireError::kInternal;
        std::vector<uint8_t> payload =
            EncodeError({wire, partial.status().message()});
        AppendFrame(MessageKind::kError, req.request_id, payload, &frame);
      } else {
        PartialReply reply;
        reply.graph_epoch = partial->graph_epoch;
        reply.records.reserve(partial->records.size());
        for (const landmark::DecomposedRecord& dr : partial->records) {
          PartialRecord pr;
          pr.node = dr.node;
          pr.sigma = dr.sigma;
          if (dr.is_landmark) {
            pr.flags |= kPartialFlagLandmark;
            pr.topo_alphabeta = dr.topo_alphabeta;
            if ((*config_.shard_owned)[dr.node]) {
              // Locally-homed landmark: ship its stored list inline so the
              // router's common case needs no second round trip.
              pr.flags |= kPartialFlagInline;
              LandmarkList list;
              list.landmark = dr.node;
              const std::vector<landmark::StoredRec>& stored =
                  config_.shard_index->Recommendations(dr.node, q.topic);
              list.entries.reserve(stored.size());
              for (const landmark::StoredRec& rec : stored) {
                list.entries.push_back({rec.node, rec.sigma, rec.topo_beta});
              }
              reply.lists.push_back(std::move(list));
            }
          }
          reply.records.push_back(pr);
        }
        if (reply.records.size() > config_.limits.max_partial) {
          std::vector<uint8_t> payload = EncodeError(
              {WireError::kInvalidArgument,
               "exploration reached " + std::to_string(reply.records.size()) +
                   " nodes, over the " +
                   std::to_string(config_.limits.max_partial) +
                   "-record partial cap"});
          AppendFrame(MessageKind::kError, req.request_id, payload, &frame);
        } else {
          std::vector<uint8_t> payload = EncodePartialReply(reply);
          if (payload.size() > config_.limits.max_payload_bytes) {
            payload = EncodeError(
                {WireError::kInvalidArgument,
                 "partial reply would exceed the frame payload cap"});
            AppendFrame(MessageKind::kError, req.request_id, payload, &frame);
          } else {
            AppendFrame(MessageKind::kPartialResult, req.request_id, payload,
                        &frame);
          }
        }
      }
      metrics_.partial_latency_us->Record(
          static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
    } else {
      util::WallTimer timer;
      std::vector<util::Result<service::Response>> results =
          engine_->RecommendMany(req.queries);
      // RESULT/RESULT_BATCH have no per-item error channel; the whole
      // request shares one deadline, so the first failure speaks for the
      // batch.
      const util::Result<service::Response>* failed = nullptr;
      for (const util::Result<service::Response>& r : results) {
        if (!r.ok()) {
          failed = &r;
          break;
        }
      }
      if (failed != nullptr) {
        const bool deadline = failed->status().code() ==
                              util::StatusCode::kDeadlineExceeded;
        std::vector<uint8_t> payload = EncodeError(
            {deadline ? WireError::kDeadlineExceeded : WireError::kInternal,
             failed->status().message()});
        AppendFrame(MessageKind::kError, req.request_id, payload, &frame);
      } else if (req.kind == MessageKind::kRecommend) {
        const service::Response& resp = results.front().value();
        std::vector<uint8_t> payload = EncodeResult(
            resp.ranking.entries, resp.meta.graph_epoch, {},
            static_cast<uint8_t>(resp.meta.served_tier));
        AppendFrame(MessageKind::kResult, req.request_id, payload, &frame);
      } else {
        std::vector<RankedList> lists;
        std::vector<uint64_t> epochs;
        std::vector<uint8_t> tiers;
        lists.reserve(results.size());
        epochs.reserve(results.size());
        tiers.reserve(results.size());
        for (util::Result<service::Response>& r : results) {
          epochs.push_back(r.value().meta.graph_epoch);
          tiers.push_back(static_cast<uint8_t>(r.value().meta.served_tier));
          lists.push_back(std::move(r.value().ranking.entries));
        }
        std::vector<uint8_t> payload =
            EncodeResultBatch(lists, epochs, {}, tiers);
        AppendFrame(MessageKind::kResultBatch, req.request_id, payload,
                    &frame);
      }
      obs::Histogram* h = req.kind == MessageKind::kRecommend
                              ? metrics_.recommend_latency_us
                              : metrics_.batch_latency_us;
      h->Record(static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
    }

    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.push_back({req.conn_fd, req.conn_gen, std::move(frame)});
    }
    inflight_.fetch_sub(1, std::memory_order_release);
    uint64_t v = 1;
    [[maybe_unused]] ssize_t n =
        ::write(completion_event_fd_, &v, sizeof(v));
  }
}

}  // namespace mbr::net
