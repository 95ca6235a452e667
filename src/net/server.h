#ifndef MBR_NET_SERVER_H_
#define MBR_NET_SERVER_H_

// Epoll-based non-blocking network front end for service::QueryEngine.
//
// Threading model:
//   * ONE event-loop thread owns every socket and Connection object: it
//     accepts, reads, frames, admits, and writes. No connection state is
//     ever touched from another thread.
//   * `dispatch_threads` dispatcher threads pop admitted requests from a
//     bounded queue, run the (blocking) QueryEngine call, encode the reply
//     frame, and post it to a completion queue; an eventfd wakes the event
//     loop to copy the bytes into the right connection's write buffer.
//     Completions are routed by (fd, generation), so a connection that
//     died mid-request simply drops its reply.
//
// Admission control / overload behavior: at most `max_inflight` requests
// may be queued-or-executing at once. A request arriving beyond that is
// answered immediately with an OVERLOADED frame by the event loop — the
// server sheds load explicitly instead of queueing unboundedly, and the
// shed count is visible through STATS. Each admitted request carries a
// deadline (`request_deadline_ms`); if it expires before a dispatcher
// picks the request up, the client gets ERROR(DEADLINE_EXCEEDED) instead
// of a late answer.
//
// Graceful drain: RequestStop() (async-signal-safe; wired to SIGINT/
// SIGTERM by `mbrec serve`) or a SHUTDOWN frame stops accepting — the
// listen socket closes, so new connects are refused by the kernel —
// finishes every in-flight request, flushes replies, then closes all
// connections and returns from Wait(). Requests arriving on existing
// connections during the drain get ERROR(SHUTTING_DOWN). A
// `drain_grace_ms` backstop force-closes connections whose peers refuse
// to read their last replies.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "service/mutation.h"
#include "service/query_engine.h"
#include "util/status.h"

namespace mbr::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = OS-assigned ephemeral port (see Server::port())
  uint32_t max_connections = 256;
  // Admission bound: requests queued-or-executing before OVERLOADED sheds.
  uint32_t max_inflight = 64;
  uint32_t dispatch_threads = 2;
  // Per-request deadline measured from admission; 0 disables.
  uint32_t request_deadline_ms = 1000;
  // Drain backstop: force-close connections this long after Stop.
  uint32_t drain_grace_ms = 5000;
  WireLimits limits;
  // Where the server registers its mbr_net_* series and what the METRICS
  // op renders. nullptr = the engine's registry, so one exposition covers
  // engine + network counters by default. Must outlive the server.
  obs::Registry* registry = nullptr;
  // Mutation ops (FOLLOW/UNFOLLOW/RELABEL) apply through this. nullptr
  // = read-only serving: well-formed mutation frames are answered with
  // ERROR(INVALID_ARGUMENT) and never touch the graph. Must outlive the
  // server.
  service::MutationApplier* applier = nullptr;
  // Shard serving (coordinator tier, DESIGN.md §6.7). When `shard_owned`
  // and `shard_index` are both set the server answers the shard ops:
  // RECOMMEND_PARTIAL for users it owns (decomposed exploration records
  // plus the inline stored lists of locally-homed landmarks) and
  // LANDMARK_FETCH for the stored lists of landmarks it homes.
  // `shard_index` is the per-shard restricted index the engine serves
  // from; both must outlive the server. Shard serving is read-only
  // (`applier` must stay null), so the index and epoch are stable and the
  // fetch path needs no locking. Null = single-node serving; shard ops
  // answer ERROR(INVALID_ARGUMENT).
  const std::vector<bool>* shard_owned = nullptr;
  const landmark::LandmarkIndex* shard_index = nullptr;
  uint32_t shard = 0;
  uint32_t shards_total = 1;
};

class Server {
 public:
  // `engine` must outlive the server.
  Server(service::QueryEngine& engine, const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the event loop + dispatcher threads.
  util::Status Start();

  // The bound port (useful with config.port == 0). Valid after Start().
  uint16_t port() const { return port_; }

  // Initiates graceful drain. Async-signal-safe (one eventfd write), so it
  // may be called straight from a SIGINT/SIGTERM handler. Idempotent.
  void RequestStop();

  // Blocks until the drain completes and all threads are joined.
  void Wait();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // The snapshot of the server's registry, merged with the engine's when
  // ServerConfig::registry points elsewhere (a shared registry counts
  // once). The STATS wire reply and the `mbrec serve` log line both come
  // from here.
  obs::MetricsSnapshot StatsNow() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingRequest {
    int conn_fd = -1;
    uint64_t conn_gen = 0;
    uint64_t request_id = 0;
    MessageKind kind = MessageKind::kRecommend;
    std::vector<service::Query> queries;
    std::vector<service::Mutation> mutations;  // mutation kinds only
    Clock::time_point deadline{};
    bool has_deadline = false;
  };
  struct Completion {
    int conn_fd = -1;
    uint64_t conn_gen = 0;
    std::vector<uint8_t> frame;
  };

  void EventLoop();
  void DispatchLoop();
  void HandleAccept();
  void HandleConnectionEvent(int fd, uint32_t events);
  void HandleFrame(Connection* conn, const Connection::Frame& frame);
  // Returns false when the connection had to be closed (write overflow) —
  // `conn` is dangling in that case.
  bool QueueError(Connection* conn, uint64_t request_id, WireError code,
                  const std::string& message);
  void ProcessCompletions();
  void FlushWrites(Connection* conn);
  void UpdateEpollInterest(Connection* conn);
  void CloseConnection(int fd);
  void BeginDrain();
  bool DrainComplete();
  void FinishShutdown();

  // Registry-backed serving counters (mbr_net_* series). The raw-pointer
  // handles are stable for the registry's lifetime.
  struct Metrics {
    obs::Counter* accepted = nullptr;
    obs::Counter* refused = nullptr;
    obs::Counter* closed = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* shed_overload = nullptr;
    obs::Counter* shed_deadline = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Counter* bytes_written = nullptr;
    obs::Histogram* recommend_latency_us = nullptr;
    obs::Histogram* batch_latency_us = nullptr;
    obs::Histogram* mutate_latency_us = nullptr;
    obs::Histogram* partial_latency_us = nullptr;
  };

  service::QueryEngine* engine_;
  ServerConfig config_;
  obs::Registry* registry_ = nullptr;
  Metrics metrics_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int stop_event_fd_ = -1;
  int completion_event_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;

  std::thread event_thread_;
  std::vector<std::thread> dispatchers_;
  std::mutex join_mu_;

  // Event-loop-owned state.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::unordered_map<int, bool> read_shutdown_;  // EOF seen from peer
  uint64_t next_gen_ = 1;
  bool draining_ = false;
  bool loop_done_ = false;
  Clock::time_point drain_start_{};

  // Dispatch queue (event loop -> dispatchers).
  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::deque<PendingRequest> dispatch_queue_;
  bool dispatch_stop_ = false;

  // Completion queue (dispatchers -> event loop).
  std::mutex completion_mu_;
  std::vector<Completion> completions_;

  std::atomic<bool> running_{false};
  // Admission-control state (compared against max_inflight on the event
  // loop); the registry counters above are monotonic and can serve stats
  // but not this bound, which must read-modify-write.
  std::atomic<uint32_t> inflight_{0};
};

}  // namespace mbr::net

#endif  // MBR_NET_SERVER_H_
