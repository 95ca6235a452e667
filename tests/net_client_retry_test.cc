#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "util/status.h"
#include "wire_test_util.h"

namespace mbr::net {
namespace {

ClientConfig Config(uint32_t initial, uint32_t max, uint32_t jitter = 0,
                    uint64_t seed = 1) {
  ClientConfig c;
  c.backoff_initial_ms = initial;
  c.backoff_max_ms = max;
  c.backoff_jitter_ms = jitter;
  c.backoff_seed = seed;
  return c;
}

TEST(BackoffScheduleTest, DoublesFromInitial) {
  ClientConfig c = Config(50, 100000);
  EXPECT_EQ(BackoffDelayMs(c, 0), 50u);
  EXPECT_EQ(BackoffDelayMs(c, 1), 100u);
  EXPECT_EQ(BackoffDelayMs(c, 2), 200u);
  EXPECT_EQ(BackoffDelayMs(c, 3), 400u);
  EXPECT_EQ(BackoffDelayMs(c, 4), 800u);
}

TEST(BackoffScheduleTest, SaturatesAtMax) {
  ClientConfig c = Config(50, 2000);
  EXPECT_EQ(BackoffDelayMs(c, 5), 1600u);
  EXPECT_EQ(BackoffDelayMs(c, 6), 2000u);  // 3200 capped
  EXPECT_EQ(BackoffDelayMs(c, 7), 2000u);
  EXPECT_EQ(BackoffDelayMs(c, 1000), 2000u);  // huge attempt: no overflow
}

TEST(BackoffScheduleTest, MaxBelowInitialClampsToMax) {
  ClientConfig c = Config(500, 100);
  EXPECT_EQ(BackoffDelayMs(c, 0), 100u);
  EXPECT_EQ(BackoffDelayMs(c, 3), 100u);
}

TEST(BackoffScheduleTest, JitterIsBoundedAndDeterministic) {
  ClientConfig c = Config(100, 10000, /*jitter=*/50, /*seed=*/42);
  for (uint32_t attempt = 0; attempt < 8; ++attempt) {
    const uint32_t base = BackoffDelayMs(Config(100, 10000), attempt);
    const uint32_t jittered = BackoffDelayMs(c, attempt);
    EXPECT_GE(jittered, base) << "attempt " << attempt;
    EXPECT_LT(jittered, base + 50) << "attempt " << attempt;
    // Deterministic: same config -> same delay.
    EXPECT_EQ(jittered, BackoffDelayMs(c, attempt));
  }
}

TEST(BackoffScheduleTest, JitterVariesAcrossAttemptsAndSeeds) {
  ClientConfig c = Config(100, 100, /*jitter=*/1000, /*seed=*/7);
  std::set<uint32_t> delays;
  for (uint32_t attempt = 0; attempt < 16; ++attempt) {
    delays.insert(BackoffDelayMs(c, attempt));
  }
  // With the base pinned at 100, distinct delays mean the jitter actually
  // decorrelates attempts (prevents synchronized reconnect stampedes).
  EXPECT_GT(delays.size(), 8u);

  ClientConfig other = Config(100, 100, /*jitter=*/1000, /*seed=*/8);
  bool any_differ = false;
  for (uint32_t attempt = 0; attempt < 16; ++attempt) {
    any_differ |= BackoffDelayMs(c, attempt) != BackoffDelayMs(other, attempt);
  }
  EXPECT_TRUE(any_differ);
}

TEST(ClientRetryTest, RetriesRefusedConnectionThenGivesUp) {
  // Port 1 on loopback: connect is refused immediately (kUnavailable), so
  // the retry loop runs all attempts, sleeping the (tiny) schedule.
  ClientConfig c = Config(/*initial=*/1, /*max=*/2);
  c.host = "127.0.0.1";
  c.port = 1;
  c.connect_attempts = 3;
  c.connect_timeout_ms = 500;
  const auto start = std::chrono::steady_clock::now();
  auto client = Client::Connect(c);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), util::StatusCode::kUnavailable);
  // Two retry sleeps (1ms + 2ms) must have happened; allow generous slack.
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(3));
}

TEST(ClientRetryTest, NonRetryableErrorFailsFast) {
  ClientConfig c = Config(/*initial=*/1000, /*max=*/1000);
  c.host = "not an address";
  c.port = 1;
  c.connect_attempts = 5;
  const auto start = std::chrono::steady_clock::now();
  auto client = Client::Connect(c);
  ASSERT_FALSE(client.ok());
  EXPECT_NE(client.status().code(), util::StatusCode::kUnavailable);
  // No 1-second backoff sleeps: the bad address is not retried.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(900));
}


// A one-connection peer played by hand: accepts a single client and runs
// `script` on the accepted socket on its own thread.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::function<void(int fd)> script) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
      ADD_FAILURE() << "could not listen on loopback";
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, script = std::move(script)] {
      pollfd p{listen_fd_, POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) return;
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      script(fd);
      ::close(fd);
    });
  }
  ~ScriptedPeer() {
    Join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  uint16_t port() const { return port_; }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

void SendPong(int fd, uint64_t request_id, uint16_t version) {
  const std::vector<uint8_t> reply = wiretest::FrameWithVersion(
      MessageKind::kPong, request_id, {}, version);
  // The client may already have hung up; a failed send is part of the
  // scenario, not an error.
  [[maybe_unused]] ssize_t n =
      ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
}

// Answers every frame after the first one at once, until the client hangs
// up; counts the frames it saw.
void AnswerTheRest(int fd, std::atomic<int>* frames) {
  FrameHeader h;
  std::vector<uint8_t> payload;
  while (wiretest::ReadFrame(fd, 2000, &h, &payload)) {
    ++*frames;
    SendPong(fd, h.request_id, kProtocolVersion);
  }
}

TEST(ClientStreamTest, LateReplyAfterTimeoutIsNeverReadAsTheNextReply) {
  // The peer answers the first request well after the client's receive
  // deadline. A client that kept its socket would read that stale PONG as
  // the reply to its next request (and every call after would read the
  // previous one's reply); it must instead drop the connection, so later
  // calls fail cleanly with kUnavailable and never touch the wire.
  std::atomic<int> frames{0};
  ScriptedPeer peer([&frames](int fd) {
    FrameHeader h;
    std::vector<uint8_t> payload;
    if (!wiretest::ReadFrame(fd, 5000, &h, &payload)) return;
    ++frames;
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    SendPong(fd, h.request_id, kProtocolVersion);
    AnswerTheRest(fd, &frames);
  });
  ClientConfig cc;
  cc.port = peer.port();
  cc.request_timeout_ms = 100;
  auto client = Client::Connect(cc);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  util::Status first = client->Ping();
  EXPECT_EQ(first.code(), util::StatusCode::kDeadlineExceeded)
      << first.ToString();
  // By now the late PONG for request 1 has been sent.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  for (int call = 2; call <= 3; ++call) {
    util::Status st = client->Ping();
    EXPECT_EQ(st.code(), util::StatusCode::kUnavailable)
        << "call " << call << ": " << st.ToString();
  }
  peer.Join();
  EXPECT_EQ(frames.load(), 1) << "calls after the failure reached the wire";
}

TEST(ClientStreamTest, WrongVersionReplyClosesTheConnection) {
  std::atomic<int> frames{0};
  ScriptedPeer peer([&frames](int fd) {
    FrameHeader h;
    std::vector<uint8_t> payload;
    if (!wiretest::ReadFrame(fd, 5000, &h, &payload)) return;
    ++frames;
    SendPong(fd, h.request_id, kProtocolVersion - 1);
    AnswerTheRest(fd, &frames);
  });
  ClientConfig cc;
  cc.port = peer.port();
  auto client = Client::Connect(cc);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  util::Status first = client->Ping();
  ASSERT_EQ(first.code(), util::StatusCode::kInvalidArgument)
      << first.ToString();
  EXPECT_NE(first.message().find("v" + std::to_string(kProtocolVersion - 1)),
            std::string::npos)
      << first.message();
  EXPECT_NE(first.message().find("v" + std::to_string(kProtocolVersion)),
            std::string::npos)
      << first.message();
  util::Status second = client->Ping();
  EXPECT_EQ(second.code(), util::StatusCode::kUnavailable)
      << second.ToString();
  peer.Join();
  EXPECT_EQ(frames.load(), 1);
}

}  // namespace
}  // namespace mbr::net
