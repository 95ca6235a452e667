#ifndef MBR_TESTS_WIRE_TEST_UTIL_H_
#define MBR_TESTS_WIRE_TEST_UTIL_H_

// Raw loopback socket helpers for wire tests that must send bytes a
// net::Client never would (frames stamped with another protocol version)
// or play the server side of a round trip by hand.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace mbr::net::wiretest {

// Blocking TCP connect to 127.0.0.1:port; -1 on failure.
inline int DialLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// A complete frame like AppendFrame's, but with `version` in the header.
inline std::vector<uint8_t> FrameWithVersion(MessageKind kind,
                                             uint64_t request_id,
                                             std::span<const uint8_t> payload,
                                             uint16_t version) {
  std::vector<uint8_t> frame;
  AppendFrame(kind, request_id, payload, &frame);
  std::memcpy(frame.data() + 4, &version, sizeof(version));  // version field
  return frame;
}

// Reads exactly one frame. False on a stall past `timeout_ms`, a close, or
// an unparsable header.
inline bool ReadFrame(int fd, int timeout_ms, FrameHeader* header,
                      std::vector<uint8_t>* payload) {
  std::vector<uint8_t> got;
  uint8_t buf[4096];
  for (;;) {
    size_t want = kFrameHeaderBytes;
    if (got.size() >= kFrameHeaderBytes) {
      if (ParseFrameHeader(got, WireLimits{}, header) != HeaderParse::kOk) {
        return false;
      }
      want += header->payload_len;
      if (got.size() == want) {
        payload->assign(got.begin() + kFrameHeaderBytes, got.end());
        return true;
      }
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    // Never read past the frame: the caller may want what follows.
    ssize_t n =
        ::recv(fd, buf, std::min(want - got.size(), sizeof(buf)), 0);
    if (n <= 0) return false;
    got.insert(got.end(), buf, buf + n);
  }
}

// True when the peer closes the connection (EOF or reset) within
// `timeout_ms` without sending anything more.
inline bool PeerClosesWithin(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return false;
  uint8_t b;
  return ::recv(fd, &b, 1, 0) <= 0;
}

// Sends a PING stamped `version` to the peer on `port` and expects the
// one-version contract: ERROR(UNSUPPORTED_VERSION) echoing the request id
// and naming both versions, stamped with the current version, then a
// close.
inline void ExpectWrongVersionRefused(uint16_t port, uint16_t version) {
  SCOPED_TRACE("frame stamped v" + std::to_string(version));
  int fd = DialLoopback(port);
  ASSERT_GE(fd, 0);
  const std::vector<uint8_t> frame =
      FrameWithVersion(MessageKind::kPing, 41, {}, version);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  FrameHeader h;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFrame(fd, 5000, &h, &payload)) << "no reply";
  EXPECT_EQ(h.version, kProtocolVersion);
  EXPECT_EQ(h.kind, MessageKind::kError);
  EXPECT_EQ(h.request_id, 41u);
  ErrorReply err;
  ASSERT_TRUE(DecodeError(payload, WireLimits{}, &err).ok());
  EXPECT_EQ(err.code, WireError::kUnsupportedVersion);
  EXPECT_NE(err.message.find("v" + std::to_string(version)),
            std::string::npos)
      << err.message;
  EXPECT_NE(err.message.find("v" + std::to_string(kProtocolVersion)),
            std::string::npos)
      << err.message;
  EXPECT_TRUE(PeerClosesWithin(fd, 5000)) << "connection left open";
  ::close(fd);
}

}  // namespace mbr::net::wiretest

#endif  // MBR_TESTS_WIRE_TEST_UTIL_H_
