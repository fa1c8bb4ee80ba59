#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/channel.h"
#include "net/frame.h"

namespace genealog {
namespace {

// Writes every byte of `iov` (advancing it in place) with gather writes,
// looping on partial writes and EINTR.
bool WriteAllV(int fd, iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    auto left = static_cast<size_t>(w);
    while (iovcnt > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
}

bool ReadAll(int fd, uint8_t* data, size_t n) {
  while (n > 0) {
    const ssize_t r = ::recv(fd, data, n, 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;  // 0 = orderly shutdown
    }
    data += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

TcpChannel::TcpChannel(int fd) : fd_(fd) {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) ::close(fd_);
}

bool TcpChannel::SendFrame(std::vector<uint8_t> frame) {
  if (frame.empty()) return false;
  uint32_t len = static_cast<uint32_t>(frame.size());
  uint8_t header[4];
  std::memcpy(header, &len, 4);
  iovec iov[2] = {{header, sizeof(header)}, {frame.data(), frame.size()}};
  if (!WriteAllV(fd_, iov, 2)) return false;
  bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
  return true;
}

bool TcpChannel::RecvFrame(std::vector<uint8_t>& frame) {
  uint8_t header[4];
  if (!ReadAll(fd_, header, 4)) return false;
  uint32_t len = 0;
  std::memcpy(&len, header, 4);
  if (len == 0 || len > kMaxFrameBytes) {
    // A malformed length prefix means the stream is corrupt, not closed:
    // fail loudly so the Receive node reports it instead of reading the
    // truncation as a clean end-of-stream.
    throw std::runtime_error("TcpChannel: malformed frame length " +
                             std::to_string(len));
  }
  frame.resize(len);
  return ReadAll(fd_, frame.data(), len);
}

void TcpChannel::CloseSend() { ::shutdown(fd_, SHUT_WR); }

void TcpChannel::Abort() { ::shutdown(fd_, SHUT_RDWR); }

uint64_t TcpChannel::bytes_sent() const {
  return bytes_sent_.load(std::memory_order_relaxed);
}

std::pair<std::unique_ptr<TcpChannel>, std::unique_ptr<TcpChannel>>
MakeTcpChannelPair() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0) {
    ::close(listener);
    throw std::runtime_error("bind/listen failed");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
      0) {
    ::close(listener);
    throw std::runtime_error("getsockname failed");
  }

  const int sender = ::socket(AF_INET, SOCK_STREAM, 0);
  if (sender < 0) {
    ::close(listener);
    throw std::runtime_error("socket() failed");
  }
  if (::connect(sender, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listener);
    ::close(sender);
    throw std::runtime_error("connect failed");
  }
  const int receiver = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (receiver < 0) {
    ::close(sender);
    throw std::runtime_error("accept failed");
  }
  return {std::make_unique<TcpChannel>(sender),
          std::make_unique<TcpChannel>(receiver)};
}

}  // namespace genealog
