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

TcpListener ListenTcp(uint32_t addr, uint16_t port, int backlog) {
  TcpListener l;
  l.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (l.fd < 0) {
    l.failed = "socket()";
    return l;
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = addr;
  sa.sin_port = htons(port);
  int one = 1;
  ::setsockopt(l.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  socklen_t len = sizeof(sa);
  if (::bind(l.fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(l.fd, backlog) != 0) {
    l.failed = "bind/listen";
  } else if (::getsockname(l.fd, reinterpret_cast<sockaddr*>(&sa), &len) !=
             0) {
    l.failed = "getsockname";
  }
  if (l.failed != nullptr) {
    ::close(l.fd);
    l.fd = -1;
    return l;
  }
  l.port = ntohs(sa.sin_port);
  return l;
}

std::pair<std::unique_ptr<TcpChannel>, std::unique_ptr<TcpChannel>>
MakeTcpChannelPair() {
  const TcpListener l = ListenTcp(htonl(INADDR_LOOPBACK), 0, 1);
  if (l.fd < 0) throw std::runtime_error(std::string(l.failed) + " failed");
  const int listener = l.fd;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(l.port);

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
