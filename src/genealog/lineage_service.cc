#include "genealog/lineage_service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace genealog {
namespace {

// Generation bytes distinguish service incarnations across restarts; a
// process-wide counter is enough (the hello only needs to *change* when the
// serving store may have).
std::atomic<uint8_t> g_generation{0};

sockaddr_in MakeSockaddr(const std::string& host, uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    throw std::runtime_error("lineage service: bad host address '" + host +
                             "' (want a dotted IPv4 address)");
  }
  return sa;
}

}  // namespace

LineageServiceOptions ParseServeAddr(const std::string& addr) {
  LineageServiceOptions o;
  const size_t colon = addr.rfind(':');
  std::string port_str;
  if (colon == std::string::npos) {
    port_str = addr;
  } else {
    if (colon > 0) o.host = addr.substr(0, colon);
    port_str = addr.substr(colon + 1);
  }
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (port_str.empty() || end == port_str.c_str() || *end != '\0' ||
      port < 0 || port > 65535) {
    throw std::runtime_error("lineage service: bad address '" + addr +
                             "' (want host:port)");
  }
  o.port = static_cast<uint16_t>(port);
  return o;
}

LineageService::LineageService(std::shared_ptr<const LineageStore> store,
                               LineageServiceOptions options)
    : store_(std::move(store)),
      options_(std::move(options)),
      generation_(static_cast<uint8_t>(
          g_generation.fetch_add(1, std::memory_order_relaxed) + 1)) {
  if (store_ == nullptr) {
    throw std::logic_error("LineageService: no lineage store to serve");
  }
}

LineageService::~LineageService() { Stop(); }

void LineageService::Start() {
  std::unique_lock lock(mu_);
  if (started_) throw std::logic_error("LineageService: already started");
  const TcpListener l =
      ListenTcp(MakeSockaddr(options_.host, options_.port).sin_addr.s_addr,
                options_.port, 16);
  if (l.fd < 0) {
    if (std::string(l.failed) == "bind/listen") {
      throw std::runtime_error("LineageService: cannot bind " + options_.host +
                               ":" + std::to_string(options_.port));
    }
    throw std::runtime_error(std::string("LineageService: ") + l.failed +
                             " failed");
  }
  listen_fd_ = l.fd;
  port_ = l.port;
  started_ = true;
  stopping_ = false;
  // The fd goes in by value: the thread's copy is immutable while it runs
  // (Stop() clears the member under mu_, which this thread must not touch).
  accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
}

void LineageService::AcceptLoop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by Stop()
    }
    auto channel = std::make_shared<TcpChannel>(fd);
    std::unique_lock lock(mu_);
    // Reap finished connection threads so the list stays bounded.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    // Bounded-thread serving: park until a connection slot frees.
    cv_.wait(lock, [this] {
      size_t active = 0;
      for (const Conn& c : conns_) {
        if (!c.done->load(std::memory_order_acquire)) ++active;
      }
      return stopping_ || active < options_.max_connections;
    });
    if (stopping_) return;  // channel destructor closes the accepted fd
    conns_.emplace_back();
    Conn& conn = conns_.back();
    conn.channel = channel;
    conn.done = std::make_shared<std::atomic<bool>>(false);
    auto done = conn.done;
    conn.thread = std::thread([this, channel, done] {
      ServeConnection(channel);
      // Shut the socket down now: the Conn entry (and its fd) is only reaped
      // on a later accept, and a peer draining until close must not wait for
      // that.
      channel->Abort();
      done->store(true, std::memory_order_release);
      cv_.notify_all();
    });
  }
}

void LineageService::ServeConnection(std::shared_ptr<TcpChannel> channel) {
  {
    std::lock_guard lock(serve_stats_mu_);
    ++counters_.connections;
  }
  LineageHello hello;
  hello.generation = generation_;
  if (!channel->SendFrame(EncodeLineageHello(hello))) return;

  std::vector<uint8_t> frame;
  for (;;) {
    try {
      if (!channel->RecvFrame(frame)) return;  // orderly close
    } catch (const std::exception&) {
      // Malformed length prefix: the stream is corrupt — disconnect.
      std::lock_guard lock(serve_stats_mu_);
      ++counters_.errors;
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    LineageResponse resp;
    bool stream_ok = true;
    try {
      resp = Execute(DecodeLineageRequest(frame));
    } catch (const std::exception& e) {
      // Undecodable request: answer a named error (request id unknowable),
      // then drop the connection — the byte stream may be out of sync.
      resp.ok = false;
      resp.error = e.what();
      stream_ok = false;
    }
    std::vector<uint8_t> out = EncodeLineageResponse(resp);
    const size_t out_bytes = out.size();
    const bool sent = channel->SendFrame(std::move(out));
    const double latency_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    RecordRequest(frame.size(), out_bytes, !resp.ok, latency_us);
    if (!sent || !stream_ok) return;
    if (resp.ok && resp.op == LineageOp::kShutdown) {
      // Honored remote shutdown: wake Wait(); the owner performs the Stop().
      std::lock_guard lock(mu_);
      shutdown_requested_ = true;
      cv_.notify_all();
      return;
    }
  }
}

LineageResponse LineageService::Execute(const LineageRequest& req) {
  LineageResponse resp;
  resp.op = req.op;
  resp.request_id = req.request_id;
  try {
    switch (req.op) {
      case LineageOp::kContributors:
        resp.entries = store_->Contributors(req.tuple_id);
        break;
      case LineageOp::kDerivedFrom:
        resp.entries = store_->DerivedFrom(req.tuple_id);
        break;
      case LineageOp::kExpand:
        resp.entries = store_->Expand(req.tuple_id, req.hops);
        break;
      case LineageOp::kLookup: {
        auto e = store_->Lookup(req.tuple_id);
        if (e.has_value()) resp.entries.push_back(std::move(*e));
        break;
      }
      case LineageOp::kRetainedRecordIds:
        resp.ids = store_->RetainedRecordIds();
        break;
      case LineageOp::kStats:
        resp.stats = store_->stats();
        break;
      case LineageOp::kSelect:
        resp.entries = store_->Select(req.predicate);
        break;
      case LineageOp::kShutdown:
        if (!options_.allow_remote_shutdown) {
          resp.ok = false;
          resp.error = "lineage service: remote shutdown disabled";
        }
        break;
    }
  } catch (const std::exception& e) {
    resp.entries.clear();
    resp.ids.clear();
    resp.ok = false;
    resp.error = e.what();
  }
  return resp;
}

void LineageService::RecordRequest(size_t in_bytes, size_t out_bytes,
                                   bool error, double latency_us) {
  std::lock_guard lock(serve_stats_mu_);
  ++counters_.requests;
  if (error) ++counters_.errors;
  counters_.bytes_received += in_bytes;
  counters_.bytes_sent += out_bytes;
  latency_us_.Add(latency_us);
}

void LineageService::Stop() {
  std::list<Conn> conns;
  std::thread accept_thread;
  int fd = -1;
  {
    std::unique_lock lock(mu_);
    if (!started_) return;
    if (!stopping_) {
      stopping_ = true;
      if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
      for (Conn& c : conns_) c.channel->Abort();
      cv_.notify_all();
    }
    accept_thread = std::move(accept_thread_);
    conns = std::move(conns_);
    conns_.clear();
    fd = listen_fd_;
    listen_fd_ = -1;
  }
  if (accept_thread.joinable()) accept_thread.join();
  for (Conn& c : conns) {
    if (c.thread.joinable()) c.thread.join();
  }
  if (fd >= 0) ::close(fd);
}

void LineageService::Wait() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [this] { return stopping_ || shutdown_requested_; });
}

bool LineageService::running() const {
  std::lock_guard lock(mu_);
  return started_ && !stopping_;
}

uint16_t LineageService::port() const {
  std::lock_guard lock(mu_);
  return port_;
}

std::string LineageService::address() const {
  return options_.host + ":" + std::to_string(port());
}

ServeStats LineageService::stats() const {
  std::lock_guard lock(serve_stats_mu_);
  ServeStats s = counters_;
  if (latency_us_.count() > 0) {
    s.latency_p50_us = latency_us_.percentile(50);
    s.latency_p99_us = latency_us_.percentile(99);
  }
  return s;
}

LineageClient::LineageClient(const std::string& addr) {
  const LineageServiceOptions target = ParseServeAddr(addr);
  sockaddr_in sa = MakeSockaddr(target.host, target.port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("lineage client: socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    throw std::runtime_error("lineage client: cannot connect to " + addr);
  }
  channel_ = std::make_unique<TcpChannel>(fd);
  std::vector<uint8_t> frame;
  if (!channel_->RecvFrame(frame)) {
    throw std::runtime_error("lineage client: connection closed before hello");
  }
  generation_ = DecodeLineageHello(frame).generation;
}

LineageResponse LineageClient::RoundTrip(LineageRequest req) {
  req.request_id = next_request_id_++;
  if (!channel_->SendFrame(EncodeLineageRequest(req))) {
    throw std::runtime_error("lineage client: connection lost while sending");
  }
  std::vector<uint8_t> frame;
  if (!channel_->RecvFrame(frame)) {
    throw std::runtime_error("lineage client: connection lost while waiting "
                             "for a response");
  }
  LineageResponse resp = DecodeLineageResponse(frame);
  if (!resp.ok) {
    throw std::runtime_error(
        std::string("lineage service error (") +
        LineageOpName(static_cast<uint8_t>(req.op)) + "): " + resp.error);
  }
  if (resp.request_id != req.request_id || resp.op != req.op) {
    throw std::runtime_error(
        "lineage client: response does not match the request in flight");
  }
  return resp;
}

std::vector<LineageClient::Entry> LineageClient::Contributors(
    uint64_t sink_tuple_id) {
  LineageRequest req;
  req.op = LineageOp::kContributors;
  req.tuple_id = sink_tuple_id;
  return RoundTrip(req).entries;
}

std::vector<LineageClient::Entry> LineageClient::DerivedFrom(
    uint64_t source_tuple_id) {
  LineageRequest req;
  req.op = LineageOp::kDerivedFrom;
  req.tuple_id = source_tuple_id;
  return RoundTrip(req).entries;
}

std::vector<LineageClient::Entry> LineageClient::Expand(uint64_t tuple_id,
                                                        int hops) {
  LineageRequest req;
  req.op = LineageOp::kExpand;
  req.tuple_id = tuple_id;
  req.hops = hops;
  return RoundTrip(req).entries;
}

std::optional<LineageClient::Entry> LineageClient::Lookup(uint64_t tuple_id) {
  LineageRequest req;
  req.op = LineageOp::kLookup;
  req.tuple_id = tuple_id;
  LineageResponse resp = RoundTrip(req);
  if (resp.entries.empty()) return std::nullopt;
  return std::move(resp.entries.front());
}

std::vector<uint64_t> LineageClient::RetainedRecordIds() {
  LineageRequest req;
  req.op = LineageOp::kRetainedRecordIds;
  return RoundTrip(req).ids;
}

std::vector<LineageClient::Entry> LineageClient::Select(
    const LineagePredicate& p) {
  LineageRequest req;
  req.op = LineageOp::kSelect;
  req.predicate = p;
  return RoundTrip(req).entries;
}

LineageStore::Stats LineageClient::Stats() {
  LineageRequest req;
  req.op = LineageOp::kStats;
  return RoundTrip(req).stats;
}

void LineageClient::Shutdown() {
  LineageRequest req;
  req.op = LineageOp::kShutdown;
  RoundTrip(req);
}

}  // namespace genealog
