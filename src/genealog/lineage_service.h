// Remote lineage serving: LineageQuery over TCP, and its client mirror.
//
// A LineageService binds a loopback/LAN endpoint and answers the full
// LineageQuery surface (Contributors, DerivedFrom, Expand, Lookup,
// RetainedRecordIds, Stats, Select) against a shared LineageStore — the one a
// running BuiltDataflow maintains online, or one rebuilt offline
// by ReplayProvenanceFile / LoadSnapshot. Wire format:
// net/lineage_protocol.h over the same length-prefixed TcpChannel framing the
// data plane uses, so the transport-level hostile-input guards (frame bound,
// malformed-length rejection) apply unchanged.
//
// Threading. One accept thread plus one thread per live connection, bounded
// by LineageServiceOptions::max_connections — the accept loop parks until a
// slot frees instead of spawning unboundedly. Every request executes under
// the store's shared lock (queries run concurrently with ingest, exactly
// like in-process callers), so serving while the topology runs is the
// normal case, not a special one. Stop() aborts the listener and every live
// channel, then joins all threads; a request that decodes but fails executes
// answers a named error response, while an undecodable frame gets a
// best-effort error response and a disconnect (the byte stream can no longer
// be trusted).
//
// The client is deliberately synchronous and single-stream: one request in
// flight per LineageClient, methods mirroring LineageQuery one for one. Not
// thread-safe — give each thread its own client (connections are cheap;
// every request is self-contained, see the protocol header).
#ifndef GENEALOG_GENEALOG_LINEAGE_SERVICE_H_
#define GENEALOG_GENEALOG_LINEAGE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "genealog/lineage_store.h"
#include "net/channel.h"
#include "net/lineage_protocol.h"

namespace genealog {

// Per-service request accounting, exposed while serving and after Stop().
struct ServeStats {
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t errors = 0;  // malformed frames + failed executions
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  // Request handling latency (decode -> response encoded), microseconds.
  double latency_p50_us = 0;
  double latency_p99_us = 0;
};

struct LineageServiceOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; see LineageService::port()
  // Upper bound on concurrent connection-serving threads; the accept loop
  // parks when every slot is busy.
  size_t max_connections = 4;
  // Honor the kShutdown op (CLI serve/connect pairs and tests use it for
  // deterministic teardown); off by default — a remote peer must not be able
  // to stop an operator console's service unasked.
  bool allow_remote_shutdown = false;
};

// Splits "host:port" (e.g. "127.0.0.1:7841"); host defaults to 127.0.0.1
// when the string is just ":port" or a bare port. Throws std::runtime_error
// on an unparseable address.
LineageServiceOptions ParseServeAddr(const std::string& addr);

class LineageService {
 public:
  explicit LineageService(std::shared_ptr<const LineageStore> store,
                          LineageServiceOptions options = {});
  ~LineageService();  // Stop()s if still running

  LineageService(const LineageService&) = delete;
  LineageService& operator=(const LineageService&) = delete;

  // Binds, listens and starts the accept thread. Throws std::runtime_error
  // if the endpoint cannot be bound.
  void Start();
  // Idempotent: aborts the listener and every live connection, joins all
  // threads.
  void Stop();
  // Blocks until Stop() is called or a remote shutdown request is honored.
  // Does not itself stop the service — the owner calls Stop() (or destroys
  // the service) afterwards.
  void Wait();

  bool running() const;
  // The bound port (the ephemeral choice when options.port was 0); valid
  // after Start().
  uint16_t port() const;
  // "host:port" with the bound port.
  std::string address() const;
  ServeStats stats() const;

 private:
  void AcceptLoop(int listen_fd);
  void ServeConnection(std::shared_ptr<TcpChannel> channel);
  LineageResponse Execute(const LineageRequest& req);
  void RecordRequest(size_t in_bytes, size_t out_bytes, bool error,
                     double latency_us);

  struct Conn {
    std::thread thread;
    std::shared_ptr<TcpChannel> channel;
    std::shared_ptr<std::atomic<bool>> done;
  };

  const std::shared_ptr<const LineageStore> store_;
  const LineageServiceOptions options_;
  const uint8_t generation_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
  std::list<Conn> conns_;

  mutable std::mutex serve_stats_mu_;
  ServeStats counters_;
  SampleStats latency_us_;
};

// Synchronous remote mirror of LineageQuery. The constructor connects and
// validates the server hello (magic + version); every method round-trips one
// request. A server-side failure or protocol violation throws
// std::runtime_error — a missing tuple id is not a failure (empty result /
// nullopt, same as in-process).
class LineageClient {
 public:
  using Entry = LineageStore::Entry;

  // `addr` is "host:port" as for ParseServeAddr.
  explicit LineageClient(const std::string& addr);

  // The server's generation byte from the hello — changes when the service
  // restarts, letting a reconnecting console detect it is no longer talking
  // to the incarnation it first attached to.
  uint8_t server_generation() const { return generation_; }

  std::vector<Entry> Contributors(uint64_t sink_tuple_id);
  std::vector<Entry> DerivedFrom(uint64_t source_tuple_id);
  std::vector<Entry> Expand(uint64_t tuple_id, int hops);
  std::optional<Entry> Lookup(uint64_t tuple_id);
  std::vector<uint64_t> RetainedRecordIds();
  std::vector<Entry> Select(const LineagePredicate& p);
  LineageStore::Stats Stats();
  // Asks the server to stop serving (requires
  // LineageServiceOptions::allow_remote_shutdown; throws otherwise).
  void Shutdown();

 private:
  LineageResponse RoundTrip(LineageRequest req);

  std::unique_ptr<TcpChannel> channel_;
  uint64_t next_request_id_ = 1;
  uint8_t generation_ = 0;
};

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_LINEAGE_SERVICE_H_
