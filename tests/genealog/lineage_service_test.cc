// Lineage service end-to-end: a LineageClient against a served store must
// answer element-identically to the in-process LineageQuery — on a synthetic
// store and on a live Q1 (intra and distributed, querying *while* the
// topology runs) — and a hostile peer feeding the server malformed frames
// must get errors/disconnects, never a crash. Also covers Select over the
// wire, generation bumps across restarts, remote shutdown gating, and the
// bounded-connection accept loop.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "genealog/lineage_query.h"
#include "genealog/lineage_service.h"
#include "genealog/lineage_store.h"
#include "queries/query_helpers.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;

uint64_t MakeId(uint64_t node_uid, uint64_t seq) {
  return (node_uid << 40) | seq;
}

// A small diamond-shaped store: sources (uid 1/2) -> mid (uid 5) -> sink
// (uid 9), with event times spread for predicate tests.
std::shared_ptr<LineageStore> DiamondStore() {
  auto store = std::make_shared<LineageStore>();
  auto ingest = [&](uint64_t id, int64_t ts,
                    std::vector<std::pair<uint64_t, int64_t>> origins) {
    ProvenanceRecord rec;
    auto d = V(ts, static_cast<int64_t>(id & 0xffff));
    d->id = id;
    rec.derived = TuplePtr(d.get());
    rec.derived_id = id;
    rec.derived_ts = ts;
    for (const auto& [oid, ots] : origins) {
      auto o = V(ots, static_cast<int64_t>(oid & 0xffff));
      o->id = oid;
      rec.origins.push_back(TuplePtr(o.get()));
    }
    store->Ingest(rec);
  };
  ingest(MakeId(5, 1), 10, {{MakeId(1, 1), 1}, {MakeId(2, 1), 2}});
  ingest(MakeId(5, 2), 20, {{MakeId(1, 2), 11}, {MakeId(2, 2), 12}});
  ingest(MakeId(9, 1), 30, {{MakeId(5, 1), 10}, {MakeId(5, 2), 20}});
  return store;
}

std::vector<uint64_t> Ids(const std::vector<LineageStore::Entry>& entries) {
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) ids.push_back(e.id);
  return ids;
}

// Element-identical comparison of one id's full remote vs local answer
// surface: same ids, timestamps, type tags and payload bytes in the same
// order.
void ExpectSameEntries(const std::vector<LineageStore::Entry>& remote,
                       const std::vector<LineageStore::Entry>& local) {
  ASSERT_EQ(remote.size(), local.size());
  for (size_t i = 0; i < remote.size(); ++i) {
    EXPECT_EQ(remote[i].id, local[i].id);
    EXPECT_EQ(remote[i].ts, local[i].ts);
    EXPECT_EQ(remote[i].type_tag, local[i].type_tag);
    EXPECT_EQ(remote[i].tuple->DebugPayload(), local[i].tuple->DebugPayload());
  }
}

void ExpectSameStats(const LineageStore::Stats& remote,
                     const LineageStore::Stats& local) {
  EXPECT_EQ(remote.records_ingested, local.records_ingested);
  EXPECT_EQ(remote.records_retained, local.records_retained);
  EXPECT_EQ(remote.tuples_retained, local.tuples_retained);
  EXPECT_EQ(remote.edges_retained, local.edges_retained);
  EXPECT_EQ(remote.records_evicted, local.records_evicted);
  EXPECT_EQ(remote.epochs_evicted, local.epochs_evicted);
  EXPECT_EQ(remote.bytes_retained, local.bytes_retained);
  EXPECT_EQ(remote.node_uids, local.node_uids);
  EXPECT_EQ(remote.min_retained_ts, local.min_retained_ts);
  EXPECT_EQ(remote.max_retained_ts, local.max_retained_ts);
}

// The whole LineageQuery surface, remote vs in-process, for every id the
// store has ever seen plus a miss.
void ExpectRemoteMatchesLocal(LineageClient& client, const LineageQuery& local,
                              const std::vector<uint64_t>& probe_ids) {
  EXPECT_EQ(client.RetainedRecordIds(), local.RetainedRecordIds());
  ExpectSameStats(client.Stats(), local.Stats());
  for (const uint64_t id : probe_ids) {
    ExpectSameEntries(client.Contributors(id), local.Contributors(id));
    ExpectSameEntries(client.DerivedFrom(id), local.DerivedFrom(id));
    for (const int hops : {0, 1, 3}) {
      ExpectSameEntries(client.Expand(id, hops), local.Expand(id, hops));
    }
    const auto remote_hit = client.Lookup(id);
    const auto local_hit = local.Lookup(id);
    ASSERT_EQ(remote_hit.has_value(), local_hit.has_value()) << id;
    if (local_hit.has_value()) {
      EXPECT_EQ(remote_hit->id, local_hit->id);
      EXPECT_EQ(remote_hit->ts, local_hit->ts);
      EXPECT_EQ(remote_hit->tuple->DebugPayload(),
                local_hit->tuple->DebugPayload());
    }
  }
  EXPECT_FALSE(client.Lookup(0xdeadbeef).has_value());
}

TEST(LineageServiceTest, RemoteMatchesInProcessOnSyntheticStore) {
  auto store = DiamondStore();
  LineageService service(store);
  service.Start();
  EXPECT_TRUE(service.running());
  EXPECT_GT(service.port(), 0);

  LineageClient client(service.address());
  const LineageQuery local(store);
  std::vector<uint64_t> probes;
  for (uint64_t uid : {1, 2, 5, 9}) {
    probes.push_back(MakeId(uid, 1));
    probes.push_back(MakeId(uid, 2));
  }
  ExpectRemoteMatchesLocal(client, local, probes);

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_GT(stats.requests, 10u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_GT(stats.bytes_received, 0u);
  service.Stop();
  EXPECT_FALSE(service.running());
}

TEST(LineageServiceTest, SelectOverTheWireMatchesInProcess) {
  auto store = DiamondStore();
  LineageService service(store);
  service.Start();
  LineageClient client(service.address());
  const LineageQuery local(store);

  std::vector<LineagePredicate> predicates;
  predicates.push_back({});  // everything
  LineagePredicate span;
  span.min_ts = 5;
  span.max_ts = 20;
  predicates.push_back(span);
  LineagePredicate node;
  node.has_node_uid = true;
  node.node_uid = 5;
  predicates.push_back(node);
  LineagePredicate records;
  records.records_only = true;
  predicates.push_back(records);
  LineagePredicate limited;
  limited.limit = 2;
  predicates.push_back(limited);
  LineagePredicate empty;
  empty.min_ts = 1000;
  predicates.push_back(empty);

  for (const auto& p : predicates) {
    ExpectSameEntries(client.Select(p), local.Select(p));
  }
  // Semantics spot checks (the store-side unit test covers them in depth).
  // (ts, id) order: (5,1)@10, (1,2)@11, (2,2)@12, (5,2)@20.
  EXPECT_EQ(Ids(client.Select(span)),
            (std::vector<uint64_t>{MakeId(5, 1), MakeId(1, 2), MakeId(2, 2),
                                   MakeId(5, 2)}));
  EXPECT_EQ(Ids(client.Select(records)),
            (std::vector<uint64_t>{MakeId(5, 1), MakeId(5, 2), MakeId(9, 1)}));
  service.Stop();
}

TEST(LineageServiceTest, LiveQ1RemoteEqualsInProcess) {
  for (const bool distributed : {false, true}) {
    SCOPED_TRACE(distributed ? "distributed" : "intra");
    lr::LinearRoadConfig config;
    config.n_cars = 30;
    config.duration_s = 1800;
    config.stop_probability = 0.03;
    config.seed = 17;

    queries::QueryBuildOptions options;
    options.mode = ProvenanceMode::kGenealog;
    options.distributed = distributed;
    options.lineage_store = true;
    options.lineage_serve_addr = "127.0.0.1:0";  // ephemeral; engine-started
    auto q = queries::BuildQ1Fluent(lr::GenerateLinearRoad(config),
                              std::move(options));
    ASSERT_NE(q.lineage_service, nullptr);
    ASSERT_TRUE(q.lineage_service->running());

    // Query *while* the topology runs: a console thread hammering the
    // service concurrently with ingest (answers are snapshots, so only
    // liveness and sanity are checked here).
    std::thread console([&] {
      LineageClient during(q.lineage_service->address());
      for (int i = 0; i < 50; ++i) {
        const auto ids = during.RetainedRecordIds();
        for (const uint64_t id : ids) {
          during.Contributors(id);
          break;  // one per round trip keeps the loop fast
        }
        during.Stats();
      }
    });
    q.Run();
    console.join();

    // Drained: remote must now be element-identical to in-process across the
    // full surface.
    const LineageQuery local = q.lineage();
    LineageClient client(q.lineage_service->address());
    std::vector<uint64_t> probes = local.RetainedRecordIds();
    ASSERT_FALSE(probes.empty());
    for (const uint64_t id : local.RetainedRecordIds()) {
      const std::vector<uint64_t> src_ids = Ids(local.Contributors(id));
      probes.insert(probes.end(), src_ids.begin(), src_ids.end());
    }
    ExpectRemoteMatchesLocal(client, local, probes);
    ExpectSameEntries(client.Select({}), local.Select({}));
    EXPECT_EQ(q.lineage_service->stats().errors, 0u);
  }
}

TEST(LineageServiceTest, GenerationBumpsAcrossRestarts) {
  auto store = DiamondStore();
  uint8_t first_generation;
  std::string addr;
  {
    LineageService service(store);
    service.Start();
    addr = service.address();
    LineageClient client(service.address());
    first_generation = client.server_generation();
    service.Stop();
  }
  LineageService restarted(store);
  restarted.Start();
  LineageClient client(restarted.address());
  // A fresh incarnation: the console can tell it is not the server it first
  // attached to.
  EXPECT_NE(client.server_generation(), first_generation);
  restarted.Stop();
}

TEST(LineageServiceTest, RemoteShutdownIsGated) {
  auto store = DiamondStore();
  {
    LineageService service(store);  // default: shutdown disabled
    service.Start();
    LineageClient client(service.address());
    EXPECT_THROW(client.Shutdown(), std::runtime_error);
    client.Stats();  // connection still serves after the refused shutdown
    service.Stop();
  }
  LineageServiceOptions options;
  options.allow_remote_shutdown = true;
  LineageService service(store, options);
  service.Start();
  LineageClient client(service.address());
  client.Shutdown();
  service.Wait();  // returns because the shutdown was honored
  service.Stop();
  EXPECT_FALSE(service.running());
}

TEST(LineageServiceTest, ParseServeAddrForms) {
  EXPECT_EQ(ParseServeAddr("10.1.2.3:7841").host, "10.1.2.3");
  EXPECT_EQ(ParseServeAddr("10.1.2.3:7841").port, 7841);
  EXPECT_EQ(ParseServeAddr(":7841").host, "127.0.0.1");
  EXPECT_EQ(ParseServeAddr(":7841").port, 7841);
  EXPECT_EQ(ParseServeAddr("7841").port, 7841);
  EXPECT_EQ(ParseServeAddr("127.0.0.1:0").port, 0);
  EXPECT_THROW(ParseServeAddr(""), std::runtime_error);
  EXPECT_THROW(ParseServeAddr("host:notaport"), std::runtime_error);
  EXPECT_THROW(ParseServeAddr("host:99999"), std::runtime_error);
}

// Raw-socket hostile peer: sends bytes that are framed correctly (u32
// length prefix) but garbage inside, then bytes that violate the framing
// itself. The server must answer errors or drop the connection — and keep
// serving well-formed clients afterwards.
TEST(LineageServiceTest, HostileFramesGetErrorsNotCrashes) {
  auto store = DiamondStore();
  LineageService service(store);
  service.Start();

  auto connect = [&]() -> int {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(service.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  };
  auto send_framed = [](int fd, const std::vector<uint8_t>& body) {
    uint32_t len = static_cast<uint32_t>(body.size());
    uint8_t prefix[4];
    std::memcpy(prefix, &len, 4);
    EXPECT_EQ(::send(fd, prefix, 4, 0), 4);
    if (!body.empty()) {
      EXPECT_EQ(::send(fd, body.data(), body.size(), 0),
                static_cast<ssize_t>(body.size()));
    }
  };
  // Half-close after sending: a corrupted frame may still decode to a valid
  // request (a flipped id bit is just a different id), in which case the
  // server rightly answers and keeps serving — the write-side shutdown makes
  // it see EOF after the answer, so draining terminates either way.
  auto drain_until_close = [](int fd) {
    ::shutdown(fd, SHUT_WR);
    uint8_t buf[4096];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
  };

  std::mt19937_64 rng(23);
  // Garbage request bodies (valid framing): an error response (or decode
  // disconnect), with the service alive throughout.
  for (int trial = 0; trial < 50; ++trial) {
    const int fd = connect();
    std::vector<uint8_t> junk(1 + rng() % 64);
    for (auto& b : junk) b = static_cast<uint8_t>(rng());
    send_framed(fd, junk);
    drain_until_close(fd);
    ::close(fd);
  }
  // Truncated/corrupted well-formed requests.
  const std::vector<uint8_t> good =
      EncodeLineageRequest({LineageOp::kContributors, 1, MakeId(9, 1), 0, {}});
  for (size_t len = 0; len < good.size(); ++len) {
    const int fd = connect();
    send_framed(fd, std::vector<uint8_t>(good.begin(), good.begin() + len));
    drain_until_close(fd);
    ::close(fd);
  }
  for (int trial = 0; trial < 200; ++trial) {
    const int fd = connect();
    auto corrupt = good;
    corrupt[rng() % corrupt.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    send_framed(fd, corrupt);
    drain_until_close(fd);
    ::close(fd);
  }
  // Framing violation: a length prefix over the 64 MiB bound. The channel
  // rejects it before any allocation; connection drops.
  {
    const int fd = connect();
    uint32_t len = 0x7FFFFFFF;
    uint8_t prefix[4];
    std::memcpy(prefix, &len, 4);
    EXPECT_EQ(::send(fd, prefix, 4, 0), 4);
    drain_until_close(fd);
    ::close(fd);
  }

  // The service survived it all and still answers a well-formed client.
  LineageClient client(service.address());
  EXPECT_EQ(client.Stats().records_ingested, 3u);
  const ServeStats stats = service.stats();
  EXPECT_GT(stats.errors, 0u);
  service.Stop();
}

// More clients than connection slots: every client must still be answered
// (the accept loop parks rather than rejecting), across sequential waves.
TEST(LineageServiceTest, BoundedConnectionsServeAllClients) {
  auto store = DiamondStore();
  LineageServiceOptions options;
  options.max_connections = 2;
  LineageService service(store, options);
  service.Start();

  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      LineageClient client(service.address());
      for (int i = 0; i < 10; ++i) {
        if (client.Stats().records_ingested == 3u) ++answered;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), 80);
  EXPECT_EQ(service.stats().connections, 8u);
  service.Stop();
}

}  // namespace
}  // namespace genealog
