// Failure injection: a production engine must unwind cleanly — no deadlocks,
// no leaks, errors surfaced to the caller — when channels break mid-stream,
// frames are corrupted, or a remote peer disappears.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <thread>

#include "common/memory_accounting.h"
#include "net/channel.h"
#include "net/frame.h"
#include "net/send_receive.h"
#include "queries/query_helpers.h"
#include "spe/sink.h"
#include "spe/source.h"
#include "spe/stateless.h"
#include "spe/topology.h"
#include "testing/harness.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::Collector;
using testing::V;
using testing::ValueTuple;

std::vector<IntrusivePtr<ValueTuple>> Ramp(int n) {
  std::vector<IntrusivePtr<ValueTuple>> out;
  for (int i = 0; i < n; ++i) out.push_back(V(i, i));
  return out;
}

TEST(FailureTest, ReceiverFailsByNameWhenChannelClosesWithoutFlush) {
  // The sender dies (channel closed) before sending a flush frame: the run
  // must terminate, and fail with an error naming the Receive — read as an
  // end of stream, the close would let the run finish "cleanly" but short.
  InMemoryChannel channel;
  channel.SendFrame(EncodeBatchFrame(std::vector<TuplePtr>{V(1, 10)},
                                     kNoWatermark, false));
  channel.CloseSend();  // no flush frame

  Topology topo(2);
  auto* recv = topo.Add<ReceiveNode>("recv.data3", &channel);
  Collector c;
  auto* sink = c.AttachSink(topo);
  topo.Connect(recv, sink);
  Runner runner({&topo});
  runner.Start();
  try {
    runner.Join();
    FAIL() << "a close without flush read as a clean end of stream";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("recv.data3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("without a flush frame"),
              std::string::npos)
        << e.what();
  }
}

TEST(FailureTest, CorruptFrameFailsTheRunLoudly) {
  InMemoryChannel channel;
  channel.SendFrame({0x42, 0x13, 0x37});  // garbage
  channel.CloseSend();

  Topology topo(2);
  auto* recv = topo.Add<ReceiveNode>("recv", &channel);
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(recv, sink);
  Runner runner({&topo});
  runner.Start();
  EXPECT_THROW(runner.Join(), std::exception);
}

TEST(FailureTest, TruncatedBatchFrameFailsTheRunLoudly) {
  InMemoryChannel channel;
  auto frame = EncodeBatchFrame(std::vector<TuplePtr>{V(1, 10)}, kNoWatermark,
                                false);
  frame.resize(frame.size() / 2);
  channel.SendFrame(std::move(frame));
  channel.CloseSend();

  Topology topo(2);
  auto* recv = topo.Add<ReceiveNode>("recv", &channel);
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(recv, sink);
  Runner runner({&topo});
  runner.Start();
  EXPECT_THROW(runner.Join(), std::exception);
}

TEST(FailureTest, MalformedFrameErrorNamesNodeAndFrameKind) {
  // A corrupt frame must produce a diagnosable error: which Receive endpoint
  // saw it and what kind of frame it claimed to be.
  InMemoryChannel channel;
  std::vector<uint8_t> bogus = {
      static_cast<uint8_t>(FrameKind::kBatch), 0xFF, 0xFF, 0xFF};  // truncated
  channel.SendFrame(std::move(bogus));
  channel.CloseSend();

  Topology topo(2);
  auto* recv = topo.Add<ReceiveNode>("recv.U", &channel);
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(recv, sink);
  Runner runner({&topo});
  runner.Start();
  try {
    runner.Join();
    FAIL() << "corrupt frame did not fail the run";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("recv.U"), std::string::npos) << what;
    EXPECT_NE(what.find("batch"), std::string::npos) << what;
  }
}

TEST(FailureTest, CorruptCompactFrameErrorNamesTheCodec) {
  // A compact frame whose dictionary references dangle (mid-stream join)
  // must name the compact codec in the error, not decode garbage.
  FrameEncoder encoder(WireCodec::kCompact);
  std::vector<TuplePtr> batch = {V(1, 1)};
  encoder.EncodeBatch(batch, kNoWatermark, false);  // defines the dictionary
  auto frames = encoder.EncodeBatch(batch, kNoWatermark, false);  // references

  InMemoryChannel channel;
  channel.SendFrame(std::move(frames[0]));
  channel.CloseSend();
  Topology topo(2);
  auto* recv = topo.Add<ReceiveNode>("recv", &channel);
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(recv, sink);
  Runner runner({&topo});
  runner.Start();
  try {
    runner.Join();
    FAIL() << "dangling dictionary reference did not fail the run";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("recv"), std::string::npos) << what;
    EXPECT_NE(what.find("compact-batch"), std::string::npos) << what;
  }
}

TEST(FailureTest, TcpMalformedLengthPrefixThrowsNamedError) {
  // A zero or absurd length prefix is stream corruption, not end-of-stream:
  // RecvFrame must throw (named), never silently drop the connection.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  TcpChannel receiver(fds[0]);

  const uint32_t zero = 0;
  ASSERT_EQ(::send(fds[1], &zero, 4, 0), 4);
  std::vector<uint8_t> frame;
  try {
    receiver.RecvFrame(frame);
    FAIL() << "zero-length prefix did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed frame length"),
              std::string::npos);
  }
  ::close(fds[1]);
}

TEST(FailureTest, TcpPeerResetUnblocksBothSides) {
  auto [sender, receiver] = MakeTcpChannelPair();

  Topology sender_side(1);
  std::atomic<bool> stop{false};
  SourceOptions options;
  options.stop = &stop;
  options.replays = 1000000;
  options.replay_ts_shift = 100;
  auto* source =
      sender_side.Add<VectorSourceNode<ValueTuple>>("src", Ramp(100), options);
  auto* send = sender_side.Add<SendNode>("send", sender.get());
  sender_side.Connect(source, send);

  Topology receiver_side(2);
  auto* recv = receiver_side.Add<ReceiveNode>("recv", receiver.get());
  auto* sink = receiver_side.Add<SinkNode>("sink");
  receiver_side.Connect(recv, sink);

  Runner runner({&sender_side, &receiver_side});
  runner.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Kill the connection from the receiving end mid-stream.
  receiver->Abort();
  sender->Abort();
  stop.store(true);
  // Must terminate. SendNode drops frames once the connection is broken;
  // the Receive, whose stream ended without a flush frame, fails the run.
  try {
    runner.Join();
    ADD_FAILURE() << "a reset connection read as a clean end of stream";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("recv"), std::string::npos)
        << e.what();
  }
  EXPECT_GT(sink->count(), 0u);
}

TEST(FailureTest, NoTupleLeaksAfterMidStreamAbort) {
  const int64_t base = mem::LiveTupleCount();
  {
    InMemoryChannel channel(8);
    Topology instance1(1);
    Topology instance2(2);
    std::atomic<bool> stop{false};
    SourceOptions options;
    options.stop = &stop;
    options.replays = 100000;
    options.replay_ts_shift = 1000;
    auto* source = instance1.Add<VectorSourceNode<ValueTuple>>(
        "src", Ramp(1000), options);
    auto* send = instance1.Add<SendNode>("send", &channel);
    auto* recv = instance2.Add<ReceiveNode>("recv", &channel);
    auto* sink = instance2.Add<SinkNode>("sink");
    instance1.Connect(source, send);
    instance2.Connect(recv, sink);
    Runner runner({&instance1, &instance2});
    runner.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    channel.Abort();
    stop.store(true);
    EXPECT_THROW(runner.Join(), std::runtime_error);
  }
  EXPECT_EQ(mem::LiveTupleCount() - base, 0);
}

TEST(FailureTest, CrashInOneInstanceUnblocksChannelWaitersViaRegistration) {
  // Instance 2's operator throws mid-stream. Without channel registration the
  // Receive node (blocked on the channel) and hence Runner::Join would hang;
  // with it, the whole distributed run unwinds and rethrows.
  InMemoryChannel data_channel;
  InMemoryChannel idle_channel;  // nobody ever sends here

  Topology instance1(1);
  Topology instance2(2);
  std::atomic<bool> stop{false};
  SourceOptions options;
  options.stop = &stop;
  options.replays = 1000000;
  options.replay_ts_shift = 1000;
  auto* source =
      instance1.Add<VectorSourceNode<ValueTuple>>("src", Ramp(1000), options);
  auto* send = instance1.Add<SendNode>("send", &data_channel);
  instance1.Connect(source, send);

  auto* recv = instance2.Add<ReceiveNode>("recv", &data_channel);
  // A second receiver blocked forever on the idle channel: only the abort
  // registration can unblock it.
  auto* idle_recv = instance2.Add<ReceiveNode>("idle_recv", &idle_channel);
  auto* idle_sink = instance2.Add<SinkNode>("idle_sink");
  instance2.Connect(idle_recv, idle_sink);
  auto* bomb = instance2.Add<MapNode<ValueTuple, ValueTuple>>(
      "bomb", [](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        if (in.value == 500) throw std::runtime_error("operator crash");
        out.Emit(MakeTuple<ValueTuple>(0, in.value));
      });
  auto* sink = instance2.Add<SinkNode>("sink");
  instance2.Connect(recv, bomb);
  instance2.Connect(bomb, sink);

  instance1.RegisterAbortable(&data_channel);
  instance1.RegisterAbortable(&idle_channel);

  Runner runner({&instance1, &instance2});
  runner.Start();
  EXPECT_THROW(runner.Join(), std::runtime_error);
  stop.store(true);
}

TEST(FailureTest, AbortedDownstreamQueueStopsUpstreamGracefully) {
  // Simulates an operator crash: its input queue aborts; upstream emitters
  // observe the failed push and unwind without blocking forever.
  Topology topo;
  std::atomic<bool> stop{false};
  SourceOptions options;
  options.stop = &stop;
  options.replays = 1000000;
  options.replay_ts_shift = 10;
  auto* source = topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(10), options);
  auto* sink = topo.Add<SinkNode>("sink");
  topo.Connect(source, sink);
  Runner runner({&topo});
  runner.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  topo.AbortAll();
  runner.Join();
  SUCCEED();
}

// A Send whose channel refuses frames (closed or broken under it) stops
// encoding and aborts its own input, so its upstream stops too instead of
// replaying into a dead channel until teardown. The run ends without an
// error of the Send's own: the Receive on the far side names the failure.
TEST(FailureTest, RefusedFrameStopsSendAndItsUpstream) {
  InMemoryChannel channel(/*capacity_frames=*/4);
  Topology topo(1);
  SourceOptions options;
  options.replays = 2000;
  options.replay_ts_shift = 100;
  auto* source =
      topo.Add<VectorSourceNode<ValueTuple>>("src", Ramp(100), options);
  auto* send = topo.Add<SendNode>("send.data0", &channel);
  topo.Connect(source, send);
  // The far side reads a few frames, then the channel breaks.
  std::thread reader([&channel] {
    std::vector<uint8_t> frame;
    for (int i = 0; i < 8 && channel.RecvFrame(frame); ++i) {
    }
    channel.Abort();
  });
  Runner runner({&topo});
  runner.Start();
  EXPECT_NO_THROW(runner.Join());
  reader.join();
  const uint64_t replayed = 100u * 2000u;
  EXPECT_LT(source->tuples_processed(), replayed / 10);
}

// --- a distributed Q4 run loses a channel mid-run ----------------------------
//
// Q4 over three instances ships its meter readings from instance 1 over data
// channels and pulls its U stream from instance 1 over channel U0
// (genealog/pull.h). A channel end breaks mid-run, from the provenance
// sink's consumer after a few records: the run must end in an error naming
// the broken channel's node — not hang, not finish "cleanly" short or with
// records missing origins — and the provenance file must hold whole
// records, each one a record of the clean run.

sg::SmartGridData PullSg() {
  sg::SmartGridConfig config;
  config.n_meters = 40;
  config.n_days = 12;
  config.anomaly_probability = 0.15;
  config.seed = 5;
  return sg::GenerateSmartGrid(config);
}

std::string PullProvPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("genealog_pull_failure_" + tag + ".bin"))
      .string();
}

queries::QueryBuildOptions PullQ4(bool tcp, const std::string& file) {
  queries::QueryBuildOptions options;
  options.mode = ProvenanceMode::kGenealog;
  options.distributed = true;
  options.use_tcp = tcp;
  options.provenance_file = file;
  // Paced (about 0.3 s for the 11,520 readings), so the fourth record
  // finalizes while most of the stream is still to come: the break lands
  // mid-run, not after the channel ended.
  options.source.max_rate_tps = 40'000;
  return options;
}

// The channel end of Send or Receive node `node`.
ByteChannel* ChannelEndOf(const BuiltDataflow& flow, const std::string& node) {
  for (const auto& topology : flow.topologies) {
    for (const auto& n : topology->nodes()) {
      if (n->name() != node) continue;
      if (auto* recv = dynamic_cast<ReceiveNode*>(n.get())) {
        return recv->channel();
      }
      if (auto* send = dynamic_cast<SendNode*>(n.get())) {
        return send->channel();
      }
    }
  }
  return nullptr;
}

// Breaks the channel end of node `node` with `brk`, over in-memory and TCP
// channels; the run's error must contain `want_error`.
void BreakChannelMidRun(const std::string& tag, const std::string& node,
                        const std::string& want_error,
                        const std::function<void(ByteChannel*)>& brk) {
  const sg::SmartGridData data = PullSg();
  for (const bool tcp : {false, true}) {
    const std::string clean_path = PullProvPath(tag + "_clean");
    {
      BuiltDataflow clean =
          queries::BuildQ4Fluent(data, PullQ4(tcp, clean_path));
      clean.Run();
    }
    const auto reference = CanonicalProvenanceRecords(clean_path);
    ASSERT_GT(reference.size(), 20u);

    const std::string path = PullProvPath(tag);
    std::atomic<ByteChannel*> target{nullptr};
    std::atomic<int> seen{0};
    queries::QueryBuildOptions options = PullQ4(tcp, path);
    options.provenance_consumer = [&](const ProvenanceRecord&) {
      if (seen.fetch_add(1) == 3) brk(target.load());
    };
    {
      BuiltDataflow flow = queries::BuildQ4Fluent(data, std::move(options));
      target.store(ChannelEndOf(flow, node));
      ASSERT_NE(target.load(), nullptr);
      try {
        flow.Run();
        ADD_FAILURE() << "tcp " << tcp << ": the run survived a broken "
                      << node;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(want_error), std::string::npos)
            << "tcp " << tcp << ": " << e.what();
      }
    }
    std::vector<std::vector<uint8_t>> got;
    ASSERT_NO_THROW(got = CanonicalProvenanceRecords(path))
        << "tcp " << tcp << ": torn record in the provenance file";
    EXPECT_GE(got.size(), 4u);
    EXPECT_LT(got.size(), reference.size());
    for (const auto& record : got) {
      EXPECT_TRUE(std::binary_search(reference.begin(), reference.end(),
                                     record))
          << "tcp " << tcp << ": a record not in the clean run";
    }
    std::filesystem::remove(path);
    std::filesystem::remove(clean_path);
  }
}

TEST(FailureTest, PullUChannelAbortedFromTheProvenanceSide) {
  BreakChannelMidRun("abort", "recv.U0", "U0",
                     [](ByteChannel* ch) { ch->Abort(); });
}

TEST(FailureTest, PullRequestDirectionClosedWithoutFlush) {
  BreakChannelMidRun("close", "recv.U0", "U0",
                     [](ByteChannel* ch) { ch->CloseReverse(); });
}

// The edge closes data channel data0 without a flush frame: the data
// Receive fails the run by name, as a pulled U Receive does.
TEST(FailureTest, DataChannelClosedWithoutFlushFailsTheRun) {
  BreakChannelMidRun("data_close", "send.data0", "recv.data0",
                     [](ByteChannel* ch) { ch->CloseSend(); });
}

}  // namespace
}  // namespace genealog
