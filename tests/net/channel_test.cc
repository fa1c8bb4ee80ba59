#include "net/channel.h"

#include <gtest/gtest.h>

#include <thread>

#include "net/frame.h"
#include "net/send_receive.h"
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

TEST(FrameTest, BatchFrameRoundTrip) {
  auto t = V(5, 42);
  t->id = 99;
  t->kind = TupleKind::kAggregate;
  const std::vector<TuplePtr> batch = {t};
  DecodedFrame decoded =
      DecodeFrame(EncodeBatchFrame(batch, /*watermark=*/5, /*remotify=*/false));
  ASSERT_EQ(decoded.kind, FrameKind::kBatch);
  ASSERT_EQ(decoded.tuples.size(), 1u);
  EXPECT_EQ(decoded.tuples[0]->ts, 5);
  EXPECT_EQ(decoded.tuples[0]->id, 99u);
  EXPECT_EQ(decoded.tuples[0]->kind, TupleKind::kAggregate);
  EXPECT_EQ(static_cast<ValueTuple&>(*decoded.tuples[0]).value, 42);
  EXPECT_EQ(decoded.watermark, 5);
}

TEST(FrameTest, RemotifiedBatchFrame) {
  auto t = V(5, 42);
  t->kind = TupleKind::kMap;
  const std::vector<TuplePtr> batch = {t};
  DecodedFrame decoded =
      DecodeFrame(EncodeBatchFrame(batch, kNoWatermark, /*remotify=*/true));
  EXPECT_EQ(decoded.tuples[0]->kind, TupleKind::kRemote);
  EXPECT_EQ(decoded.watermark, kNoWatermark);
  EXPECT_EQ(t->kind, TupleKind::kMap);  // local object untouched
}

TEST(FrameTest, WatermarkOnlyBatchAndFlushFrames) {
  DecodedFrame wm = DecodeFrame(EncodeBatchFrame({}, -17, false));
  ASSERT_EQ(wm.kind, FrameKind::kBatch);
  EXPECT_TRUE(wm.tuples.empty());
  EXPECT_EQ(wm.watermark, -17);
  EXPECT_EQ(DecodeFrame(EncodeFlushFrame()).kind, FrameKind::kFlush);
}

TEST(FrameTest, RetiredPerEventFrameKindsAreRejected) {
  // Kinds 1 (a lone tuple) and 2 (a lone watermark) are no longer spoken.
  EXPECT_THROW(DecodeFrame({1, 0, 0}), std::runtime_error);
  EXPECT_THROW(DecodeFrame({2, 0, 0, 0, 0, 0, 0, 0, 0}), std::runtime_error);
  EXPECT_STREQ(FrameKindName(1), "unknown");
}

TEST(FrameTest, MalformedFrameThrows) {
  EXPECT_THROW(DecodeFrame({0x77}), std::runtime_error);
}

TEST(InMemoryChannelTest, FramesArriveInOrder) {
  InMemoryChannel channel(16);
  channel.SendFrame({1, 2, 3});
  channel.SendFrame({4, 5});
  std::vector<uint8_t> frame;
  ASSERT_TRUE(channel.RecvFrame(frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{1, 2, 3}));
  ASSERT_TRUE(channel.RecvFrame(frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{4, 5}));
}

TEST(InMemoryChannelTest, CloseSendDrainsThenEnds) {
  InMemoryChannel channel(16);
  channel.SendFrame({9});
  channel.CloseSend();
  std::vector<uint8_t> frame;
  EXPECT_TRUE(channel.RecvFrame(frame));
  EXPECT_FALSE(channel.RecvFrame(frame));
}

TEST(InMemoryChannelTest, CountsBytesSent) {
  InMemoryChannel channel(16);
  channel.SendFrame({1, 2, 3});
  channel.SendFrame({4});
  EXPECT_EQ(channel.bytes_sent(), 4u);
}

TEST(InMemoryChannelTest, AbortUnblocksReceiver) {
  InMemoryChannel channel(4);
  std::thread receiver([&] {
    std::vector<uint8_t> frame;
    EXPECT_FALSE(channel.RecvFrame(frame));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  channel.Abort();
  receiver.join();
}

TEST(TcpChannelTest, FramesCrossLoopback) {
  auto [sender, receiver] = MakeTcpChannelPair();
  ASSERT_TRUE(sender->SendFrame({1, 2, 3, 4, 5}));
  std::vector<uint8_t> frame;
  ASSERT_TRUE(receiver->RecvFrame(frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
}

TEST(TcpChannelTest, LargeFrame) {
  auto [sender, receiver] = MakeTcpChannelPair();
  std::vector<uint8_t> big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i);
  std::thread tx([&, s = sender.get()] {
    EXPECT_TRUE(s->SendFrame(big));
  });
  std::vector<uint8_t> frame;
  ASSERT_TRUE(receiver->RecvFrame(frame));
  tx.join();
  EXPECT_EQ(frame, big);
}

TEST(TcpChannelTest, CloseSendSignalsEndOfStream) {
  auto [sender, receiver] = MakeTcpChannelPair();
  sender->SendFrame({7});
  sender->CloseSend();
  std::vector<uint8_t> frame;
  EXPECT_TRUE(receiver->RecvFrame(frame));
  EXPECT_FALSE(receiver->RecvFrame(frame));
}

TEST(TcpChannelTest, MultiMiBFrameNeedingPartialWritesRoundTrips) {
  // 12 MiB is far past the socket buffers, and the receiver starts late: the
  // gather write must loop over partial writes and keep the length prefix
  // and the body in order.
  auto [sender, receiver] = MakeTcpChannelPair();
  std::vector<uint8_t> big(12u << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 7 + (i >> 16));
  }
  std::thread tx([&, s = sender.get()] {
    EXPECT_TRUE(s->SendFrame(big));
    EXPECT_TRUE(s->SendFrame({1, 2, 3}));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<uint8_t> frame;
  ASSERT_TRUE(receiver->RecvFrame(frame));
  EXPECT_TRUE(frame == big);
  ASSERT_TRUE(receiver->RecvFrame(frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{1, 2, 3}));
  tx.join();
  EXPECT_EQ(sender->bytes_sent(), big.size() + 3);
}

TEST(TcpChannelTest, FailedSendsAreNotCountedAsSent) {
  auto [sender, receiver] = MakeTcpChannelPair();
  receiver.reset();  // the peer is gone: writes fail once the RST lands
  const std::vector<uint8_t> chunk(64u << 10, 0xAB);
  uint64_t ok = 0;
  bool failed = false;
  for (int i = 0; i < 256 && !failed; ++i) {
    if (sender->SendFrame(chunk)) {
      ++ok;
    } else {
      failed = true;
    }
  }
  EXPECT_TRUE(failed);
  EXPECT_EQ(sender->bytes_sent(), ok * chunk.size());
}

TEST(TcpChannelTest, ReverseDirectionRidesTheSameConnection) {
  auto [sender, receiver] = MakeTcpChannelPair();
  ASSERT_TRUE(receiver->SendReverse({4, 2}));
  ASSERT_TRUE(sender->SendFrame({9}));
  std::vector<uint8_t> frame;
  ASSERT_TRUE(sender->RecvReverse(frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{4, 2}));
  ASSERT_TRUE(receiver->RecvFrame(frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{9}));
  // Closing the reverse direction leaves the forward one open.
  receiver->CloseReverse();
  EXPECT_FALSE(sender->RecvReverse(frame));
  ASSERT_TRUE(sender->SendFrame({8}));
  ASSERT_TRUE(receiver->RecvFrame(frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{8}));
  EXPECT_EQ(receiver->bytes_sent(), 2u);
}

TEST(InMemoryChannelTest, ReverseDirectionIsASecondQueue) {
  InMemoryChannel channel(16);
  ASSERT_TRUE(channel.SendFrame({1}));
  ASSERT_TRUE(channel.SendReverse({2, 2}));
  ASSERT_TRUE(channel.SendReverse({3}));
  std::vector<uint8_t> frame;
  ASSERT_TRUE(channel.RecvReverse(frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{2, 2}));
  ASSERT_TRUE(channel.RecvFrame(frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{1}));
  channel.CloseReverse();
  EXPECT_FALSE(channel.SendReverse({4}));  // sends after close fail
  ASSERT_TRUE(channel.RecvReverse(frame));
  EXPECT_EQ(frame, (std::vector<uint8_t>{3}));
  EXPECT_FALSE(channel.RecvReverse(frame));
  ASSERT_TRUE(channel.SendFrame({5}));  // forward unaffected
  EXPECT_EQ(channel.bytes_sent(), 5u);   // both directions
  channel.CloseSend();
  EXPECT_FALSE(channel.SendFrame({6}));
}

TEST(InMemoryChannelTest, AbortUnblocksTheReverseReader) {
  InMemoryChannel channel(4);
  std::thread reader([&] {
    std::vector<uint8_t> frame;
    EXPECT_FALSE(channel.RecvReverse(frame));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  channel.Abort();
  reader.join();
}

// --- Send/Receive operators across two instances ----------------------------

struct BridgeRun {
  Collector collector;
  uint64_t bytes = 0;
};

BridgeRun RunAcrossBridge(ByteChannel* send_end, ByteChannel* recv_end,
                          ProvenanceMode mode) {
  BridgeRun run;
  Topology instance1(1, mode);
  Topology instance2(2, mode);
  std::vector<IntrusivePtr<ValueTuple>> data;
  for (int i = 0; i < 100; ++i) data.push_back(V(i, i * 2));
  auto* source =
      instance1.Add<VectorSourceNode<ValueTuple>>("src", std::move(data));
  auto* map = instance1.Add<MapNode<ValueTuple, ValueTuple>>(
      "map", [](const ValueTuple& in, MapCollector<ValueTuple>& out) {
        out.Emit(MakeTuple<ValueTuple>(0, in.value + 1));
      });
  auto* send = instance1.Add<SendNode>("send", send_end);
  auto* recv = instance2.Add<ReceiveNode>("recv", recv_end);
  auto* sink = run.collector.AttachSink(instance2);
  instance1.Connect(source, map);
  instance1.Connect(map, send);
  instance2.Connect(recv, sink);
  Runner runner({&instance1, &instance2});
  runner.Start();
  runner.Join();
  run.bytes = send_end->bytes_sent();
  return run;
}

// The back-pressure rule at a Receive: a frame whose emission spilled is
// the last frame a Step reads; the rest waits in the channel until the
// spill drained.
TEST(SendReceiveTest, ReceiveStopsReadingFramesOnceAFrameSpilled) {
  InMemoryChannel channel;
  for (int64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(channel.SendFrame(EncodeBatchFrame(
        std::vector<TuplePtr>{V(i, i)}, kNoWatermark, /*remotify=*/true)));
  }
  ASSERT_TRUE(channel.SendFrame(EncodeFlushFrame()));
  ReceiveNode receive("recv", &channel);
  StreamQueue out(1);
  receive.AddOutput(Endpoint{&out, 0});
  std::vector<int64_t> delivered;
  auto take = [&] {
    while (auto batch = out.TryPop()) {
      for (const TuplePtr& t : batch->tuples) delivered.push_back(t->ts);
    }
  };

  // Frame 1 lands; frame 2's tuple finds the edge full and spills.
  ASSERT_EQ(receive.Step(32), StepResult::kReady);
  EXPECT_EQ(receive.tuples_processed(), 2u);
  EXPECT_TRUE(receive.HasSpills());
  // Room frees, the spill drains, and the next Step reads one more frame.
  take();
  ASSERT_TRUE(receive.DrainSpills());
  ASSERT_EQ(receive.Step(32), StepResult::kReady);
  EXPECT_EQ(receive.tuples_processed(), 3u);
  take();
  ASSERT_TRUE(receive.DrainSpills());
  ASSERT_EQ(receive.Step(32), StepResult::kDone);  // the flush frame
  take();
  EXPECT_EQ(delivered, (std::vector<int64_t>{1, 2, 3}));
}

TEST(SendReceiveTest, TuplesCrossInMemoryChannel) {
  InMemoryChannel channel;
  BridgeRun run = RunAcrossBridge(&channel, &channel, ProvenanceMode::kNone);
  ASSERT_EQ(run.collector.tuples().size(), 100u);
  EXPECT_EQ(run.collector.at<ValueTuple>(0).value, 1);
  EXPECT_EQ(run.collector.at<ValueTuple>(99).value, 199);
  EXPECT_GT(run.bytes, 0u);
}

TEST(SendReceiveTest, TuplesCrossTcpChannel) {
  auto [sender, receiver] = MakeTcpChannelPair();
  BridgeRun run =
      RunAcrossBridge(sender.get(), receiver.get(), ProvenanceMode::kNone);
  ASSERT_EQ(run.collector.tuples().size(), 100u);
  EXPECT_EQ(run.collector.at<ValueTuple>(99).value, 199);
}

TEST(SendReceiveTest, CreatedTuplesBecomeRemote) {
  InMemoryChannel channel;
  BridgeRun run =
      RunAcrossBridge(&channel, &channel, ProvenanceMode::kGenealog);
  ASSERT_EQ(run.collector.tuples().size(), 100u);
  // Map-created tuples arrive as REMOTE with no meta pointers.
  EXPECT_EQ(run.collector.tuples()[0]->kind, TupleKind::kRemote);
  EXPECT_EQ(run.collector.tuples()[0]->u1(), nullptr);
}

TEST(SendReceiveTest, IdsPreservedAcrossBoundary) {
  InMemoryChannel channel;
  Topology instance1(1);
  Topology instance2(2);
  auto* source = instance1.Add<VectorSourceNode<ValueTuple>>(
      "src", std::vector<IntrusivePtr<ValueTuple>>{V(1, 10), V(2, 20)});
  auto* send = instance1.Add<SendNode>("send", &channel);
  auto* recv = instance2.Add<ReceiveNode>("recv", &channel);
  Collector received;
  auto* sink = received.AttachSink(instance2);
  instance1.Connect(source, send);
  instance2.Connect(recv, sink);
  Runner runner({&instance1, &instance2});
  runner.Start();
  runner.Join();

  ASSERT_EQ(received.tuples().size(), 2u);
  EXPECT_NE(received.tuples()[0]->id, 0u);
  EXPECT_NE(received.tuples()[0]->id, received.tuples()[1]->id);
  // Source tuples keep their SOURCE kind across the boundary (§4.1).
  EXPECT_EQ(received.tuples()[0]->kind, TupleKind::kSource);
}

TEST(SendReceiveTest, AnnotationsCrossBoundary) {
  InMemoryChannel channel;
  Topology instance1(1, ProvenanceMode::kBaseline);
  Topology instance2(2, ProvenanceMode::kBaseline);
  auto* source = instance1.Add<VectorSourceNode<ValueTuple>>(
      "src", std::vector<IntrusivePtr<ValueTuple>>{V(1, 10)});
  auto* send = instance1.Add<SendNode>("send", &channel);
  auto* recv = instance2.Add<ReceiveNode>("recv", &channel);
  Collector received;
  auto* sink = received.AttachSink(instance2);
  instance1.Connect(source, send);
  instance2.Connect(recv, sink);
  Runner runner({&instance1, &instance2});
  runner.Start();
  runner.Join();

  ASSERT_EQ(received.tuples().size(), 1u);
  ASSERT_NE(received.tuples()[0]->baseline_annotation(), nullptr);
  EXPECT_EQ(received.tuples()[0]->baseline_annotation()->size(), 1u);
}

TEST(SendReceiveTest, WatermarksDriveDownstreamMerges) {
  // Two bridged streams merged by a Union at instance 2: the merge can only
  // progress if watermarks cross the channels.
  InMemoryChannel ch_a;
  InMemoryChannel ch_b;
  Topology instance1(1);
  Topology instance2(2);
  std::vector<IntrusivePtr<ValueTuple>> da;
  std::vector<IntrusivePtr<ValueTuple>> db;
  for (int i = 0; i < 50; ++i) {
    da.push_back(V(2 * i, i));
    db.push_back(V(2 * i + 1, 100 + i));
  }
  auto* sa = instance1.Add<VectorSourceNode<ValueTuple>>("sa", std::move(da));
  auto* sb = instance1.Add<VectorSourceNode<ValueTuple>>("sb", std::move(db));
  auto* send_a = instance1.Add<SendNode>("send_a", &ch_a);
  auto* send_b = instance1.Add<SendNode>("send_b", &ch_b);
  auto* recv_a = instance2.Add<ReceiveNode>("recv_a", &ch_a);
  auto* recv_b = instance2.Add<ReceiveNode>("recv_b", &ch_b);
  auto* merge = instance2.Add<UnionNode>("union");
  Collector collector;
  auto* sink = collector.AttachSink(instance2);
  instance1.Connect(sa, send_a);
  instance1.Connect(sb, send_b);
  instance2.Connect(recv_a, merge);
  instance2.Connect(recv_b, merge);
  instance2.Connect(merge, sink);
  Runner runner({&instance1, &instance2});
  runner.Start();
  runner.Join();

  ASSERT_EQ(collector.tuples().size(), 100u);
  const auto ts = collector.Timestamps();
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  EXPECT_EQ(ts.front(), 0);
  EXPECT_EQ(ts.back(), 99);
}

}  // namespace
}  // namespace genealog
