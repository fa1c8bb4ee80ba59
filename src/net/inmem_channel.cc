#include "net/channel.h"

namespace genealog {

// A zero-length frame is the end-of-stream sentinel: real frames always carry
// at least the FrameKind byte.

InMemoryChannel::InMemoryChannel(size_t capacity_frames)
    : queue_(capacity_frames) {}

bool InMemoryChannel::SendFrame(std::vector<uint8_t> frame) {
  if (frame.empty()) return false;
  bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
  return queue_.Push(std::move(frame));
}

bool InMemoryChannel::RecvFrame(std::vector<uint8_t>& frame) {
  std::optional<std::vector<uint8_t>> item = queue_.Pop();
  if (!item.has_value() || item->empty()) return false;
  frame = std::move(*item);
  return true;
}

void InMemoryChannel::CloseSend() { queue_.Push({}); }

void InMemoryChannel::Abort() { queue_.Abort(); }

uint64_t InMemoryChannel::bytes_sent() const {
  return bytes_sent_.load(std::memory_order_relaxed);
}

ChannelEnds AddChannelTo(std::vector<std::unique_ptr<ByteChannel>>& channels,
                         bool use_tcp) {
  if (use_tcp) {
    auto [sender, receiver] = MakeTcpChannelPair();
    ByteChannel* s = sender.get();
    ByteChannel* r = receiver.get();
    channels.push_back(std::move(sender));
    channels.push_back(std::move(receiver));
    return {s, r};
  }
  auto channel = std::make_unique<InMemoryChannel>();
  ByteChannel* c = channel.get();
  channels.push_back(std::move(channel));
  return {c, c};
}

void RunTopologies(const std::vector<std::unique_ptr<Topology>>& topologies,
                   const std::vector<std::unique_ptr<ByteChannel>>& channels) {
  if (!topologies.empty()) {
    for (const auto& channel : channels) {
      topologies.front()->RegisterAbortable(channel.get());
    }
  }
  std::vector<Topology*> raw;
  raw.reserve(topologies.size());
  for (const auto& t : topologies) raw.push_back(t.get());
  Runner runner(std::move(raw));
  runner.Start();
  runner.Join();
}

}  // namespace genealog
