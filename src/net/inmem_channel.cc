#include "net/channel.h"

namespace genealog {

// A zero-length frame is the end-of-stream sentinel: real frames always carry
// at least the FrameKind byte.

InMemoryChannel::InMemoryChannel(size_t capacity_frames)
    : forward_(capacity_frames), reverse_(capacity_frames) {}

bool InMemoryChannel::Direction::Send(std::vector<uint8_t> frame,
                                      std::atomic<uint64_t>& bytes) {
  if (frame.empty() || closed.load(std::memory_order_acquire)) return false;
  const size_t n = frame.size();
  if (!queue.Push(std::move(frame))) return false;
  bytes.fetch_add(n, std::memory_order_relaxed);
  return true;
}

bool InMemoryChannel::Direction::Recv(std::vector<uint8_t>& frame) {
  std::optional<std::vector<uint8_t>> item = queue.Pop();
  if (!item.has_value() || item->empty()) return false;
  frame = std::move(*item);
  return true;
}

void InMemoryChannel::Direction::Close() {
  closed.store(true, std::memory_order_release);
  queue.Push({});
}

bool InMemoryChannel::SendFrame(std::vector<uint8_t> frame) {
  return forward_.Send(std::move(frame), bytes_sent_);
}

bool InMemoryChannel::RecvFrame(std::vector<uint8_t>& frame) {
  return forward_.Recv(frame);
}

void InMemoryChannel::CloseSend() { forward_.Close(); }

void InMemoryChannel::Abort() {
  forward_.queue.Abort();
  reverse_.queue.Abort();
}

bool InMemoryChannel::SendReverse(std::vector<uint8_t> frame) {
  return reverse_.Send(std::move(frame), bytes_sent_);
}

bool InMemoryChannel::RecvReverse(std::vector<uint8_t>& frame) {
  return reverse_.Recv(frame);
}

void InMemoryChannel::CloseReverse() { reverse_.Close(); }

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
