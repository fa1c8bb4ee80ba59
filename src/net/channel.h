// Byte channels between SPE instances.
//
// A channel is unidirectional and fully serializing: tuples are flattened to
// frames on the sending side and rebuilt as fresh objects on the receiving
// side, so pointers can never leak across the instance boundary — the
// property GeneaLog's inter-process design (§6) builds on.
//
// Two transports:
//  * InMemoryChannel — a bounded frame queue; same serialization work as the
//    network path without the kernel, for tests and deterministic benches;
//  * TcpChannel — real sockets over loopback (length-prefixed frames),
//    standing in for the paper's 3-node Ethernet testbed.
#ifndef GENEALOG_NET_CHANNEL_H_
#define GENEALOG_NET_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "spe/topology.h"

namespace genealog {

class ByteChannel : public Abortable {
 public:
  ~ByteChannel() override = default;

  // Blocking; returns false if the channel is closed or broken.
  virtual bool SendFrame(std::vector<uint8_t> frame) = 0;
  // Blocking; returns false on end-of-stream (sender closed) or error.
  virtual bool RecvFrame(std::vector<uint8_t>& frame) = 0;
  // Signals end-of-stream to the receiver; further sends fail.
  virtual void CloseSend() = 0;
  // Tears the channel down from either side (error paths).
  virtual void Abort() = 0;

  // Total payload bytes accepted by SendFrame, for network-volume metrics.
  virtual uint64_t bytes_sent() const = 0;
};

class InMemoryChannel final : public ByteChannel {
 public:
  explicit InMemoryChannel(size_t capacity_frames = 4096);

  bool SendFrame(std::vector<uint8_t> frame) override;
  bool RecvFrame(std::vector<uint8_t>& frame) override;
  void CloseSend() override;
  void Abort() override;
  uint64_t bytes_sent() const override;

 private:
  BoundedQueue<std::vector<uint8_t>> queue_;
  std::atomic<uint64_t> bytes_sent_{0};
};

class TcpChannel final : public ByteChannel {
 public:
  // Takes ownership of a connected socket.
  explicit TcpChannel(int fd);
  ~TcpChannel() override;

  bool SendFrame(std::vector<uint8_t> frame) override;
  // Throws std::runtime_error on a malformed length prefix (zero or above
  // the 64 MiB frame bound) — a corrupt stream must not read as a clean
  // end-of-stream.
  bool RecvFrame(std::vector<uint8_t>& frame) override;
  void CloseSend() override;
  void Abort() override;
  uint64_t bytes_sent() const override;

 private:
  int fd_;
  std::atomic<uint64_t> bytes_sent_{0};
};

// Creates a connected (sender, receiver) TCP pair over loopback.
std::pair<std::unique_ptr<TcpChannel>, std::unique_ptr<TcpChannel>>
MakeTcpChannelPair();

// The two ends of one logical inter-instance stream. For in-memory channels
// both handles are the same object; a TCP loopback pair has distinct
// sender/receiver objects.
struct ChannelEnds {
  ByteChannel* send;
  ByteChannel* recv;
};

// Allocates a channel into `channels` (owner) and returns its ends; the
// dataflow lowering (genealog/instrument.cc) places one per instance-crossing
// stream.
ChannelEnds AddChannelTo(std::vector<std::unique_ptr<ByteChannel>>& channels,
                         bool use_tcp);

// Runs `topologies` to completion after registering every channel as an
// abortable resource, so a failing node tears down socket/frame-queue waits
// along with the stream queues; rethrows the first node failure. The body of
// BuiltDataflow::Run.
void RunTopologies(const std::vector<std::unique_ptr<Topology>>& topologies,
                   const std::vector<std::unique_ptr<ByteChannel>>& channels);

}  // namespace genealog

#endif  // GENEALOG_NET_CHANNEL_H_
