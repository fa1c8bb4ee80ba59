// Byte channels between SPE instances.
//
// A channel carries one stream and is fully serializing: tuples are
// flattened to frames on the sending side and rebuilt as fresh objects on the
// receiving side, so pointers can never leak across the instance boundary —
// the property GeneaLog's inter-process design (§6) builds on.
//
// Data flows sender -> receiver (SendFrame / RecvFrame). A channel also has a
// reverse direction, receiver -> sender (SendReverse / RecvReverse), which
// only the pull-based U streams use: the provenance instance sends its
// requests back over the U channel whose responses it reads
// (genealog/pull.h), so pull needs no extra channel.
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

  // The reverse direction. Called on the receiving end (SendReverse,
  // CloseReverse) and the sending end (RecvReverse), with the same blocking
  // and end-of-stream contract as the forward calls.
  virtual bool SendReverse(std::vector<uint8_t> frame) = 0;
  virtual bool RecvReverse(std::vector<uint8_t>& frame) = 0;
  virtual void CloseReverse() = 0;

  // Total payload bytes written by this end in both directions, counted once
  // the write succeeded, for network-volume metrics.
  virtual uint64_t bytes_sent() const = 0;
};

class InMemoryChannel final : public ByteChannel {
 public:
  explicit InMemoryChannel(size_t capacity_frames = 4096);

  bool SendFrame(std::vector<uint8_t> frame) override;
  bool RecvFrame(std::vector<uint8_t>& frame) override;
  void CloseSend() override;
  void Abort() override;
  bool SendReverse(std::vector<uint8_t> frame) override;
  bool RecvReverse(std::vector<uint8_t>& frame) override;
  void CloseReverse() override;
  uint64_t bytes_sent() const override;

 private:
  // One frame queue per direction; a zero-length frame is the end-of-stream
  // sentinel, and sends after it fail.
  struct Direction {
    explicit Direction(size_t capacity) : queue(capacity) {}
    bool Send(std::vector<uint8_t> frame, std::atomic<uint64_t>& bytes);
    bool Recv(std::vector<uint8_t>& frame);
    void Close();

    BoundedQueue<std::vector<uint8_t>> queue;
    std::atomic<bool> closed{false};
  };

  Direction forward_;
  Direction reverse_;
  std::atomic<uint64_t> bytes_sent_{0};
};

// One end of a TCP connection. A socket is full duplex, so each end object
// sends and receives on its one fd: the reverse calls are the forward calls
// made from the other end (SendReverse on the receiving end writes the frames
// the sending end's RecvReverse reads).
class TcpChannel final : public ByteChannel {
 public:
  // Takes ownership of a connected socket.
  explicit TcpChannel(int fd);
  ~TcpChannel() override;

  // Writes the length prefix and the body with one gather write (looping on
  // partial writes), so a small frame leaves as one segment.
  bool SendFrame(std::vector<uint8_t> frame) override;
  // Throws std::runtime_error on a malformed length prefix (zero or above
  // the 64 MiB frame bound) — a corrupt stream must not read as a clean
  // end-of-stream.
  bool RecvFrame(std::vector<uint8_t>& frame) override;
  void CloseSend() override;
  void Abort() override;
  bool SendReverse(std::vector<uint8_t> frame) override {
    return SendFrame(std::move(frame));
  }
  bool RecvReverse(std::vector<uint8_t>& frame) override {
    return RecvFrame(frame);
  }
  void CloseReverse() override { CloseSend(); }
  uint64_t bytes_sent() const override;

 private:
  int fd_;
  std::atomic<uint64_t> bytes_sent_{0};
};

// A listening TCP socket: socket, SO_REUSEADDR, bind, listen, then
// getsockname for the bound port. On failure `fd` is -1 and `failed` names
// the step ("socket()", "bind/listen" or "getsockname"), so each caller can
// word its own error.
struct TcpListener {
  int fd = -1;
  uint16_t port = 0;  // the bound port (the ephemeral one for port 0)
  const char* failed = nullptr;
};
// `addr` is an IPv4 address in network byte order, `port` in host order.
TcpListener ListenTcp(uint32_t addr, uint16_t port, int backlog);

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
