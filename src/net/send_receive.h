// Send and Receive operators (§2): transmit tuples between SPE instances.
//
// Semantically they forward tuples; in implementation they create new memory
// objects on the receiving side. The instrumented Send writes kind = REMOTE
// on the wire unless the tuple is a SOURCE tuple (§4.1), which is how each
// process can locally distinguish tuples produced at other instances.
//
// The batched data plane crosses the wire batch-at-a-time: Send encodes
// each input StreamBatch as one compact frame (net/frame.h), and Receive
// replays a decoded batch tuple-by-tuple into its outputs, where the
// endpoint re-chunks to the receiving instance's batch knob.
//
// Every channel ends one way: Send's flush frame, then a close. A Receive
// whose channel closes without a flush frame fails the run with an error
// naming it — the sender went away mid-stream, and reading the close as an
// end of stream would let the run finish "cleanly" but short (and, on a
// pulled U stream, let the MU release derived tuples whose origins never
// came). A FrameTap sees every decoded frame before it is replayed; the
// MU-side demand step of the pull-based U streams (genealog/pull.h) reads
// the derived U stream this way.
#ifndef GENEALOG_NET_SEND_RECEIVE_H_
#define GENEALOG_NET_SEND_RECEIVE_H_

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "net/frame.h"
#include "spe/node.h"

namespace genealog {

class SendNode final : public SingleInputNode {
 public:
  // `channel` must outlive the node.
  SendNode(std::string name, ByteChannel* channel)
      : SingleInputNode(std::move(name)), channel_(channel) {}

  // Channel sends can block on the transport (TCP back-pressure), which a
  // shared worker must never do; Send keeps a home worker.
  bool NeedsDedicatedThread() const override { return true; }

  ByteChannel* channel() const { return channel_; }

  // Wire accounting for this node's channel: frames sent, the raw-codec
  // bytes the same input would have cost, and the bytes actually shipped.
  const WireStats& wire_stats() const { return encoder_.stats(); }

 protected:
  // Send overrides OnBatch, so SingleInputNode::Step never hands it a lone
  // tuple or watermark. A refused frame means the channel is closed or
  // broken: Send stops encoding and aborts its own input, so upstream stops
  // at its next push and Step returns kDone once the queue drains. It does
  // not throw: the peer's Receive fails the run by name.
  void OnBatch(StreamBatch& batch) override {
    if (refused_) return;
    for (std::vector<uint8_t>& frame : encoder_.EncodeBatch(
             std::span<const TuplePtr>(batch.tuples.data(),
                                       batch.tuples.size()),
             batch.watermark, /*remotify=*/true)) {
      if (!channel_->SendFrame(std::move(frame))) {
        refused_ = true;
        AbortQueues();
        return;
      }
    }
  }

  void OnTuple(TuplePtr) override {}

  void OnFlush() override {
    if (refused_) return;
    channel_->SendFrame(encoder_.EncodeFlush());
    channel_->CloseSend();
  }

 private:
  ByteChannel* channel_;
  FrameEncoder encoder_;
  bool refused_ = false;
};

// Observes a ReceiveNode's stream: OnFrame runs on the Receive's worker for
// every decoded batch frame before its tuples and watermark are replayed,
// OnEnd once at the stream's flush frame.
class FrameTap {
 public:
  virtual ~FrameTap() = default;
  virtual void OnFrame(const DecodedFrame& frame) = 0;
  virtual void OnEnd() = 0;
};

class ReceiveNode final : public Node {
 public:
  ReceiveNode(std::string name, ByteChannel* channel)
      : Node(std::move(name)), channel_(channel) {}

  // Blocks on the channel for each frame, so Receive keeps a home worker.
  bool NeedsDedicatedThread() const override { return true; }

  ByteChannel* channel() const { return channel_; }
  // Installs a tap; call before the node runs.
  void set_tap(std::unique_ptr<FrameTap> tap) { tap_ = std::move(tap); }

  // Replays up to `max_frames` frames into the outputs; a frame whose
  // emission spilled is the last one read this step.
  StepResult Step(size_t max_frames) override {
    for (size_t n = 0; n < max_frames && !HasSpills(); ++n) {
      if (!channel_->RecvFrame(frame_)) {
        throw std::runtime_error(name() +
                                 ": channel closed without a flush frame");
      }
      DecodedFrame decoded;
      try {
        decoded = decoder_.Decode(frame_);
      } catch (const std::exception& e) {
        // Name the channel endpoint and the claimed frame kind: a corrupt
        // frame must fail the run loudly, not read as a clean end-of-stream.
        throw std::runtime_error(
            name() + ": malformed " +
            FrameKindName(frame_.empty() ? 0 : frame_[0]) + " frame (" +
            std::to_string(frame_.size()) + " bytes): " + e.what());
      }
      if (tap_ != nullptr) {
        if (decoded.kind == FrameKind::kFlush) {
          tap_->OnEnd();
        } else {
          tap_->OnFrame(decoded);
        }
      }
      switch (decoded.kind) {
        case FrameKind::kBatch:
        case FrameKind::kCompactBatch:
          CountProcessed(decoded.tuples.size());
          for (TuplePtr& t : decoded.tuples) {
            if (!EmitTupleAll(std::move(t))) return StepResult::kDone;
          }
          if (decoded.watermark != kNoWatermark &&
              !ForwardWatermark(decoded.watermark)) {
            return StepResult::kDone;
          }
          break;
        case FrameKind::kFlush:
          EmitFlushAll();
          return StepResult::kDone;
        case FrameKind::kRequest:  // rejected by the decoder above
          break;
      }
    }
    return StepResult::kReady;
  }

 private:
  ByteChannel* channel_;
  std::unique_ptr<FrameTap> tap_;
  FrameDecoder decoder_;
  std::vector<uint8_t> frame_;
};

}  // namespace genealog

#endif  // GENEALOG_NET_SEND_RECEIVE_H_
