// Send and Receive operators (§2): transmit tuples between SPE instances.
//
// Semantically they forward tuples; in implementation they create new memory
// objects on the receiving side. The instrumented Send writes kind = REMOTE
// on the wire unless the tuple is a SOURCE tuple (§4.1), which is how each
// process can locally distinguish tuples produced at other instances.
//
// The batched data plane crosses the wire batch-at-a-time: Send serializes
// each input StreamBatch through its FrameEncoder — under the raw codec a
// single frame per batch (legacy per-item frames when the batch degenerates
// to one event, so a batch-size-1 deployment is byte-identical to the
// unbatched engine), under the compact codec one kCompactBatch frame — and
// Receive replays a decoded batch tuple-by-tuple into its outputs, where the
// endpoint re-chunks to the receiving instance's batch knob. The codec knob
// lives on the Send side only; Receive decodes whatever each frame announces.
#ifndef GENEALOG_NET_SEND_RECEIVE_H_
#define GENEALOG_NET_SEND_RECEIVE_H_

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
  SendNode(std::string name, ByteChannel* channel,
           WireCodec codec = WireCodec::kRaw)
      : SingleInputNode(std::move(name)), channel_(channel), encoder_(codec) {}

  // Channel sends can block on the transport (TCP back-pressure), which a
  // pool task must never do; Send keeps a dedicated thread under the pool.
  bool NeedsDedicatedThread() const override { return true; }

  // Wire accounting for this node's channel: frames sent, the raw-codec
  // bytes the same input would have cost, and the bytes actually shipped.
  const WireStats& wire_stats() const { return encoder_.stats(); }

 protected:
  void OnBatch(StreamBatch& batch) override {
    for (std::vector<uint8_t>& frame : encoder_.EncodeBatch(
             std::span<const TuplePtr>(batch.tuples.data(),
                                       batch.tuples.size()),
             batch.watermark, /*remotify=*/true)) {
      channel_->SendFrame(std::move(frame));
    }
  }

  void OnTuple(TuplePtr t) override {
    channel_->SendFrame(encoder_.EncodeTuple(*t, /*remotify=*/true));
  }

  void OnWatermark(int64_t wm) override {
    channel_->SendFrame(encoder_.EncodeWatermark(wm));
  }

  void OnFlush() override {
    channel_->SendFrame(encoder_.EncodeFlush());
    channel_->CloseSend();
  }

 private:
  ByteChannel* channel_;
  FrameEncoder encoder_;
};

class ReceiveNode final : public Node {
 public:
  ReceiveNode(std::string name, ByteChannel* channel)
      : Node(std::move(name)), channel_(channel) {}

  // Blocks on the channel for each frame, so Receive keeps a dedicated
  // thread under the pool.
  bool NeedsDedicatedThread() const override { return true; }

  // Replays up to `max_frames` frames into the outputs.
  StepResult Step(size_t max_frames) override {
    for (size_t n = 0; n < max_frames; ++n) {
      if (!channel_->RecvFrame(frame_)) {
        // Channel closed without an explicit flush (sender aborted): still
        // propagate end-of-stream so the rest of the instance can unwind.
        EmitFlushAll();
        return StepResult::kDone;
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
      switch (decoded.kind) {
        case FrameKind::kTuple:
          CountProcessed();
          if (!EmitTupleAll(decoded.tuple)) return StepResult::kDone;
          break;
        case FrameKind::kBatch:
        case FrameKind::kCompactBatch:
          CountProcessed(decoded.tuples.size());
          for (TuplePtr& t : decoded.tuples) {
            if (!EmitTupleAll(t)) return StepResult::kDone;
          }
          if (decoded.watermark != kNoWatermark &&
              !ForwardWatermark(decoded.watermark)) {
            return StepResult::kDone;
          }
          break;
        case FrameKind::kWatermark:
          if (!ForwardWatermark(decoded.watermark)) return StepResult::kDone;
          break;
        case FrameKind::kFlush:
          EmitFlushAll();
          return StepResult::kDone;
      }
    }
    return StepResult::kReady;
  }

 private:
  ByteChannel* channel_;
  FrameDecoder decoder_;
  std::vector<uint8_t> frame_;
};

}  // namespace genealog

#endif  // GENEALOG_NET_SEND_RECEIVE_H_
