#include "genealog/pull.h"

#include <stdexcept>

#include "common/wall_clock.h"
#include "genealog/unfolded.h"
#include "spe/stream_batch.h"

namespace genealog {
namespace {

// |a - b| > ws without overflowing on extreme timestamps.
bool FartherThan(int64_t a, int64_t b, int64_t ws) {
  const int64_t lo = a < b ? a : b;
  const int64_t hi = a < b ? b : a;
  return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) >
         static_cast<uint64_t>(ws);
}

constexpr size_t kPublishEvery = 256;

}  // namespace

// --- UServeNode --------------------------------------------------------------

UServeNode::UServeNode(std::string name, SuNode* su, ByteChannel* channel)
    : Node(std::move(name)),
      su_(su),
      index_(su->retention()),
      channel_(channel) {
  if (index_ == nullptr) {
    throw std::logic_error(this->name() + ": '" + su->name() +
                           "' is not a pull-mode SU");
  }
}

StepResult UServeNode::Step(size_t max_frames) {
  for (size_t n = 0; n < max_frames; ++n) {
    if (!channel_->RecvReverse(frame_)) {
      throw std::runtime_error(
          name() + ": request direction closed without a flush frame");
    }
    if (frame_[0] == static_cast<uint8_t>(FrameKind::kFlush)) {
      Finish();
      return StepResult::kDone;
    }
    PullRequest request;
    try {
      request = DecodeRequestFrame(frame_);
    } catch (const std::exception& e) {
      throw std::runtime_error(name() + ": malformed " +
                               FrameKindName(frame_[0]) + " frame (" +
                               std::to_string(frame_.size()) +
                               " bytes): " + e.what());
    }
    Serve(request);
  }
  return StepResult::kReady;
}

void UServeNode::Serve(const PullRequest& request) {
  out_.clear();
  for (const PullRequestEntry& e : request.entries) {
    TuplePtr delivering;
    if (!index_->Take(e.id, e.ts, delivering)) continue;
    // Timed like the push SU's unfold: the traversal is the per-tuple cost
    // Figure 14 studies, wherever it runs.
    const int64_t t0 = NowNanos();
    origins_.clear();
    FindProvenance(delivering.get(), origins_, scratch_);
    samples_.emplace_back(NanosToMillis(NowNanos() - t0),
                          static_cast<double>(origins_.size()));
    for (Tuple* o : origins_) {
      auto u = MakeUnfolded(delivering, o);
      u->id = NextTupleId();
      out_.push_back(std::move(u));
    }
  }
  if (samples_.size() >= kPublishEvery) {
    su_->PublishSamples(samples_);
    samples_.clear();
  }
  CountProcessed(out_.size());
  // Responses first, then the echoed watermark, in one frame: the MU sees
  // every origin asked for below W before W.
  for (std::vector<uint8_t>& frame : encoder_.EncodeBatch(
           std::span<const TuplePtr>(out_.data(), out_.size()),
           request.watermark, /*remotify=*/true)) {
    Send(std::move(frame));
  }
  out_.clear();
  if (request.watermark != kNoWatermark) {
    index_->AdvanceFrontier(request.watermark);
  }
}

void UServeNode::Send(std::vector<uint8_t> frame) {
  if (!channel_->SendFrame(std::move(frame))) {
    throw std::runtime_error(name() +
                             ": U channel closed by the provenance side");
  }
}

void UServeNode::Finish() {
  Send(encoder_.EncodeFlush());
  channel_->CloseSend();
  index_->Clear();
  su_->PublishSamples(samples_);
  samples_.clear();
}

// --- UDemand -------------------------------------------------------------------

UDemand::UDemand(std::string name, int64_t ws,
                 std::vector<Upstream> upstreams)
    : name_(std::move(name)),
      ws_(ws),
      upstreams_(std::move(upstreams)),
      last_watermark_(kNoWatermark) {}

void UDemand::Consider(const Tuple& t) {
  if (t.type_tag() != tags::kUnfolded) return;
  const auto& u = static_cast<const UnfoldedTuple&>(t);
  if (u.origin_kind == TupleKind::kSource) return;  // the MU forwards it
  // The MU's join pairs a derived tuple with an upstream one at most ws
  // apart in event time (whichever arrives second checks the gap); an
  // origin farther away would never match, so it is never asked for.
  if (FartherThan(u.ts, u.origin_ts, ws_)) return;
  if (asked_.insert(u.origin_id).second) {
    request_.entries.push_back({u.origin_id, u.origin_ts});
  }
}

void UDemand::OnFrame(const DecodedFrame& frame) {
  request_.entries.clear();
  asked_.clear();
  for (const TuplePtr& t : frame.tuples) Consider(*t);
  request_.watermark = kNoWatermark;
  if (frame.watermark != kNoWatermark && frame.watermark > last_watermark_) {
    request_.watermark = frame.watermark;
    last_watermark_ = frame.watermark;
  }
  if (request_.entries.empty() && request_.watermark == kNoWatermark) return;
  SendToAll(EncodeRequestFrame(request_), RawRequestFrameBytes(request_));
}

void UDemand::OnEnd() {
  const std::vector<uint8_t> flush = EncodeFlushFrame();
  SendToAll(flush, flush.size());
  for (const Upstream& up : upstreams_) up.channel->CloseReverse();
}

void UDemand::SendToAll(const std::vector<uint8_t>& frame,
                        uint64_t raw_bytes) {
  for (const Upstream& up : upstreams_) {
    if (!up.channel->SendReverse(frame)) {
      throw std::runtime_error(name_ + ": request direction of U channel " +
                               up.name + " is closed");
    }
    stats_.frames += 1;
    stats_.raw_bytes += raw_bytes;
    stats_.encoded_bytes += frame.size();
  }
}

}  // namespace genealog
