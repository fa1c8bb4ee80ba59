// Pull-based U streams — an extension of the paper's §6 protocol.
//
// In §6 every instance-crossing SU pushes the unfolded stream of every
// delivering tuple to the MU, which keeps only the tuples the sink's U stream
// names as REMOTE origins. The pull form ships only those:
//
//   edge (crossing instance)                provenance instance
//   SU.sendK  (pull mode, genealog/su.h)
//     SO -> send.dataK (unchanged)
//     retains delivering tuples  <--- requests ---  recv.U_sink + UDemand
//   send.UK = UServeNode            (reverse direction of the U channel)
//     unfolds requested tuples  --- responses --->  recv.UK -> MU port K
//
//  * UDemand taps the derived (sink-side) U stream as its frames arrive,
//    ahead of the MU's merge. For each frame it sends every upstream edge one
//    request: the REMOTE origin ids the frame names (with their origin_ts),
//    plus the frame's watermark W. Requests are broadcast; an edge answers
//    the ids it holds. An origin farther than ws from its derived tuple in
//    event time is never asked for: the MU's join would not match it.
//  * UServeNode, on its own thread at the edge, serves each request in
//    order: it unfolds the requested tuples through the SU's Unfolder (the
//    pull-mode SU itself never unfolds, so the serving thread is its one
//    writer and the SU's traversal stats are exact after the run), ships
//    them forward on the U channel in one compact frame (the structural U
//    form), which also echoes W as the response stream's watermark. After
//    the echo it evicts every retained tuple with ts + ws < W.
//
// Watermark contract. The derived stream is sorted, so every derived tuple
// with ts < W arrived before W, its requests went out before W, and their
// responses precede W's echo on the (FIFO) U channel. The MU merges in
// (ts, port) order below the minimum port watermark, so it never releases a
// derived tuple before the origins requested for it, and the unchanged
// MuNode join matches exactly what the push form matched. The echo lags the
// derived watermark by one round trip, never by ws. Eviction is safe for
// the same reason: a later request comes from a derived tuple with
// ts >= W and names an origin with ts >= ts - ws >= W - ws.
//
// The composed Figure 5B/8 construction (EngineOptions::composed_unfolders)
// stays the paper's literal push form.
#ifndef GENEALOG_GENEALOG_PULL_H_
#define GENEALOG_GENEALOG_PULL_H_

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "genealog/su.h"
#include "net/channel.h"
#include "net/frame.h"
#include "net/send_receive.h"

namespace genealog {

// The edge serving node of one pull-based U channel: reads requests from
// the channel's reverse direction and answers them from `su`'s retention
// index, unfolding through `su`'s Unfolder. It has no stream inputs or
// outputs; it ends when the request direction ends with a flush frame,
// forwarding the flush and releasing what the index still holds.
class UServeNode final : public Node {
 public:
  // `channel` is the sending end of the U channel and must outlive the node;
  // `su` must be a pull-mode SU.
  UServeNode(std::string name, SuNode* su, ByteChannel* channel);

  // Blocks on the channel in both directions.
  bool NeedsDedicatedThread() const override { return true; }

  // Serves up to `max_frames` request frames.
  StepResult Step(size_t max_frames) override;

  // Forward (response) frames: the U tuples shipped plus echoed watermarks.
  const WireStats& wire_stats() const { return encoder_.stats(); }

 private:
  void Serve(const PullRequest& request);
  void Send(std::vector<uint8_t> frame);
  void Finish();

  RetentionIndex* index_;
  Unfolder& unfolder_;
  ByteChannel* channel_;
  FrameEncoder encoder_;
  std::vector<TuplePtr> out_;
  std::vector<uint8_t> frame_;
};

// The provenance-side demand step: a FrameTap on the Receive node of the
// derived U stream.
class UDemand final : public FrameTap {
 public:
  struct Upstream {
    std::string name;      // channel tag, for error messages ("U0")
    ByteChannel* channel;  // receiving end of that U channel
  };

  // `name` prefixes error messages; `ws` is the MU's join window.
  UDemand(std::string name, int64_t ws, std::vector<Upstream> upstreams);

  void OnFrame(const DecodedFrame& frame) override;
  // Ends every request direction: a flush frame, then close.
  void OnEnd() override;

  // Request frames sent, over all upstreams.
  const WireStats& wire_stats() const { return stats_; }

 private:
  void Consider(const Tuple& t);
  void SendToAll(const std::vector<uint8_t>& frame, uint64_t raw_bytes);

  std::string name_;
  int64_t ws_;
  std::vector<Upstream> upstreams_;
  WireStats stats_;
  int64_t last_watermark_;
  PullRequest request_;
  std::unordered_set<uint64_t> asked_;  // ids in request_, for dedup
};

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_PULL_H_
