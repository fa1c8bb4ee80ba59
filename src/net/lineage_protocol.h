// Typed request/response frames for serving LineageQuery over a ByteChannel.
//
// The lineage service (genealog/lineage_service.h) speaks a small
// length-prefixed protocol on top of the same frame/channel layer the data
// plane uses (TcpChannel adds the u32 length prefix and the 64 MiB frame
// bound). Three message kinds:
//
//   hello     u8 kHello | u32 magic | u8 version | u8 generation
//   request   u8 kRequest | u8 op | varint request_id | op-specific args
//   response  u8 kResponse | u8 op | varint request_id | u8 status | u8 flags
//             | body
//
// The server sends one hello per connection; magic and version reject
// cross-protocol and cross-release connects, and the generation byte (bumped
// per service incarnation, like the compact codec's per-reset generation)
// lets a reconnecting client detect that it is talking to a restarted server
// rather than the one it first attached to. Requests and responses are
// self-contained — no cross-frame dictionaries or delta state — so a
// reconnect mid-conversation can never desynchronize decoding.
//
// Encodings reuse the compact codec's varint/zigzag primitives (net/frame.h).
// Entry lists ship each tuple through SerializeTuple (self-delimiting; id,
// ts and type_tag are recovered from the tuple itself), record-id lists are
// zigzag-delta coded, and response bodies ship as encoded: every flags bit
// is reserved (version 1 used bit 0 for an LZ-compressed body, which version
// 2 dropped). Every decoder rejects unknown message kinds/ops/flags,
// oversized declared counts and trailing bytes with named
// std::runtime_error / std::out_of_range — hostile frames must never crash
// or over-allocate either side.
#ifndef GENEALOG_NET_LINEAGE_PROTOCOL_H_
#define GENEALOG_NET_LINEAGE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "genealog/lineage_store.h"

namespace genealog {

inline constexpr uint32_t kLineageProtocolMagic = 0x31514C47;  // "GLQ1"
inline constexpr uint8_t kLineageProtocolVersion = 2;

enum class LineageMsg : uint8_t {
  kHello = 1,
  kRequest = 2,
  kResponse = 3,
};

// One opcode per LineageQuery method, plus the opt-in remote shutdown the
// CLI serve/connect pair uses for deterministic teardown.
enum class LineageOp : uint8_t {
  kContributors = 1,
  kDerivedFrom = 2,
  kExpand = 3,
  kLookup = 4,
  kRetainedRecordIds = 5,
  kStats = 6,
  kSelect = 7,
  kShutdown = 8,
};

// Human-readable op name for error messages; unknown values name themselves
// "unknown".
const char* LineageOpName(uint8_t op);

struct LineageHello {
  uint8_t version = kLineageProtocolVersion;
  uint8_t generation = 0;
};

struct LineageRequest {
  LineageOp op = LineageOp::kStats;
  uint64_t request_id = 0;
  uint64_t tuple_id = 0;        // Contributors / DerivedFrom / Expand / Lookup
  int32_t hops = 0;             // Expand (negative clamps to 0 on encode)
  LineagePredicate predicate;   // Select
};

struct LineageResponse {
  LineageOp op = LineageOp::kStats;
  uint64_t request_id = 0;
  bool ok = true;
  std::string error;  // set when !ok
  // Entry-list ops (Contributors/DerivedFrom/Expand/Select; Lookup uses 0 or
  // 1 entries for miss/hit).
  std::vector<LineageStore::Entry> entries;
  std::vector<uint64_t> ids;   // RetainedRecordIds
  LineageStore::Stats stats;   // Stats
};

std::vector<uint8_t> EncodeLineageHello(const LineageHello& hello);
LineageHello DecodeLineageHello(const std::vector<uint8_t>& frame);

std::vector<uint8_t> EncodeLineageRequest(const LineageRequest& req);
LineageRequest DecodeLineageRequest(const std::vector<uint8_t>& frame);

std::vector<uint8_t> EncodeLineageResponse(const LineageResponse& resp);
LineageResponse DecodeLineageResponse(const std::vector<uint8_t>& frame);

}  // namespace genealog

#endif  // GENEALOG_NET_LINEAGE_PROTOCOL_H_
