#include "net/lineage_protocol.h"

#include <stdexcept>
#include <utility>

#include "net/frame.h"

namespace genealog {
namespace {

// Response header flags: none are defined, every bit is reserved.
constexpr uint8_t kResponseFlags = 0;

constexpr uint8_t kStatusOk = 0;
constexpr uint8_t kStatusError = 1;

bool IsEntryListOp(LineageOp op) {
  switch (op) {
    case LineageOp::kContributors:
    case LineageOp::kDerivedFrom:
    case LineageOp::kExpand:
    case LineageOp::kLookup:
    case LineageOp::kSelect:
      return true;
    default:
      return false;
  }
}

LineageOp CheckedOp(uint8_t op) {
  if (op < static_cast<uint8_t>(LineageOp::kContributors) ||
      op > static_cast<uint8_t>(LineageOp::kShutdown)) {
    throw std::runtime_error("lineage protocol: unknown op " +
                             std::to_string(op));
  }
  return static_cast<LineageOp>(op);
}

void CheckMsg(ByteReader& r, LineageMsg expected, const char* what) {
  const uint8_t msg = r.GetU8();
  if (msg != static_cast<uint8_t>(expected)) {
    throw std::runtime_error(std::string("lineage protocol: expected ") +
                             what + " frame, got message kind " +
                             std::to_string(msg));
  }
}

void CheckAtEnd(const ByteReader& r, const char* what) {
  if (!r.AtEnd()) {
    throw std::runtime_error(std::string("lineage protocol: trailing bytes "
                                         "after ") +
                             what);
  }
}

void PutEntries(ByteWriter& w,
                const std::vector<LineageStore::Entry>& entries) {
  PutVarint(w, entries.size());
  for (const LineageStore::Entry& e : entries) {
    SerializeTuple(*e.tuple, w);
  }
}

std::vector<LineageStore::Entry> GetEntries(ByteReader& r) {
  const uint64_t count = GetVarint(r);
  if (count > r.remaining()) {
    // Every serialized tuple costs at least one byte, so a count above the
    // remaining byte budget is hostile — reject before reserving.
    throw std::runtime_error("lineage protocol: entry count " +
                             std::to_string(count) + " exceeds frame");
  }
  std::vector<LineageStore::Entry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    LineageStore::Entry e;
    e.tuple = DeserializeTuple(r);
    e.id = e.tuple->id;
    e.ts = e.tuple->ts;
    e.type_tag = e.tuple->type_tag();
    entries.push_back(std::move(e));
  }
  return entries;
}

void PutStats(ByteWriter& w, const LineageStore::Stats& s) {
  PutVarint(w, s.records_ingested);
  PutVarint(w, s.records_retained);
  PutVarint(w, s.tuples_retained);
  PutVarint(w, s.edges_retained);
  PutVarint(w, s.records_evicted);
  PutVarint(w, s.epochs_evicted);
  PutVarint(w, s.bytes_retained);
  PutVarint(w, s.node_uids);
  PutZigzag(w, s.min_retained_ts);
  PutZigzag(w, s.max_retained_ts);
}

LineageStore::Stats GetStats(ByteReader& r) {
  LineageStore::Stats s;
  s.records_ingested = GetVarint(r);
  s.records_retained = GetVarint(r);
  s.tuples_retained = GetVarint(r);
  s.edges_retained = GetVarint(r);
  s.records_evicted = GetVarint(r);
  s.epochs_evicted = GetVarint(r);
  s.bytes_retained = GetVarint(r);
  s.node_uids = GetVarint(r);
  s.min_retained_ts = GetZigzag(r);
  s.max_retained_ts = GetZigzag(r);
  return s;
}

}  // namespace

const char* LineageOpName(uint8_t op) {
  switch (static_cast<LineageOp>(op)) {
    case LineageOp::kContributors:
      return "contributors";
    case LineageOp::kDerivedFrom:
      return "derived-from";
    case LineageOp::kExpand:
      return "expand";
    case LineageOp::kLookup:
      return "lookup";
    case LineageOp::kRetainedRecordIds:
      return "retained-record-ids";
    case LineageOp::kStats:
      return "stats";
    case LineageOp::kSelect:
      return "select";
    case LineageOp::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

std::vector<uint8_t> EncodeLineageHello(const LineageHello& hello) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(LineageMsg::kHello));
  w.PutU32(kLineageProtocolMagic);
  w.PutU8(hello.version);
  w.PutU8(hello.generation);
  return w.TakeBytes();
}

LineageHello DecodeLineageHello(const std::vector<uint8_t>& frame) {
  ByteReader r(frame);
  CheckMsg(r, LineageMsg::kHello, "hello");
  const uint32_t magic = r.GetU32();
  if (magic != kLineageProtocolMagic) {
    throw std::runtime_error(
        "lineage protocol: bad hello magic (not a lineage service?)");
  }
  LineageHello hello;
  hello.version = r.GetU8();
  if (hello.version != kLineageProtocolVersion) {
    throw std::runtime_error("lineage protocol: unsupported version " +
                             std::to_string(hello.version));
  }
  hello.generation = r.GetU8();
  CheckAtEnd(r, "hello");
  return hello;
}

std::vector<uint8_t> EncodeLineageRequest(const LineageRequest& req) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(LineageMsg::kRequest));
  w.PutU8(static_cast<uint8_t>(req.op));
  PutVarint(w, req.request_id);
  switch (req.op) {
    case LineageOp::kContributors:
    case LineageOp::kDerivedFrom:
    case LineageOp::kLookup:
      PutVarint(w, req.tuple_id);
      break;
    case LineageOp::kExpand:
      PutVarint(w, req.tuple_id);
      PutVarint(w, req.hops < 0 ? 0 : static_cast<uint64_t>(req.hops));
      break;
    case LineageOp::kSelect:
      PutZigzag(w, req.predicate.min_ts);
      PutZigzag(w, req.predicate.max_ts);
      w.PutU8(req.predicate.has_node_uid ? 1 : 0);
      if (req.predicate.has_node_uid) PutVarint(w, req.predicate.node_uid);
      w.PutU8(req.predicate.records_only ? 1 : 0);
      PutVarint(w, req.predicate.limit);
      break;
    case LineageOp::kRetainedRecordIds:
    case LineageOp::kStats:
    case LineageOp::kShutdown:
      break;
  }
  return w.TakeBytes();
}

LineageRequest DecodeLineageRequest(const std::vector<uint8_t>& frame) {
  ByteReader r(frame);
  CheckMsg(r, LineageMsg::kRequest, "request");
  LineageRequest req;
  req.op = CheckedOp(r.GetU8());
  req.request_id = GetVarint(r);
  switch (req.op) {
    case LineageOp::kContributors:
    case LineageOp::kDerivedFrom:
    case LineageOp::kLookup:
      req.tuple_id = GetVarint(r);
      break;
    case LineageOp::kExpand: {
      req.tuple_id = GetVarint(r);
      const uint64_t hops = GetVarint(r);
      if (hops > INT32_MAX) {
        throw std::runtime_error("lineage protocol: expand hop count " +
                                 std::to_string(hops) + " out of range");
      }
      req.hops = static_cast<int32_t>(hops);
      break;
    }
    case LineageOp::kSelect:
      req.predicate.min_ts = GetZigzag(r);
      req.predicate.max_ts = GetZigzag(r);
      req.predicate.has_node_uid = r.GetU8() != 0;
      if (req.predicate.has_node_uid) req.predicate.node_uid = GetVarint(r);
      req.predicate.records_only = r.GetU8() != 0;
      req.predicate.limit = GetVarint(r);
      break;
    case LineageOp::kRetainedRecordIds:
    case LineageOp::kStats:
    case LineageOp::kShutdown:
      break;
  }
  CheckAtEnd(r, "request");
  return req;
}

std::vector<uint8_t> EncodeLineageResponse(const LineageResponse& resp) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(LineageMsg::kResponse));
  w.PutU8(static_cast<uint8_t>(resp.op));
  PutVarint(w, resp.request_id);
  w.PutU8(resp.ok ? kStatusOk : kStatusError);
  w.PutU8(kResponseFlags);
  if (!resp.ok) {
    w.PutString(resp.error);
  } else if (IsEntryListOp(resp.op)) {
    PutEntries(w, resp.entries);
  } else if (resp.op == LineageOp::kRetainedRecordIds) {
    PutVarint(w, resp.ids.size());
    uint64_t prev = 0;
    for (const uint64_t id : resp.ids) {
      PutZigzag(w, static_cast<int64_t>(id - prev));
      prev = id;
    }
  } else if (resp.op == LineageOp::kStats) {
    PutStats(w, resp.stats);
  }
  // kShutdown: empty body.
  return w.TakeBytes();
}

LineageResponse DecodeLineageResponse(const std::vector<uint8_t>& frame) {
  ByteReader r(frame);
  CheckMsg(r, LineageMsg::kResponse, "response");
  LineageResponse resp;
  resp.op = CheckedOp(r.GetU8());
  resp.request_id = GetVarint(r);
  const uint8_t status = r.GetU8();
  if (status != kStatusOk && status != kStatusError) {
    throw std::runtime_error("lineage protocol: unknown response status " +
                             std::to_string(status));
  }
  resp.ok = status == kStatusOk;
  const uint8_t flags = r.GetU8();
  if (flags != kResponseFlags) {
    throw std::runtime_error("lineage protocol: unknown response flags " +
                             std::to_string(flags));
  }

  if (!resp.ok) {
    resp.error = r.GetString();
  } else if (IsEntryListOp(resp.op)) {
    resp.entries = GetEntries(r);
  } else if (resp.op == LineageOp::kRetainedRecordIds) {
    const uint64_t count = GetVarint(r);
    if (count > r.remaining()) {
      throw std::runtime_error("lineage protocol: id count " +
                               std::to_string(count) + " exceeds frame");
    }
    resp.ids.reserve(count);
    uint64_t prev = 0;
    for (uint64_t i = 0; i < count; ++i) {
      prev += static_cast<uint64_t>(GetZigzag(r));
      resp.ids.push_back(prev);
    }
  } else if (resp.op == LineageOp::kStats) {
    resp.stats = GetStats(r);
  }
  CheckAtEnd(r, "response body");
  return resp;
}

}  // namespace genealog
