// Lineage protocol: every message kind must round-trip exactly, and hostile
// bytes — truncated prefixes, random byte flips, oversized declared counts,
// reserved flags, retired protocol versions — must be rejected with named
// errors or decode to something valid, never crash or over-allocate (same
// contract and fuzz style as frame_codec_test).
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "net/frame.h"
#include "net/lineage_protocol.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::V;

LineageStore::Entry MakeEntry(uint64_t id, int64_t ts, int64_t value) {
  LineageStore::Entry e;
  e.tuple = V(ts, value);
  e.tuple->id = id;
  e.id = id;
  e.ts = ts;
  e.type_tag = e.tuple->type_tag();
  return e;
}

// Canonical byte form of an entry list (ids/ts/type tags are recovered from
// the serialized tuples, so tuple bytes are the whole comparison).
std::vector<uint8_t> CanonicalEntries(
    const std::vector<LineageStore::Entry>& entries) {
  ByteWriter w;
  for (const auto& e : entries) SerializeTuple(*e.tuple, w);
  return w.TakeBytes();
}

TEST(LineageProtocolTest, HelloRoundTrips) {
  LineageHello hello;
  hello.generation = 42;
  const auto frame = EncodeLineageHello(hello);
  const LineageHello decoded = DecodeLineageHello(frame);
  EXPECT_EQ(decoded.version, kLineageProtocolVersion);
  EXPECT_EQ(decoded.generation, 42);
}

TEST(LineageProtocolTest, HelloRejectsWrongMagicAndVersion) {
  auto frame = EncodeLineageHello({});
  auto bad_magic = frame;
  bad_magic[1] ^= 0xFF;  // kind byte, then magic
  EXPECT_THROW(DecodeLineageHello(bad_magic), std::runtime_error);
  auto bad_version = frame;
  bad_version[5] ^= 0xFF;
  EXPECT_THROW(DecodeLineageHello(bad_version), std::runtime_error);
  auto wrong_kind = frame;
  wrong_kind[0] = static_cast<uint8_t>(LineageMsg::kRequest);
  EXPECT_ANY_THROW(DecodeLineageHello(wrong_kind));
}

TEST(LineageProtocolTest, RequestsRoundTripEveryOp) {
  for (const LineageOp op :
       {LineageOp::kContributors, LineageOp::kDerivedFrom, LineageOp::kExpand,
        LineageOp::kLookup, LineageOp::kRetainedRecordIds, LineageOp::kStats,
        LineageOp::kSelect, LineageOp::kShutdown}) {
    LineageRequest req;
    req.op = op;
    req.request_id = 0x1234567;
    req.tuple_id = 0xABCDEF0123ull;
    req.hops = 3;
    req.predicate.min_ts = -100;
    req.predicate.max_ts = 100;
    req.predicate.has_node_uid = true;
    req.predicate.node_uid = 9;
    req.predicate.records_only = true;
    req.predicate.limit = 17;

    const LineageRequest decoded =
        DecodeLineageRequest(EncodeLineageRequest(req));
    EXPECT_EQ(decoded.op, op);
    EXPECT_EQ(decoded.request_id, req.request_id);
    switch (op) {
      case LineageOp::kContributors:
      case LineageOp::kDerivedFrom:
      case LineageOp::kLookup:
        EXPECT_EQ(decoded.tuple_id, req.tuple_id);
        break;
      case LineageOp::kExpand:
        EXPECT_EQ(decoded.tuple_id, req.tuple_id);
        EXPECT_EQ(decoded.hops, 3);
        break;
      case LineageOp::kSelect:
        EXPECT_EQ(decoded.predicate.min_ts, -100);
        EXPECT_EQ(decoded.predicate.max_ts, 100);
        EXPECT_TRUE(decoded.predicate.has_node_uid);
        EXPECT_EQ(decoded.predicate.node_uid, 9u);
        EXPECT_TRUE(decoded.predicate.records_only);
        EXPECT_EQ(decoded.predicate.limit, 17u);
        break;
      default:
        break;  // no args
    }
  }
}

TEST(LineageProtocolTest, EntryListResponsesRoundTrip) {
  LineageResponse resp;
  resp.op = LineageOp::kContributors;
  resp.request_id = 7;
  for (int i = 0; i < 64; ++i) {
    resp.entries.push_back(
        MakeEntry((uint64_t{3} << 40) | static_cast<uint64_t>(i), 100 + i,
                  i % 4));
  }
  const LineageResponse decoded =
      DecodeLineageResponse(EncodeLineageResponse(resp));
  EXPECT_EQ(decoded.op, LineageOp::kContributors);
  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_TRUE(decoded.ok);
  ASSERT_EQ(decoded.entries.size(), resp.entries.size());
  EXPECT_EQ(CanonicalEntries(decoded.entries), CanonicalEntries(resp.entries));
  for (size_t i = 0; i < decoded.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].id, resp.entries[i].id);
    EXPECT_EQ(decoded.entries[i].ts, resp.entries[i].ts);
    EXPECT_EQ(decoded.entries[i].type_tag, resp.entries[i].type_tag);
  }
}

TEST(LineageProtocolTest, IdStatsAndErrorResponsesRoundTrip) {
  LineageResponse ids;
  ids.op = LineageOp::kRetainedRecordIds;
  ids.request_id = 1;
  // Deliberately unsorted: delta coding must not assume monotone ids.
  ids.ids = {500, 3, 0xFFFFFFFFFFull, 3, 7};
  const LineageResponse ids_decoded =
      DecodeLineageResponse(EncodeLineageResponse(ids));
  EXPECT_EQ(ids_decoded.ids, ids.ids);

  LineageResponse stats;
  stats.op = LineageOp::kStats;
  stats.request_id = 2;
  stats.stats.records_ingested = 1000;
  stats.stats.records_retained = 900;
  stats.stats.tuples_retained = 5000;
  stats.stats.edges_retained = 4100;
  stats.stats.records_evicted = 100;
  stats.stats.epochs_evicted = 3;
  stats.stats.bytes_retained = 123456;
  stats.stats.node_uids = 7;
  stats.stats.min_retained_ts = -5;
  stats.stats.max_retained_ts = 995;
  const LineageResponse stats_decoded =
      DecodeLineageResponse(EncodeLineageResponse(stats));
  EXPECT_EQ(stats_decoded.stats.records_ingested, 1000u);
  EXPECT_EQ(stats_decoded.stats.records_retained, 900u);
  EXPECT_EQ(stats_decoded.stats.tuples_retained, 5000u);
  EXPECT_EQ(stats_decoded.stats.edges_retained, 4100u);
  EXPECT_EQ(stats_decoded.stats.records_evicted, 100u);
  EXPECT_EQ(stats_decoded.stats.epochs_evicted, 3u);
  EXPECT_EQ(stats_decoded.stats.bytes_retained, 123456u);
  EXPECT_EQ(stats_decoded.stats.node_uids, 7u);
  EXPECT_EQ(stats_decoded.stats.min_retained_ts, -5);
  EXPECT_EQ(stats_decoded.stats.max_retained_ts, 995);

  LineageResponse err;
  err.op = LineageOp::kExpand;
  err.request_id = 3;
  err.ok = false;
  err.error = "store evicted the epoch";
  const LineageResponse err_decoded =
      DecodeLineageResponse(EncodeLineageResponse(err));
  EXPECT_FALSE(err_decoded.ok);
  EXPECT_EQ(err_decoded.error, "store evicted the epoch");
}

TEST(LineageProtocolTest, TruncatedFramesAreRejected) {
  // Each frame paired with the decoder that must reject every strict prefix.
  using Decode = void (*)(const std::vector<uint8_t>&);
  std::vector<std::pair<std::vector<uint8_t>, Decode>> cases;
  cases.emplace_back(EncodeLineageHello({}), +[](const std::vector<uint8_t>& f) {
    DecodeLineageHello(f);
  });
  LineageRequest req;
  req.op = LineageOp::kSelect;
  req.request_id = 99;
  req.predicate.has_node_uid = true;
  cases.emplace_back(EncodeLineageRequest(req),
                     +[](const std::vector<uint8_t>& f) {
                       DecodeLineageRequest(f);
                     });
  LineageResponse resp;
  resp.op = LineageOp::kLookup;
  resp.request_id = 99;
  resp.entries.push_back(MakeEntry(1, 2, 3));
  cases.emplace_back(EncodeLineageResponse(resp),
                     +[](const std::vector<uint8_t>& f) {
                       DecodeLineageResponse(f);
                     });

  for (size_t c = 0; c < cases.size(); ++c) {
    const auto& [full, decode] = cases[c];
    for (size_t len = 0; len < full.size(); ++len) {
      const std::vector<uint8_t> cut(full.begin(), full.begin() + len);
      EXPECT_ANY_THROW(decode(cut)) << "case " << c << " prefix " << len;
    }
  }
}

TEST(LineageProtocolTest, RandomByteFlipsNeverCrash) {
  std::mt19937_64 rng(17);
  LineageResponse resp;
  resp.op = LineageOp::kContributors;
  resp.request_id = 1;
  for (int i = 0; i < 32; ++i) {
    resp.entries.push_back(MakeEntry(100 + i, i, i));
  }
  const std::vector<std::vector<uint8_t>> frames = {
      EncodeLineageHello({}),
      EncodeLineageRequest({LineageOp::kExpand, 5, 12, 2, {}}),
      EncodeLineageResponse(resp),
  };
  for (const auto& frame : frames) {
    for (int trial = 0; trial < 200; ++trial) {
      auto corrupt = frame;
      corrupt[rng() % corrupt.size()] ^=
          static_cast<uint8_t>(1 + rng() % 255);
      // Rejected with a named error or decoded to some valid message; never
      // a crash, hang, or unbounded allocation.
      try {
        DecodeLineageHello(corrupt);
      } catch (const std::exception&) {
      }
      try {
        DecodeLineageRequest(corrupt);
      } catch (const std::exception&) {
      }
      try {
        DecodeLineageResponse(corrupt);
      } catch (const std::exception&) {
      }
    }
  }
}

TEST(LineageProtocolTest, OversizedDeclaredCountsAreRejectedNotAllocated) {
  // A response claiming 2^40 entries in a tiny frame must fail the count
  // bound, not reserve terabytes.
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(LineageMsg::kResponse));
  w.PutU8(static_cast<uint8_t>(LineageOp::kContributors));
  PutVarint(w, 1);   // request id
  w.PutU8(0);        // status ok
  w.PutU8(0);        // flags
  PutVarint(w, uint64_t{1} << 40);  // entry count >> remaining bytes
  const std::vector<uint8_t> frame = w.TakeBytes();
  EXPECT_THROW(DecodeLineageResponse(frame), std::runtime_error);

  // Same for the id list.
  ByteWriter w2;
  w2.PutU8(static_cast<uint8_t>(LineageMsg::kResponse));
  w2.PutU8(static_cast<uint8_t>(LineageOp::kRetainedRecordIds));
  PutVarint(w2, 1);
  w2.PutU8(0);
  w2.PutU8(0);
  PutVarint(w2, uint64_t{1} << 50);
  EXPECT_THROW(DecodeLineageResponse(w2.TakeBytes()), std::runtime_error);
}

// The named rejection message `decode` throws, or "" when it accepts.
template <typename Fn>
std::string RejectionOf(Fn&& decode) {
  try {
    decode();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(LineageProtocolTest, RetiredCompressionFlagAndVersionOneAreRejected) {
  // Version 1 used response flags bit 0 for an LZ-compressed body. Version 2
  // reserves every bit, and a version-1 server is refused at hello rather
  // than partway through a conversation.
  LineageResponse resp;
  resp.op = LineageOp::kStats;
  resp.request_id = 4;
  auto flagged = EncodeLineageResponse(resp);
  flagged[4] = 0x1;  // kind | op | varint id (1 byte) | status | flags
  EXPECT_NE(RejectionOf([&] { DecodeLineageResponse(flagged); })
                .find("unknown response flags"),
            std::string::npos);

  LineageHello v1;
  v1.version = 1;
  EXPECT_NE(RejectionOf([&] { DecodeLineageHello(EncodeLineageHello(v1)); })
                .find("unsupported version"),
            std::string::npos);
}

TEST(LineageProtocolTest, UnknownOpsAndTrailingBytesAreRejected) {
  LineageRequest req;
  req.op = LineageOp::kStats;
  req.request_id = 4;
  auto frame = EncodeLineageRequest(req);
  auto bad_op = frame;
  bad_op[1] = 200;  // op byte outside [1, 8]
  EXPECT_THROW(DecodeLineageRequest(bad_op), std::runtime_error);

  auto trailing = frame;
  trailing.push_back(0xEE);
  EXPECT_THROW(DecodeLineageRequest(trailing), std::runtime_error);

  LineageResponse resp;
  resp.op = LineageOp::kStats;
  resp.request_id = 4;
  auto rframe = EncodeLineageResponse(resp);
  auto bad_flags = rframe;
  // flags byte: offset 1 (op) is fixed; locate flags as the byte after
  // status. Layout: kind | op | varint id | status | flags | body.
  // request_id 4 is a 1-byte varint, so flags sits at offset 4.
  bad_flags[4] = 0x80;  // unknown flag bit
  EXPECT_THROW(DecodeLineageResponse(bad_flags), std::runtime_error);
}

}  // namespace
}  // namespace genealog
