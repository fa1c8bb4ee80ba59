// Compact wire codec: the decoded stream must be byte-identical to the raw
// reference codec's for every batch shape, watermark placement, dictionary
// state and reset point — and malformed input must be rejected, never
// mis-decoded.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <random>
#include <string>

#include "common/serialize.h"
#include "genealog/unfolded.h"
#include "net/frame.h"
#include "spe/stream_batch.h"
#include "testing/test_tuples.h"

namespace genealog {
namespace {

using testing::KeyedTuple;
using testing::V;
using testing::ValueTuple;

// Serializes every decoded tuple (full header + payload) so two decode paths
// can be compared byte-for-byte.
std::vector<uint8_t> CanonicalBytes(const std::vector<TuplePtr>& tuples) {
  ByteWriter w;
  for (const TuplePtr& t : tuples) SerializeTuple(*t, w);
  return w.TakeBytes();
}

std::vector<TuplePtr> DecodeAll(FrameDecoder& decoder,
                                const std::vector<std::vector<uint8_t>>& frames,
                                std::vector<int64_t>* watermarks = nullptr) {
  std::vector<TuplePtr> out;
  for (const auto& frame : frames) {
    DecodedFrame d = decoder.Decode(frame);
    switch (d.kind) {
      case FrameKind::kBatch:
      case FrameKind::kCompactBatch:
        for (auto& t : d.tuples) out.push_back(std::move(t));
        if (watermarks != nullptr && d.watermark != kNoWatermark) {
          watermarks->push_back(d.watermark);
        }
        break;
      case FrameKind::kFlush:
      case FrameKind::kRequest:  // the decoder rejects it
        break;
    }
  }
  return out;
}

TuplePtr RandomTuple(std::mt19937_64& rng, int64_t i) {
  TuplePtr t;
  if (rng() % 2 == 0) {
    t = MakeTuple<ValueTuple>(static_cast<int64_t>(rng() % 1000), i);
  } else {
    t = MakeTuple<KeyedTuple>(static_cast<int64_t>(rng() % 1000), i,
                              static_cast<double>(rng() % 97) / 7.0);
  }
  // Ids as the instrumented engine makes them: uid high 24 bits, dense
  // per-uid sequence low 40.
  const uint64_t uid = rng() % 5;
  t->id = (uid << 40) | (static_cast<uint64_t>(i) + rng() % 3);
  t->kind = static_cast<TupleKind>(rng() % 6);
  t->stimulus = static_cast<int64_t>(rng() % 100000) - 50000;
  if (rng() % 4 == 0) {
    std::vector<uint64_t> ann;
    const size_t n = rng() % 5;
    uint64_t id = rng() % 1000;
    for (size_t j = 0; j < n; ++j) ann.push_back(id += rng() % 50);
    t->set_baseline_annotation(std::move(ann));
  }
  return t;
}

// An unfolded tuple as Unfolder::Unfold builds it: ts, stimulus and the
// redundant fields copied from the nested tuples.
IntrusivePtr<UnfoldedTuple> MakeU(const TuplePtr& derived,
                                  const TuplePtr& origin, uint64_t id) {
  auto u = MakeTuple<UnfoldedTuple>(derived->ts);
  u->stimulus = derived->stimulus;
  u->derived = derived;
  u->derived_id = derived->id;
  u->derived_ts = derived->ts;
  u->origin = origin;
  u->origin_id = origin->id;
  u->origin_ts = origin->ts;
  u->origin_kind = origin->kind;
  u->id = id;
  u->kind = TupleKind::kMultiplex;
  return u;
}

// RandomTuple, or now and then an unfolded tuple wrapping random tuples.
// Runs of U tuples share one derived object (held in `derived` across
// calls), as an SU's output does; some disagree with their nested tuples
// and take the fallback form.
TuplePtr RandomStreamTuple(std::mt19937_64& rng, int64_t i,
                           TuplePtr& derived) {
  if (rng() % 3 != 0) return RandomTuple(rng, i);
  if (derived == nullptr || rng() % 3 == 0) derived = RandomTuple(rng, i);
  auto u = MakeU(derived, RandomTuple(rng, i),
                 (uint64_t{9} << 40) | static_cast<uint64_t>(i));
  u->kind = static_cast<TupleKind>(rng() % 6);
  if (rng() % 8 == 0) u->derived_id ^= 1;
  if (rng() % 8 == 0) u->origin_ts += 1;
  return u;
}

// An SU-shaped U batch: `n_derived` aggregate outputs, each unfolded into
// `k` U tuples sharing that derived object, with source origins.
std::vector<TuplePtr> SuShapedBatch(int n_derived, int k) {
  std::vector<TuplePtr> batch;
  uint64_t u_seq = 1, origin_seq = 1;
  for (int d = 0; d < n_derived; ++d) {
    auto derived = MakeTuple<KeyedTuple>(1000 + 60 * d, d, 2.5 * d);
    derived->id = (uint64_t{12} << 40) | static_cast<uint64_t>(d + 1);
    derived->kind = TupleKind::kAggregate;
    derived->stimulus = 5000 + d;
    for (int j = 0; j < k; ++j) {
      auto origin = V(1000 + 60 * d - 15 * j, d * k + j);
      origin->id = (uint64_t{7} << 40) | origin_seq++;
      origin->stimulus = 4000 + d * k + j;
      batch.push_back(MakeU(derived, origin, (uint64_t{13} << 40) | u_seq++));
    }
  }
  return batch;
}

TEST(FrameCodecTest, CompactBatchRoundTripsAllFields) {
  std::vector<TuplePtr> batch;
  for (int i = 0; i < 10; ++i) {
    auto t = V(100 + i, i);
    t->id = (uint64_t{7} << 40) | static_cast<uint64_t>(i + 1);
    t->kind = TupleKind::kAggregate;
    t->stimulus = 1000000 + i;
    batch.push_back(t);
  }
  FrameEncoder encoder(WireCodec::kCompact);
  auto frames = encoder.EncodeBatch(batch, /*watermark=*/109, false);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0][0], static_cast<uint8_t>(FrameKind::kCompactBatch));

  FrameDecoder decoder;
  std::vector<int64_t> wms;
  auto decoded = DecodeAll(decoder, frames, &wms);
  ASSERT_EQ(decoded.size(), batch.size());
  EXPECT_EQ(CanonicalBytes(decoded), CanonicalBytes(batch));
  ASSERT_EQ(wms.size(), 1u);
  EXPECT_EQ(wms[0], 109);
}

TEST(FrameCodecTest, CompactEqualsRawAtEveryBatchSize) {
  std::mt19937_64 rng(42);
  for (size_t batch_size : {1u, 2u, 3u, 7u, 64u}) {
    std::vector<TuplePtr> stream;
    TuplePtr derived;
    for (int64_t i = 0; i < 200; ++i) {
      stream.push_back(RandomStreamTuple(rng, i, derived));
    }

    for (bool remotify : {false, true}) {
      std::vector<TuplePtr> raw_decoded, compact_decoded;
      std::vector<int64_t> raw_wms, compact_wms;
      for (auto [codec, decoded, wms] :
           {std::tuple{WireCodec::kRaw, &raw_decoded, &raw_wms},
            std::tuple{WireCodec::kCompact, &compact_decoded, &compact_wms}}) {
        FrameEncoder encoder(codec);
        FrameDecoder decoder;
        for (size_t i = 0; i < stream.size(); i += batch_size) {
          const size_t n = std::min(batch_size, stream.size() - i);
          const int64_t wm =
              (i / batch_size) % 3 == 0 ? stream[i + n - 1]->ts : kNoWatermark;
          auto frames = encoder.EncodeBatch(
              std::span<const TuplePtr>(stream.data() + i, n), wm, remotify);
          auto part = DecodeAll(decoder, frames, wms);
          decoded->insert(decoded->end(), part.begin(), part.end());
        }
      }
      ASSERT_EQ(compact_decoded.size(), stream.size());
      EXPECT_EQ(CanonicalBytes(compact_decoded), CanonicalBytes(raw_decoded))
          << "batch_size=" << batch_size << " remotify=" << remotify;
      EXPECT_EQ(compact_wms, raw_wms);
    }
  }
}

TEST(FrameCodecTest, FuzzRandomBatchesWatermarksAndResets) {
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 30; ++round) {
    FrameEncoder raw_enc(WireCodec::kRaw);
    FrameEncoder compact_enc(WireCodec::kCompact);
    FrameDecoder raw_dec, compact_dec;
    std::vector<TuplePtr> raw_out, compact_out;
    std::vector<int64_t> raw_wms, compact_wms;

    int64_t seq = 0;
    TuplePtr derived;
    const int n_batches = 1 + static_cast<int>(rng() % 20);
    for (int b = 0; b < n_batches; ++b) {
      if (rng() % 5 == 0) {
        // Mid-stream reconnect: both sides of the compact channel restart;
        // the raw stream is stateless so only the compact encoder resets.
        compact_enc.Reset();
      }
      std::vector<TuplePtr> batch;
      const size_t count = rng() % 8;  // including empty batches
      for (size_t i = 0; i < count; ++i) {
        batch.push_back(RandomStreamTuple(rng, seq++, derived));
      }
      const int64_t wm =
          rng() % 2 == 0 ? static_cast<int64_t>(rng() % 4096) - 48
                         : kNoWatermark;
      const bool remotify = rng() % 2 == 0;
      auto a = DecodeAll(raw_dec, raw_enc.EncodeBatch(batch, wm, remotify),
                         &raw_wms);
      auto c = DecodeAll(compact_dec,
                         compact_enc.EncodeBatch(batch, wm, remotify),
                         &compact_wms);
      raw_out.insert(raw_out.end(), a.begin(), a.end());
      compact_out.insert(compact_out.end(), c.begin(), c.end());
    }
    ASSERT_EQ(CanonicalBytes(compact_out), CanonicalBytes(raw_out))
        << "round " << round;
    EXPECT_EQ(compact_wms, raw_wms) << "round " << round;
  }
}

TEST(FrameCodecTest, EncoderResetIsDecoderSafe) {
  // A decoder that followed generation 0 must survive the sender resetting:
  // the first post-reset frame redefines every dictionary entry it uses.
  FrameEncoder encoder(WireCodec::kCompact);
  FrameDecoder decoder;
  std::vector<TuplePtr> batch = {V(10, 1), V(11, 2)};
  for (auto& t : batch) t->id = (uint64_t{3} << 40) | 1;
  DecodeAll(decoder, encoder.EncodeBatch(batch, kNoWatermark, false));

  encoder.Reset();
  auto decoded =
      DecodeAll(decoder, encoder.EncodeBatch(batch, kNoWatermark, false));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(CanonicalBytes(decoded), CanonicalBytes(batch));
}

TEST(FrameCodecTest, FreshDecoderRejectsDanglingDictionaryReferences) {
  // Joining a compact stream mid-generation (frame 2 references entries
  // defined in frame 1) must fail loudly, not fabricate tuples.
  FrameEncoder encoder(WireCodec::kCompact);
  std::vector<TuplePtr> batch = {V(1, 1)};
  auto first = encoder.EncodeBatch(batch, kNoWatermark, false);
  auto second = encoder.EncodeBatch(batch, kNoWatermark, false);
  FrameDecoder fresh;
  EXPECT_THROW(fresh.Decode(second[0]), std::runtime_error);
}

TEST(FrameCodecTest, TruncatedCompactFramesAreRejected) {
  std::mt19937_64 rng(7);
  FrameEncoder encoder(WireCodec::kCompact);
  std::vector<TuplePtr> batch;
  TuplePtr derived;
  for (int64_t i = 0; i < 32; ++i) {
    batch.push_back(RandomStreamTuple(rng, i, derived));
  }
  auto frames = encoder.EncodeBatch(batch, /*watermark=*/99, false);
  ASSERT_EQ(frames.size(), 1u);
  const auto& full = frames[0];
  for (size_t len = 0; len < full.size(); ++len) {
    std::vector<uint8_t> cut(full.begin(), full.begin() + len);
    FrameDecoder decoder;
    EXPECT_ANY_THROW(decoder.Decode(cut)) << "prefix length " << len;
  }
}

TEST(FrameCodecTest, CorruptCompactBodyIsRejectedOrEquivalent) {
  // Flipping bytes must never crash; it either throws or yields a frame that
  // still parses (e.g. a flipped payload bit). Nothing should hang or UB.
  std::mt19937_64 rng(11);
  FrameEncoder encoder(WireCodec::kCompact);
  std::vector<TuplePtr> batch;
  TuplePtr derived;
  for (int64_t i = 0; i < 16; ++i) {
    batch.push_back(RandomStreamTuple(rng, i, derived));
  }
  auto frames = encoder.EncodeBatch(batch, 5, false);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupt = frames[0];
    corrupt[rng() % corrupt.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    FrameDecoder decoder;
    try {
      decoder.Decode(corrupt);
    } catch (const std::exception&) {
      // rejected: fine
    }
  }
}

TEST(FrameCodecTest, StatelessDecodeFrameRejectsCompactFrames) {
  FrameEncoder encoder(WireCodec::kCompact);
  std::vector<TuplePtr> batch = {V(1, 1)};
  auto frames = encoder.EncodeBatch(batch, kNoWatermark, false);
  EXPECT_THROW(DecodeFrame(frames[0]), std::runtime_error);
}

// A raw batch frame declaring more tuples than its bytes can hold is
// rejected by name before anything is reserved for the count.
TEST(FrameCodecTest, RawBatchCountBeyondFrameIsRejected) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(FrameKind::kBatch));
  w.PutU32(0xFFFFFFFFu);
  EXPECT_THROW(DecodeFrame(w.bytes()), std::runtime_error);
  // One tuple declared, none delivered: the count fits no tuple either.
  ByteWriter one;
  one.PutU8(static_cast<uint8_t>(FrameKind::kBatch));
  one.PutU32(1);
  one.PutI64(0);
  EXPECT_THROW(DecodeFrame(one.bytes()), std::runtime_error);
}

TEST(FrameCodecTest, WireStatsTrackRawEquivalentBytes) {
  std::vector<TuplePtr> batch;
  for (int64_t i = 0; i < 64; ++i) {
    auto t = V(i, i);
    t->id = (uint64_t{2} << 40) | static_cast<uint64_t>(i);
    batch.push_back(t);
  }
  // raw_bytes under kCompact must equal what the raw codec actually ships.
  FrameEncoder raw_enc(WireCodec::kRaw);
  FrameEncoder compact_enc(WireCodec::kCompact);
  raw_enc.EncodeBatch(batch, 63, true);
  compact_enc.EncodeBatch(batch, 63, true);
  EXPECT_EQ(compact_enc.stats().raw_bytes, raw_enc.stats().raw_bytes);
  EXPECT_LT(compact_enc.stats().encoded_bytes, compact_enc.stats().raw_bytes);
  EXPECT_GT(compact_enc.stats().ratio(), 1.0);
  EXPECT_EQ(compact_enc.stats().frames, 1u);

  // A batch of one plus a watermark, and a watermark alone: one frame per
  // batch under either codec, and an empty batch without a watermark ships
  // nothing.
  FrameEncoder raw1(WireCodec::kRaw);
  FrameEncoder compact1(WireCodec::kCompact);
  std::vector<TuplePtr> one = {batch[0]};
  for (FrameEncoder* enc : {&raw1, &compact1}) {
    EXPECT_EQ(enc->EncodeBatch(one, 5, true).size(), 1u);
    EXPECT_EQ(enc->EncodeBatch({}, 6, true).size(), 1u);
    EXPECT_TRUE(enc->EncodeBatch({}, kNoWatermark, true).empty());
  }
  EXPECT_EQ(raw1.stats().frames, 2u);
  EXPECT_EQ(compact1.stats().frames, 2u);
  EXPECT_EQ(compact1.stats().raw_bytes, raw1.stats().raw_bytes);

  // A U batch, structural and fallback forms mixed: the raw-equivalent
  // count still equals the raw codec's bytes.
  std::vector<TuplePtr> u_batch = SuShapedBatch(4, 6);
  static_cast<UnfoldedTuple&>(*u_batch[3]).derived_ts += 1;
  FrameEncoder raw_u(WireCodec::kRaw);
  FrameEncoder compact_u(WireCodec::kCompact);
  raw_u.EncodeBatch(u_batch, 99, true);
  compact_u.EncodeBatch(u_batch, 99, true);
  EXPECT_EQ(compact_u.stats().raw_bytes, raw_u.stats().raw_bytes);
  EXPECT_LT(compact_u.stats().encoded_bytes, compact_u.stats().raw_bytes);
}

TEST(FrameCodecTest, SuShapedUBatchSharesDerivedAndMatchesRaw) {
  const std::vector<TuplePtr> batch = SuShapedBatch(5, 4);
  FrameEncoder raw_enc(WireCodec::kRaw);
  FrameEncoder compact_enc(WireCodec::kCompact);
  FrameDecoder raw_dec, compact_dec;
  auto raw = DecodeAll(raw_dec, raw_enc.EncodeBatch(batch, 7, true));
  auto compact =
      DecodeAll(compact_dec, compact_enc.EncodeBatch(batch, 7, true));
  ASSERT_EQ(compact.size(), batch.size());
  EXPECT_EQ(CanonicalBytes(compact), CanonicalBytes(raw));

  // Decoded tuples of one sender-side derived share one object; distinct
  // sender-side derived tuples stay distinct.
  for (size_t i = 0; i < batch.size(); ++i) {
    for (size_t j = 0; j < batch.size(); ++j) {
      const bool sender_shared =
          static_cast<const UnfoldedTuple&>(*batch[i]).derived ==
          static_cast<const UnfoldedTuple&>(*batch[j]).derived;
      const bool decoded_shared =
          static_cast<const UnfoldedTuple&>(*compact[i]).derived ==
          static_cast<const UnfoldedTuple&>(*compact[j]).derived;
      EXPECT_EQ(decoded_shared, sender_shared) << i << "," << j;
    }
  }
  // Sending each derived tuple once per frame is the structural win: the
  // body is well under half the raw bytes.
  EXPECT_GT(compact_enc.stats().ratio(), 2.0);
}

TEST(FrameCodecTest, UnfoldedFallbackFormRoundTripsByteExact) {
  // A U tuple whose redundant fields disagree with its nested tuples cannot
  // be rebuilt from them; it ships its SerializePayload bytes instead, in
  // the same frame as structural ones.
  std::vector<TuplePtr> batch = SuShapedBatch(2, 3);
  auto& odd = static_cast<UnfoldedTuple&>(*batch[1]);
  odd.derived_id = odd.derived->id + 1;
  auto& odd_kind = static_cast<UnfoldedTuple&>(*batch[4]);
  odd_kind.origin_kind = TupleKind::kRemote;
  FrameEncoder encoder(WireCodec::kCompact);
  FrameDecoder decoder;
  auto decoded = DecodeAll(decoder, encoder.EncodeBatch(batch, 3, false));
  ASSERT_EQ(decoded.size(), batch.size());
  EXPECT_EQ(CanonicalBytes(decoded), CanonicalBytes(batch));
  EXPECT_EQ(static_cast<const UnfoldedTuple&>(*decoded[1]).derived_id,
            odd.derived_id);
  EXPECT_EQ(static_cast<const UnfoldedTuple&>(*decoded[4]).origin_kind,
            TupleKind::kRemote);
}

// A hand-built single-frame compact stream (generation 0, `flags`, no
// watermark) holding one U tuple whose payload `payload` writes. The U header
// defines descriptor 0 (kUnfolded) and uid 0.
std::vector<uint8_t> HandBuiltUFrame(
    const std::function<void(ByteWriter&)>& payload, uint8_t flags = 0) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(FrameKind::kCompactBatch));
  w.PutU8(0);   // generation
  w.PutU8(flags);
  PutVarint(w, 1);  // count
  PutVarint(w, (0 << 1) | 1);
  w.PutU16(tags::kUnfolded);
  w.PutU8(static_cast<uint8_t>(TupleKind::kRemote));
  w.PutU8(0);  // no annotation
  PutVarint(w, (0 << 1) | 1);
  PutVarint(w, 13);  // uid
  PutZigzag(w, 1);    // seq
  PutZigzag(w, 100);  // ts
  PutZigzag(w, 0);    // stimulus
  payload(w);
  return w.TakeBytes();
}

// A nested ValueTuple header referencing uid 0: defines descriptor
// `desc_index` with wire kind `kind` when `define` is set.
void PutNestedValue(ByteWriter& w, uint64_t desc_index, bool define,
                    int64_t seq_delta,
                    uint8_t kind = static_cast<uint8_t>(TupleKind::kSource)) {
  PutVarint(w, (desc_index << 1) | (define ? 1 : 0));
  if (define) {
    w.PutU16(ValueTuple::kTypeTag);
    w.PutU8(kind);
    w.PutU8(0);
  }
  PutVarint(w, (0 << 1) | 0);
  PutZigzag(w, seq_delta);
  PutZigzag(w, 100);  // ts
  PutZigzag(w, 0);    // stimulus
  w.PutI64(42);       // ValueTuple payload
}

TEST(FrameCodecTest, MalformedUnfoldedPayloadsAreRejected) {
  // Control: the hand-built frame is well formed when its payload is.
  {
    FrameDecoder decoder;
    DecodedFrame d = decoder.Decode(HandBuiltUFrame([](ByteWriter& w) {
      w.PutU8(1);                  // structural form
      PutVarint(w, (0 << 1) | 1);  // define derived 0
      PutNestedValue(w, 1, true, 1);
      PutNestedValue(w, 1, false, 1);  // origin
    }));
    ASSERT_EQ(d.tuples.size(), 1u);
    const auto& u = static_cast<const UnfoldedTuple&>(*d.tuples[0]);
    EXPECT_EQ(u.derived_id, (uint64_t{13} << 40) | 2);
    EXPECT_EQ(u.origin_id, (uint64_t{13} << 40) | 3);
    EXPECT_EQ(u.origin_kind, TupleKind::kSource);
  }
  const auto rejects = [](const std::function<void(ByteWriter&)>& payload) {
    FrameDecoder decoder;
    EXPECT_THROW(decoder.Decode(HandBuiltUFrame(payload)), std::runtime_error);
  };
  // A reference to a derived tuple the frame never defined.
  rejects([](ByteWriter& w) {
    w.PutU8(1);
    PutVarint(w, (0 << 1) | 0);
    PutNestedValue(w, 1, true, 1);
  });
  // A definition that skips an index.
  rejects([](ByteWriter& w) {
    w.PutU8(1);
    PutVarint(w, (1 << 1) | 1);
    PutNestedValue(w, 1, true, 1);
    PutNestedValue(w, 1, false, 1);
  });
  // An unknown form byte.
  rejects([](ByteWriter& w) {
    w.PutU8(7);
    PutVarint(w, (0 << 1) | 1);
    PutNestedValue(w, 1, true, 1);
    PutNestedValue(w, 1, false, 1);
  });
  // A nested tuple whose descriptor is kUnfolded, by reference...
  rejects([](ByteWriter& w) {
    w.PutU8(1);
    PutVarint(w, (0 << 1) | 1);
    PutVarint(w, (0 << 1) | 0);  // descriptor 0: the outer kUnfolded
    PutVarint(w, (0 << 1) | 0);
    PutZigzag(w, 1);
    PutZigzag(w, 100);
    PutZigzag(w, 0);
    w.PutU8(1);
  });
  // ...and by a fresh definition.
  rejects([](ByteWriter& w) {
    w.PutU8(1);
    PutVarint(w, (0 << 1) | 1);
    PutVarint(w, (1 << 1) | 1);
    w.PutU16(tags::kUnfolded);
    w.PutU8(static_cast<uint8_t>(TupleKind::kSource));
    w.PutU8(0);
    PutVarint(w, (0 << 1) | 0);
    PutZigzag(w, 1);
    PutZigzag(w, 100);
    PutZigzag(w, 0);
    w.PutU8(1);
  });

  // Tuple kinds are 0..5 (SOURCE..REMOTE). Every decode site that reads a
  // kind byte — the raw header, the compact descriptor and the fallback U
  // payload's origin_kind — must reject anything else by name.
  const auto rejects_kind = [](const std::function<void()>& decode) {
    try {
      decode();
      ADD_FAILURE() << "out-of-range tuple kind accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("invalid tuple kind"),
                std::string::npos)
          << e.what();
    }
  };
  // A raw batch frame: u8 frame kind | u32 count | u16 type tag | u8 tuple
  // kind | ...
  std::vector<uint8_t> raw =
      EncodeBatchFrame(std::vector<TuplePtr>{V(5, 42)}, kNoWatermark, false);
  EXPECT_EQ(DecodeFrame(raw).tuples[0]->kind, TupleKind::kSource);
  raw[7] = 6;
  rejects_kind([&] { DecodeFrame(raw); });
  // A compact descriptor defining kind 0xFF for the derived tuple.
  rejects_kind([] {
    FrameDecoder decoder;
    decoder.Decode(HandBuiltUFrame([](ByteWriter& w) {
      w.PutU8(1);
      PutVarint(w, (0 << 1) | 1);
      PutNestedValue(w, 1, true, 1, 0xFF);
      PutNestedValue(w, 2, true, 1);
    }));
  });
  // The fallback form (UnfoldedTuple::SerializePayload bytes) with
  // origin_kind 9; the control with origin_kind SOURCE decodes.
  const auto payload_form = [](uint8_t origin_kind) {
    return HandBuiltUFrame([origin_kind](ByteWriter& w) {
      w.PutU8(0);  // payload form
      w.PutU64(2);
      w.PutI64(100);
      w.PutU64(3);
      w.PutI64(100);
      w.PutU8(origin_kind);
      SerializeTuple(*V(100, 1), w);
      SerializeTuple(*V(100, 2), w);
    });
  };
  {
    FrameDecoder decoder;
    DecodedFrame d = decoder.Decode(
        payload_form(static_cast<uint8_t>(TupleKind::kSource)));
    ASSERT_EQ(d.tuples.size(), 1u);
    EXPECT_EQ(static_cast<const UnfoldedTuple&>(*d.tuples[0]).origin_kind,
              TupleKind::kSource);
  }
  rejects_kind([&] {
    FrameDecoder decoder;
    decoder.Decode(payload_form(9));
  });
}

TEST(FrameCodecTest, ReservedFlagBitsAreRejected) {
  // Bit 0 is reserved (it once announced an LZ-compressed body); a frame
  // setting it fails as an unknown flag, with or without the watermark bit.
  const auto payload = [](ByteWriter& w) {
    w.PutU8(1);
    PutVarint(w, (0 << 1) | 1);
    PutNestedValue(w, 1, true, 1);
    PutNestedValue(w, 1, false, 1);
  };
  for (uint8_t flags : {uint8_t{0x1}, uint8_t{0x3}}) {
    FrameDecoder decoder;
    try {
      decoder.Decode(HandBuiltUFrame(payload, flags));
      ADD_FAILURE() << "flags " << int{flags} << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flags"),
                std::string::npos)
          << "flags " << int{flags} << ": " << e.what();
    }
  }
  // The same frame with no flags decodes.
  FrameDecoder decoder;
  EXPECT_EQ(decoder.Decode(HandBuiltUFrame(payload)).tuples.size(), 1u);
}

TEST(FrameCodecTest, NestedUnfoldedTuplesTakeTheFallbackForm) {
  // An unfolded tuple wrapping another unfolded tuple still round-trips:
  // the encoder never emits a structural nested kUnfolded.
  std::vector<TuplePtr> inner = SuShapedBatch(1, 2);
  auto origin = V(5, 5);
  origin->id = (uint64_t{7} << 40) | 99;
  std::vector<TuplePtr> batch = {MakeU(inner[0], origin, uint64_t{14} << 40),
                                 inner[1]};
  FrameEncoder encoder(WireCodec::kCompact);
  FrameDecoder decoder;
  auto decoded = DecodeAll(decoder, encoder.EncodeBatch(batch, 0, false));
  EXPECT_EQ(CanonicalBytes(decoded), CanonicalBytes(batch));
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// Pinned wire bytes: the compact tuple coder is shared with the provenance
// file (net/tuple_coder.h), and no change made for the file may move a byte
// of a kCompactBatch frame. Both pins were recorded before the coder moved
// out of FrameEncoder. The U frame has structural and fallback U tuples,
// remotified; the second frame reuses the first one's dictionaries.
TEST(FrameCodecTest, CompactUFrameBytesArePinned) {
  std::vector<TuplePtr> batch = SuShapedBatch(2, 3);
  auto& odd = static_cast<UnfoldedTuple&>(*batch[4]);
  odd.origin_kind = TupleKind::kRemote;
  FrameEncoder encoder(WireCodec::kCompact);
  auto first = encoder.EncodeBatch(batch, 1100, true);
  auto second = encoder.EncodeBatch(
      std::span<const TuplePtr>(batch).subspan(0, 2), kNoWatermark, true);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(Hex(first[0]),
            "0500020698110108000500010d02d00f904e01010302700400030c02d00f"
            "904e000000000000000000000000000000000501700000050702d00fc03e"
            "0000000000000000000002000001000404021d0201000000000000000000"
            "02000001000404021d020200000000000000000002780201030202027802"
            "01000000000000000000000000000440040402b401020300000000000000"
            "00000200000002000000000c000024040000000000000500000000070000"
            "150400000000000005027004240400000000000002000000000c00008913"
            "000000000000000100000000000000000000000000044001700015040000"
            "000000000500000000070000a40f00000000000000040000000000000000"
            "0002000001020404043b040500000000000000");
  EXPECT_EQ(Hex(second[0]),
            "050000020000097701010102020177010000000000000000000000000000"
            "00000404093b090000000000000000000002000001000404021d02010000"
            "0000000000");
}

TEST(FrameCodecTest, CompactFlatFrameBytesArePinned) {
  std::vector<TuplePtr> batch;
  for (int i = 0; i < 6; ++i) {
    TuplePtr t;
    if (i % 2 == 0) {
      t = V(500 + 10 * i, 40 + i);
    } else {
      t = MakeTuple<KeyedTuple>(500 + 10 * i, i, 0.25 * i);
    }
    t->id = (static_cast<uint64_t>(3 + i % 3) << 40) |
            static_cast<uint64_t>(100 + i);
    t->kind = static_cast<TupleKind>(i % 4);
    t->stimulus = 9000 + 7 * i;
    if (i == 3) t->set_baseline_annotation({11, 12, 40});
    batch.push_back(std::move(t));
  }
  FrameEncoder encoder(WireCodec::kCompact);
  auto first = encoder.EncodeBatch(batch, 560, false);
  auto second = encoder.EncodeBatch(
      std::span<const TuplePtr>(batch).subspan(3), kNoWatermark, true);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(Hex(first[0]),
            "05000206e00801017000000103c801e807d08c0128000000000000000302"
            "7001000304ca01140e0100000000000000000000000000d03f0501700200"
            "0505cc01140e2a0000000000000007027003010006140e03160238030000"
            "0000000000000000000000e83f000206140e2c0000000000000002040614"
            "0e0500000000000000000000000000f43f");
  EXPECT_EQ(Hex(second[0]),
            "0500000309027005010000271b0316023803000000000000000000000000"
            "00e83f000200140e2c000000000000000b027005000400140e0500000000"
            "000000000000000000f43f");
}

// --- pull requests (the reverse direction of a U channel) ------------------

PullRequest RandomRequest(std::mt19937_64& rng) {
  PullRequest request;
  const size_t n = rng() % 12;
  uint64_t id = rng();
  for (size_t i = 0; i < n; ++i) {
    // Mostly ascending ids of one node, sometimes another node's, with
    // extreme timestamps mixed in.
    id = rng() % 3 == 0 ? rng() : id + rng() % 5;
    const int64_t ts = rng() % 7 == 0 ? static_cast<int64_t>(rng())
                                      : static_cast<int64_t>(rng() % 4096);
    request.entries.push_back({id, ts});
  }
  if (rng() % 3 != 0) {
    request.watermark = rng() % 5 == 0 ? std::numeric_limits<int64_t>::max()
                                       : static_cast<int64_t>(rng() % 4096);
  }
  return request;
}

TEST(FrameCodecTest, RequestFramesRoundTrip) {
  std::mt19937_64 rng(77);
  for (int round = 0; round < 500; ++round) {
    const PullRequest request = RandomRequest(rng);
    const std::vector<uint8_t> frame = EncodeRequestFrame(request);
    EXPECT_EQ(frame[0], static_cast<uint8_t>(FrameKind::kRequest));
    EXPECT_EQ(DecodeRequestFrame(frame), request) << "round " << round;
  }
  // The empty watermark-only request, and the delta coding of one node's
  // ascending ids against the fixed-width size WireStats counts as raw.
  PullRequest wm_only;
  wm_only.watermark = -5;
  EXPECT_EQ(DecodeRequestFrame(EncodeRequestFrame(wm_only)), wm_only);
  EXPECT_EQ(RawRequestFrameBytes(wm_only), 1u + 1 + 4 + 8);
  PullRequest run;
  for (uint64_t i = 0; i < 100; ++i) {
    run.entries.push_back({(uint64_t{9} << 40) | (1000 + i),
                           static_cast<int64_t>(24 * i)});
  }
  EXPECT_EQ(RawRequestFrameBytes(run), 1u + 1 + 4 + 100 * 16);
  EXPECT_LT(EncodeRequestFrame(run).size() * 4, RawRequestFrameBytes(run));
}

TEST(FrameCodecTest, MalformedRequestFramesAreRejectedByName) {
  PullRequest request;
  request.entries = {{11, 1}, {12, 2}, {13, 3}};
  request.watermark = 9;
  const auto expect_rejected = [](const std::vector<uint8_t>& frame,
                                  const std::string& what) {
    try {
      DecodeRequestFrame(frame);
      ADD_FAILURE() << "accepted: " << what;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("request frame"), std::string::npos) << msg;
      EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
  };
  const std::vector<uint8_t> good = EncodeRequestFrame(request);
  // A truncated id list, cut anywhere inside it.
  for (size_t cut = 3; cut + 1 < good.size(); ++cut) {
    std::vector<uint8_t> truncated(good.begin(), good.begin() + cut);
    EXPECT_THROW(DecodeRequestFrame(truncated), std::runtime_error)
        << "cut " << cut;
  }
  // A reserved flag bit, alone or with the valid ones.
  for (const uint8_t bit : {uint8_t{0x4}, uint8_t{0x10}, uint8_t{0x80}}) {
    std::vector<uint8_t> flagged = good;
    flagged[1] |= bit;
    expect_rejected(flagged, "reserved flag");
  }
  // Bit 0 clear announces the retired fixed-width body.
  std::vector<uint8_t> fixed_width = good;
  fixed_width[1] &= static_cast<uint8_t>(~0x1);
  expect_rejected(fixed_width, "fixed-width body");
  // Trailing bytes after a complete request.
  std::vector<uint8_t> trailing = good;
  trailing.push_back(0);
  expect_rejected(trailing, "trailing bytes");
  // A count whose entries cannot fit a frame, and one the body lacks.
  {
    ByteWriter w;
    w.PutU8(static_cast<uint8_t>(FrameKind::kRequest));
    w.PutU8(0x1);
    PutVarint(w, uint64_t{1} << 40);
    expect_rejected(w.TakeBytes(), "64 MiB frame bound");
  }
  {
    ByteWriter w;
    w.PutU8(static_cast<uint8_t>(FrameKind::kRequest));
    w.PutU8(0x1);
    PutVarint(w, 1000);
    PutZigzag(w, 1);
    PutZigzag(w, 1);
    expect_rejected(w.TakeBytes(), "truncated id list");
  }
  // A data frame is not a request, and a request is not a data frame.
  expect_rejected(EncodeFlushFrame(), "wrong frame kind");
  FrameDecoder decoder;
  EXPECT_THROW(decoder.Decode(EncodeRequestFrame(request)),
               std::runtime_error);
}

TEST(FrameCodecTest, CorruptRequestFramesAreRejectedOrParse) {
  // Byte flips in a request must never crash or over-allocate: they throw
  // a named error or decode to some well-formed request.
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 2000; ++trial) {
    const PullRequest request = RandomRequest(rng);
    std::vector<uint8_t> frame = EncodeRequestFrame(request);
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      frame[rng() % frame.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    }
    try {
      const PullRequest decoded = DecodeRequestFrame(frame);
      EXPECT_LE(decoded.entries.size(), frame.size());
    } catch (const std::runtime_error&) {
      // rejected by name: fine
    }
  }
}

}  // namespace
}  // namespace genealog
