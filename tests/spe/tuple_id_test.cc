// NextTupleId packs (node uid << 40) | sequence. The sequence must stay in
// its 40-bit field and the uid in the remaining 24: silently overflowing
// either would alias ids across nodes, corrupting provenance matching (MU
// joins on ids). Both overflows are named errors in every build type.
#include <gtest/gtest.h>

#include <stdexcept>

#include "spe/node.h"

namespace genealog {
namespace {

class IdProbe final : public Node {
 public:
  IdProbe() : Node("id_probe") {}
  StepResult Step(size_t /*max_batches*/) override {
    return StepResult::kDone;
  }
  uint64_t Next() { return NextTupleId(); }
  void StartSequenceAt(uint64_t seq) { StartSequenceAtForTesting(seq); }
  static constexpr int kSeqBits = kTupleSeqBits;
  static constexpr uint64_t kSeqMask = kTupleSeqMask;
  static constexpr uint64_t kMaxUid = kMaxNodeUid;
};

TEST(TupleIdTest, SequenceOccupiesLowBitsUidHighBits) {
  IdProbe a;
  IdProbe b;
  const uint64_t a0 = a.Next();
  const uint64_t a1 = a.Next();
  const uint64_t b0 = b.Next();
  // Same node: uid bits identical, sequence increments.
  EXPECT_EQ(a0 >> IdProbe::kSeqBits, a1 >> IdProbe::kSeqBits);
  EXPECT_EQ((a0 & IdProbe::kSeqMask) + 1, a1 & IdProbe::kSeqMask);
  // Different nodes: uid bits differ even at equal sequence numbers.
  EXPECT_EQ(b0 & IdProbe::kSeqMask, a0 & IdProbe::kSeqMask);
  EXPECT_NE(b0 >> IdProbe::kSeqBits, a0 >> IdProbe::kSeqBits);
}

TEST(TupleIdTest, FieldConstantsAreConsistent) {
  EXPECT_EQ(IdProbe::kSeqBits, 40);
  EXPECT_EQ(IdProbe::kSeqMask, (uint64_t{1} << 40) - 1);
  EXPECT_EQ(IdProbe::kMaxUid, (uint64_t{1} << 24) - 1);
}

TEST(TupleIdTest, ExhaustedSequenceThrowsInsteadOfAliasing) {
  IdProbe a;
  a.StartSequenceAt(IdProbe::kSeqMask);
  const uint64_t last = a.Next();  // the final id of the field is fine
  EXPECT_EQ(last >> IdProbe::kSeqBits, a.uid());
  EXPECT_EQ(last & IdProbe::kSeqMask, IdProbe::kSeqMask);
  // The next one would wrap to sequence 0 (a's first id) or carry into the
  // uid bits (another node's ids).
  EXPECT_THROW(a.Next(), std::overflow_error);
  EXPECT_THROW(a.Next(), std::overflow_error);  // and stays exhausted
}

TEST(TupleIdTest, ExhaustedNodeUidsThrowInsteadOfAliasing) {
  const uint64_t saved = Node::ExchangeNextUidForTesting(IdProbe::kMaxUid);
  {
    IdProbe last;  // the final uid whose shifted bits all survive
    EXPECT_EQ(last.uid(), IdProbe::kMaxUid);
    EXPECT_EQ(last.Next() >> IdProbe::kSeqBits, IdProbe::kMaxUid);
  }
  // uid 2^24 << 40 shifts out to 0: its ids would collide with uid 0's.
  EXPECT_THROW({ IdProbe overflow; }, std::overflow_error);
  EXPECT_THROW({ IdProbe overflow; }, std::overflow_error);
  Node::ExchangeNextUidForTesting(saved);
  IdProbe after;  // restored: other tests in this process are unaffected
  EXPECT_LT(after.uid(), IdProbe::kMaxUid);
}

}  // namespace
}  // namespace genealog
