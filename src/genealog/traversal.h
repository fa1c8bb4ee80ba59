// Contribution-graph traversal — the paper's Listing 1.
//
// Starting from a tuple (usually a sink tuple), performs a breadth-first
// search over the U1/U2/N meta-attributes and returns the *originating*
// tuples (Def. 4.1): tuples of type SOURCE, or REMOTE when part of the graph
// lives in another SPE instance.
//
// The traversal is the per-sink-tuple cost the paper studies in Figure 14 and
// sits on the SU hot path, so it is engineered to touch no allocator in
// steady state. The visited check is an open-addressing identity-hash set of
// tuple pointers (traversal_internal::PointerSet below): power-of-two
// capacity, inline small-buffer sized for the common ≤32-node graph,
// geometric growth, generation-tagged slots so Clear() is O(1) instead of a
// rehash or a memset. The set lives in the caller's scratch, so concurrent
// walks over shared graphs (parallel SUs, multiple queries) each own their
// visited state and only read the tuples they walk.
#ifndef GENEALOG_GENEALOG_TRAVERSAL_H_
#define GENEALOG_GENEALOG_TRAVERSAL_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/memory_accounting.h"
#include "core/tuple.h"

namespace genealog {

// Not a setting; edgebench's EngineJson reads it. False: FindProvenance has
// one path, the scratch pointer set.
constexpr bool EpochTraversalEnabled() { return false; }

namespace traversal_internal {

// Open-addressing identity-hash set of tuple pointers. Linear probing over a
// power-of-two slot array; a slot is live iff its generation tag equals the
// set's current generation, so Clear() only bumps a counter (the wrap-around
// every 2^32 clears pays one memset). The first kInlineSlots live inline —
// with the 0.5 maximum load factor that covers the common ≤32-node
// contribution graph without ever touching the heap; larger graphs grow the
// table geometrically and the buffer is recycled across calls, so steady
// state allocates nothing regardless of graph size.
class PointerSet {
 public:
  static constexpr size_t kInlineSlots = 64;

  PointerSet() { std::memset(inline_, 0, sizeof(inline_)); }
  ~PointerSet() {
    if (slots_ != inline_) {
      delete[] slots_;
      mem::AddTraversalScratchBytes(
          -static_cast<int64_t>(capacity_ * sizeof(Slot)));
    }
  }
  PointerSet(const PointerSet&) = delete;
  PointerSet& operator=(const PointerSet&) = delete;

  void Clear() {
    size_ = 0;
    if (++gen_ == 0) {  // generation wrap: one-off full reset
      std::memset(slots_, 0, capacity_ * sizeof(Slot));
      gen_ = 1;
    }
  }

  // Inserts p; returns true when it was not yet in the set.
  bool Insert(const Tuple* p) {
    if ((size_ + 1) * 2 > capacity_) Grow();
    const size_t mask = capacity_ - 1;
    size_t i = Hash(p) & mask;
    while (slots_[i].gen == gen_) {
      if (slots_[i].ptr == p) return false;
      i = (i + 1) & mask;
    }
    slots_[i].ptr = p;
    slots_[i].gen = gen_;
    ++size_;
    return true;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  // Heap growths since construction — pinned by the zero-steady-state-
  // allocation regression test.
  uint64_t grows() const { return grows_; }

 private:
  struct Slot {
    const Tuple* ptr;
    uint32_t gen;
  };

  static size_t Hash(const Tuple* p) {
    // Identity hash: tuples are pool blocks ≥64B apart, so the low bits carry
    // no entropy; a 64-bit odd-constant multiply mixes the rest, and the high
    // half indexes the (power-of-two) table.
    uint64_t x = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(p)) >> 4;
    x *= 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(x >> 32);
  }

  void Grow();

  Slot inline_[kInlineSlots];
  Slot* slots_ = inline_;
  size_t capacity_ = kInlineSlots;
  size_t size_ = 0;
  uint32_t gen_ = 1;  // inline_ memset to gen 0 == all empty
  uint64_t grows_ = 0;
};

// Flat FIFO for the BFS frontier: a power-of-two ring over a contiguous
// buffer, indices monotonically increasing and masked on access. Grows
// geometrically when the in-flight frontier outruns the capacity; the buffer
// is recycled across calls. The inline buffer covers the common small graph.
class WorkRing {
 public:
  static constexpr size_t kInlineCap = 32;

  WorkRing() = default;
  ~WorkRing() {
    if (data_ != inline_) {
      delete[] data_;
      mem::AddTraversalScratchBytes(
          -static_cast<int64_t>(capacity_ * sizeof(Tuple*)));
    }
  }
  WorkRing(const WorkRing&) = delete;
  WorkRing& operator=(const WorkRing&) = delete;

  void Clear() { head_ = tail_ = 0; }
  bool Empty() const { return head_ == tail_; }

  void Push(Tuple* t) {
    if (tail_ - head_ == capacity_) Grow();
    data_[tail_++ & (capacity_ - 1)] = t;
  }

  Tuple* Pop() { return data_[head_++ & (capacity_ - 1)]; }

  size_t capacity() const { return capacity_; }
  uint64_t grows() const { return grows_; }

 private:
  void Grow();

  Tuple* inline_[kInlineCap];
  Tuple** data_ = inline_;
  size_t capacity_ = kInlineCap;
  size_t head_ = 0;
  size_t tail_ = 0;
  uint64_t grows_ = 0;
};

}  // namespace traversal_internal

// Reusable scratch space: the BFS frontier ring plus the pointer set for the
// visited check. Both structures keep their buffers across calls, so after
// warm-up to the workload's largest graph a traversal performs zero
// allocations.
class TraversalScratch {
 public:
  void Clear() {
    ring_.Clear();
    visited_.Clear();
  }

  // Introspection for the allocation-regression test: cumulative heap growths
  // across both structures. Flat after warm-up.
  uint64_t grows() const { return ring_.grows() + visited_.grows(); }
  size_t visited_capacity() const { return visited_.capacity(); }
  size_t ring_capacity() const { return ring_.capacity(); }

 private:
  friend void FindProvenance(Tuple* root, std::vector<Tuple*>& result,
                             TraversalScratch& scratch);
  traversal_internal::WorkRing ring_;
  traversal_internal::PointerSet visited_;
};

// Appends the originating tuples of `root` to `result` in BFS discovery
// order (deterministic for a given contribution graph). The caller must keep
// `root` alive; returned pointers are valid as long as `root` is.
void FindProvenance(Tuple* root, std::vector<Tuple*>& result,
                    TraversalScratch& scratch);

// Convenience overload for tests and examples.
std::vector<Tuple*> FindProvenance(Tuple* root);

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_TRAVERSAL_H_
