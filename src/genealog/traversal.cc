#include "genealog/traversal.h"

namespace genealog {
namespace {

// BFS over U1/U2/N from empty `ring` and `visited`. A node is enqueued the
// first time it is inserted into `visited`, so discovery order — and every
// downstream provenance artifact — is fixed by the graph alone.
void Walk(Tuple* root, std::vector<Tuple*>& result,
          traversal_internal::WorkRing& ring,
          traversal_internal::PointerSet& visited) {
  visited.Insert(root);
  ring.Push(root);
  while (!ring.Empty()) {
    Tuple* t = ring.Pop();
    auto enqueue = [&](Tuple* c) {
      if (c != nullptr && visited.Insert(c)) ring.Push(c);
    };
    switch (t->kind) {
      case TupleKind::kSource:
      case TupleKind::kRemote:
        result.push_back(t);
        break;
      case TupleKind::kMap:
      case TupleKind::kMultiplex:
        enqueue(t->u1());
        break;
      case TupleKind::kJoin:
        enqueue(t->u1());
        enqueue(t->u2());
        break;
      case TupleKind::kAggregate: {
        // Window tuples are linked U2 -> N -> ... -> U1 (inclusive). Note a
        // deliberate deviation from the paper's Listing 1, which starts the
        // walk at U2.N and stops at U1: for a single-tuple window U1 == U2,
        // and if that tuple's N was already set by an overlapping later
        // window, Listing 1 as printed walks past U1 through the rest of the
        // chain. Walking from U2 itself with the same U1 termination is
        // equivalent for U1 != U2 and correct for U1 == U2 (found by the
        // random-pipeline provenance fuzzer on stacked sliding aggregates).
        Tuple* temp = t->u2();
        while (temp != nullptr && temp != t->u1()) {
          enqueue(temp);
          temp = temp->next();
        }
        enqueue(t->u1());
        break;
      }
    }
  }
}

}  // namespace

namespace traversal_internal {

void PointerSet::Grow() {
  const size_t new_capacity = capacity_ * 2;
  Slot* new_slots = new Slot[new_capacity]();
  const size_t mask = new_capacity - 1;
  for (size_t i = 0; i < capacity_; ++i) {
    if (slots_[i].gen != gen_) continue;
    size_t j = Hash(slots_[i].ptr) & mask;
    while (new_slots[j].gen == gen_) j = (j + 1) & mask;
    new_slots[j] = slots_[i];
  }
  if (slots_ != inline_) delete[] slots_;
  slots_ = new_slots;
  capacity_ = new_capacity;
  ++grows_;
}

void WorkRing::Grow() {
  const size_t new_capacity = capacity_ * 2;
  Tuple** new_data = new Tuple*[new_capacity];
  // Unwrap the live window [head_, tail_) to the front of the new buffer.
  const size_t n = tail_ - head_;
  for (size_t i = 0; i < n; ++i) {
    new_data[i] = data_[(head_ + i) & (capacity_ - 1)];
  }
  if (data_ != inline_) delete[] data_;
  data_ = new_data;
  capacity_ = new_capacity;
  head_ = 0;
  tail_ = n;
  ++grows_;
}

}  // namespace traversal_internal

void FindProvenance(Tuple* root, std::vector<Tuple*>& result,
                    TraversalScratch& scratch) {
  if (root == nullptr) return;
  scratch.Clear();
  Walk(root, result, scratch.ring_, scratch.visited_);
}

std::vector<Tuple*> FindProvenance(Tuple* root) {
  std::vector<Tuple*> result;
  TraversalScratch scratch;
  FindProvenance(root, result, scratch);
  return result;
}

}  // namespace genealog
