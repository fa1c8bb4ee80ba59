#include "genealog/traversal.h"

#include <atomic>

namespace genealog {
namespace {

// Tickets are globally unique, so a stale mark left on a tuple by a finished
// traversal can never alias a live one. 0 is the "never visited" initializer
// stamped by the Tuple constructor (the counter starts past it and only
// grows). Marks are equality-compared only, so uniqueness is the whole
// contract — global monotonicity is not needed, which lets each thread draw
// tickets from a private block and touch the shared counter once per
// kTicketBlock traversals instead of once per traversal. Under the pool
// scheduler every SU in the process funnels through a handful of worker
// threads, so the shared fetch_add would otherwise become a per-traversal
// contention point.
std::atomic<uint64_t> g_next_ticket{1};

constexpr uint64_t kTicketBlock = 256;

struct TicketBlock {
  uint64_t next = 0;
  uint64_t end = 0;
};
thread_local TicketBlock t_ticket_block;

uint64_t DrawTicket() {
  TicketBlock& block = t_ticket_block;
  if (block.next == block.end) {
    block.next =
        g_next_ticket.fetch_add(kTicketBlock, std::memory_order_relaxed);
    block.end = block.next + kTicketBlock;
  }
  return block.next++;
}

// Number of epoch traversals in flight. The fast path requires exclusive
// ownership of the mark words it stamps; the counter hands that ownership to
// at most one traversal at a time (acq_rel on both ends makes the previous
// owner's relaxed mark writes visible to the next owner). A traversal that
// loses the race — two SUs walking concurrently, overlapping or not — takes
// the pointer-set path, whose scratch it owns exclusively.
std::atomic<uint32_t> g_active_epoch_walkers{0};

// Visited policies. Both claim nodes in identical order, so the BFS discovery
// sequence — and therefore every downstream provenance artifact — is byte
// identical across paths.
struct HashVisited {
  traversal_internal::PointerSet& set;
  static constexpr bool failed = false;  // the side table cannot collide

  bool TryClaimRoot(Tuple* t) { return set.Insert(t); }
  bool TryClaim(Tuple* t) { return set.Insert(t); }
};

struct EpochVisited {
  uint64_t ticket;
  bool failed = false;

  // Root claim: a relaxed CAS — the one place where a claim collision
  // (another actor writing mark words despite the walker token) can surface;
  // failure falls the whole traversal back to the pointer-set path.
  bool TryClaimRoot(Tuple* t) {
    std::atomic<uint64_t>& mark = t->traversal_mark();
    uint64_t cur = mark.load(std::memory_order_relaxed);
    if (cur == ticket) return false;  // already claimed by this traversal
    if (!mark.compare_exchange_strong(cur, ticket, std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
      failed = true;
      return false;
    }
    return true;
  }

  // Interior claims: the walker token grants exclusive ownership of every
  // mark word for the duration of the walk (hash-path traversers never touch
  // them, other epoch traversers fell back at entry), so a relaxed
  // load + store pair suffices — a locked CAS here costs ~20x the store
  // (measured) for a race the token already excludes. TSan plus the
  // concurrent-traversal stress gate the exclusivity invariant.
  bool TryClaim(Tuple* t) {
    std::atomic<uint64_t>& mark = t->traversal_mark();
    if (mark.load(std::memory_order_relaxed) == ticket) return false;
    mark.store(ticket, std::memory_order_relaxed);
    return true;
  }
};

// A claim collision can only surface at the root claim (interior claims
// cannot fail), so a failed Walk returns before appending anything and the
// caller can simply rerun on the pointer-set path.
template <typename Visited>
void Walk(Tuple* root, std::vector<Tuple*>& result,
          traversal_internal::WorkRing& ring, Visited& visited) {
  ring.Clear();
  if (!visited.TryClaimRoot(root)) return;
  ring.Push(root);
  while (!ring.Empty()) {
    Tuple* t = ring.Pop();
    auto enqueue = [&](Tuple* c) {
      if (c != nullptr && visited.TryClaim(c)) ring.Push(c);
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
  mem::AddTraversalScratchBytes(
      static_cast<int64_t>(new_capacity * sizeof(Slot)));
  const size_t mask = new_capacity - 1;
  for (size_t i = 0; i < capacity_; ++i) {
    if (slots_[i].gen != gen_) continue;
    size_t j = Hash(slots_[i].ptr) & mask;
    while (new_slots[j].gen == gen_) j = (j + 1) & mask;
    new_slots[j] = slots_[i];
  }
  if (slots_ != inline_) {
    delete[] slots_;
    mem::AddTraversalScratchBytes(
        -static_cast<int64_t>(capacity_ * sizeof(Slot)));
  }
  slots_ = new_slots;
  capacity_ = new_capacity;
  ++grows_;
}

void WorkRing::Grow() {
  const size_t new_capacity = capacity_ * 2;
  Tuple** new_data = new Tuple*[new_capacity];
  mem::AddTraversalScratchBytes(
      static_cast<int64_t>(new_capacity * sizeof(Tuple*)));
  // Unwrap the live window [head_, tail_) to the front of the new buffer.
  const size_t n = tail_ - head_;
  for (size_t i = 0; i < n; ++i) {
    new_data[i] = data_[(head_ + i) & (capacity_ - 1)];
  }
  if (data_ != inline_) {
    delete[] data_;
    mem::AddTraversalScratchBytes(
        -static_cast<int64_t>(capacity_ * sizeof(Tuple*)));
  }
  data_ = new_data;
  capacity_ = new_capacity;
  head_ = 0;
  tail_ = n;
  ++grows_;
}

}  // namespace traversal_internal

void FindProvenance(Tuple* root, std::vector<Tuple*>& result,
                    TraversalScratch& scratch, TraversalPath path) {
  if (root == nullptr) return;
  if (path == TraversalPath::kAuto) {
    if (g_active_epoch_walkers.fetch_add(1, std::memory_order_acq_rel) == 0) {
      EpochVisited visited{DrawTicket()};
      Walk(root, result, scratch.ring_, visited);
      g_active_epoch_walkers.fetch_sub(1, std::memory_order_acq_rel);
      // A root-claim collision aborts before anything was appended; redo on
      // the pointer-set path.
      if (!visited.failed) return;
    } else {
      // Another epoch traversal is in flight: it owns the mark words, so
      // this call falls back to the pointer set it owns exclusively.
      g_active_epoch_walkers.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  scratch.visited_.Clear();
  HashVisited visited{scratch.visited_};
  Walk(root, result, scratch.ring_, visited);
}

std::vector<Tuple*> FindProvenance(Tuple* root) {
  std::vector<Tuple*> result;
  TraversalScratch scratch;
  FindProvenance(root, result, scratch);
  return result;
}

}  // namespace genealog
