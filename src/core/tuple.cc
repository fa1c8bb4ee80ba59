#include "core/tuple.h"

#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/small_vec.h"

namespace genealog {

const char* ToString(TupleKind kind) {
  switch (kind) {
    case TupleKind::kSource:
      return "SOURCE";
    case TupleKind::kMap:
      return "MAP";
    case TupleKind::kMultiplex:
      return "MULTIPLEX";
    case TupleKind::kJoin:
      return "JOIN";
    case TupleKind::kAggregate:
      return "AGGREGATE";
    case TupleKind::kRemote:
      return "REMOTE";
  }
  return "?";
}

TupleKind TupleKindFromWire(uint8_t byte) {
  if (byte > static_cast<uint8_t>(TupleKind::kRemote)) {
    throw std::runtime_error("invalid tuple kind " + std::to_string(byte));
  }
  return static_cast<TupleKind>(byte);
}

Tuple::~Tuple() {
  // Meta pointers are detached by the release cascade before deletion; a
  // tuple destroyed with pointers still set would leak its references.
  assert(u1_ == nullptr && u2_ == nullptr &&
         next_.load(std::memory_order_relaxed) == nullptr);
}

void Tuple::set_u1(Tuple* t) {
  Tuple* old = u1_;
  if (t != nullptr) intrusive_ref(t);
  u1_ = t;
  if (old != nullptr) intrusive_unref(old);
}

void Tuple::set_u2(Tuple* t) {
  Tuple* old = u2_;
  if (t != nullptr) intrusive_ref(t);
  u2_ = t;
  if (old != nullptr) intrusive_unref(old);
}

bool Tuple::try_set_next(Tuple* t) {
  if (t == nullptr) return false;
  intrusive_ref(t);
  Tuple* expected = nullptr;
  if (next_.compare_exchange_strong(expected, t, std::memory_order_release,
                                    std::memory_order_acquire)) {
    return true;
  }
  // Already linked. Sliding windows re-link the same successor; anything else
  // would mean one tuple object was consumed into the state of two different
  // stateful operators, which the topology rules out.
  intrusive_unref(t);
  assert(expected == t);
  return expected == t;
}

void Tuple::set_baseline_annotation(std::vector<uint64_t> ids) {
  const int64_t bytes =
      static_cast<int64_t>(ids.capacity() * sizeof(uint64_t)) +
      static_cast<int64_t>(sizeof(std::vector<uint64_t>));
  bl_ = std::make_unique<std::vector<uint64_t>>(std::move(ids));
  accounted_bytes_ += bytes;
  mem::Add(owner_instance_, bytes);
}

void Tuple::FinishAccounting() {
  owner_instance_ = mem::CurrentInstance();
  accounted_bytes_ =
      static_cast<int64_t>(SelfBytes()) + static_cast<int64_t>(DynamicBytes());
  mem::Add(owner_instance_, accounted_bytes_, /*tuples=*/1);
}

void intrusive_unref(const Tuple* tc) noexcept {
  Tuple* t = const_cast<Tuple*>(tc);
  if (t->refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  // Iterative cascade: releasing a sink tuple reclaims its whole contribution
  // graph. Children are detached before destruction so ~Tuple never recurses
  // through U1/U2/N (an Aggregate N-chain can be arbitrarily long). Storage
  // is recycled into the tuple pool under the size class stamped at
  // MakeTuple time — the releasing thread's cache, which keeps cross-thread
  // release (producer allocates, downstream drops the last ref) a local
  // operation. The work stack lives inline: a release allocates nothing
  // unless more than 16 tuples die at once.
  SmallVec<Tuple*, 16> dead;
  dead.push_back(t);
  while (!dead.empty()) {
    Tuple* d = dead.back();
    dead.pop_back();
    Tuple* children[3] = {d->u1_, d->u2_,
                          d->next_.load(std::memory_order_acquire)};
    d->u1_ = nullptr;
    d->u2_ = nullptr;
    d->next_.store(nullptr, std::memory_order_relaxed);
    mem::Sub(d->owner_instance_, d->accounted_bytes_, /*tuples=*/1);
    const uint8_t pool_class = d->pool_class_;
    d->~Tuple();  // virtual: destroys the most-derived tuple
    pool::Deallocate(d, pool_class);
    for (Tuple* child : children) {
      if (child != nullptr &&
          child->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        dead.push_back(child);
      }
    }
  }
}

}  // namespace genealog
