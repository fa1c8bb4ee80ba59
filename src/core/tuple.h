// The tuple model.
//
// Every tuple flowing through the engine derives from Tuple, which carries:
//  * ts        — the application timestamp (§2: attribute ts);
//  * id        — a 64-bit unique id (producer node uid + sequence, §6);
//  * stimulus  — wall-clock ns of the latest contributing source tuple,
//                maintained for the paper's latency metric;
//  * the four GeneaLog meta-attributes (§4): kind (T), u1 (U1), u2 (U2) and
//    next (N), the latter three being *owning* references into the
//    contribution graph;
//  * an optional baseline (Ariadne-style) variable-length annotation.
//
// Reclamation reproduces the paper's C2 property: the JVM's reachability-based
// garbage collection is replaced by intrusive reference counting. A source
// tuple stays alive exactly as long as some downstream tuple (transitively)
// references it through U1/U2/N; dropping the last reference reclaims the
// whole contribution graph via an iterative cascade (never recursive, so
// arbitrarily long Aggregate N-chains cannot overflow the stack). The cascade
// does not free storage to the OS: blocks recycle into the tuple pool
// (common/tuple_pool.h) the next MakeTuple draws from.
#ifndef GENEALOG_CORE_TUPLE_H_
#define GENEALOG_CORE_TUPLE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/intrusive_ptr.h"
#include "common/memory_accounting.h"
#include "common/serialize.h"
#include "common/tuple_pool.h"

namespace genealog {

// The GeneaLog Type (T) meta-attribute (§4): which operator created the tuple.
// Forwarding operators (Filter, Union) define no value, per the paper.
enum class TupleKind : uint8_t {
  kSource = 0,
  kMap = 1,
  kMultiplex = 2,
  kJoin = 3,
  kAggregate = 4,
  kRemote = 5,
};

const char* ToString(TupleKind kind);

// Decodes a wire byte into a TupleKind. Throws std::runtime_error ("invalid
// tuple kind") for a byte outside kSource..kRemote, so a corrupt header can
// never reach the traversal's switch (which would drop its origins) or MU
// (which would treat it as REMOTE).
TupleKind TupleKindFromWire(uint8_t byte);

class Tuple;
using TuplePtr = IntrusivePtr<Tuple>;

void intrusive_ref(const Tuple* t) noexcept;
void intrusive_unref(const Tuple* t) noexcept;

// Tuple::id layout: the producing node's uid in the high 24 bits, the node's
// sequence number in the low 40 (Node::NextTupleId mints them).
inline constexpr int kTupleSeqBits = 40;
inline constexpr uint64_t kTupleSeqMask = (uint64_t{1} << kTupleSeqBits) - 1;
inline constexpr uint64_t NodeUidOf(uint64_t id) { return id >> kTupleSeqBits; }

class Tuple {
 public:
  explicit Tuple(int64_t ts) : ts(ts) {}
  virtual ~Tuple();

  Tuple& operator=(const Tuple&) = delete;

  int64_t ts = 0;
  uint64_t id = 0;
  int64_t stimulus = 0;
  TupleKind kind = TupleKind::kSource;

  // --- GeneaLog meta-attribute accessors -----------------------------------
  Tuple* u1() const { return u1_; }
  Tuple* u2() const { return u2_; }
  Tuple* next() const { return next_.load(std::memory_order_acquire); }

  // Owning setters; a previously set pointer is released. Set by the operator
  // that creates the tuple, before the tuple is emitted downstream.
  void set_u1(Tuple* t);
  void set_u2(Tuple* t);

  // Set-once CAS for the Aggregate N-chain. Sliding windows legitimately
  // re-link the same successor; the CAS makes the second attempt a no-op.
  // Returns true if `t` is the link after the call (set now or already equal).
  bool try_set_next(Tuple* t);

  // --- Baseline (Ariadne-style) annotation ----------------------------------
  // Sorted, deduplicated list of contributing source-tuple ids. Immutable once
  // set. Null unless the query runs in baseline provenance mode.
  const std::vector<uint64_t>* baseline_annotation() const { return bl_.get(); }
  void set_baseline_annotation(std::vector<uint64_t> ids);

  // --- Polymorphic payload interface ----------------------------------------
  virtual uint16_t type_tag() const = 0;
  virtual const char* type_name() const = 0;
  // Copies ts, stimulus and the payload into a fresh tuple; id, kind and all
  // meta-attributes are left at their defaults (the creating operator
  // instruments the clone). Used by Multiplex.
  virtual TuplePtr CloneTuple() const = 0;
  virtual void SerializePayload(ByteWriter& w) const = 0;
  // Static footprint of the object, for memory accounting.
  virtual size_t SelfBytes() const = 0;
  // Dynamic payload bytes (strings, vectors); default none.
  virtual size_t DynamicBytes() const { return 0; }
  // Human-readable payload, for examples and debugging.
  virtual std::string DebugPayload() const { return ""; }

  int owner_instance() const { return owner_instance_; }

  // The dynamic type tag without virtual dispatch: MakeTuple stamps
  // T::kTypeTag into the header at construction time, so hot cloning paths
  // (Multiplex/Router chunks) can key a cached direct-call cloner on it
  // instead of paying the type_tag()/CloneTuple() vtable pair per tuple (see
  // CloneCache in core/type_registry.h). 0 = unknown (a type built outside
  // the CRTP that declares no kTypeTag); callers must fall back to the
  // virtual CloneTuple then.
  uint16_t fast_type_tag() const { return fast_tag_; }

 protected:
  // Clone/copy support: copies ts and stimulus only. Reference count, meta
  // pointers, id, kind and annotation all start fresh.
  Tuple(const Tuple& other)
      : ts(other.ts), stimulus(other.stimulus) {}

 private:
  friend void intrusive_ref(const Tuple* t) noexcept;
  friend void intrusive_unref(const Tuple* t) noexcept;
  template <typename T, typename... Args>
  friend IntrusivePtr<T> MakeTuple(Args&&... args);

  void FinishAccounting();

  mutable std::atomic<uint32_t> refs_{0};
  // Size class the object's storage came from (pool::kHeapClass when heap
  // allocated); stamped by MakeTuple, consumed by the release cascade so the
  // block is recycled into the pool it was carved from. Lives in the padding
  // after refs_, so provenance storage stays the paper's constant size.
  uint8_t pool_class_ = pool::kHeapClass;
  // Cached type_tag(), stamped by MakeTuple (see fast_type_tag()). Shares
  // the same padding bytes as pool_class_ — no size growth.
  uint16_t fast_tag_ = 0;
  std::atomic<Tuple*> next_{nullptr};
  Tuple* u1_ = nullptr;
  Tuple* u2_ = nullptr;
  std::unique_ptr<std::vector<uint64_t>> bl_;
  int owner_instance_ = 0;
  int64_t accounted_bytes_ = 0;
};

// Creates a tuple attributed to the calling thread's SPE instance. All tuple
// creation must go through this helper so memory accounting stays exact and
// storage comes from the recycling pool (see common/tuple_pool.h); placement
// construction runs every member initializer, so a recycled block can never
// leak stale provenance pointers into a new tuple.
template <typename T, typename... Args>
IntrusivePtr<T> MakeTuple(Args&&... args) {
  static_assert(alignof(T) <= pool::kBlockAlign,
                "over-aligned tuple types need a pool size-class redesign");
  uint8_t size_class = pool::kHeapClass;
  void* mem = pool::Allocate(sizeof(T), size_class);
  T* t;
  try {
    t = new (mem) T(std::forward<Args>(args)...);
  } catch (...) {
    pool::Deallocate(mem, size_class);
    throw;
  }
  // The release cascade recycles through a Tuple*, so the base subobject must
  // sit at the block start (single-inheritance tuples always satisfy this).
  assert(static_cast<void*>(static_cast<Tuple*>(t)) == mem);
  t->pool_class_ = size_class;
  // Cache the dynamic tag for the same-class clone fast path. A compile-time
  // constant for CRTP schema types; types without a static tag keep 0 and
  // cloners fall back to virtual dispatch.
  if constexpr (requires { T::kTypeTag; }) {
    t->fast_tag_ = T::kTypeTag;
  }
  t->FinishAccounting();
  return IntrusivePtr<T>(t);
}

inline void intrusive_ref(const Tuple* t) noexcept {
  t->refs_.fetch_add(1, std::memory_order_relaxed);
}

// Defined out of line: runs the iterative cascade.
void intrusive_unref(const Tuple* t) noexcept;

}  // namespace genealog

#endif  // GENEALOG_CORE_TUPLE_H_
