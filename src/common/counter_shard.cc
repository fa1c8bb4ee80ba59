#include "common/counter_shard.h"

#include <algorithm>
#include <mutex>
#include <vector>

namespace genealog::counters {
namespace {

struct Registry {
  std::mutex mu;
  std::vector<Shard*> attached;  // guarded by mu
  Totals retired{};              // guarded by mu; what exited threads counted
  Totals highest{};              // guarded by mu; see Highest
};

// Leaked on purpose: a thread may count from a static destructor, after every
// thread-local and static of its own is gone.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

// Set once the thread's Retirer ran; trivially destructible, so it can be
// read until the thread is gone.
thread_local bool tl_retired = false;

// Moves the thread's shard into the retired total at thread exit.
struct Retirer {
  ~Retirer() {
    Shard* s = tl_shard;
    tl_shard = nullptr;
    tl_retired = true;
    {
      Registry& r = registry();
      std::lock_guard lock(r.mu);
      for (int i = 0; i < kSlots; ++i) {
        r.retired[i] += s->v[i].load(std::memory_order_relaxed);
      }
      std::erase(r.attached, s);
    }
    delete s;
  }
};

}  // namespace

Shard& Attach() {
  Shard* s = new Shard;
  {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    r.attached.push_back(s);
  }
  tl_shard = s;
  // A thread counting again after its Retirer ran (a release in a later
  // thread-local or static destructor) keeps this shard attached for good.
  if (!tl_retired) {
    thread_local Retirer retirer;
    (void)retirer;
  }
  return *s;
}

Totals Fold() {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  Totals t = r.retired;
  for (const Shard* s : r.attached) {
    for (int i = 0; i < kSlots; ++i) {
      t[i] += s->v[i].load(std::memory_order_relaxed);
    }
  }
  for (int i = 0; i < kSlots; ++i) r.highest[i] = std::max(r.highest[i], t[i]);
  return t;
}

int64_t Highest(int slot) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  return r.highest[slot];
}

void Reset(int first, int last) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  for (int i = first; i < last; ++i) {
    r.retired[i] = 0;
    r.highest[i] = 0;
    for (Shard* s : r.attached) s->v[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace genealog::counters
