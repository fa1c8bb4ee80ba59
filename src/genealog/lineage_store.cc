#include "genealog/lineage_store.h"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "common/fnv.h"
#include "common/int_math.h"
#include "core/type_registry.h"

namespace genealog {

namespace {

bool Contains(const std::vector<uint32_t>& v, uint32_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

void EraseOne(std::vector<uint32_t>& v, uint32_t x) {
  auto it = std::find(v.begin(), v.end(), x);
  assert(it != v.end() && "lineage adjacency mirror out of sync");
  if (it != v.end()) {
    *it = v.back();
    v.pop_back();
  }
}

}  // namespace

LineageStore::LineageStore(LineageOptions options) : options_(options) {
  assert(options_.epoch_records > 0);
}

uint32_t LineageStore::InternLocked(uint64_t id, int64_t ts,
                                    const Tuple& tuple) {
  auto it = id_index_.find(id);
  if (it != id_index_.end()) return it->second;

  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.id = id;
  s.ts = ts;
  s.type_tag = tuple.type_tag();
  s.refs = 0;
  s.live = true;
  s.is_record = false;

  // Dictionary-code the id's node uid, so each slot stores a u16 code
  // instead of repeating the wide prefix.
  const uint64_t uid = NodeUidOf(id);
  auto [code_it, inserted] =
      node_code_.emplace(uid, static_cast<uint16_t>(node_code_.size()));
  if (inserted && node_code_.size() > 65536) {
    throw std::length_error("LineageStore: node uid dictionary overflow");
  }
  s.node_code = code_it->second;

  ByteWriter w;
  SerializeTuple(tuple, w);
  s.bytes = w.TakeBytes();
  bytes_retained_ += s.bytes.size();
  ++tuples_retained_;

  id_index_.emplace(id, slot);
  return slot;
}

void LineageStore::DerefLocked(uint32_t slot) {
  Slot& s = slots_[slot];
  assert(s.refs > 0);
  if (--s.refs != 0) return;
  // No record roots here and no live record lists it as an origin; the
  // adjacency invariant guarantees both lists are already empty.
  assert(s.fwd.empty() && s.bwd.empty());
  id_index_.erase(s.id);
  bytes_retained_ -= s.bytes.size();
  --tuples_retained_;
  s.live = false;
  s.bytes.clear();
  s.bytes.shrink_to_fit();
  s.fwd.clear();
  s.fwd.shrink_to_fit();
  s.bwd.clear();
  s.bwd.shrink_to_fit();
  free_slots_.push_back(slot);
}

void LineageStore::EvictFrontLocked() {
  Epoch epoch = std::move(epochs_.front());
  epochs_.pop_front();
  for (uint32_t d : epoch.records) {
    // Unlink the record's origin edges, then drop the record root itself.
    // The derived slot may survive as an origin of newer records; only its
    // record-ness (and bwd list) goes away.
    std::vector<uint32_t> origins = std::move(slots_[d].bwd);
    slots_[d].bwd.clear();
    for (uint32_t o : origins) {
      EraseOne(slots_[o].fwd, d);
      --edges_retained_;
      DerefLocked(o);
    }
    slots_[d].is_record = false;
    --records_retained_;
    ++records_evicted_;
    DerefLocked(d);
  }
  ++epochs_evicted_;
}

void LineageStore::MaybeEvictLocked() {
  // Whole-epoch granularity, and never the epoch still accepting records:
  // the bound may overshoot by up to one epoch, but the just-ingested record
  // always survives its own Ingest.
  while (epochs_.size() > 1) {
    const bool over_count = options_.retain_records > 0 &&
                            records_retained_ > options_.retain_records;
    const bool over_span =
        options_.retain_span > 0 &&
        epochs_.front().max_ts < SatSub(latest_ts_, options_.retain_span);
    if (!over_count && !over_span) break;
    EvictFrontLocked();
  }
}

void LineageStore::Ingest(const ProvenanceRecord& record) {
  std::unique_lock lock(mu_);
  ++records_ingested_;
  if (!any_ingested_ || record.derived_ts > latest_ts_) {
    latest_ts_ = record.derived_ts;
    any_ingested_ = true;
  }

  const uint32_t d =
      InternLocked(record.derived_id, record.derived_ts, *record.derived);
  if (!slots_[d].is_record) {
    slots_[d].is_record = true;
    ++slots_[d].refs;
    ++records_retained_;
    if (epochs_.empty() || epochs_.back().sealed) {
      epochs_.emplace_back();
      epochs_.back().min_ts = record.derived_ts;
      epochs_.back().max_ts = record.derived_ts;
    }
    Epoch& epoch = epochs_.back();
    epoch.min_ts = std::min(epoch.min_ts, record.derived_ts);
    epoch.max_ts = std::max(epoch.max_ts, record.derived_ts);
    epoch.records.push_back(d);
    if (epoch.records.size() >= options_.epoch_records) epoch.sealed = true;
  }
  // else: a second record for the same derived id (distributed
  // re-finalization) merges origins below; epoch membership stays put.

  for (const TuplePtr& origin : record.origins) {
    // InternLocked may grow slots_, so re-index through slots_[d] each time.
    const uint32_t o = InternLocked(origin->id, origin->ts, *origin);
    if (o == d || Contains(slots_[d].bwd, o)) continue;
    slots_[d].bwd.push_back(o);
    slots_[o].fwd.push_back(d);
    ++slots_[o].refs;
    ++edges_retained_;
  }

  MaybeEvictLocked();
}

LineageStore::Entry LineageStore::MaterializeLocked(uint32_t slot) const {
  const Slot& s = slots_[slot];
  ByteReader r(s.bytes);
  Entry e;
  e.id = s.id;
  e.ts = s.ts;
  e.type_tag = s.type_tag;
  e.tuple = DeserializeTuple(r);
  return e;
}

template <typename Neighbors>
std::vector<LineageStore::Entry> LineageStore::ClosureLocked(
    uint64_t root_id, int max_hops, Neighbors neighbors) const {
  std::vector<Entry> out;
  auto it = id_index_.find(root_id);
  if (it == id_index_.end()) return out;

  std::unordered_set<uint32_t> visited{it->second};
  std::vector<uint32_t> frontier{it->second};
  std::vector<uint32_t> next;
  for (int hop = 0; max_hops < 0 || hop < max_hops; ++hop) {
    if (frontier.empty()) break;
    next.clear();
    for (uint32_t slot : frontier) {
      neighbors(slots_[slot], [&](uint32_t n) {
        if (visited.insert(n).second) {
          next.push_back(n);
          out.push_back(MaterializeLocked(n));
        }
      });
    }
    frontier.swap(next);
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  return out;
}

std::vector<LineageStore::Entry> LineageStore::Contributors(
    uint64_t sink_tuple_id) const {
  std::shared_lock lock(mu_);
  return ClosureLocked(sink_tuple_id, -1, [](const Slot& s, auto&& visit) {
    for (uint32_t n : s.bwd) visit(n);
  });
}

std::vector<LineageStore::Entry> LineageStore::DerivedFrom(
    uint64_t source_tuple_id) const {
  std::shared_lock lock(mu_);
  return ClosureLocked(source_tuple_id, -1, [](const Slot& s, auto&& visit) {
    for (uint32_t n : s.fwd) visit(n);
  });
}

std::vector<LineageStore::Entry> LineageStore::Expand(uint64_t tuple_id,
                                                      int hops) const {
  std::shared_lock lock(mu_);
  return ClosureLocked(tuple_id, hops < 0 ? 0 : hops,
                       [](const Slot& s, auto&& visit) {
                         for (uint32_t n : s.bwd) visit(n);
                         for (uint32_t n : s.fwd) visit(n);
                       });
}

std::optional<LineageStore::Entry> LineageStore::Lookup(
    uint64_t tuple_id) const {
  std::shared_lock lock(mu_);
  auto it = id_index_.find(tuple_id);
  if (it == id_index_.end()) return std::nullopt;
  return MaterializeLocked(it->second);
}

std::vector<uint64_t> LineageStore::RetainedRecordIds() const {
  std::shared_lock lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(records_retained_);
  for (const Epoch& epoch : epochs_) {
    for (uint32_t d : epoch.records) out.push_back(slots_[d].id);
  }
  return out;
}

LineageStore::Stats LineageStore::stats() const {
  std::shared_lock lock(mu_);
  Stats s;
  s.records_ingested = records_ingested_;
  s.records_retained = records_retained_;
  s.tuples_retained = tuples_retained_;
  s.edges_retained = edges_retained_;
  s.records_evicted = records_evicted_;
  s.epochs_evicted = epochs_evicted_;
  s.bytes_retained = bytes_retained_;
  s.node_uids = node_code_.size();
  if (records_retained_ > 0) {
    s.min_retained_ts = epochs_.front().min_ts;
    s.max_retained_ts = epochs_.front().max_ts;
    for (const Epoch& epoch : epochs_) {
      s.min_retained_ts = std::min(s.min_retained_ts, epoch.min_ts);
      s.max_retained_ts = std::max(s.max_retained_ts, epoch.max_ts);
    }
  }
  return s;
}

std::vector<LineageStore::Entry> LineageStore::Select(
    const LineagePredicate& p) const {
  std::shared_lock lock(mu_);
  std::vector<Entry> out;
  int node_code = -1;
  if (p.has_node_uid) {
    auto it = node_code_.find(p.node_uid);
    if (it == node_code_.end()) return out;  // uid never interned
    node_code = it->second;
  }
  std::vector<uint32_t> matches;
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (!s.live) continue;
    if (s.ts < p.min_ts || s.ts > p.max_ts) continue;
    if (node_code >= 0 && s.node_code != node_code) continue;
    if (p.records_only && !s.is_record) continue;
    matches.push_back(i);
  }
  std::sort(matches.begin(), matches.end(), [this](uint32_t a, uint32_t b) {
    return slots_[a].ts != slots_[b].ts ? slots_[a].ts < slots_[b].ts
                                        : slots_[a].id < slots_[b].id;
  });
  if (p.limit > 0 && matches.size() > p.limit) matches.resize(p.limit);
  out.reserve(matches.size());
  for (uint32_t slot : matches) out.push_back(MaterializeLocked(slot));
  return out;
}

namespace {

// The snapshot layout is described in genealog/provenance_record.h, beside
// the blocks it embeds: a snapshot restores through the exact Ingest path
// the live consumer exercises, and the leading checksum is what turns torn
// writes and bit flips into a load-time rejection.
constexpr uint32_t kSnapshotMagic = 0x4E534C47;  // "GLSN" little-endian
constexpr uint32_t kSnapshotVersion = 3;

}  // namespace

void LineageStore::SaveSnapshot(const std::string& path) const {
  ByteWriter payload;
  {
    std::shared_lock lock(mu_);
    payload.PutU64(records_ingested_);
    payload.PutU64(records_retained_);
    payload.PutU64(records_evicted_);
    payload.PutU64(epochs_evicted_);
    payload.PutI64(latest_ts_);
    payload.PutU8(any_ingested_ ? 1 : 0);
    payload.PutU32(static_cast<uint32_t>(epochs_.size()));
    for (const Epoch& epoch : epochs_) {
      ProvenanceBlockEncoder blocks(/*file_header=*/false);
      for (uint32_t d : epoch.records) {
        ProvenanceRecord rec;
        rec.derived = MaterializeLocked(d).tuple;
        for (uint32_t o : slots_[d].bwd) {
          rec.origins.push_back(MaterializeLocked(o).tuple);
        }
        blocks.Add(rec);
      }
      blocks.Seal();
      payload.PutU8(epoch.sealed ? 1 : 0);
      payload.PutU32(static_cast<uint32_t>(blocks.blocks()));
      payload.PutBytes(blocks.sealed().data(), blocks.sealed().size());
    }
  }

  ByteWriter header;
  header.PutU32(kSnapshotMagic);
  header.PutU32(kSnapshotVersion);
  header.PutU64(payload.size());
  header.PutU64(Fnv1a(payload.bytes().data(), payload.size()));

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("LineageStore: cannot write snapshot " + tmp);
  }
  const bool wrote =
      std::fwrite(header.bytes().data(), 1, header.size(), f) ==
          header.size() &&
      std::fwrite(payload.bytes().data(), 1, payload.size(), f) ==
          payload.size();
  const bool flushed = std::fflush(f) == 0;
  // The data must be durable before the rename is: otherwise a power loss
  // can persist the rename first and lose the previous snapshot too.
  const char* failed = nullptr;
  if (!wrote || !flushed) {
    failed = "write";
  } else if (::fsync(fileno(f)) != 0) {
    failed = "fsync";
  }
  if (std::fclose(f) != 0 && failed == nullptr) failed = "close";
  if (failed == nullptr && std::rename(tmp.c_str(), path.c_str()) != 0) {
    failed = "rename";
  }
  if (failed != nullptr) {
    std::remove(tmp.c_str());
    throw std::runtime_error(std::string("LineageStore: snapshot ") + failed +
                             " failed for " + path);
  }
}

uint64_t LineageStore::LoadSnapshot(const std::string& path) {
  {
    std::shared_lock lock(mu_);
    if (any_ingested_) {
      throw std::logic_error(
          "LineageStore: LoadSnapshot requires an empty store");
    }
  }
  const std::vector<uint8_t> bytes = ReadFileBytes(path, "lineage snapshot");
  // magic + version + payload size + checksum
  constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;
  if (bytes.size() < kHeaderBytes) {
    throw std::runtime_error("LineageStore: snapshot truncated before header");
  }
  ByteReader r(bytes);
  if (r.GetU32() != kSnapshotMagic) {
    throw std::runtime_error("LineageStore: " + path +
                             " is not a lineage snapshot (bad magic)");
  }
  const uint32_t version = r.GetU32();
  if (version != kSnapshotVersion) {
    throw std::runtime_error("LineageStore: unsupported snapshot version " +
                             std::to_string(version));
  }
  const uint64_t payload_size = r.GetU64();
  const uint64_t checksum = r.GetU64();
  if (payload_size != r.remaining()) {
    throw std::runtime_error(
        "LineageStore: snapshot payload size mismatch (truncated or trailing "
        "bytes)");
  }
  if (Fnv1a(bytes.data() + kHeaderBytes, payload_size) != checksum) {
    throw std::runtime_error("LineageStore: snapshot checksum mismatch");
  }

  // r now reads the payload; block errors name file offsets.
  const std::string source = "lineage snapshot " + path;
  const uint64_t saved_ingested = r.GetU64();
  const uint64_t saved_retained = r.GetU64();
  const uint64_t saved_evicted = r.GetU64();
  const uint64_t saved_epochs_evicted = r.GetU64();
  const int64_t saved_latest_ts = r.GetI64();
  const bool saved_any = r.GetU8() != 0;
  const uint32_t epoch_count = r.GetU32();

  uint64_t restored = 0;
  uint64_t block = 0;
  for (uint32_t e = 0; e < epoch_count; ++e) {
    const bool sealed = r.GetU8() != 0;
    const uint32_t block_count = r.GetU32();
    for (uint32_t i = 0; i < block_count; ++i, ++block) {
      restored += ReadProvenanceBlock(
          r, source, block, [this](ProvenanceRecord& rec) { Ingest(rec); });
    }
    // Preserve the saving store's epoch boundaries: every group but possibly
    // the last was sealed, and the next group must open a fresh epoch.
    if (sealed) {
      std::unique_lock lock(mu_);
      if (!epochs_.empty()) epochs_.back().sealed = true;
    }
  }
  if (!r.AtEnd()) {
    throw std::runtime_error("LineageStore: snapshot has trailing bytes");
  }
  if (restored != saved_retained) {
    throw std::runtime_error(
        "LineageStore: snapshot retained-record count mismatch");
  }

  // The replay recreated the retained window; the history counters carry over
  // from the saving store (plus any eviction the replay itself performed
  // under tighter retention options).
  std::unique_lock lock(mu_);
  records_ingested_ = saved_ingested;
  records_evicted_ += saved_evicted;
  epochs_evicted_ += saved_epochs_evicted;
  if (saved_any && (!any_ingested_ || saved_latest_ts > latest_ts_)) {
    latest_ts_ = saved_latest_ts;
  }
  any_ingested_ = any_ingested_ || saved_any;
  return restored;
}

uint64_t ReplayProvenanceFile(const std::string& path, LineageStore& store) {
  return ReadProvenanceFile(
      path, [&store](ProvenanceRecord& rec) { store.Ingest(rec); });
}

}  // namespace genealog
