// FNV-1a, 64-bit: the checksum of lineage snapshots and the digest the query
// golden files record. One definition so the two can never disagree.
#ifndef GENEALOG_COMMON_FNV_H_
#define GENEALOG_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace genealog {

inline uint64_t Fnv1a(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline uint64_t Fnv1a(std::string_view s) {
  return Fnv1a(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

}  // namespace genealog

#endif  // GENEALOG_COMMON_FNV_H_
