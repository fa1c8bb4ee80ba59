// Byte-level serialization primitives used by the network layer.
//
// Little-endian fixed-width encodings; explicit and portable enough for the
// loopback transports this repository ships. Readers bounds-check every access
// and throw std::out_of_range on malformed input.
#ifndef GENEALOG_COMMON_SERIALIZE_H_
#define GENEALOG_COMMON_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace genealog {

class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }

  void PutU16(uint16_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  void PutDouble(double v) {
    static_assert(sizeof(double) == 8);
    PutU64(std::bit_cast<uint64_t>(v));
  }

  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  void PutBytes(const uint8_t* data, size_t n) { PutRaw(data, n); }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  void PutRaw(const void* data, size_t n) {
    if (n == 0) return;  // data may be null then
    const size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, data, n);
  }

  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  uint8_t GetU8() {
    Require(1);
    return data_[pos_++];
  }

  uint16_t GetU16() { return GetRaw<uint16_t>(); }
  uint32_t GetU32() { return GetRaw<uint32_t>(); }
  uint64_t GetU64() { return GetRaw<uint64_t>(); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetDouble() { return std::bit_cast<double>(GetU64()); }

  std::string GetString() {
    const uint32_t n = GetU32();
    Require(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  // The next n bytes in place, without a copy.
  std::span<const uint8_t> GetView(size_t n) {
    Require(n);
    const std::span<const uint8_t> view(data_ + pos_, n);
    pos_ += n;
    return view;
  }

  void GetBytes(uint8_t* out, size_t n) {
    Require(n);
    // n == 0 with a null out (an empty vector's data()) is UB for memcpy.
    if (n > 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  T GetRaw() {
    Require(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void Require(size_t n) const {
    if (size_ - pos_ < n) {
      throw std::out_of_range("ByteReader: truncated input");
    }
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace genealog

#endif  // GENEALOG_COMMON_SERIALIZE_H_
