#pragma once
// The one little-endian byte codec behind every binary format in the repo:
// IOSV wire frames (service/wire), IOSG store segments (store/store), IOCE
// cache entries (store/persistent_cache) and IOTR traces (obs/trace).
// Integers are fixed-width little-endian; a string is a u32 length and
// then its bytes.
//
// ByteReader is a bounds-checked cursor that returns false and records why
// instead of throwing: its input is untrusted (socket bytes, disk bytes
// after a crash). A string read takes the caller's length bound, checked
// before any bytes are copied, so a lying length prefix is a clean error,
// never a huge allocation. Failure is sticky: after one failed read every
// later read fails too and error() keeps the first reason.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace interop::base {

/// Appends encoded values to a caller-owned string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  /// Raw bytes, no length prefix (magic words, nested payloads).
  void bytes(std::string_view s) { out_.append(s.data(), s.size()); }
  /// u32 length prefix, then the bytes.
  void str(std::string_view s) {
    u32(std::uint32_t(s.size()));
    bytes(s);
  }
  /// Overwrite the 4 bytes at `at` (already written) with `v`.
  void u32_at(std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) out_[at + i] = char(v >> (8 * i));
  }

 private:
  template <class T>
  void put(T v) {
    char b[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) b[i] = char(v >> (8 * i));
    out_.append(b, sizeof(T));
  }

  std::string& out_;
};

/// Bounds-checked little-endian cursor over a byte view. Never throws and
/// never reads outside the view.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t* v) { return get(v, "truncated u8"); }
  bool u32(std::uint32_t* v) { return get(v, "truncated u32"); }
  bool u64(std::uint64_t* v) { return get(v, "truncated u64"); }

  /// The next `n` raw bytes, as a view into the input.
  bool bytes(std::size_t n, std::string_view* out) {
    if (error_) return false;
    if (remaining() < n) return fail("truncated bytes");
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  /// A u32-length-prefixed string of at most `max_len` bytes.
  bool str(std::string* s, std::uint32_t max_len) {
    std::uint32_t n = 0;
    std::string_view body;
    if (!get(&n, "truncated string length")) return false;
    if (n > max_len) return fail("string length over bound");
    if (remaining() < n) return fail("string length exceeds input");
    bytes(n, &body);
    s->assign(body);
    return true;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }  ///< all consumed
  /// Why the first failed read failed ("" while every read succeeded).
  const char* error() const { return error_ ? error_ : ""; }

 private:
  template <class T>
  bool get(T* v, const char* why) {
    if (error_) return false;
    if (remaining() < sizeof(T)) return fail(why);
    T r = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      r |= T(T(std::uint8_t(data_[pos_ + i])) << (8 * i));
    pos_ += sizeof(T);
    *v = r;
    return true;
  }

  bool fail(const char* why) {
    if (!error_) error_ = why;
    return false;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  const char* error_ = nullptr;
};

}  // namespace interop::base
