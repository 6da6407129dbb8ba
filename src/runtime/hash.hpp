#pragma once
// Content hashing for the parallel runtime's memoization layer. FNV-1a
// (64-bit) over length-prefixed fields: fast, dependency-free, and stable
// across runs/platforms — exactly what a content-addressed cache key needs.
// Not cryptographic, and the result cache is shared across tenants and
// persisted to disk, while a hit does not check what produced its key: a
// key collision (accidental or crafted by one tenant) returns another
// request's result. Stronger keys or a checked key preimage are ROADMAP
// item 5.

#include <cstdint>
#include <string>
#include <string_view>

namespace interop::runtime {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Incremental FNV-1a hasher. Each update() is length-prefixed so that
/// ("ab","c") and ("a","bc") hash differently.
class Fnv1a {
 public:
  void update_bytes(const void* data, std::size_t n);
  void update(std::string_view s);
  void update_u64(std::uint64_t v);
  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kFnvOffsetBasis;
};

/// One-shot convenience.
std::uint64_t fnv1a(std::string_view s);

/// 16-char lowercase hex rendering of a digest (journal/JSON friendly).
std::string to_hex(std::uint64_t v);

}  // namespace interop::runtime
