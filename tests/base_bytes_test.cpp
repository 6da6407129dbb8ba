// Edge cases for the shared byte codec (base/bytes.hpp): truncation at
// every prefix, lying length prefixes, empty strings, integer extremes,
// and sticky failure. Runs under the ASan+UBSan CI job like every test, so
// any out-of-bounds read here is a sanitizer failure, not just a mismatch.

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "base/bytes.hpp"

namespace interop::base {
namespace {

constexpr std::uint32_t kBound = 64;

/// u8 | u32 | u64 | str | str("") — every reader method once.
std::string sample() {
  std::string out;
  ByteWriter w(out);
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.str("hello");
  w.str("");
  return out;
}

/// Decode sample(); true only if every field matched and nothing is left.
bool read_sample(std::string_view bytes, std::string* error) {
  ByteReader r(bytes);
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  std::string d = "x", e = "x";
  bool ok = r.u8(&a) && r.u32(&b) && r.u64(&c) && r.str(&d, kBound) &&
            r.str(&e, kBound);
  *error = r.error();
  EXPECT_EQ(ok, error->empty());
  if (!ok) return false;
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xdeadbeefu);
  EXPECT_EQ(c, 0x0123456789abcdefull);
  EXPECT_EQ(d, "hello");
  EXPECT_EQ(e, "");
  return r.done();
}

TEST(BaseBytes, WriterIsLittleEndian) {
  std::string out;
  ByteWriter w(out);
  w.u32(0x04030201);
  w.u64(0x0807060504030201ull);
  w.str("ab");
  EXPECT_EQ(out, std::string("\x01\x02\x03\x04"
                             "\x01\x02\x03\x04\x05\x06\x07\x08"
                             "\x02\0\0\0ab",
                             18));
}

TEST(BaseBytes, WholeBufferRoundTrips) {
  std::string error;
  EXPECT_TRUE(read_sample(sample(), &error));
  EXPECT_EQ(error, "");
}

TEST(BaseBytes, EveryPrefixFailsCleanly) {
  const std::string full = sample();
  for (std::size_t n = 0; n < full.size(); ++n) {
    // A heap copy of exactly n bytes, so ASan flags any read past it.
    std::string prefix = full.substr(0, n);
    std::string error;
    EXPECT_FALSE(read_sample(prefix, &error)) << "prefix " << n;
    EXPECT_NE(error, "") << "prefix " << n;
  }
}

TEST(BaseBytes, MaxLengthPrefixFailsWithoutAllocating) {
  std::string bytes;
  ByteWriter(bytes).u32(0xFFFFFFFFu);
  bytes += "tiny";
  ByteReader r(bytes);
  std::string s;
  EXPECT_FALSE(r.str(&s, std::numeric_limits<std::uint32_t>::max()));
  EXPECT_STREQ(r.error(), "string length exceeds input");
  EXPECT_TRUE(s.empty());

  ByteReader bounded(bytes);
  EXPECT_FALSE(bounded.str(&s, kBound));
  EXPECT_STREQ(bounded.error(), "string length over bound");
}

TEST(BaseBytes, LengthJustOverTheCallersBound) {
  std::string at, over;
  ByteWriter(at).str(std::string(kBound, 'a'));
  ByteWriter(over).str(std::string(kBound + 1, 'a'));

  std::string s;
  ByteReader ok(at);
  EXPECT_TRUE(ok.str(&s, kBound));
  EXPECT_EQ(s.size(), kBound);
  EXPECT_TRUE(ok.done());

  ByteReader r(over);
  EXPECT_FALSE(r.str(&s, kBound));
  EXPECT_STREQ(r.error(), "string length over bound");
}

TEST(BaseBytes, ZeroLengthStrings) {
  std::string bytes;
  ByteWriter w(bytes);
  w.str("");
  w.str("");
  ASSERT_EQ(bytes.size(), 8u);
  ByteReader r(bytes);
  std::string a = "stale", b = "stale";
  EXPECT_TRUE(r.str(&a, 0));
  EXPECT_TRUE(r.str(&b, kBound));
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, "");
  EXPECT_TRUE(r.done());

  std::string_view raw = "x";
  ByteReader empty("");
  EXPECT_TRUE(empty.bytes(0, &raw));
  EXPECT_TRUE(raw.empty());
  EXPECT_TRUE(empty.done());
}

TEST(BaseBytes, U64Extremes) {
  const std::uint64_t values[] = {0, 1, 0x7fffffffffffffffull,
                                  0x8000000000000000ull,
                                  std::numeric_limits<std::uint64_t>::max()};
  std::string bytes;
  ByteWriter w(bytes);
  for (std::uint64_t v : values) w.u64(v);
  w.u32(std::numeric_limits<std::uint32_t>::max());
  ByteReader r(bytes);
  for (std::uint64_t v : values) {
    std::uint64_t got = 42;
    ASSERT_TRUE(r.u64(&got));
    EXPECT_EQ(got, v);
  }
  std::uint32_t top = 0;
  EXPECT_TRUE(r.u32(&top));
  EXPECT_EQ(top, std::numeric_limits<std::uint32_t>::max());
  EXPECT_TRUE(r.done());
}

TEST(BaseBytes, FailureIsStickyAndKeepsTheFirstError) {
  std::string bytes;
  ByteWriter w(bytes);
  w.u32(7);
  w.u64(9);
  ByteReader r(std::string_view(bytes).substr(0, 6));
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  ASSERT_TRUE(r.u32(&a));
  EXPECT_FALSE(r.u64(&b));
  EXPECT_STREQ(r.error(), "truncated u64");
  const std::size_t pos = r.pos();

  // Reads that would succeed on the remaining bytes still fail, and the
  // first reason is kept.
  std::uint8_t c = 0;
  std::string s;
  std::string_view v;
  EXPECT_FALSE(r.u8(&c));
  EXPECT_FALSE(r.bytes(1, &v));
  EXPECT_FALSE(r.str(&s, kBound));
  EXPECT_FALSE(r.u32(&a));
  EXPECT_STREQ(r.error(), "truncated u64");
  EXPECT_EQ(r.pos(), pos);
}

}  // namespace
}  // namespace interop::base
