// Byte-format goldens for the four little-endian binary formats: the IOSV
// wire frames, IOSG store segments, IOCE cache entries and IOTR trace
// binaries. Each digest was captured from the hand-rolled codecs before
// they were merged into base/bytes.hpp, so any drift in a format — field
// order, width, endianness, a length prefix — fails here byte for byte.
//
// Trace timestamps come from the steady clock, so the trace leg works the
// other way round: it decodes a checked-in IOTR blob into known events,
// and compares write_binary's output with a reference encoder written out
// byte by byte below.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "runtime/hash.hpp"
#include "service/wire.hpp"
#include "store/persistent_cache.hpp"
#include "store/store.hpp"

namespace interop {
namespace {

/// Length and FNV-1a of a byte string, in one comparable line.
std::string digest(const std::string& bytes) {
  return std::to_string(bytes.size()) + ":" +
         runtime::to_hex(runtime::fnv1a(bytes));
}

std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(char(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
}

/// Every C0 control character plus DEL and a quote and backslash.
std::string control_chars() {
  std::string s;
  for (int c = 0; c < 0x20; ++c) s.push_back(char(c));
  s += "\x7f\"\\";
  return s;
}

// ------------------------------------------------------------ IOSV wire

service::Request golden_request() {
  service::Request r;
  r.id = 0x0102030405060708ull;
  r.type = service::MsgType::Netlist;
  r.tenant = "tenant-a";
  r.design = "design text\n";
  r.cell = "top";
  r.dialect = "viewlogic";
  r.width = 7;
  r.latency_us = 250;
  r.seed = std::numeric_limits<std::uint64_t>::max();
  return r;
}

service::Response golden_response() {
  service::Response r;
  r.id = 42;
  r.status = service::Status::Rejected;
  r.retry_after_us = 2000;
  r.error = control_chars();
  r.body = "body";
  r.counters = {{"nets", 12},
                {"max", std::numeric_limits<std::uint64_t>::max()},
                {"", 0}};
  return r;
}

TEST(ByteFormatGolden, WireRequestFrame) {
  std::string frame = service::encode_request(golden_request());
  EXPECT_EQ(digest(frame), "92:f3973a207a8cfc14");
  EXPECT_EQ(frame.substr(0, 12), std::string("IOSV\x01\0\0\0\x50\0\0\0", 12));

  service::FrameReader reader;
  reader.feed(frame);
  std::string payload, error;
  ASSERT_EQ(reader.next(&payload, &error), service::FrameReader::Result::Frame);
  service::Request decoded;
  ASSERT_TRUE(service::decode_request(payload, &decoded, &error)) << error;
  EXPECT_EQ(decoded, golden_request());
}

TEST(ByteFormatGolden, WireResponseFrame) {
  std::string frame = service::encode_response(golden_response());
  EXPECT_EQ(digest(frame), "126:e1c14afcd542f126");

  service::FrameReader reader;
  reader.feed(frame);
  std::string payload, error;
  ASSERT_EQ(reader.next(&payload, &error), service::FrameReader::Result::Frame);
  service::Response decoded;
  ASSERT_TRUE(service::decode_response(payload, &decoded, &error)) << error;
  EXPECT_EQ(decoded, golden_response());
}

// ------------------------------------------------------------ IOSG store

TEST(ByteFormatGolden, StoreSegmentBytes) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("byte_golden_store." + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  {
    store::ObjectStore s;
    ASSERT_TRUE(s.open(dir)) << s.error();
    ASSERT_TRUE(s.put(1, "alpha"));
    ASSERT_TRUE(s.put(2, ""));
    ASSERT_TRUE(s.set_ref("head", 1));
    ASSERT_TRUE(s.remove(2));
    ASSERT_TRUE(s.put(0xdeadbeefcafef00dull, control_chars()));
    ASSERT_TRUE(s.put(1, "alpha"));  // dedup: appends nothing
    ASSERT_TRUE(s.set_ref("head", 0xdeadbeefcafef00dull));
  }
  std::ifstream in(dir + "/seg-000001.iosg", std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove_all(dir);
  EXPECT_EQ(digest(bytes.str()), "200:92c76409a276e1c0");
  EXPECT_EQ(bytes.str().substr(0, 8), std::string("IOSG\x01\0\0\0", 8));
}

// ------------------------------------------------------------ IOCE cache

TEST(ByteFormatGolden, CacheEntryBlob) {
  runtime::CacheEntry e;
  e.outputs = {{"a.out", "x"}, {"b.out", ""}};
  e.variables = {{"v", "1"}, {"w", control_chars()}};
  e.log = "log\n";
  std::string blob = store::encode_cache_entry(e);
  EXPECT_EQ(digest(blob), "105:ece5b66c5f5ffd4f");

  runtime::CacheEntry decoded;
  ASSERT_TRUE(store::decode_cache_entry(blob, &decoded));
  EXPECT_EQ(decoded.outputs, e.outputs);
  EXPECT_EQ(decoded.variables, e.variables);
  EXPECT_EQ(decoded.log, e.log);
}

// ------------------------------------------------------------ IOTR trace

/// The IOTR binary of three events, produced by an encoder independent of
/// the repository's code: a Begin, a Counter of -5 and an End.
const char* const kTraceHex =
    "494f545201000000030000000000000005000000000000000000000000000000"
    "00000000002a00000000000000080000007370616e2022712203000000636174"
    "05000000226b223a3107000000000000000100000003fbffffffffffffff0000"
    "0000000000000500000064657074680700000072756e74696d65000000000900"
    "000000000000000000000100000000000000002a000000000000000800000073"
    "70616e202271220300000063617409000000226f6b223a74727565";

TEST(ByteFormatGolden, TraceBlobDecodes) {
  std::stringstream in(from_hex(kTraceHex));
  std::vector<obs::TraceEvent> events;
  ASSERT_TRUE(obs::TraceSession::read_binary(in, &events));

  std::vector<obs::TraceEvent> expected(3);
  expected[0] = {5, 0, obs::EventKind::Begin, 0, 42, "span \"q\"", "cat",
                 "\"k\":1"};
  expected[1] = {7, 1, obs::EventKind::Counter, -5, 0, "depth", "runtime",
                 ""};
  expected[2] = {9, 0, obs::EventKind::End, 0, 42, "span \"q\"", "cat",
                 "\"ok\":true"};
  EXPECT_EQ(events, expected);
}

/// Reference IOTR encoder, one byte at a time.
std::string reference_trace(const std::vector<obs::TraceEvent>& events) {
  std::string out = "IOTR";
  auto le = [&out](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
  };
  auto str = [&](const std::string& s) {
    le(s.size(), 4);
    out += s;
  };
  le(1, 4);
  le(events.size(), 8);
  for (const obs::TraceEvent& e : events) {
    le(e.ts_us, 8);
    le(e.tid, 4);
    le(std::uint64_t(e.kind), 1);
    le(std::uint64_t(e.value), 8);
    le(e.id, 8);
    str(e.name);
    str(e.cat);
    str(e.args);
  }
  return out;
}

TEST(ByteFormatGolden, TraceWriteMatchesReferenceEncoder) {
  obs::TraceSession session;
  session.arm();
  obs::begin_span("cat", "span \"q\"", 42, "\"k\":1");
  obs::counter("runtime", "depth", -5);
  obs::instant("cat", control_chars(), "");
  obs::end_span("cat", "span \"q\"", 42, "\"ok\":true");
  session.disarm();

  std::vector<obs::TraceEvent> events = session.flush();
  ASSERT_EQ(events.size(), 4u);
  std::stringstream out;
  session.write_binary(out);
  EXPECT_EQ(out.str(), reference_trace(events));
}

}  // namespace
}  // namespace interop
