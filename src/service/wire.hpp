#pragma once
// The interopd wire protocol: length-prefixed binary frames carrying typed
// request/response messages, encoded with the repo's one byte codec
// (src/base/bytes.hpp) — fixed-width little-endian integers,
// u32-length-prefixed strings, a 4-byte magic and a version word up front
// so a foreign reader can identify the stream.
//
// The codec is deliberately standalone: encode/decode work on byte strings
// and an incremental FrameReader, with no sockets anywhere, so the whole
// protocol is unit-testable and the daemon, the in-process loopback used
// by tests/bench_service, and any future transport share one hardened
// parser. Robustness contract: malformed input (bad magic, oversized
// length prefix, truncated frame, garbage payload) must yield a clean
// per-session error — never a crash, never a desynchronized stream that
// misparses later frames.
//
// Frame layout:   'I' 'O' 'S' 'V' | u32 version | u32 payload_len | payload
// Request payload:  u64 id | u32 type | tenant | type-specific fields
// Response payload: u64 id | u32 status | u64 retry_after_us | error |
//                   body | u32 n | n * (name, u64 value)

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace interop::service {

inline constexpr char kWireMagic[4] = {'I', 'O', 'S', 'V'};
inline constexpr std::uint32_t kWireVersion = 1;
/// Admission bound on a single frame's payload; a length prefix above this
/// is a protocol error, not a huge allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Request types the daemon serves.
enum class MsgType : std::uint32_t {
  Ping = 1,     ///< liveness / round-trip probe
  Migrate = 2,  ///< §2 schematic migration under the resident tool models
  Netlist = 3,  ///< connectivity extraction under a resident dialect
  FlowRun = 4,  ///< §5 flow execution on the shared ResultCache
  Metrics = 5,  ///< text exposition of the service metrics registry
  Drain = 6,    ///< admin: stop admitting, finish in-flight work
};

std::string to_string(MsgType t);

struct Request {
  std::uint64_t id = 0;  ///< client-chosen correlation id, echoed back
  MsgType type = MsgType::Ping;
  std::string tenant;   ///< session key for fair scheduling ("" = anon)
  std::string design;   ///< Migrate/Netlist: sch::write_design() text
  std::string cell;     ///< Netlist: schematic cell to extract
  std::string dialect;  ///< Netlist: "viewlogic" | "composer"
  std::string flow;     ///< FlowRun: resident spec name ("fanout")
  std::uint32_t width = 0;       ///< FlowRun: parallel tool runs
  std::uint32_t latency_us = 0;  ///< FlowRun: modeled per-tool latency
  std::uint64_t seed = 0;        ///< FlowRun: content seed (cache identity)

  friend bool operator==(const Request&, const Request&) = default;
};

enum class Status : std::uint32_t {
  Ok = 0,
  Error = 1,     ///< request failed (bad payload, unknown cell, timeout)
  Rejected = 2,  ///< admission control shed it; honor retry_after_us
};

std::string to_string(Status s);

struct Response {
  std::uint64_t id = 0;
  Status status = Status::Ok;
  std::uint64_t retry_after_us = 0;  ///< Rejected: client backoff hint
  std::string error;                 ///< Error/Rejected: diagnostic
  std::string body;  ///< migrated design text / net summary / metrics dump
  /// Endpoint counters (executed, cache_hits, nets, diffs, ...).
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  std::uint64_t counter(std::string_view name,
                        std::uint64_t fallback = 0) const;

  friend bool operator==(const Response&, const Response&) = default;
};

/// Serialize a full frame (header + payload).
std::string encode_request(const Request& req);
std::string encode_response(const Response& resp);

/// Parse a frame payload (as yielded by FrameReader). Returns false and
/// sets `error` on malformed input; never throws.
bool decode_request(std::string_view payload, Request* out,
                    std::string* error);
bool decode_response(std::string_view payload, Response* out,
                     std::string* error);

/// Incremental frame scanner for one session's byte stream. feed() bytes
/// as they arrive (in any fragmentation); next() yields complete frame
/// payloads. Any framing error is sticky: the session is desynchronized by
/// definition and must be torn down.
class FrameReader {
 public:
  enum class Result {
    NeedMore,  ///< no complete frame buffered yet
    Frame,     ///< *payload filled with one frame's payload
    Bad,       ///< framing error; *error filled; session is dead
  };

  void feed(std::string_view bytes);
  /// As above; when nothing is pending, `bytes` becomes the buffer.
  void feed(std::string&& bytes);
  void feed(const char* bytes) { feed(std::string_view(bytes)); }
  Result next(std::string* payload, std::string* error);

  /// Bytes buffered but not yet consumed (test hook).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  bool bad_ = false;
  std::string bad_reason_;
};

}  // namespace interop::service
