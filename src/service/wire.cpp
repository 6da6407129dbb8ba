#include "service/wire.hpp"

#include "base/bytes.hpp"

namespace interop::service {

std::string to_string(MsgType t) {
  switch (t) {
    case MsgType::Ping: return "ping";
    case MsgType::Migrate: return "migrate";
    case MsgType::Netlist: return "netlist";
    case MsgType::FlowRun: return "flow_run";
    case MsgType::Metrics: return "metrics";
    case MsgType::Drain: return "drain";
  }
  return "unknown";
}

std::string to_string(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Error: return "error";
    case Status::Rejected: return "rejected";
  }
  return "unknown";
}

std::uint64_t Response::counter(std::string_view name,
                                std::uint64_t fallback) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return fallback;
}

namespace {

constexpr std::size_t kHeaderBytes = 12;

/// A frame's header with a zero length, in a buffer with room for
/// `payload_bytes` more; end_frame patches the length once the payload
/// is written after it.
std::string begin_frame(std::size_t payload_bytes) {
  std::string out;
  out.reserve(kHeaderBytes + payload_bytes);
  base::ByteWriter w(out);
  w.bytes({kWireMagic, 4});
  w.u32(kWireVersion);
  w.u32(0);
  return out;
}

void end_frame(std::string& out) {
  base::ByteWriter(out).u32_at(8, std::uint32_t(out.size() - kHeaderBytes));
}

bool set_error(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

}  // namespace

std::string encode_request(const Request& req) {
  std::string p = begin_frame(8 + 4 + 5 * 4 + req.tenant.size() +
                              req.design.size() + req.cell.size() +
                              req.dialect.size() + req.flow.size() + 4 + 4 +
                              8);
  base::ByteWriter w(p);
  w.u64(req.id);
  w.u32(std::uint32_t(req.type));
  w.str(req.tenant);
  w.str(req.design);
  w.str(req.cell);
  w.str(req.dialect);
  w.str(req.flow);
  w.u32(req.width);
  w.u32(req.latency_us);
  w.u64(req.seed);
  end_frame(p);
  return p;
}

std::string encode_response(const Response& resp) {
  std::size_t size = 8 + 4 + 8 + 4 + resp.error.size() + 4 +
                     resp.body.size() + 4;
  for (const auto& [name, value] : resp.counters) size += 4 + name.size() + 8;
  std::string p = begin_frame(size);
  base::ByteWriter w(p);
  w.u64(resp.id);
  w.u32(std::uint32_t(resp.status));
  w.u64(resp.retry_after_us);
  w.str(resp.error);
  w.str(resp.body);
  w.u32(std::uint32_t(resp.counters.size()));
  for (const auto& [name, value] : resp.counters) {
    w.str(name);
    w.u64(value);
  }
  end_frame(p);
  return p;
}

bool decode_request(std::string_view payload, Request* out,
                    std::string* error) {
  base::ByteReader c(payload);
  Request r;
  std::uint32_t type = 0;
  if (!c.u64(&r.id) || !c.u32(&type) || !c.str(&r.tenant, kMaxFrameBytes) ||
      !c.str(&r.design, kMaxFrameBytes) || !c.str(&r.cell, kMaxFrameBytes) ||
      !c.str(&r.dialect, kMaxFrameBytes) || !c.str(&r.flow, kMaxFrameBytes) ||
      !c.u32(&r.width) || !c.u32(&r.latency_us) || !c.u64(&r.seed))
    return set_error(error, std::string("request: ") + c.error());
  if (type < std::uint32_t(MsgType::Ping) ||
      type > std::uint32_t(MsgType::Drain))
    return set_error(error, "request: unknown type " + std::to_string(type));
  if (!c.done()) return set_error(error, "request: trailing bytes");
  r.type = MsgType(type);
  *out = std::move(r);
  return true;
}

bool decode_response(std::string_view payload, Response* out,
                     std::string* error) {
  base::ByteReader c(payload);
  Response r;
  std::uint32_t status = 0, n = 0;
  if (!c.u64(&r.id) || !c.u32(&status) || !c.u64(&r.retry_after_us) ||
      !c.str(&r.error, kMaxFrameBytes) || !c.str(&r.body, kMaxFrameBytes) ||
      !c.u32(&n))
    return set_error(error, std::string("response: ") + c.error());
  if (status > std::uint32_t(Status::Rejected))
    return set_error(error,
                     "response: unknown status " + std::to_string(status));
  // Each counter costs at least 12 bytes on the wire, so a lying count
  // cannot force a large reserve.
  if (n > payload.size() / 12 + 1)
    return set_error(error, "response: counter count exceeds payload");
  r.counters.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (!c.str(&name, kMaxFrameBytes) || !c.u64(&value))
      return set_error(error, std::string("response: ") + c.error());
    r.counters.emplace_back(std::move(name), value);
  }
  if (!c.done()) return set_error(error, "response: trailing bytes");
  r.status = Status(status);
  *out = std::move(r);
  return true;
}

void FrameReader::feed(std::string_view bytes) {
  if (bad_) return;  // session is dead; drop everything
  // Compact consumed bytes before growing the buffer.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

void FrameReader::feed(std::string&& bytes) {
  if (bad_ || pos_ < buf_.size()) return feed(std::string_view(bytes));
  // Nothing pending: the bytes become the buffer, uncopied.
  buf_ = std::move(bytes);
  pos_ = 0;
}

FrameReader::Result FrameReader::next(std::string* payload,
                                      std::string* error) {
  auto bad = [&](std::string why) {
    if (!bad_) bad_reason_ = std::move(why);
    bad_ = true;
    if (error) *error = bad_reason_;
    return Result::Bad;
  };
  if (bad_) return bad({});
  base::ByteReader h(std::string_view(buf_).substr(pos_));
  std::string_view magic;
  std::uint32_t version = 0, len = 0;
  // Validate the magic as soon as it is complete so garbage fails fast,
  // before the (attacker-controlled) length is even read.
  if (h.bytes(4, &magic) && magic != std::string_view(kWireMagic, 4))
    return bad("bad frame magic");
  if (!h.u32(&version) || !h.u32(&len)) return Result::NeedMore;
  if (version != kWireVersion)
    return bad("unsupported wire version " + std::to_string(version));
  if (len > kMaxFrameBytes)
    return bad("oversized frame: " + std::to_string(len) + " bytes");
  if (h.remaining() < len) return Result::NeedMore;
  const std::size_t begin = pos_ + h.pos();
  if (begin + len == buf_.size()) {
    // The frame ends the buffer: hand the buffer over, uncopied.
    buf_.erase(0, begin);
    payload->swap(buf_);
    buf_.clear();
    pos_ = 0;
  } else {
    payload->assign(buf_.data() + begin, len);
    pos_ = begin + len;
  }
  return Result::Frame;
}

}  // namespace interop::service
