#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <iterator>
#include <ostream>

#include "base/bytes.hpp"

namespace interop::obs {

namespace {

std::atomic<TraceSession*> g_session{nullptr};
// Bumped every arm()/disarm() so a thread's cached buffer pointer is never
// reused against a different (or dead) session.
std::atomic<std::uint64_t> g_generation{0};
std::atomic<std::uint64_t> g_span_ids{0};

struct TlsSlot {
  std::uint64_t generation = 0;
  TraceBuffer* buffer = nullptr;
};
thread_local TlsSlot t_slot;

std::uint64_t steady_now_us() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// Resolve the calling thread's buffer for the armed session, or nullptr.
TraceBuffer* current_buffer(TraceSession** out_session) {
  TraceSession* s = g_session.load(std::memory_order_acquire);
  if (!s) return nullptr;
  std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_slot.generation != gen || !t_slot.buffer) {
    t_slot.buffer = s->thread_buffer();
    t_slot.generation = gen;
  }
  *out_session = s;
  return t_slot.buffer;
}

}  // namespace

// ------------------------------------------------------------ TraceBuffer

void TraceBuffer::emit(TraceEvent e) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

std::vector<TraceEvent> TraceBuffer::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.swap(events_);
  return out;
}

// ----------------------------------------------------------- TraceSession

TraceSession::TraceSession() : epoch_us_(steady_now_us()) {}

TraceSession::~TraceSession() { disarm(); }

void TraceSession::arm() {
  g_session.store(this, std::memory_order_release);
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

void TraceSession::disarm() {
  if (g_session.load(std::memory_order_acquire) != this) return;
  g_session.store(nullptr, std::memory_order_release);
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

bool TraceSession::armed() const {
  return g_session.load(std::memory_order_acquire) == this;
}

std::uint64_t TraceSession::now_us() const {
  std::uint64_t now = steady_now_us();
  return now >= epoch_us_ ? now - epoch_us_ : 0;
}

TraceBuffer* TraceSession::thread_buffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>());
  next_tid_.fetch_add(1, std::memory_order_relaxed);
  return buffers_.back().get();
}

std::vector<TraceEvent> TraceSession::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    std::vector<TraceEvent> drained = buffers_[i]->drain();
    for (TraceEvent& e : drained) {
      e.tid = std::uint32_t(i);
      collected_.push_back(std::move(e));
    }
  }
  // Stable: simultaneous events keep per-thread emission order, so B/E
  // pairs within one thread can never invert.
  std::stable_sort(collected_.begin(), collected_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return collected_;
}

void TraceSession::write_chrome_json(std::ostream& os) {
  std::vector<TraceEvent> events = flush();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    const char* ph = "i";
    switch (e.kind) {
      case EventKind::Begin: ph = "B"; break;
      case EventKind::End: ph = "E"; break;
      case EventKind::Instant: ph = "i"; break;
      case EventKind::Counter: ph = "C"; break;
    }
    os << "{\"name\":\"" << escape_json(e.name) << "\",\"cat\":\""
       << escape_json(e.cat) << "\",\"ph\":\"" << ph << "\",\"ts\":" << e.ts_us
       << ",\"pid\":1,\"tid\":" << e.tid;
    if (e.kind == EventKind::Instant) os << ",\"s\":\"t\"";
    if (e.kind == EventKind::Counter) {
      os << ",\"args\":{\"value\":" << e.value << "}";
    } else {
      std::string body;
      if (e.id != 0) body += "\"span\":" + std::to_string(e.id);
      if (!e.args.empty()) {
        if (!body.empty()) body += ",";
        body += e.args;
      }
      if (!body.empty()) os << ",\"args\":{" << body << "}";
    }
    os << "}";
  }
  os << "]}";
}

// Binary form: fixed header, then length-prefixed records, in the repo's
// one byte codec (base/bytes.hpp). Self-describing enough for an external
// reader and for read_binary below.

namespace {

constexpr char kMagic[4] = {'I', 'O', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;
/// Sanity bound on one decoded string.
constexpr std::uint32_t kMaxString = 1u << 24;

}  // namespace

void TraceSession::write_binary(std::ostream& os) {
  std::vector<TraceEvent> events = flush();
  std::string out;
  base::ByteWriter w(out);
  w.bytes({kMagic, 4});
  w.u32(kVersion);
  w.u64(events.size());
  for (const TraceEvent& e : events) {
    w.u64(e.ts_us);
    w.u32(e.tid);
    w.u8(std::uint8_t(e.kind));
    w.u64(std::uint64_t(e.value));
    w.u64(e.id);
    w.str(e.name);
    w.str(e.cat);
    w.str(e.args);
  }
  os.write(out.data(), std::streamsize(out.size()));
}

bool TraceSession::read_binary(std::istream& is,
                               std::vector<TraceEvent>* out) {
  out->clear();
  const std::string bytes{std::istreambuf_iterator<char>(is),
                          std::istreambuf_iterator<char>()};
  base::ByteReader r(bytes);
  std::string_view magic;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!r.bytes(4, &magic) || magic != std::string_view(kMagic, 4) ||
      !r.u32(&version) || version != kVersion || !r.u64(&count))
    return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceEvent e;
    std::uint8_t kind = 0;
    std::uint64_t value = 0;
    if (!r.u64(&e.ts_us) || !r.u32(&e.tid) || !r.u8(&kind) ||
        kind > std::uint8_t(EventKind::Counter) || !r.u64(&value) ||
        !r.u64(&e.id) || !r.str(&e.name, kMaxString) ||
        !r.str(&e.cat, kMaxString) || !r.str(&e.args, kMaxString))
      return false;
    e.kind = EventKind(kind);
    e.value = std::int64_t(value);
    out->push_back(std::move(e));
  }
  return true;
}

// ------------------------------------------------------------ free helpers

bool armed() {
  return g_session.load(std::memory_order_relaxed) != nullptr;
}

TraceSession* session() { return g_session.load(std::memory_order_acquire); }

std::uint64_t next_span_id() {
  return g_span_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

namespace {

void emit_event(EventKind kind, std::string_view cat, std::string_view name,
                std::uint64_t id, std::int64_t value, std::string args) {
  TraceSession* s = nullptr;
  TraceBuffer* buf = current_buffer(&s);
  if (!buf) return;
  TraceEvent e;
  e.ts_us = s->now_us();
  e.kind = kind;
  e.value = value;
  e.id = id;
  e.name.assign(name);
  e.cat.assign(cat);
  e.args = std::move(args);
  buf->emit(std::move(e));
}

}  // namespace

void begin_span(std::string_view cat, std::string_view name, std::uint64_t id,
                std::string args) {
  if (!armed()) return;
  emit_event(EventKind::Begin, cat, name, id, 0, std::move(args));
}

void end_span(std::string_view cat, std::string_view name, std::uint64_t id,
              std::string args) {
  if (!armed()) return;
  emit_event(EventKind::End, cat, name, id, 0, std::move(args));
}

void instant(std::string_view cat, std::string_view name, std::string args) {
  if (!armed()) return;
  emit_event(EventKind::Instant, cat, name, 0, 0, std::move(args));
}

void counter(std::string_view cat, std::string_view name,
             std::int64_t value) {
  if (!armed()) return;
  emit_event(EventKind::Counter, cat, name, 0, value, {});
}

Span::Span(std::string_view cat, std::string_view name, std::string args) {
  if (armed()) begin(cat, name, std::move(args));
}

void Span::begin(std::string_view cat, std::string_view name,
                 std::string args) {
  buf_ = current_buffer(&session_);
  if (!buf_) return;
  id_ = next_span_id();
  cat_.assign(cat);
  name_.assign(name);
  TraceEvent e;
  e.ts_us = session_->now_us();
  e.kind = EventKind::Begin;
  e.id = id_;
  e.name = name_;
  e.cat = cat_;
  e.args = std::move(args);
  buf_->emit(std::move(e));
}

Span::~Span() { end({}); }

void Span::end(std::string args) {
  if (id_ == 0) return;
  TraceEvent e;
  e.ts_us = session_->now_us();
  e.kind = EventKind::End;
  e.id = id_;
  e.name = name_;
  e.cat = cat_;
  e.args = std::move(args);
  buf_->emit(std::move(e));
  id_ = 0;
}

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace interop::obs
