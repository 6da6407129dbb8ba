#pragma once
// Structured tracing for the whole stack: low-overhead spans, instant
// events, and counter samples, recorded into per-thread buffers and
// serialized as Chrome trace_event JSON (chrome://tracing / Perfetto
// loadable) or a compact self-describing binary form.
//
// The paper's §6 methodology — model the multi-tool flow, measure it,
// optimize it — needs recorded, inspectable operation histories; this is
// the "measure" leg. Compiled in everywhere, OFF by default: every emit
// helper starts with one relaxed atomic load (armed()), so an armed-but-
// idle binary pays a branch per hook and nothing else (bench_obs pins the
// cost; see BENCH_obs.json).
//
// Concurrency contract: emitting threads write only their own TraceBuffer
// (registered on first emit), so emission is contention-free except for
// the buffer's own mutex, which a concurrent flush() may briefly take.
// flush() may run while other threads emit. arm()/disarm()/destruction
// must NOT race with emitters — quiesce worker threads first (the flow
// runtime satisfies this naturally: sessions are armed before run() and
// read after it returns).

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace interop::obs {

enum class EventKind : std::uint8_t { Begin, End, Instant, Counter };

struct TraceEvent {
  std::uint64_t ts_us = 0;   ///< microseconds since the session's epoch
  std::uint32_t tid = 0;     ///< session-assigned dense thread id
  EventKind kind = EventKind::Instant;
  std::int64_t value = 0;    ///< Counter payload
  std::uint64_t id = 0;      ///< span correlation id (0 = none)
  std::string name;
  std::string cat;           ///< category ("runtime", "wf", "hdl", "pnr")
  std::string args;          ///< pre-rendered JSON object BODY, "" = none

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// One thread's event buffer. Written by its owning thread, drained by
/// TraceSession::flush(); a plain mutex arbitrates the brief overlap.
class TraceBuffer {
 public:
  void emit(TraceEvent e);
  std::vector<TraceEvent> drain();

 private:
  std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// A recording session. Construct, arm() to make it the process-wide sink,
/// run the workload, then flush()/serialize. Events accumulate in the
/// session across flushes until cleared.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();  ///< disarms first if still armed

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Install as the process-wide sink (replaces any prior session).
  void arm();
  /// Stop recording; emitters become no-ops again.
  void disarm();
  bool armed() const;

  /// Drain every thread buffer into the session's collected list (stable-
  /// sorted by timestamp, which preserves per-thread emission order) and
  /// return a copy of everything collected so far. Safe to call while
  /// other threads emit.
  std::vector<TraceEvent> flush();

  /// Microseconds since this session's epoch.
  std::uint64_t now_us() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}); flushes first.
  void write_chrome_json(std::ostream& os);
  /// Compact self-describing binary form; flushes first.
  void write_binary(std::ostream& os);
  /// Parse the binary form. Returns false on malformed input.
  static bool read_binary(std::istream& is, std::vector<TraceEvent>* out);

  /// The calling thread's buffer, registering it on first use.
  TraceBuffer* thread_buffer();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
  std::vector<TraceEvent> collected_;
  std::uint64_t epoch_us_ = 0;         ///< steady-clock stamp at ctor
  std::atomic<std::uint32_t> next_tid_{0};
};

/// True when a session is armed. One relaxed atomic load — the only cost
/// every instrumentation hook pays when tracing is off.
bool armed();

/// The armed session, or nullptr.
TraceSession* session();

/// Process-wide unique span ids; nonzero. Used to cross-link a span with
/// the RunJournal entry it timed.
std::uint64_t next_span_id();

// Emit helpers: no-ops unless armed. `args` is a rendered JSON object body
// (e.g. "\"worker\":2,\"attempt\":1"), not a full object.
void begin_span(std::string_view cat, std::string_view name,
                std::uint64_t id = 0, std::string args = {});
void end_span(std::string_view cat, std::string_view name,
              std::uint64_t id = 0, std::string args = {});
void instant(std::string_view cat, std::string_view name,
             std::string args = {});
void counter(std::string_view cat, std::string_view name, std::int64_t value);

/// RAII span: begins on construction (if armed at that moment), ends on
/// destruction. Arm state is latched at construction so a span never emits
/// a dangling End.
class Span {
 public:
  Span(std::string_view cat, std::string_view name, std::string args = {});
  /// The same span with its name and args from `make()`, which returns a
  /// (name, args) pair and runs only when tracing is armed: a disarmed
  /// span builds no strings.
  template <class Make>
    requires std::is_invocable_r_v<std::pair<std::string, std::string>,
                                   Make&>
  Span(std::string_view cat, Make&& make) {
    if (!armed()) return;
    std::pair<std::string, std::string> text = make();
    begin(cat, text.first, std::move(text.second));
  }
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }  ///< 0 when tracing was off
  /// End early with closing args; the destructor then does nothing.
  void end(std::string args = {});

 private:
  void begin(std::string_view cat, std::string_view name, std::string args);

  std::string cat_;
  std::string name_;
  std::uint64_t id_ = 0;
  // Latched at construction so the End lands in the same session even if
  // it is disarmed mid-span (the session must outlive the span).
  TraceSession* session_ = nullptr;
  TraceBuffer* buf_ = nullptr;
};

/// Minimal JSON string escaping (quotes, backslash, control chars): the
/// one escaper for trace args and the run journal's JSON and TSV forms.
std::string escape_json(std::string_view s);

}  // namespace interop::obs
