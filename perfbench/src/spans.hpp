#pragma once
// The traced run's span recorder. The benchmark records its own spans
// around every public call it makes into a layer, so the program under
// test is measured without its own tracing code. A span has a name, a
// start, an end and a parent; every span of one request (a service call or
// a flow run) carries that request's id. Spans stay in memory until the
// run ends and are then reduced to per-name self times: a span's duration
// minus the part of its interval that its child spans cover.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t request = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a request's root span
  const char* name = "";     ///< static string, e.g. "service.wire_encode"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  std::uint64_t next_id();
  void record(const Span& span);
  /// Every span recorded so far. Call once the recording threads are done.
  std::vector<Span> spans() const;
  /// Drop the spans recorded so far (the warm-up's).
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
};

/// RAII span. With a null recorder it does nothing, so one code path can
/// serve the untraced and the traced run.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::uint64_t request, std::uint64_t parent,
             const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  /// Close early; returns the duration in ns (0 when untraced).
  std::uint64_t end();

 private:
  SpanRecorder* rec_;
  Span span_;
};

/// Per-name totals over a set of spans.
struct SelfTimes {
  std::map<std::string, double> self_ns;  ///< by span name
  std::map<std::string, std::uint64_t> count;
  double root_ns = 0;       ///< summed duration of root spans
  double root_self_ns = 0;  ///< summed self time of root spans
  std::uint64_t roots = 0;

  /// Summed self time of spans called `name` (0 when there are none).
  double self_of(const std::string& name) const {
    auto it = self_ns.find(name);
    return it == self_ns.end() ? 0 : it->second;
  }
};

SelfTimes self_times(const std::vector<Span>& spans);

/// The per-layer table: one line per span name with its self time per
/// request and its share of the summed root time.
std::vector<std::string> self_time_table(const SelfTimes& t,
                                         double requests);

}  // namespace perfbench
