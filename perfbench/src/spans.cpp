#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "bench.hpp"

namespace perfbench {

std::uint64_t SpanRecorder::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void SpanRecorder::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, std::uint64_t request,
                       std::uint64_t parent, const char* name)
    : rec_(rec) {
  if (!rec_) return;
  span_.request = request;
  span_.id = rec_->next_id();
  span_.parent = parent;
  span_.name = name;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() { end(); }

std::uint64_t ScopedSpan::end() {
  if (!rec_) return 0;
  span_.end_ns = now_ns();
  rec_->record(span_);
  rec_ = nullptr;
  return span_.end_ns - span_.start_ns;
}

namespace {

/// Length of the union of [lo, hi) intervals clipped to [from, to).
double covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                  std::uint64_t from, std::uint64_t to) {
  std::sort(iv.begin(), iv.end());
  double covered = 0;
  std::uint64_t cursor = from;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, to);
    if (hi <= lo) continue;
    covered += double(hi - lo);
    cursor = hi;
  }
  return covered;
}

}  // namespace

SelfTimes self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});

  SelfTimes t;
  for (const Span& s : spans) {
    double dur = double(s.end_ns - s.start_ns);
    double self = dur;
    auto it = children.find(s.id);
    if (it != children.end())
      self -= covered_ns(it->second, s.start_ns, s.end_ns);
    t.self_ns[s.name] += self;
    ++t.count[s.name];
    if (s.parent == 0) {
      t.root_ns += dur;
      t.root_self_ns += self;
      ++t.roots;
    }
  }
  return t;
}

std::vector<std::string> self_time_table(const SelfTimes& t,
                                         double requests) {
  std::vector<std::string> lines;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-30s %10s %12s %8s", "span", "spans",
                "self us/req", "share");
  lines.push_back(buf);
  for (const auto& [name, self] : t.self_ns) {
    double per_req = requests > 0 ? self / requests / 1e3 : 0;
    double share = t.root_ns > 0 ? 100.0 * self / t.root_ns : 0;
    std::snprintf(buf, sizeof buf, "%-30s %10llu %12.2f %7.2f%%", name.c_str(),
                  (unsigned long long)t.count.at(name), per_req, share);
    lines.push_back(buf);
  }
  return lines;
}

}  // namespace perfbench
