#include "runtime/journal.hpp"

#include <algorithm>
#include <functional>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/trace.hpp"

namespace interop::runtime {

using obs::escape_json;

void RunJournal::set_clock(std::shared_ptr<Clock> clock) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ = std::move(clock);
}

void RunJournal::begin_run(int workers) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  wall_us_ = 0;
  workers_ = workers;
  if (!clock_) clock_ = std::make_shared<SteadyClock>();
  t0_us_ = clock_->now_us();
}

void RunJournal::end_run() {
  std::lock_guard<std::mutex> lock(mu_);
  wall_us_ = clock_ ? clock_->now_us() - t0_us_ : 0;
}

std::uint64_t RunJournal::now_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!clock_) return 0;
  std::uint64_t now = clock_->now_us();
  return now >= t0_us_ ? now - t0_us_ : 0;
}

void RunJournal::record(JournalEntry e) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(e));
}

std::vector<JournalEntry> RunJournal::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

std::vector<std::string> RunJournal::completed_steps() const {
  std::map<std::string, bool> last_ok;
  for (const JournalEntry& e : entries())
    last_ok[e.step] = e.ok && !e.timed_out;
  std::vector<std::string> out;
  for (const auto& [step, ok] : last_ok)
    if (ok) out.push_back(step);
  return out;
}

std::vector<JournalEntry> RunJournal::attempts_for(
    const std::string& step) const {
  std::vector<JournalEntry> out;
  for (const JournalEntry& e : entries())
    if (e.step == step) out.push_back(e);
  return out;
}

// ------------------------------------------------------------- save/load
//
// One header line, then one tab-separated line per entry. Step names are
// escaped with obs::escape_json, which also escapes tabs/newlines, so
// fields can never collide with the separator.

void RunJournal::save(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "interop-journal\tv1\t" << workers_ << "\t" << wall_us_ << "\n";
  for (const JournalEntry& e : entries_) {
    os << escape_json(e.step) << "\t" << e.worker << "\t" << e.attempt << "\t"
       << e.start_us << "\t" << e.end_us << "\t" << int(e.cache_hit)
       << int(e.ok) << int(e.rerun) << int(e.timed_out) << int(e.resumed)
       << "\t" << escape_json(e.fault) << "\t" << int(e.has_key) << "\t"
       << e.key << "\n";
  }
}

namespace {

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    std::size_t tab = line.find('\t', pos);
    if (tab == std::string::npos) {
      out.push_back(line.substr(pos));
      return out;
    }
    out.push_back(line.substr(pos, tab - pos));
    pos = tab + 1;
  }
}

/// Inverse of escape_json for the subset it emits.
std::string json_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    char c = s[++i];
    switch (c) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 < s.size()) {
          out += char(std::stoi(s.substr(i + 1, 4), nullptr, 16));
          i += 4;
        }
        break;
      }
      default: out += c;
    }
  }
  return out;
}

}  // namespace

bool RunJournal::load(std::istream& is) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  workers_ = 0;
  wall_us_ = 0;
  load_dropped_ = 0;
  std::string line;
  if (!std::getline(is, line)) return false;
  std::vector<std::string> head = split_tabs(line);
  if (head.size() != 4 || head[0] != "interop-journal" || head[1] != "v1")
    return false;
  try {
    workers_ = std::stoi(head[2]);
    wall_us_ = std::stoull(head[3]);
  } catch (const std::exception&) {
    workers_ = 0;
    wall_us_ = 0;
    return false;
  }

  // Body: fail soft. A crashed process tears the last line mid-write and a
  // flaky filesystem can double or garble one; drop everything from the
  // first bad line on (the valid prefix is exactly what resume_run may
  // trust — a suffix after corruption has no integrity guarantee), and skip
  // byte-identical consecutive duplicates (a doubled write, not new data).
  std::string prev_line;
  std::map<std::string, int> last_attempt;
  bool truncated = false;
  while (std::getline(is, line)) {
    if (truncated) {
      if (!line.empty()) ++load_dropped_;
      continue;
    }
    if (line.empty()) continue;
    if (line == prev_line) {
      ++load_dropped_;
      continue;
    }
    std::vector<std::string> f = split_tabs(line);
    JournalEntry e;
    bool ok = f.size() == 9 && f[5].size() == 5;
    if (ok) {
      try {
        e.step = json_unescape(f[0]);
        e.worker = std::stoi(f[1]);
        e.attempt = std::stoi(f[2]);
        e.start_us = std::stoull(f[3]);
        e.end_us = std::stoull(f[4]);
        e.cache_hit = f[5][0] == '1';
        e.ok = f[5][1] == '1';
        e.rerun = f[5][2] == '1';
        e.timed_out = f[5][3] == '1';
        e.resumed = f[5][4] == '1';
        e.fault = json_unescape(f[6]);
        e.has_key = f[7] == "1";
        e.key = std::stoull(f[8]);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (ok) {
      // Attempts for one step are journaled 1..n per claim (a re-claimed
      // step restarts at 1). Once a step has been seen, an attempt number
      // that is neither a fresh claim nor the successor of the last seen
      // one is a duplicated or spliced line — corruption, not history. A
      // step's first line accepts any attempt: a journal can be saved from
      // mid-claim state.
      auto it = last_attempt.find(e.step);
      ok = e.worker >= -1 && e.attempt >= 1 &&
           (it == last_attempt.end() || e.attempt == 1 ||
            e.attempt == it->second + 1);
    }
    if (!ok) {
      truncated = true;
      ++load_dropped_;
      continue;
    }
    last_attempt[e.step] = e.attempt;
    prev_line = line;
    entries_.push_back(std::move(e));
  }
  return true;
}

std::size_t RunJournal::load_dropped_lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return load_dropped_;
}

RunJournal::Summary RunJournal::summary(
    const wf::FlowInstance& instance) const {
  std::vector<JournalEntry> entries = this->entries();
  Summary s;
  s.wall_us = wall_us_;
  s.steps = int(entries.size());

  // Latest record per step carries the step's observed duration.
  std::map<std::string, std::uint64_t> duration;
  for (const JournalEntry& e : entries) {
    if (e.cache_hit)
      ++s.cache_hits;
    else
      ++s.executed;
    if (!e.ok) ++s.failures;
    if (e.attempt > 1) ++s.retries;
    if (e.timed_out) ++s.timeouts;
    if (!e.fault.empty()) ++s.faults;
    if (e.resumed) ++s.resumed;
    if (e.rerun) ++s.reruns;
    std::uint64_t d = e.end_us >= e.start_us ? e.end_us - e.start_us : 0;
    s.busy_us += d;
    duration[e.step] = d;
  }
  if (s.wall_us > 0) s.parallelism = double(s.busy_us) / double(s.wall_us);

  // Critical path: longest chain cost(step) = dur(step) + max(cost(deps)),
  // over start-after edges. The instance validated as a DAG.
  std::map<std::string, std::uint64_t> cost;
  std::map<std::string, std::string> via;
  std::function<std::uint64_t(const std::string&)> cost_of =
      [&](const std::string& name) -> std::uint64_t {
    auto memo = cost.find(name);
    if (memo != cost.end()) return memo->second;
    const wf::StepStatus* st = instance.find(name);
    std::uint64_t best = 0;
    std::string best_dep;
    if (st) {
      for (const std::string& dep : st->def.start_after) {
        std::uint64_t c = cost_of(dep);
        if (c > best || (c == best && best_dep.empty())) {
          best = c;
          best_dep = dep;
        }
      }
    }
    auto d = duration.find(name);
    std::uint64_t total = best + (d == duration.end() ? 0 : d->second);
    cost[name] = total;
    if (!best_dep.empty()) via[name] = best_dep;
    return total;
  };

  std::string tail;
  for (const auto& [name, st] : instance.steps) {
    std::uint64_t c = cost_of(name);
    if (tail.empty() || c > s.critical_path_us) {
      s.critical_path_us = c;
      tail = name;
    }
  }
  for (std::string cur = tail; !cur.empty();) {
    s.critical_path.push_back(cur);
    auto it = via.find(cur);
    cur = it == via.end() ? std::string() : it->second;
  }
  std::reverse(s.critical_path.begin(), s.critical_path.end());
  return s;
}

std::string RunJournal::to_json(const wf::FlowInstance& instance) const {
  Summary s = summary(instance);
  std::ostringstream os;
  os << "{\"workers\":" << workers_ << ",\"wall_us\":" << s.wall_us
     << ",\"steps\":[";
  bool first = true;
  for (const JournalEntry& e : entries()) {
    if (!first) os << ",";
    first = false;
    os << "{\"step\":\"" << escape_json(e.step) << "\",\"worker\":" << e.worker
       << ",\"attempt\":" << e.attempt << ",\"start_us\":" << e.start_us
       << ",\"end_us\":" << e.end_us
       << ",\"cache_hit\":" << (e.cache_hit ? "true" : "false")
       << ",\"ok\":" << (e.ok ? "true" : "false")
       << ",\"rerun\":" << (e.rerun ? "true" : "false");
    if (e.timed_out) os << ",\"timed_out\":true";
    if (e.resumed) os << ",\"resumed\":true";
    if (!e.fault.empty()) os << ",\"fault\":\"" << escape_json(e.fault) << "\"";
    if (e.has_key) os << ",\"key\":\"" << std::hex << e.key << std::dec << "\"";
    if (e.span != 0) os << ",\"span\":" << e.span;
    if (e.batch != 0) os << ",\"batch\":" << e.batch;
    os << "}";
  }
  os << "],\"summary\":{\"records\":" << s.steps
     << ",\"executed\":" << s.executed << ",\"cache_hits\":" << s.cache_hits
     << ",\"failures\":" << s.failures << ",\"retries\":" << s.retries
     << ",\"timeouts\":" << s.timeouts << ",\"faults\":" << s.faults
     << ",\"resumed\":" << s.resumed << ",\"reruns\":" << s.reruns
     << ",\"busy_us\":" << s.busy_us << ",\"parallelism\":" << s.parallelism
     << ",\"critical_path_us\":" << s.critical_path_us
     << ",\"critical_path\":[";
  first = true;
  for (const std::string& name : s.critical_path) {
    if (!first) os << ",";
    first = false;
    os << "\"" << escape_json(name) << "\"";
  }
  os << "]}}";
  return os.str();
}

}  // namespace interop::runtime
