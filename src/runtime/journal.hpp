#pragma once
// Structured run journal for the parallel executor: one record per step
// attempt or cache replay (worker id, attempt number, start/stop offsets,
// content key, cache hit, injected fault, outcome), plus derived summary
// metrics — achieved parallelism and the critical path through the
// dependency graph weighted by observed step durations. Exported as JSON
// for the bench harness and external tooling, and as a compact text form
// (save/load) that survives a crashed run: ParallelExecutor::resume_run
// reads the completion markers + input keys back to skip finished work —
// the "Untangling the Timeline" journal-recovery idea applied to flows.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/retry.hpp"
#include "workflow/flow.hpp"

namespace interop::runtime {

struct JournalEntry {
  std::string step;
  int worker = -1;
  int attempt = 1;             ///< 1-based within one claim of the step
  std::uint64_t start_us = 0;  ///< offset from run start
  std::uint64_t end_us = 0;
  bool cache_hit = false;
  bool ok = true;
  bool rerun = false;
  bool timed_out = false;      ///< attempt was cooperatively cancelled
  bool resumed = false;        ///< replay honored a prior journal's marker
  std::string fault;           ///< injected fault kind ("" = none)
  bool has_key = false;
  std::uint64_t key = 0;       ///< content key at attempt start (memoization)
  std::uint64_t span = 0;      ///< obs trace span id (0 = tracing was off);
                               ///< JSON-only, not part of the v1 text form
                               ///< (spans aren't needed for crash recovery)
  std::uint64_t batch = 0;     ///< claim id, 1..N per run (0 = unknown,
                               ///< e.g. loaded from text); JSON-only,
                               ///< like span: claim ids are diagnostic,
                               ///< not needed for recovery, and the v1
                               ///< text form stays byte-stable
};

class RunJournal {
 public:
  /// Reset and stamp the run start.
  void begin_run(int workers);
  /// Stamp the run end (wall time).
  void end_run();

  /// Time source for timestamps (default: real steady time). Install a
  /// SimClock before begin_run() for deterministic journals under test.
  void set_clock(std::shared_ptr<Clock> clock);

  /// Microseconds since begin_run(); thread-safe.
  std::uint64_t now_us() const;

  /// Thread-safe append.
  void record(JournalEntry e);

  std::vector<JournalEntry> entries() const;
  int workers() const { return workers_; }
  std::uint64_t wall_us() const { return wall_us_; }

  /// Steps whose LAST record is a successful (non-timed-out) attempt or
  /// replay — the completion markers resume_run() trusts.
  std::vector<std::string> completed_steps() const;
  /// Attempt records for one step, in journal order.
  std::vector<JournalEntry> attempts_for(const std::string& step) const;

  /// Serialize for crash recovery (versioned tab-separated text). load()
  /// replaces this journal's entries/workers/wall time; returns false and
  /// leaves the journal empty when the header is malformed. Body lines are
  /// loaded fail-soft: the scan stops at the first truncated, garbage, or
  /// inconsistent-attempt line and keeps the valid prefix (a crashed
  /// process routinely tears the final line mid-write — losing the whole
  /// journal to it would poison resume into re-executing everything).
  /// Byte-identical consecutive duplicate lines (a doubled write) are
  /// skipped rather than treated as corruption.
  void save(std::ostream& os) const;
  bool load(std::istream& is);
  /// Body lines the last load() dropped (0 = the journal was whole).
  std::size_t load_dropped_lines() const;

  struct Summary {
    int steps = 0;          ///< journal records (attempts + replays)
    int executed = 0;       ///< actions actually run (incl. failed attempts)
    int cache_hits = 0;
    int failures = 0;
    int retries = 0;        ///< records with attempt > 1
    int timeouts = 0;
    int faults = 0;         ///< records carrying an injected fault
    int resumed = 0;
    int reruns = 0;
    std::uint64_t wall_us = 0;
    std::uint64_t busy_us = 0;           ///< sum of step durations
    double parallelism = 0.0;            ///< busy / wall
    std::uint64_t critical_path_us = 0;  ///< longest dependency chain
    std::vector<std::string> critical_path;
  };

  /// Derive the summary; `instance` supplies the dependency edges for the
  /// critical path (the latest record per step carries its duration).
  Summary summary(const wf::FlowInstance& instance) const;

  /// The whole journal as a JSON object (entries + summary).
  std::string to_json(const wf::FlowInstance& instance) const;

 private:
  mutable std::mutex mu_;
  std::vector<JournalEntry> entries_;
  std::shared_ptr<Clock> clock_;
  std::uint64_t t0_us_ = 0;
  std::uint64_t wall_us_ = 0;
  int workers_ = 0;
  std::size_t load_dropped_ = 0;
};

}  // namespace interop::runtime
