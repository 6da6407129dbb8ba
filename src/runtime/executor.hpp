#pragma once
// The flow runtime, the one way to run a flow: runs the ready steps of a
// validated flow, `workers` at a time, layered on the content-addressed
// ResultCache (unchanged steps replay their memoized effects instead of
// re-executing) and the RunJournal (per-attempt timing, cache hit/miss,
// worker id, critical path — exported as JSON). run() owns no threads:
// the caller is worker 0 and the rest are runtime::WorkerPool tasks.
//
// Scheduling model: one step per claim, one ready queue, one lock: the
// engine's mutex(), which guards all engine state. A worker holds it except
// while it runs its step. In one lock section it applies the step it just
// ran (with the engine's stale-input rework check), claims the whole
// runnable frontier (Engine::begin_steps) and pops the lowest (rank, name)
// claim, so a 1-worker run follows the serial loop's order. A step is
// claimed only after every step above it has Succeeded
// (Engine::claimable_steps), so at any worker count rework runs each step
// as often as the serial loop does. With nothing to pop a worker waits on
// cv_. The pop starts the step's attempt
// (Engine::start_attempt) and takes its cache key from the same inputs. A
// claim popped by a worker that did not queue it counts as a handoff
// (RunStats::steals). A step runnable again after kLivelockLimit claims
// stops the run as a livelock, reported in RunStats::error and to the
// engine (last_error(), a notification).
//
// Fault tolerance (see fault.hpp/retry.hpp): each claimed step runs an
// attempt loop — a failed or timed-out attempt is retried in place (the
// step stays Running) after a fixed exponential backoff
// (backoff_delay_us) until ExecutorOptions::max_attempts is used up; only
// the final attempt's result reaches the engine. The shared
// runtime::Watchdog (watchdog.hpp) cancels attempts past the step timeout
// through a per-attempt CancelToken (cooperative: actions poll
// ActionApi::cancel_requested(), injected hangs block on the token); with
// no step timeout it starts no thread at all.
// request_stop() cancels everything in flight ("kill"); already-claimed
// steps still execute and apply so the journal stays consistent.
// resume_run() restarts a killed run from a prior journal's completion
// markers, replaying journaled-complete steps through the ResultCache and
// re-executing only lost work.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/cache.hpp"
#include "runtime/fault.hpp"
#include "runtime/journal.hpp"
#include "runtime/retry.hpp"
#include "runtime/watchdog.hpp"
#include "workflow/engine.hpp"

namespace interop::runtime {

/// Claims of one step in one run() beyond which the run is a livelock.
inline constexpr int kLivelockLimit = 20;

struct ExecutorOptions {
  int workers = 4;
  /// Attempts per claimed step; failed and timed-out attempts both use it
  /// up (1 = no retries).
  int max_attempts = 1;
  /// Cooperative per-attempt timeout; 0 disables the watchdog.
  std::uint64_t step_timeout_us = 0;
};

struct RunStats {
  int executed = 0;      ///< claims whose action ran (final attempts)
  int attempts = 0;      ///< action attempts, including retried failures
  int retries = 0;       ///< attempts beyond the first, across all claims
  int cache_hits = 0;    ///< steps replayed from the result cache
  int resumed = 0;       ///< replays honoring a prior journal (resume_run)
  int failures = 0;      ///< final, state-changing failures
  int faults_injected = 0;
  int timeouts = 0;      ///< attempts cancelled by the watchdog
  int batches = 0;       ///< claims queued (one step each)
  int steals = 0;        ///< claims run by a worker that did not queue them
  bool livelock = false;
  bool stopped = false;  ///< request_stop() ended the run early
  std::uint64_t wall_us = 0;
  std::string error;  ///< livelock/diagnostic message, empty when clean
};

class ParallelExecutor {
 public:
  /// Pass a null `cache` to disable memoization. Sharing one cache between
  /// executors gives warm-start runs across fresh flow instances. `role`
  /// is the user role for the engine's permission checks.
  ParallelExecutor(wf::FlowTemplate main,
                   std::map<std::string, wf::FlowTemplate> subflows,
                   std::unique_ptr<wf::DataManager> data,
                   ExecutorOptions options = {},
                   std::shared_ptr<ResultCache> cache =
                       std::make_shared<ResultCache>(),
                   std::string role = "engineer");

  /// Derive the instance (delegates to Engine::instantiate).
  std::string instantiate(const std::vector<std::string>& blocks);

  /// Drain every runnable step: run until no step can make progress.
  RunStats run();

  /// Crash recovery: run, but treat `prior`'s completion markers as ground
  /// truth — a step whose last journaled attempt succeeded is expected to
  /// replay from the shared ResultCache (counted in RunStats::resumed and
  /// flagged `resumed` in this run's journal) and is never re-executed
  /// unless its inputs no longer match. Steps the prior run lost (failed,
  /// timed out, or never reached) execute normally.
  RunStats resume_run(const RunJournal& prior);

  /// Cooperatively stop an in-progress run(): no new claims, every armed
  /// attempt's CancelToken fires. Claimed steps still execute and apply
  /// their (likely failed) results, so the journal stays consistent — this
  /// is the "kill" half of crash-recovery testing and a graceful-shutdown
  /// API. Safe to call from any thread, including from inside an action.
  void request_stop();

  /// Install a fault injector (test instrument; null = no injection).
  void set_fault_injector(std::shared_ptr<FaultInjector> faults) {
    faults_ = std::move(faults);
  }
  /// Time source for timeouts, backoff, and the journal. Install a SimClock
  /// before run() for deterministic, instant retries under test.
  void set_clock(std::shared_ptr<Clock> clock);

  wf::Engine& engine() { return engine_; }
  const wf::Engine& engine() const { return engine_; }
  const RunJournal& journal() const { return journal_; }
  std::shared_ptr<ResultCache> cache() const { return cache_; }
  bool complete() const { return engine_.complete(); }

  /// Times the watchdog thread woke (deadline sweeps) during this
  /// executor's runs since the last set_clock(). A watchdog idling on one
  /// far deadline wakes a handful of times total; a 1 ms polling loop
  /// would wake ~1000×/s (regression test hook).
  std::uint64_t watchdog_wakeups() const;

 private:
  /// One claimed step: queued on ready_, run by whichever worker pops it.
  struct Claim {
    std::uint64_t id = 0;  ///< 1..N per run (JournalEntry::batch)
    int claimer = 0;       ///< worker whose lock section queued the claim
    std::string name;
    bool was_rerun = false;
    std::uint64_t key = 0;  ///< set at the pop when there is a cache
    std::shared_ptr<const CacheEntry> entry;  ///< non-null = replay
  };
  /// A finished claim waiting for its apply.
  struct Outcome {
    Claim claim;
    JournalEntry rec;
    wf::ActionResult result;
    wf::ActionApi api;
    int attempts = 1;
    int faults = 0;
    int timeouts = 0;
    bool replay = false;
  };

  /// Claim the whole runnable frontier and queue one Claim per step on
  /// ready_. Detects livelock (sets stats_/stop_, reports to the engine).
  void claim_frontier_locked(int worker_id);
  void worker_loop(int worker_id);
  /// Replay one cached claim (no faults, no retries); called unlocked.
  Outcome replay_claim(Claim claim, int worker_id);
  /// Attempt loop for one claim (faults, retries, timeout); called unlocked.
  Outcome execute_claim(Claim claim, int worker_id);
  /// Engine apply + stats + cache store + journal record for one outcome.
  void apply_outcome_locked(Outcome& o);
  RunStats run_impl(const std::set<std::string>* journaled_complete);

  wf::Engine engine_;
  ExecutorOptions options_;
  std::shared_ptr<ResultCache> cache_;
  std::shared_ptr<FaultInjector> faults_;
  std::shared_ptr<Clock> clock_;
  /// Every attempt's token is armed here (see execute_item); rebuilt by
  /// set_clock() so deadlines read the installed clock.
  std::unique_ptr<Watchdog> watchdog_;
  RunJournal journal_;

  std::condition_variable cv_;  ///< waits on the engine's mutex()
  /// Claims not yet popped, by (rank, name).
  std::map<std::pair<int, std::string>, Claim> ready_;
  bool stop_ = false;           ///< no new claims; drain and exit
  int live_claims_ = 0;         ///< queued but not yet applied
  int busy_workers_ = 0;        ///< executing a step (obs gauge)
  std::uint64_t next_claim_id_ = 0;
  /// Read unlocked by attempt loops deciding whether to keep retrying.
  std::atomic<bool> stop_requested_{false};
  std::map<std::string, int> scheduled_;  ///< per-step claims, this run
  const std::set<std::string>* resume_complete_ = nullptr;
  RunStats stats_;

  // Registry handles resolved once (Metrics::global() lookups take a lock
  // and a map walk — measurable at per-claim cadence, see §P2).
  obs::MetricGauge& m_runnable_;
  obs::MetricCounter& m_cache_hit_;
  obs::MetricCounter& m_cache_miss_;
  obs::MetricCounter& m_attempts_;
  obs::MetricCounter& m_retries_;
  obs::MetricCounter& m_faults_;
  obs::MetricCounter& m_timeouts_;
  obs::MetricCounter& m_steals_;
  obs::MetricHistogram& m_step_us_;
  obs::MetricHistogram& m_replay_us_;
  /// "sched.batch_size": one observation (of 1) per claim. Only its count
  /// is read — perfbench's service workload counts claims from it.
  obs::MetricHistogram& m_claims_;
};

}  // namespace interop::runtime
