#include "runtime/executor.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "runtime/pool.hpp"

namespace interop::runtime {

ParallelExecutor::ParallelExecutor(
    wf::FlowTemplate main, std::map<std::string, wf::FlowTemplate> subflows,
    std::unique_ptr<wf::DataManager> data, ExecutorOptions options,
    std::shared_ptr<ResultCache> cache, std::string role)
    : engine_(std::move(main), std::move(subflows), std::move(data),
              std::move(role)),
      options_(options),
      cache_(std::move(cache)),
      clock_(std::make_shared<SteadyClock>()),
      watchdog_(std::make_unique<Watchdog>(clock_)),
      m_runnable_(obs::Metrics::global().gauge("runtime.queue.runnable")),
      m_cache_hit_(obs::Metrics::global().counter("runtime.cache.hit")),
      m_cache_miss_(obs::Metrics::global().counter("runtime.cache.miss")),
      m_attempts_(obs::Metrics::global().counter("runtime.attempts")),
      m_retries_(obs::Metrics::global().counter("runtime.retries")),
      m_faults_(obs::Metrics::global().counter("runtime.faults")),
      m_timeouts_(obs::Metrics::global().counter("runtime.timeouts")),
      m_steals_(obs::Metrics::global().counter("sched.steal")),
      m_step_us_(obs::Metrics::global().histogram("runtime.step_us")),
      m_replay_us_(obs::Metrics::global().histogram("runtime.replay_us")),
      m_claims_(obs::Metrics::global().histogram("sched.batch_size")) {
  journal_.set_clock(clock_);
}

std::string ParallelExecutor::instantiate(
    const std::vector<std::string>& blocks) {
  return engine_.instantiate(blocks);
}

void ParallelExecutor::set_clock(std::shared_ptr<Clock> clock) {
  clock_ = std::move(clock);
  watchdog_ = std::make_unique<Watchdog>(clock_);
  journal_.set_clock(clock_);
}

// -------------------------------------------------------------- claiming

void ParallelExecutor::claim_frontier_locked(int worker_id) {
  if (stop_) return;
  std::vector<std::string> runnable = engine_.runnable_steps();
  m_runnable_.set(std::int64_t(runnable.size()));
  if (obs::armed())
    obs::counter("runtime", "queue.runnable", std::int64_t(runnable.size()));
  if (runnable.empty()) return;

  // Livelock check: walking the frontier in rank order, the first step
  // already claimed kLivelockLimit times aborts the round — lower-rank
  // claimable steps before it still go out.
  std::size_t claimable = runnable.size();
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    auto it = scheduled_.find(runnable[i]);
    if (it != scheduled_.end() && it->second >= kLivelockLimit) {
      stats_.livelock = true;
      stats_.error = "livelock detected: step '" + runnable[i] +
                     "' was scheduled " + std::to_string(it->second) +
                     " times in one run(); a data write/read cycle keeps "
                     "marking it NeedsRerun";
      engine_.report_run_error(stats_.error);
      stop_ = true;
      cv_.notify_all();
      claimable = i;
      break;
    }
  }
  runnable.resize(claimable);
  if (runnable.empty()) return;

  for (wf::Engine::StepClaim& c : engine_.begin_steps(runnable)) {
    ++scheduled_[c.name];
    Claim claim;
    claim.id = ++next_claim_id_;
    claim.claimer = worker_id;
    claim.was_rerun = c.was_rerun;
    claim.name = c.name;
    int rank = engine_.instance().find(c.name)->rank;
    ready_.emplace(std::pair(rank, std::move(c.name)), std::move(claim));
    ++stats_.batches;
    ++live_claims_;
    m_claims_.observe(1);
  }
}

// --------------------------------------------------------------- watchdog

std::uint64_t ParallelExecutor::watchdog_wakeups() const {
  return watchdog_->wakeups();
}

void ParallelExecutor::request_stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(engine_.mutex());
    stop_ = true;
  }
  cv_.notify_all();
  watchdog_->fire_all();
}

// ------------------------------------------------------- claim execution

ParallelExecutor::Outcome ParallelExecutor::replay_claim(Claim claim,
                                                         int worker_id) {
  // Cache replay path: replays are not tool runs, so they take no faults
  // and need no retries. Skipping writes whose content is already current
  // avoids timestamp churn (and the NeedsRerun cascade it would trigger)
  // on warm re-runs over live data.
  JournalEntry rec;
  rec.step = claim.name;
  rec.worker = worker_id;
  rec.rerun = claim.was_rerun;
  rec.cache_hit = true;
  rec.has_key = true;
  rec.key = claim.key;
  rec.batch = claim.id;
  rec.resumed = resume_complete_ && resume_complete_->count(claim.name) > 0;
  m_cache_hit_.add();
  if (obs::armed()) {
    rec.span = obs::next_span_id();
    obs::begin_span("runtime", "replay:" + claim.name, rec.span,
                    "\"worker\":" + std::to_string(worker_id));
  }
  rec.start_us = journal_.now_us();

  wf::ActionApi api(engine_, engine_.instance(), claim.name);
  for (const auto& [path, content] : claim.entry->outputs)
    if (api.read_data(path) != std::optional<std::string>(content))
      api.write_data(path, content);
  for (const auto& [name, value] : claim.entry->variables)
    api.set_variable(name, value);
  api.set_step_state_success();
  wf::ActionResult result{0, claim.entry->log};
  rec.end_us = journal_.now_us();
  m_replay_us_.observe(rec.end_us - rec.start_us);
  if (rec.span != 0) obs::end_span("runtime", "replay:" + claim.name, rec.span);

  return Outcome{std::move(claim), std::move(rec), std::move(result),
                 std::move(api), 1, 0, 0, true};
}

ParallelExecutor::Outcome ParallelExecutor::execute_claim(Claim claim,
                                                          int worker_id) {
  // StepStatus nodes are stable after instantiate(); the def is immutable
  // during a run, so reading it unlocked is safe.
  const wf::StepStatus* st = engine_.instance().find(claim.name);
  int faults_this_claim = 0;
  int timeouts_this_claim = 0;
  if (cache_) m_cache_miss_.add();

  int attempt = 0;
  for (;;) {
    ++attempt;
    FaultKind fault = FaultKind::None;
    if (faults_)
      fault = faults_->decide(claim.name, attempt,
                              options_.step_timeout_us > 0);

    JournalEntry rec;
    rec.step = claim.name;
    rec.worker = worker_id;
    rec.rerun = claim.was_rerun;
    rec.attempt = attempt;
    rec.has_key = cache_ != nullptr;
    rec.key = claim.key;
    rec.batch = claim.id;
    if (fault != FaultKind::None) {
      rec.fault = to_string(fault);
      ++faults_this_claim;
      m_faults_.add();
    }
    m_attempts_.add();
    if (attempt > 1) m_retries_.add();
    if (obs::armed()) {
      rec.span = obs::next_span_id();
      std::string args = "\"worker\":" + std::to_string(worker_id) +
                         ",\"attempt\":" + std::to_string(attempt);
      if (claim.was_rerun) args += ",\"rerun\":true";
      if (!rec.fault.empty())
        args += ",\"fault\":\"" + obs::escape_json(rec.fault) + "\"";
      obs::begin_span("runtime", "step:" + claim.name, rec.span,
                      std::move(args));
    }
    rec.start_us = journal_.now_us();

    // Every attempt is armed, even with timeouts off (at kNever, which
    // starts no watchdog thread), so request_stop() reaches it.
    CancelToken token;
    std::uint64_t arm_id = watchdog_->arm(
        options_.step_timeout_us > 0
            ? clock_->now_us() + options_.step_timeout_us
            : Watchdog::kNever,
        [&token] { token.cancel(); });
    if (stop_requested_.load(std::memory_order_relaxed)) token.cancel();
    wf::ActionApi api(engine_, engine_.instance(), claim.name);
    api.set_cancel_flag(token.flag());

    wf::ActionResult result;
    switch (fault) {
      case FaultKind::None:
        if (st->def.action.fn) result = st->def.action.fn(api);
        break;
      case FaultKind::Fail:
        // The tool died before producing anything (license drop, crash).
        result = {137, "injected fault: tool crashed before writing output"};
        break;
      case FaultKind::Hang: {
        // A wedged tool: the attempt blocks until the step timeout elapses
        // on the shared clock (instant under SimClock; the watchdog's
        // cancel fires in parallel under a real clock), then reports a
        // cooperatively cancelled attempt.
        clock_->sleep_us(options_.step_timeout_us);
        token.cancel();
        result = {124, "injected fault: tool hung until step timeout"};
        break;
      }
      case FaultKind::TornWrite: {
        // The tool died mid-write: the action runs, then one declared
        // output is truncated to a half-written file. Downstream steps may
        // observe the torn bytes; the trigger/rework machinery repairs
        // them once a later attempt writes the real content.
        if (st->def.action.fn) result = st->def.action.fn(api);
        if (!st->def.writes.empty()) {
          const std::string& path = st->def.writes[faults_->pick_output(
              claim.name, attempt, st->def.writes.size())];
          std::string full = api.read_data(path).value_or("");
          api.write_data(path,
                         full.substr(0, full.size() / 2) + "\x01torn");
          result = {139, "injected fault: torn write on " + path};
        } else {
          result = {137, "injected fault: tool crashed (no output to tear)"};
        }
        break;
      }
    }
    watchdog_->disarm(arm_id);
    if (token.cancelled()) rec.timed_out = true;
    rec.end_us = journal_.now_us();

    bool ok;
    if (fault != FaultKind::None) {
      // An injected fault fails the attempt regardless of what the wrapped
      // action reported (a torn write may sit on top of a "successful"
      // run). Record the forced failure on the api so the engine's
      // completion policy sees it too if this is the final attempt.
      ok = false;
      api.set_step_state_failure(result.log);
    } else {
      ok = api.outcome_ok(result);
      // An action that finished successfully just as the watchdog fired
      // still counts as finished; its writes landed.
      if (ok) rec.timed_out = false;
    }
    if (rec.timed_out) {
      ++timeouts_this_claim;
      m_timeouts_.add();
    }
    rec.ok = ok;
    m_step_us_.observe(rec.end_us - rec.start_us);
    if (rec.span != 0) {
      std::string args = std::string("\"ok\":") + (ok ? "true" : "false");
      if (rec.timed_out) args += ",\"timed_out\":true";
      obs::end_span("runtime", "step:" + claim.name, rec.span,
                    std::move(args));
    }

    if (!ok && attempt < options_.max_attempts &&
        !stop_requested_.load(std::memory_order_relaxed)) {
      // Retry in place: the step stays Running, the failed attempt is
      // journaled and noted on the step, and the next attempt starts after
      // a deterministic backoff.
      journal_.record(std::move(rec));
      {
        // The retry reads its inputs afresh: key and stale window restart.
        std::lock_guard<std::mutex> lock(engine_.mutex());
        engine_.note_failed_attempt(claim.name, result.log);
        engine_.start_attempt(claim.name);
        if (cache_) claim.key = step_content_key(st->def, engine_.data());
      }
      std::uint64_t delay_us = backoff_delay_us(attempt);
      if (obs::armed())
        obs::instant("runtime", "backoff:" + claim.name,
                     "\"attempt\":" + std::to_string(attempt) +
                         ",\"delay_us\":" + std::to_string(delay_us));
      clock_->sleep_us(delay_us);
      continue;
    }

    return Outcome{std::move(claim),   std::move(rec),    std::move(result),
                   std::move(api),     attempt,           faults_this_claim,
                   timeouts_this_claim, false};
  }
}

void ParallelExecutor::apply_outcome_locked(Outcome& o) {
  engine_.apply_step_result(o.claim.name, o.result, o.api, o.claim.was_rerun);
  const wf::StepStatus* post = engine_.instance().find(o.claim.name);
  bool failed = post->state == wf::StepState::Failed;
  if (o.replay) {
    o.rec.ok = !failed;
    ++stats_.cache_hits;
    if (o.rec.resumed) ++stats_.resumed;
    if (failed) ++stats_.failures;
  } else {
    o.rec.ok = o.rec.ok && !failed;
    ++stats_.executed;
    stats_.attempts += o.attempts;
    stats_.retries += o.attempts - 1;
    stats_.faults_injected += o.faults;
    stats_.timeouts += o.timeouts;
    if (failed) ++stats_.failures;
    bool effects_complete = post->state == wf::StepState::Succeeded ||
                            post->state == wf::StepState::AwaitingFinish;
    if (cache_ && effects_complete) {
      CacheEntry entry;
      entry.outputs = o.api.data_writes();
      entry.variables = o.api.var_writes();
      entry.log = o.result.log;
      cache_->store(o.claim.key, std::move(entry));
    }
  }
  journal_.record(std::move(o.rec));
}

// ----------------------------------------------------------- worker loop

void ParallelExecutor::worker_loop(int worker_id) {
  // The worker holds the engine's mutex except while it runs its step.
  std::unique_lock<std::mutex> lock(engine_.mutex());
  for (;;) {
    // Idle pass: nothing queued and nothing in flight, so claim the
    // frontier.
    if (ready_.empty() && live_claims_ == 0) claim_frontier_locked(worker_id);
    if (ready_.empty()) {
      if (live_claims_ > 0) {
        cv_.wait(lock);
        continue;
      }
      // Nothing runnable, nothing queued, nothing in flight: the flow is
      // drained (or blocked on failures/roles) — or a stop finished
      // draining.
      stop_ = true;
      lock.unlock();
      cv_.notify_all();
      return;
    }

    // Lowest (rank, name) first, as the serial loop; the attempt starts now.
    Claim claim = std::move(ready_.extract(ready_.begin()).mapped());
    engine_.start_attempt(claim.name);
    if (cache_) {
      claim.key = step_content_key(engine_.instance().find(claim.name)->def,
                                   engine_.data());
      claim.entry = cache_->find(claim.key);
    }
    if (claim.claimer != worker_id) {
      // Handed off: another worker's lock section queued this claim.
      ++stats_.steals;
      m_steals_.add();
      if (obs::armed())
        obs::instant("sched", "steal",
                     "\"thief\":" + std::to_string(worker_id) +
                         ",\"victim\":" + std::to_string(claim.claimer) +
                         ",\"claim\":" + std::to_string(claim.id));
    }
    ++busy_workers_;
    if (obs::armed()) obs::counter("runtime", "workers.busy", busy_workers_);
    bool more = !ready_.empty();
    lock.unlock();
    if (more) cv_.notify_all();

    Outcome done = claim.entry ? replay_claim(std::move(claim), worker_id)
                               : execute_claim(std::move(claim), worker_id);

    // One lock section applies the step (with its stale-input rework
    // check), then claims whatever the apply made runnable.
    lock.lock();
    apply_outcome_locked(done);
    --live_claims_;
    --busy_workers_;
    if (obs::armed()) obs::counter("runtime", "workers.busy", busy_workers_);
    claim_frontier_locked(worker_id);
  }
}

RunStats ParallelExecutor::run() { return run_impl(nullptr); }

RunStats ParallelExecutor::resume_run(const RunJournal& prior) {
  std::set<std::string> complete;
  for (const std::string& step : prior.completed_steps())
    complete.insert(step);
  return run_impl(&complete);
}

RunStats ParallelExecutor::run_impl(
    const std::set<std::string>* journaled_complete) {
  stats_ = RunStats{};
  scheduled_.clear();
  stop_ = false;
  stop_requested_.store(false, std::memory_order_relaxed);
  busy_workers_ = 0;
  live_claims_ = 0;
  ready_.clear();
  next_claim_id_ = 0;
  resume_complete_ = journaled_complete;

  obs::Span run_span("runtime", [this, journaled_complete] {
    return std::pair{journaled_complete ? "resume_run" : "run",
                     "\"workers\":" + std::to_string(options_.workers)};
  });

  journal_.begin_run(options_.workers);

  WorkerPool::shared().run(options_.workers,
                           [this](int worker_id) { worker_loop(worker_id); });

  journal_.end_run();
  resume_complete_ = nullptr;

  stats_.wall_us = journal_.wall_us();
  stats_.stopped = stop_requested_.load(std::memory_order_relaxed);
  if (stats_.error.empty()) {
    if (stats_.stopped)
      stats_.error = "run stopped by request_stop()";
    else if (stats_.failures > 0)
      stats_.error = engine_.last_error();
  }
  return stats_;
}

}  // namespace interop::runtime
