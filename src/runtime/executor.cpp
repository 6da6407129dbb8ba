#include "runtime/executor.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "obs/trace.hpp"

namespace interop::runtime {

namespace {
/// Auto-tuned batch thresholds never exceed this: a step this expensive is
/// worth its own claim even when the median is large.
constexpr std::uint64_t kAutoThresholdCapUs = 32;
/// Histogram samples required before unseen steps inherit the p50 estimate
/// (below this, an unseen step is "unknown" and never batches).
constexpr std::int64_t kMinCostSamples = 8;
constexpr std::uint64_t kUnknownCost = std::numeric_limits<std::uint64_t>::max();
}  // namespace

ParallelExecutor::ParallelExecutor(
    wf::FlowTemplate main, std::map<std::string, wf::FlowTemplate> subflows,
    std::unique_ptr<wf::DataManager> data, ExecutorOptions options,
    std::shared_ptr<ResultCache> cache)
    : engine_(std::move(main), std::move(subflows), std::move(data)),
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
      m_fastpath_(obs::Metrics::global().counter("sched.fastpath")),
      m_step_us_(obs::Metrics::global().histogram("runtime.step_us")),
      m_replay_us_(obs::Metrics::global().histogram("runtime.replay_us")),
      m_batch_size_(obs::Metrics::global().histogram("sched.batch_size")) {
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

// ------------------------------------------------------------ cost model

std::uint64_t ParallelExecutor::hist_p50_locked() const {
  std::int64_t count = cost_hist_.count();
  if (count <= 0) return 0;
  std::int64_t half = (count + 1) / 2;
  std::int64_t seen = 0;
  for (int b = 0; b < obs::MetricHistogram::kBuckets; ++b) {
    seen += cost_hist_.bucket(b);
    if (seen >= half) return obs::MetricHistogram::bucket_upper(b);
  }
  return obs::MetricHistogram::bucket_upper(obs::MetricHistogram::kBuckets - 1);
}

std::uint64_t ParallelExecutor::batch_threshold_locked() const {
  if (cost_hist_.count() == 0) return 0;  // no samples: nothing batches yet
  std::uint64_t p50 = hist_p50_locked();
  if (p50 >= kAutoThresholdCapUs / 4) return kAutoThresholdCapUs;
  return std::min<std::uint64_t>(4 * p50, kAutoThresholdCapUs);
}

std::uint64_t ParallelExecutor::estimate_locked(const std::string& name) const {
  auto it = cost_est_us_.find(name);
  if (it != cost_est_us_.end()) return it->second;
  // Never-seen steps inherit the p50 only once the histogram has enough
  // samples to mean something. One instant bookkeeping step must not vouch
  // for a whole frontier of unseen tool runs — fast-pathing those would
  // serialize real overlap, the worst mispredict this model can make.
  if (cost_hist_.count() >= kMinCostSamples) return hist_p50_locked();
  return kUnknownCost;
}

// --------------------------------------------------------- batch forming

void ParallelExecutor::form_batches_locked(int worker_id) {
  if (stop_) return;
  std::vector<std::string> runnable = engine_.runnable_steps();
  m_runnable_.set(std::int64_t(runnable.size()));
  if (obs::armed())
    obs::counter("runtime", "queue.runnable", std::int64_t(runnable.size()));
  if (runnable.empty()) return;

  // Livelock check mirrors the serial engine: walking the frontier in rank
  // order, the first step already scheduled livelock_limit times aborts the
  // round — lower-rank claimable steps before it still go out (they were
  // claimed first under per-step claiming too).
  std::size_t claimable = runnable.size();
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    auto it = scheduled_.find(runnable[i]);
    if (it != scheduled_.end() && it->second >= options_.livelock_limit) {
      stats_.livelock = true;
      stats_.error = "livelock detected: step '" + runnable[i] +
                     "' was scheduled " + std::to_string(it->second) +
                     " times in one run(); a data write/read cycle keeps "
                     "marking it NeedsRerun";
      stop_ = true;
      cv_.notify_all();
      claimable = i;
      break;
    }
  }
  runnable.resize(claimable);
  if (runnable.empty()) return;

  std::uint64_t threshold = batch_threshold_locked();
  bool all_cheap = true;
  for (const std::string& name : runnable) {
    if (estimate_locked(name) > threshold) {
      all_cheap = false;
      break;
    }
  }
  // Serial fast path: the whole remaining frontier is sub-threshold and no
  // other batch exists anywhere — claim it as ONE uncapped batch. Being the
  // only queued batch, the claiming worker pops it in this same lock
  // section, so a scheduling-bound flow proceeds wave by wave with one lock
  // acquisition per wave while the pool stays parked.
  // max_batch == 1 promises strictly per-step claims, so it disables the
  // fast path too (the differential tests rely on that).
  bool fastpath = all_cheap && live_batches_ == 0 && options_.max_batch > 1;

  std::vector<wf::Engine::StepClaim> claims = engine_.begin_steps(runnable);
  if (claims.empty()) return;
  for (const wf::Engine::StepClaim& c : claims) ++scheduled_[c.name];

  int cap = std::max(1, options_.max_batch);
  std::size_t first = ready_.size();
  Batch cur;
  auto flush = [&] {
    if (cur.items.empty()) return;
    cur.id = ++next_batch_id_;
    cur.claimer = worker_id;
    ready_.push_back(std::move(cur));
    cur = Batch{};
  };
  for (wf::Engine::StepClaim& c : claims) {
    bool cheap = fastpath || estimate_locked(c.name) <= threshold;
    BatchItem item;
    item.was_rerun = c.was_rerun;
    if (cache_) {
      const wf::StepStatus* st = engine_.instance().find(c.name);
      item.key = step_content_key(st->def, engine_.data());
      item.has_key = true;
      item.entry = cache_->find(item.key);
    }
    item.name = std::move(c.name);
    if (fastpath) {
      cur.items.push_back(std::move(item));
    } else if (!cheap) {
      flush();
      cur.items.push_back(std::move(item));
      flush();
    } else {
      cur.items.push_back(std::move(item));
      if (int(cur.items.size()) >= cap) flush();
    }
  }
  if (fastpath && !cur.items.empty()) {
    cur.fastpath = true;
    ++stats_.fastpath;
    m_fastpath_.add();
  }
  flush();
  int formed = int(ready_.size() - first);
  stats_.batches += formed;
  live_batches_ += formed;
  for (std::size_t i = first; i < ready_.size(); ++i)
    m_batch_size_.observe(std::uint64_t(ready_[i].items.size()));
}

// --------------------------------------------------------------- watchdog

std::uint64_t ParallelExecutor::watchdog_wakeups() const {
  return watchdog_->wakeups();
}

void ParallelExecutor::request_stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  watchdog_->fire_all();
}

// -------------------------------------------------------- item execution

ParallelExecutor::ItemOutcome ParallelExecutor::replay_item(
    BatchItem item, int worker_id, std::uint64_t batch_id) {
  // Cache replay path: replays are not tool runs, so they take no faults
  // and need no retries. Skipping writes whose content is already current
  // avoids timestamp churn (and the NeedsRerun cascade it would trigger)
  // on warm re-runs over live data.
  JournalEntry rec;
  rec.step = item.name;
  rec.worker = worker_id;
  rec.rerun = item.was_rerun;
  rec.cache_hit = true;
  rec.has_key = item.has_key;
  rec.key = item.key;
  rec.batch = batch_id;
  rec.resumed = resume_complete_ && resume_complete_->count(item.name) > 0;
  m_cache_hit_.add();
  if (obs::armed()) {
    rec.span = obs::next_span_id();
    obs::begin_span("runtime", "replay:" + item.name, rec.span,
                    "\"worker\":" + std::to_string(worker_id));
  }
  rec.start_us = journal_.now_us();

  wf::ActionApi api(engine_, engine_.instance(), item.name);
  for (const auto& [path, content] : item.entry->outputs)
    if (api.read_data(path) != std::optional<std::string>(content))
      api.write_data(path, content);
  for (const auto& [name, value] : item.entry->variables)
    api.set_variable(name, value);
  api.set_step_state_success();
  wf::ActionResult result{0, item.entry->log};
  rec.end_us = journal_.now_us();
  m_replay_us_.observe(rec.end_us - rec.start_us);
  if (rec.span != 0) obs::end_span("runtime", "replay:" + item.name, rec.span);

  return ItemOutcome{std::move(item), std::move(rec), std::move(result),
                     std::move(api), 1, 0, 0, true};
}

ParallelExecutor::ItemOutcome ParallelExecutor::execute_item(
    BatchItem item, int worker_id, std::uint64_t batch_id) {
  // StepStatus nodes are stable after instantiate(); the def is immutable
  // during a run, so reading it unlocked is safe.
  const wf::StepStatus* st = engine_.instance().find(item.name);
  const RetryPolicy& retry = options_.retry;
  int faults_this_claim = 0;
  int timeouts_this_claim = 0;
  if (item.has_key) m_cache_miss_.add();

  int attempt = 0;
  for (;;) {
    ++attempt;
    FaultKind fault = FaultKind::None;
    if (faults_)
      fault = faults_->decide(item.name, attempt,
                              options_.step_timeout_us > 0);

    JournalEntry rec;
    rec.step = item.name;
    rec.worker = worker_id;
    rec.rerun = item.was_rerun;
    rec.attempt = attempt;
    rec.has_key = item.has_key;
    rec.key = item.key;
    rec.batch = batch_id;
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
      if (item.was_rerun) args += ",\"rerun\":true";
      if (!rec.fault.empty())
        args += ",\"fault\":\"" + obs::escape_json(rec.fault) + "\"";
      obs::begin_span("runtime", "step:" + item.name, rec.span,
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
    wf::ActionApi api(engine_, engine_.instance(), item.name);
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
              item.name, attempt, st->def.writes.size())];
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
      obs::end_span("runtime", "step:" + item.name, rec.span,
                    std::move(args));
    }

    bool retryable = rec.timed_out ? retry.retry_timeouts
                                   : retry.retry_failures;
    if (!ok && attempt < retry.max_attempts && retryable &&
        !stop_requested_.load(std::memory_order_relaxed)) {
      // Retry in place: the step stays Running, the failed attempt is
      // journaled and noted on the step, and the next attempt starts after
      // a deterministic backoff.
      journal_.record(std::move(rec));
      engine_.note_failed_attempt(item.name, result.log);
      if (obs::armed())
        obs::instant("runtime", "backoff:" + item.name,
                     "\"attempt\":" + std::to_string(attempt) +
                         ",\"delay_us\":" +
                         std::to_string(retry.delay_us(attempt)));
      clock_->sleep_us(retry.delay_us(attempt));
      continue;
    }

    return ItemOutcome{std::move(item),       std::move(rec),
                       std::move(result),     std::move(api),
                       attempt,               faults_this_claim,
                       timeouts_this_claim,   false};
  }
}

void ParallelExecutor::apply_outcome_locked(ItemOutcome& o) {
  engine_.apply_step_result(o.item.name, o.result, o.api, o.item.was_rerun,
                            /*refresh=*/false);
  const wf::StepStatus* post = engine_.instance().find(o.item.name);
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
    if (cache_ && o.item.has_key && effects_complete) {
      CacheEntry entry;
      entry.outputs = o.api.data_writes();
      entry.variables = o.api.var_writes();
      entry.log = o.result.log;
      cache_->store(o.item.key, std::move(entry));
    }
  }
  // Feed the cost model: the next claim of this step is estimated at its
  // last observed duration (replays count — that IS the warm-path cost).
  std::uint64_t d =
      o.rec.end_us >= o.rec.start_us ? o.rec.end_us - o.rec.start_us : 0;
  cost_est_us_[o.item.name] = d;
  cost_hist_.observe(d);
  journal_.record(std::move(o.rec));
}

// ----------------------------------------------------------- worker loop

void ParallelExecutor::worker_loop(int worker_id) {
  // The worker holds mu_ except while it runs a batch's steps.
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Idle pass: nothing queued and nothing in flight, so claim the
    // frontier.
    if (ready_.empty() && live_batches_ == 0) form_batches_locked(worker_id);
    if (ready_.empty()) {
      if (live_batches_ > 0) {
        cv_.wait(lock);
        continue;
      }
      // Nothing runnable, nothing queued, nothing in flight: the flow is
      // drained (or blocked on failures/roles, exactly as serial run_all()
      // leaves it) — or a stop finished draining.
      stop_ = true;
      lock.unlock();
      cv_.notify_all();
      return;
    }

    Batch batch = std::move(ready_.front());
    ready_.pop_front();
    if (batch.claimer != worker_id) {
      // Handed off: another worker's lock section formed this batch.
      ++stats_.steals;
      m_steals_.add();
      if (obs::armed())
        obs::instant("sched", "steal",
                     "\"thief\":" + std::to_string(worker_id) +
                         ",\"victim\":" + std::to_string(batch.claimer) +
                         ",\"batch\":" + std::to_string(batch.id));
    }
    ++busy_workers_;
    if (obs::armed()) obs::counter("runtime", "workers.busy", busy_workers_);
    bool more = !ready_.empty();
    lock.unlock();
    if (more) cv_.notify_all();

    std::uint64_t bspan = 0;
    if (obs::armed()) {
      bspan = obs::next_span_id();
      std::string args = "\"worker\":" + std::to_string(worker_id) +
                         ",\"size\":" + std::to_string(batch.items.size());
      if (batch.fastpath) args += ",\"fastpath\":true";
      obs::begin_span("sched", "batch", bspan, std::move(args));
    }
    std::vector<ItemOutcome> done;
    done.reserve(batch.items.size());
    for (BatchItem& item : batch.items)
      done.push_back(item.entry
                         ? replay_item(std::move(item), worker_id, batch.id)
                         : execute_item(std::move(item), worker_id, batch.id));
    if (bspan != 0) obs::end_span("sched", "batch", bspan);

    // One lock section merges the whole batch: per-item apply (with the
    // stale-input rework check each), a single readiness refresh, then
    // claim whatever the applies made runnable.
    lock.lock();
    for (ItemOutcome& o : done) apply_outcome_locked(o);
    engine_.refresh_readiness();
    --live_batches_;
    --busy_workers_;
    if (obs::armed()) obs::counter("runtime", "workers.busy", busy_workers_);
    form_batches_locked(worker_id);
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
  live_batches_ = 0;
  ready_.clear();
  next_batch_id_ = 0;
  resume_complete_ = journaled_complete;

  int n = std::max(1, options_.workers);

  obs::Span run_span("runtime", journaled_complete ? "resume_run" : "run",
                     "\"workers\":" + std::to_string(options_.workers));

  journal_.begin_run(options_.workers);
  engine_.set_concurrency_guard(&mu_);

  std::vector<std::thread> pool;
  pool.reserve(std::size_t(n));
  for (int i = 0; i < n; ++i)
    pool.emplace_back([this, i] { worker_loop(i); });
  for (std::thread& t : pool) t.join();

  engine_.set_concurrency_guard(nullptr);
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
