// Scheduler-specific tests for the parallel runtime, which claims one step
// per queue entry:
//
//  - Differential goldens: each {2, 4}-worker run must land on the
//    byte-identical final data-manager state, identical ResultCache
//    contents, and identical per-step journal attempt records as the
//    1-worker run, across chaos seeds; every run queues exactly one claim
//    per executed or replayed step.
//  - Handoff: skewed step costs on a wide frontier with 8 workers must
//    record claims run by a worker other than their claimer (steals) and
//    still converge to the serial reference.
//  - Stop: request_stop() with claims still queued must run and apply
//    every claim exactly once and claim nothing new.
//  - Watchdog: the event-driven watchdog must not poll (wakeup count stays
//    tiny across a long armed run) yet must still cancel a wedged action at
//    the real-clock deadline.
//
// Suites are named Sched* so the TSan CI job's -R regex picks them up.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault.hpp"
#include "runtime/hash.hpp"
#include "serial_oracle.hpp"
#include "workflow/engine.hpp"

namespace interop::runtime {
namespace {

using wf::ActionApi;
using wf::ActionLanguage;
using wf::ActionResult;
using wf::Engine;
using wf::FlowTemplate;
using wf::SimpleDataManager;
using wf::StepDef;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::atoi(v) : fallback;
}

/// Layered random DAG (same shape as the chaos sweep): every step derives
/// its output purely from its inputs, so every correct schedule lands on
/// the same bytes.
FlowTemplate make_layered(int layers, int width, std::uint64_t seed) {
  interop::base::Rng rng(seed);
  FlowTemplate flow;
  flow.name = "layered";
  for (int l = 0; l < layers; ++l) {
    for (int w = 0; w < width; ++w) {
      std::string name = "s" + std::to_string(l) + "_" + std::to_string(w);
      StepDef step;
      step.name = name;
      step.writes = {name + ".out"};
      if (l > 0) {
        int deps = 1 + int(rng.index(2));
        for (int d = 0; d < deps; ++d) {
          std::string parent = "s" + std::to_string(l - 1) + "_" +
                               std::to_string(rng.index(std::size_t(width)));
          if (std::find(step.start_after.begin(), step.start_after.end(),
                        parent) == step.start_after.end()) {
            step.start_after.push_back(parent);
            step.reads.push_back(parent + ".out");
          }
        }
      } else {
        step.reads = {"inputs.dat"};
      }
      std::string artifact = name + ".out";
      std::vector<std::string> reads = step.reads;
      step.action = {name, ActionLanguage::Native,
                     [artifact, reads](ActionApi& api) {
                       std::string content;
                       for (const std::string& r : reads)
                         content += api.read_data(r).value_or("?");
                       api.write_data(artifact, to_hex(fnv1a(content)) + "+");
                       return ActionResult{0, ""};
                     }};
      flow.steps.push_back(std::move(step));
    }
  }
  return flow;
}

std::map<std::string, std::string> snapshot(wf::DataManager& data) {
  std::map<std::string, std::string> out;
  for (const std::string& path : data.list()) out[path] = *data.read(path);
  return out;
}

/// The journal facts that must not depend on the worker count:
/// per-step attempt sequence (ordinal, outcome, fault, rerun, content key)
/// — everything except worker ids, claim ids, and timing. The timed_out
/// flag is timing too: an injected Hang elsewhere advances the shared
/// SimClock past every armed deadline at once, so whether an instant
/// failing attempt is *also* stamped timed-out depends on when the
/// watchdog sweeps, not on the scheduler (both retry classes are enabled,
/// so the classification cannot diverge either way).
struct AttemptFact {
  int attempt;
  bool ok;
  bool rerun;
  bool cache_hit;
  std::string fault;
  std::uint64_t key;
  bool operator==(const AttemptFact& o) const {
    return attempt == o.attempt && ok == o.ok && rerun == o.rerun &&
           cache_hit == o.cache_hit && fault == o.fault && key == o.key;
  }
};

struct RunOutcome {
  RunStats stats;
  std::map<std::string, std::string> data;
  std::map<std::uint64_t, CacheEntry> cache;
  std::map<std::string, std::vector<AttemptFact>> attempts;
};

RunOutcome run_config(const FlowTemplate& flow, int workers,
                      std::uint64_t fault_seed) {
  ExecutorOptions options;
  options.workers = workers;
  if (fault_seed != 0) {
    options.max_attempts = 4;
    options.step_timeout_us = 50'000;
  }
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                       options);
  par.set_clock(std::make_shared<SimClock>());
  if (fault_seed != 0) {
    FaultPlan plan;
    plan.probability = 0.25;
    plan.kinds = {FaultKind::Fail, FaultKind::Hang, FaultKind::TornWrite};
    plan.max_faults_per_step = 2;
    par.set_fault_injector(std::make_shared<FaultInjector>(fault_seed, plan));
  }
  par.engine().data().write("inputs.dat", "v1");
  EXPECT_EQ(par.instantiate({}), "");

  RunOutcome out;
  out.stats = par.run();
  EXPECT_TRUE(par.complete()) << "workers " << workers << " seed "
                              << fault_seed << ": " << out.stats.error;
  out.data = snapshot(par.engine().data());
  for (const auto& [key, entry] : par.cache()->snapshot())
    out.cache.emplace(key, *entry);
  for (const StepDef& step : flow.steps) {
    std::vector<AttemptFact>& facts = out.attempts[step.name];
    for (const JournalEntry& e : par.journal().attempts_for(step.name))
      facts.push_back({e.attempt, e.ok, e.rerun, e.cache_hit, e.fault,
                       e.has_key ? e.key : 0});
  }
  return out;
}

void expect_equivalent(const RunOutcome& run, const RunOutcome& reference,
                       const std::string& label) {
  EXPECT_EQ(run.data, reference.data)
      << label << ": final data-manager state must be byte-identical";
  ASSERT_EQ(run.cache.size(), reference.cache.size()) << label;
  for (const auto& [key, entry] : run.cache) {
    auto it = reference.cache.find(key);
    ASSERT_NE(it, reference.cache.end())
        << label << ": cache key " << to_hex(key) << " only in this run";
    EXPECT_EQ(entry.outputs, it->second.outputs) << label << " " << to_hex(key);
    EXPECT_EQ(entry.variables, it->second.variables)
        << label << " " << to_hex(key);
    EXPECT_EQ(entry.log, it->second.log) << label << " " << to_hex(key);
  }
  ASSERT_EQ(run.attempts.size(), reference.attempts.size()) << label;
  for (const auto& [step, facts] : run.attempts) {
    auto it = reference.attempts.find(step);
    ASSERT_NE(it, reference.attempts.end()) << label << " " << step;
    EXPECT_EQ(facts, it->second)
        << label << " " << step
        << ": journal attempt records must not depend on the worker count";
  }
  EXPECT_EQ(run.stats.executed, reference.stats.executed) << label;
  EXPECT_EQ(run.stats.retries, reference.stats.retries) << label;
  EXPECT_EQ(run.stats.failures, reference.stats.failures) << label;
}

// The name dates from when this compared batched claims with per-step
// ones; every claim is now one step, and the reference is the 1-worker run.
TEST(SchedDifferential, BatchedMatchesUnbatchedAcrossSeedsAndWorkers) {
  const int seeds = env_int("INTEROP_SCHED_SEEDS", 6);
  const FlowTemplate flow = make_layered(4, 4, /*seed=*/7);

  // fault_seed 0 = fault-free; the rest drive the chaos injector.
  std::vector<std::uint64_t> fault_seeds{0};
  for (int s = 1; s < seeds; ++s) fault_seeds.push_back(std::uint64_t(s));

  for (std::uint64_t fault_seed : fault_seeds) {
    std::string label = "seed " + std::to_string(fault_seed) + " workers ";
    RunOutcome reference = run_config(flow, /*workers=*/1, fault_seed);
    EXPECT_EQ(reference.stats.batches,
              reference.stats.executed + reference.stats.cache_hits)
        << label << 1 << ": every claim must hold exactly one step";
    for (int workers : {2, 4}) {
      RunOutcome run = run_config(flow, workers, fault_seed);
      expect_equivalent(run, reference, label + std::to_string(workers));
      EXPECT_EQ(run.stats.batches, run.stats.executed + run.stats.cache_hits)
          << label << workers << ": every claim must hold exactly one step";
    }
  }
}

TEST(SchedStealing, SkewedCostsRecordStealsAndMatchSerial) {
  // One source, then a wide frontier of very skewed tool latencies: the
  // claiming worker ends up with a deque full of batches while 7 peers sit
  // idle — they must steal, and the result must match the serial engine.
  const int kWidth = 24;
  FlowTemplate flow;
  flow.name = "skewed";
  StepDef src;
  src.name = "src";
  src.writes = {"src.out"};
  src.action = {"src", ActionLanguage::Native, [](ActionApi& api) {
                  api.write_data("src.out", "seed");
                  return ActionResult{0, ""};
                }};
  flow.steps.push_back(src);
  for (int i = 0; i < kWidth; ++i) {
    std::string name = "w" + std::to_string(i);
    StepDef step;
    step.name = name;
    step.start_after = {"src"};
    step.reads = {"src.out"};
    step.writes = {name + ".out"};
    int latency_us = (i % 4 == 0) ? 3000 : 200;  // skew: 15x spread
    step.action = {name, ActionLanguage::Native,
                   [name, latency_us](ActionApi& api) {
                     std::string in = api.read_data("src.out").value_or("?");
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(latency_us));
                     api.write_data(name + ".out",
                                    to_hex(fnv1a(in + name)) + "+");
                     return ActionResult{0, ""};
                   }};
    flow.steps.push_back(std::move(step));
  }

  Engine serial(flow, {}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(serial.instantiate({}), "");
  wf::oracle::run_all(serial);
  ASSERT_TRUE(serial.complete());
  const auto reference = snapshot(serial.data());

  ExecutorOptions options;
  options.workers = 8;
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                       options);
  ASSERT_EQ(par.instantiate({}), "");
  RunStats stats = par.run();
  ASSERT_TRUE(par.complete()) << stats.error;
  EXPECT_EQ(snapshot(par.engine().data()), reference);
  EXPECT_GT(stats.steals, 0)
      << "8 workers against a 24-wide frontier formed on one deque must "
         "steal";
  EXPECT_EQ(stats.executed, kWidth + 1);
}

TEST(SchedStop, StopWithQueuedBatchesDrainsEveryClaim) {
  // One source, then a 32-wide frontier of never-seen steps: each gets a
  // batch of its own, so with 4 workers at least 28 claimed batches sit in
  // the ready queue when the first wide step calls request_stop(). Every
  // claimed batch must still run and apply exactly once; the join step
  // behind the frontier must never be claimed.
  const int kWidth = 32;
  FlowTemplate flow;
  flow.name = "stop_wide";
  StepDef src;
  src.name = "src";
  src.writes = {"src.out"};
  src.action = {"src", ActionLanguage::Native, [](ActionApi& api) {
                  api.write_data("src.out", "seed");
                  return ActionResult{0, ""};
                }};
  flow.steps.push_back(src);
  ParallelExecutor* executor = nullptr;
  std::atomic<bool> stopped{false};
  StepDef join;
  join.name = "join";
  join.writes = {"join.out"};
  join.action = {"join", ActionLanguage::Native, [](ActionApi& api) {
                   api.write_data("join.out", "done");
                   return ActionResult{0, ""};
                 }};
  for (int i = 0; i < kWidth; ++i) {
    std::string name = "w" + std::to_string(i);
    StepDef step;
    step.name = name;
    step.start_after = {"src"};
    step.reads = {"src.out"};
    step.writes = {name + ".out"};
    step.action = {name, ActionLanguage::Native,
                   [name, &executor, &stopped](ActionApi& api) {
                     if (!stopped.exchange(true)) executor->request_stop();
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(200));
                     if (api.cancel_requested())
                       return ActionResult{124, "cancelled"};
                     api.write_data(name + ".out", "x");
                     return ActionResult{0, ""};
                   }};
    flow.steps.push_back(std::move(step));
    join.start_after.push_back(name);
  }
  flow.steps.push_back(std::move(join));

  ExecutorOptions options;
  options.workers = 4;
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                       options);
  executor = &par;
  ASSERT_EQ(par.instantiate({}), "");
  RunStats stats = par.run();

  EXPECT_TRUE(stats.stopped);
  EXPECT_FALSE(par.complete());
  // Every claimed step has exactly one final journal record: src and the
  // whole wide frontier, queued batches included. The join was never
  // claimed, and nothing is left Running.
  std::size_t records = 0;
  std::set<std::uint64_t> batch_ids;
  for (const StepDef& step : flow.steps) {
    std::vector<JournalEntry> recs = par.journal().attempts_for(step.name);
    records += recs.size();
    for (const JournalEntry& e : recs) batch_ids.insert(e.batch);
    EXPECT_EQ(recs.size(), step.name == "join" ? 0u : 1u) << step.name;
    EXPECT_NE(par.engine().instance().find(step.name)->state,
              wf::StepState::Running)
        << step.name;
  }
  EXPECT_EQ(stats.executed, kWidth + 1);
  EXPECT_EQ(records, std::size_t(stats.executed + stats.cache_hits));
  // Batch ids run 1..N with no gaps: every formed batch ran and applied.
  EXPECT_EQ(stats.batches, kWidth + 1);
  EXPECT_EQ(std::size_t(stats.batches), batch_ids.size());
  EXPECT_EQ(*batch_ids.begin(), 1u);
  EXPECT_EQ(*batch_ids.rbegin(), std::uint64_t(stats.batches));
}

TEST(SchedWatchdog, ArmedIdleWatchdogDoesNotPoll) {
  // Three 30 ms tool steps with a 10 s timeout: the watchdog is armed the
  // whole ~90 ms run but has nothing to do. The old implementation polled
  // every 1 ms (~90 wakeups here, ~1000/s in general); the event-driven
  // one wakes only on arm notifications plus the final stop.
  FlowTemplate flow;
  flow.name = "slow_chain";
  for (int i = 0; i < 3; ++i) {
    std::string name = "t" + std::to_string(i);
    StepDef step;
    step.name = name;
    if (i > 0) step.start_after = {"t" + std::to_string(i - 1)};
    step.writes = {name + ".out"};
    step.action = {name, ActionLanguage::Native, [name](ActionApi& api) {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(30));
                     api.write_data(name + ".out", "done");
                     return ActionResult{0, ""};
                   }};
    flow.steps.push_back(std::move(step));
  }

  ExecutorOptions options;
  options.workers = 2;
  options.step_timeout_us = 10'000'000;
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                       options);
  ASSERT_EQ(par.instantiate({}), "");
  RunStats stats = par.run();
  ASSERT_TRUE(par.complete()) << stats.error;
  EXPECT_EQ(stats.timeouts, 0);
  EXPECT_GT(par.watchdog_wakeups(), 0u) << "the watchdog ran and was armed";
  EXPECT_LE(par.watchdog_wakeups(), 20u)
      << "an idle armed watchdog must sleep on the earliest deadline, not "
         "poll";
}

TEST(SchedWatchdog, DisabledTimeoutSpawnsNoWatchdog) {
  FlowTemplate flow;
  StepDef step;
  step.name = "one";
  step.writes = {"one.out"};
  step.action = {"one", ActionLanguage::Native, [](ActionApi& api) {
                   api.write_data("one.out", "x");
                   return ActionResult{0, ""};
                 }};
  flow.name = "tiny";
  flow.steps.push_back(std::move(step));
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(par.instantiate({}), "");
  par.run();
  EXPECT_EQ(par.watchdog_wakeups(), 0u);
}

TEST(SchedWatchdog, RealClockDeadlineCancelsPollingAction) {
  // A wedged-but-cooperative action: it polls cancel_requested() for up to
  // 2 s. The event-driven watchdog must fire at the 30 ms real-clock
  // deadline and cancel it — proving deadline sleeps actually expire and
  // are not lost by the disarm-without-notify optimization.
  std::atomic<bool> saw_cancel{false};
  FlowTemplate flow;
  flow.name = "wedged";
  StepDef step;
  step.name = "wedge";
  step.writes = {"wedge.out"};
  step.action = {"wedge", ActionLanguage::Native,
                 [&saw_cancel](ActionApi& api) {
                   for (int i = 0; i < 2000; ++i) {
                     if (api.cancel_requested()) {
                       saw_cancel.store(true);
                       return ActionResult{124, "cancelled"};
                     }
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(1));
                   }
                   return ActionResult{0, "never cancelled"};
                 }};
  flow.steps.push_back(std::move(step));

  ExecutorOptions options;
  options.workers = 2;
  options.step_timeout_us = 30'000;
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                       options);
  ASSERT_EQ(par.instantiate({}), "");

  auto t0 = std::chrono::steady_clock::now();
  RunStats stats = par.run();
  auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_TRUE(saw_cancel.load());
  EXPECT_FALSE(par.complete());
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_EQ(stats.failures, 1);
  auto recs = par.journal().attempts_for("wedge");
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].timed_out);
  EXPECT_FALSE(recs[0].ok);
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "the watchdog must cancel at ~30 ms, far before the 2 s wedge";
}

}  // namespace
}  // namespace interop::runtime
