// Seed-sweep chaos harness for the fault-tolerant flow runtime: the same
// workflow is executed under many fault-injection seeds crossed with
// {serial, 2, 4} worker pools, and every run must converge to the byte-
// identical final data-manager state of a fault-free run, with a journal
// whose per-step attempt records are internally consistent. Also covers
// scheduled (exact-count) faults, hang/timeout cancellation, retry-budget
// exhaustion, and the kill-mid-run + resume_run() crash-recovery path.
//
// CI smoke runs narrow the sweep with INTEROP_CHAOS_SEEDS /
// INTEROP_CHAOS_SEED0 (see .github/workflows/ci.yml).

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "obs/trace.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault.hpp"
#include "runtime/hash.hpp"
#include "runtime/retry.hpp"
#include "serial_oracle.hpp"
#include "workflow/engine.hpp"

namespace interop::runtime {
namespace {

// INTEROP_CHAOS_TRACE=<path>: arm a trace session for the entire chaos
// sweep and write the Chrome trace there at teardown. CI uses this to
// validate (trace_check) and upload the trace artifact of the smoke run.
class ChaosTraceEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* path = std::getenv("INTEROP_CHAOS_TRACE");
    if (!path || !*path) return;
    path_ = path;
    session_ = std::make_unique<obs::TraceSession>();
    session_->arm();
  }
  void TearDown() override {
    if (!session_) return;
    session_->disarm();
    std::ofstream out(path_);
    session_->write_chrome_json(out);
    std::cerr << "chaos trace written to " << path_ << "\n";
  }

 private:
  std::string path_;
  std::unique_ptr<obs::TraceSession> session_;
};

const ::testing::Environment* const kChaosTraceEnv =
    ::testing::AddGlobalTestEnvironment(new ChaosTraceEnvironment);

using wf::ActionApi;
using wf::ActionLanguage;
using wf::ActionResult;
using wf::Engine;
using wf::FlowTemplate;
using wf::SimpleDataManager;
using wf::StepDef;
using wf::StepState;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::atoi(v) : fallback;
}

// Layered random DAG (same shape as runtime_test.cpp): `layers` x `width`
// steps, each deriving its output purely from its inputs, so every
// successful run lands on the same bytes no matter how it got there.
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

std::map<std::string, std::string> fault_free_reference(
    const FlowTemplate& flow) {
  Engine serial(flow, {}, std::make_unique<SimpleDataManager>());
  serial.data().write("inputs.dat", "v1");
  EXPECT_EQ(serial.instantiate({}), "");
  wf::oracle::run_all(serial);
  EXPECT_TRUE(serial.complete());
  return snapshot(serial.data());
}

/// Per-step journal consistency: attempts numbered 1..n with only the last
/// one ok, fault-stamped records never ok, and every step completed.
void check_journal_consistency(const RunJournal& journal,
                               const std::set<std::string>& steps) {
  for (const std::string& step : steps) {
    std::vector<JournalEntry> recs = journal.attempts_for(step);
    ASSERT_FALSE(recs.empty()) << step << " never journaled";
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].attempt, int(i) + 1)
          << step << ": attempts must be journaled 1..n in order";
      if (!recs[i].fault.empty()) {
        EXPECT_FALSE(recs[i].ok)
            << step << ": a fault-stamped attempt can never be ok";
      }
      if (i + 1 < recs.size()) {
        EXPECT_FALSE(recs[i].ok)
            << step << ": only the final attempt may succeed";
      }
    }
    EXPECT_TRUE(recs.back().ok) << step << " must converge";
  }
  std::vector<std::string> complete = journal.completed_steps();
  EXPECT_EQ(std::set<std::string>(complete.begin(), complete.end()), steps);
}

TEST(RuntimeChaos, SweepConvergesToFaultFreeStateAcrossSeedsAndWorkers) {
  const int seeds = env_int("INTEROP_CHAOS_SEEDS", 20);
  const int seed0 = env_int("INTEROP_CHAOS_SEED0", 1);
  const FlowTemplate flow = make_layered(4, 4, /*seed=*/7);
  const auto reference = fault_free_reference(flow);
  std::set<std::string> step_names;
  for (const StepDef& s : flow.steps) step_names.insert(s.name);

  for (int s = 0; s < seeds; ++s) {
    std::uint64_t chaos_seed = std::uint64_t(seed0 + s);
    // Fault decisions are a pure function of (seed, step, attempt), so for
    // one seed every worker count must retry the same steps the same
    // number of times — recorded here and compared across pool sizes.
    std::map<std::string, int> attempts_by_step;

    for (int workers : {1, 2, 4}) {
      FaultPlan plan;
      plan.probability = 0.25;
      plan.kinds = {FaultKind::Fail, FaultKind::Hang, FaultKind::TornWrite};
      plan.max_faults_per_step = 2;

      ExecutorOptions options;
      options.workers = workers;
      options.max_attempts = 4;  // > max_faults_per_step: converges
      options.step_timeout_us = 50'000;

      ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                           options);
      par.set_clock(std::make_shared<SimClock>());
      par.set_fault_injector(
          std::make_shared<FaultInjector>(chaos_seed, plan));
      par.engine().data().write("inputs.dat", "v1");
      ASSERT_EQ(par.instantiate({}), "");

      RunStats stats = par.run();
      ASSERT_TRUE(par.complete())
          << "seed " << chaos_seed << " workers " << workers << ": "
          << stats.error;
      EXPECT_EQ(snapshot(par.engine().data()), reference)
          << "seed " << chaos_seed << " workers " << workers
          << ": final state must be byte-identical to the fault-free run";
      EXPECT_EQ(stats.failures, 0);
      EXPECT_EQ(stats.executed, int(flow.steps.size()));
      EXPECT_EQ(stats.attempts, stats.executed + stats.retries);
      // Every injected fault fails exactly one attempt, and the budget
      // (max_attempts > max_faults_per_step) retries every one of them.
      EXPECT_EQ(stats.retries, stats.faults_injected);
      check_journal_consistency(par.journal(), step_names);

      for (const std::string& step : step_names) {
        int n = int(par.journal().attempts_for(step).size());
        auto [it, inserted] = attempts_by_step.emplace(step, n);
        if (!inserted) {
          EXPECT_EQ(it->second, n)
              << "seed " << chaos_seed << " workers " << workers << " step "
              << step << ": attempt counts must not depend on pool size";
        }
      }
    }
  }
}

TEST(RuntimeChaos, ScheduledFaultsYieldExactRetryCounts) {
  const FlowTemplate flow = make_layered(2, 2, /*seed=*/3);
  const auto reference = fault_free_reference(flow);

  FaultPlan plan;  // schedule only, no probabilistic faults
  plan.schedule[{"s0_0", 1}] = FaultKind::Fail;
  plan.schedule[{"s1_0", 1}] = FaultKind::TornWrite;
  plan.schedule[{"s1_0", 2}] = FaultKind::Fail;

  ExecutorOptions options;
  options.workers = 2;
  options.max_attempts = 4;
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                       options);
  par.set_clock(std::make_shared<SimClock>());
  auto injector = std::make_shared<FaultInjector>(1, plan);
  par.set_fault_injector(injector);
  par.engine().data().write("inputs.dat", "v1");
  ASSERT_EQ(par.instantiate({}), "");

  RunStats stats = par.run();
  ASSERT_TRUE(par.complete()) << stats.error;
  EXPECT_EQ(snapshot(par.engine().data()), reference);
  EXPECT_EQ(stats.retries, 3);
  EXPECT_EQ(stats.faults_injected, 3);
  EXPECT_EQ(stats.attempts, int(flow.steps.size()) + 3);
  EXPECT_EQ(injector->counts().fails, 2);
  EXPECT_EQ(injector->counts().torn_writes, 1);

  auto s00 = par.journal().attempts_for("s0_0");
  ASSERT_EQ(s00.size(), 2u);
  EXPECT_EQ(s00[0].fault, "fail");
  EXPECT_FALSE(s00[0].ok);
  EXPECT_TRUE(s00[1].ok);

  auto s10 = par.journal().attempts_for("s1_0");
  ASSERT_EQ(s10.size(), 3u);
  EXPECT_EQ(s10[0].fault, "torn_write");
  EXPECT_EQ(s10[1].fault, "fail");
  EXPECT_TRUE(s10[2].ok);

  // The engine saw the retried-in-place attempts without a Failed state.
  EXPECT_EQ(par.engine().metrics().failed_attempts, 3);
  EXPECT_EQ(par.engine().instance().find("s1_0")->failed_attempts, 2);
  EXPECT_EQ(par.engine().instance().find("s1_0")->failures, 0);
}

TEST(RuntimeChaos, HangIsCancelledAtStepTimeoutAndRetried) {
  const FlowTemplate flow = make_layered(2, 2, /*seed=*/3);
  const auto reference = fault_free_reference(flow);

  FaultPlan plan;
  plan.schedule[{"s0_1", 1}] = FaultKind::Hang;

  ExecutorOptions options;
  options.workers = 2;
  options.max_attempts = 3;
  options.step_timeout_us = 20'000;
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                       options);
  auto clock = std::make_shared<SimClock>();
  par.set_clock(clock);
  par.set_fault_injector(std::make_shared<FaultInjector>(1, plan));
  par.engine().data().write("inputs.dat", "v1");
  ASSERT_EQ(par.instantiate({}), "");

  RunStats stats = par.run();
  ASSERT_TRUE(par.complete()) << stats.error;
  EXPECT_EQ(snapshot(par.engine().data()), reference);
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_EQ(stats.retries, 1);

  auto recs = par.journal().attempts_for("s0_1");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].fault, "hang");
  EXPECT_TRUE(recs[0].timed_out);
  EXPECT_FALSE(recs[0].ok);
  EXPECT_TRUE(recs[1].ok);
  // The hang burned at least the step timeout on the simulated clock.
  EXPECT_GE(recs[0].end_us - recs[0].start_us, 20'000u);
}

TEST(RuntimeChaos, RetryBudgetExhaustionFailsTheStep) {
  const FlowTemplate flow = make_layered(2, 2, /*seed=*/3);

  FaultPlan plan;
  plan.schedule[{"s0_0", 1}] = FaultKind::Fail;
  plan.schedule[{"s0_0", 2}] = FaultKind::Fail;

  ExecutorOptions options;
  options.workers = 2;
  options.max_attempts = 2;  // < faults scheduled: must fail
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                       options);
  par.set_clock(std::make_shared<SimClock>());
  par.set_fault_injector(std::make_shared<FaultInjector>(1, plan));
  par.engine().data().write("inputs.dat", "v1");
  ASSERT_EQ(par.instantiate({}), "");

  RunStats stats = par.run();
  EXPECT_FALSE(par.complete());
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(par.engine().status_report().at("s0_0"), StepState::Failed);
  auto recs = par.journal().attempts_for("s0_0");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_FALSE(recs.back().ok);
}

// Start-to-previous-end gaps of `step`'s attempts when it fails its first
// `failures` attempts under `failures + 1` attempts on a SimClock.
std::vector<std::uint64_t> backoff_gaps(const std::string& step,
                                        int failures) {
  FaultPlan plan;
  for (int a = 1; a <= failures; ++a)
    plan.schedule[{step, a}] = FaultKind::Fail;
  ExecutorOptions options;
  options.workers = 1;  // one attempt at a time on the shared clock
  options.max_attempts = failures + 1;
  ParallelExecutor par(make_layered(2, 2, /*seed=*/3), {},
                       std::make_unique<SimpleDataManager>(), options);
  par.set_clock(std::make_shared<SimClock>());
  par.set_fault_injector(std::make_shared<FaultInjector>(1, plan));
  par.engine().data().write("inputs.dat", "v1");
  EXPECT_EQ(par.instantiate({}), "");
  RunStats stats = par.run();
  EXPECT_TRUE(par.complete()) << stats.error;
  std::vector<JournalEntry> recs = par.journal().attempts_for(step);
  EXPECT_EQ(recs.size(), std::size_t(failures + 1));
  std::vector<std::uint64_t> gaps;
  for (std::size_t k = 1; k < recs.size(); ++k)
    gaps.push_back(recs[k].start_us - recs[k - 1].end_us);
  return gaps;
}

TEST(RuntimeChaos, BackoffDoublesFromOneMillisecondUpToSixtySeconds) {
  EXPECT_EQ(backoff_gaps("s1_0", 3),
            (std::vector<std::uint64_t>{1000, 2000, 4000}));
  // The backoff after 17 failures would be 2^16 ms = 65.536 s.
  std::vector<std::uint64_t> gaps = backoff_gaps("s0_0", 17);
  ASSERT_EQ(gaps.size(), 17u);
  EXPECT_EQ(gaps[15], 32'768'000u);
  EXPECT_EQ(gaps[16], 60'000'000u);
}

TEST(RuntimeChaos, KillMidRunThenResumeExecutesOnlyLostWork) {
  const FlowTemplate base = make_layered(4, 4, /*seed=*/7);
  const auto reference = fault_free_reference(base);
  const std::size_t total = base.steps.size();

  // Wrap one mid-flow step so its action "pulls the plug" (request_stop)
  // right after finishing — the cooperative analogue of kill -9 between
  // two journal records.
  ParallelExecutor* live = nullptr;
  FlowTemplate flow = base;
  for (StepDef& step : flow.steps) {
    if (step.name != "s2_0") continue;
    wf::Action inner = step.action;
    step.action = {inner.name, inner.language,
                   [inner, &live](ActionApi& api) {
                     ActionResult r = inner.fn(api);
                     live->request_stop();
                     return r;
                   }};
  }

  auto cache = std::make_shared<ResultCache>();
  ExecutorOptions options;
  options.workers = 2;
  ParallelExecutor killed(flow, {}, std::make_unique<SimpleDataManager>(),
                          options, cache);
  live = &killed;
  killed.set_clock(std::make_shared<SimClock>());
  killed.engine().data().write("inputs.dat", "v1");
  ASSERT_EQ(killed.instantiate({}), "");

  RunStats first = killed.run();
  EXPECT_TRUE(first.stopped);
  ASSERT_FALSE(killed.complete()) << "stop must interrupt the run";
  std::vector<std::string> done = killed.journal().completed_steps();
  ASSERT_FALSE(done.empty());
  ASSERT_LT(done.size(), total);

  // Persist the journal across the "crash" and reload it, as a restarted
  // process would.
  std::stringstream disk;
  killed.journal().save(disk);
  RunJournal recovered;
  ASSERT_TRUE(recovered.load(disk));
  ASSERT_EQ(recovered.completed_steps(), done);
  ASSERT_EQ(recovered.entries().size(), killed.journal().entries().size());

  // A fresh executor (fresh instance, fresh data store) sharing the result
  // cache resumes: journaled-complete steps replay, lost work re-executes.
  ParallelExecutor resumed(base, {}, std::make_unique<SimpleDataManager>(),
                           options, cache);
  resumed.set_clock(std::make_shared<SimClock>());
  resumed.engine().data().write("inputs.dat", "v1");
  ASSERT_EQ(resumed.instantiate({}), "");

  RunStats second = resumed.resume_run(recovered);
  ASSERT_TRUE(resumed.complete()) << second.error;
  EXPECT_EQ(snapshot(resumed.engine().data()), reference);
  EXPECT_EQ(second.resumed, int(done.size()))
      << "every journaled-complete step must replay, not re-execute";
  EXPECT_EQ(second.executed, int(total - done.size()))
      << "only lost work may re-execute";
  EXPECT_EQ(second.cache_hits + second.executed, int(total));

  // The resumed run's journal marks exactly the recovered steps.
  std::set<std::string> prior(done.begin(), done.end());
  for (const JournalEntry& e : resumed.journal().entries()) {
    EXPECT_EQ(e.resumed, prior.count(e.step) > 0) << e.step;
    if (prior.count(e.step)) {
      EXPECT_TRUE(e.cache_hit) << e.step;
    }
  }
}

TEST(RuntimeChaos, JournalSaveLoadRoundTripsAwkwardNames) {
  RunJournal journal;
  journal.set_clock(std::make_shared<SimClock>());
  journal.begin_run(3);
  JournalEntry e;
  e.step = "weird\tname\nwith\\escapes\"";
  e.worker = 2;
  e.attempt = 4;
  e.start_us = 10;
  e.end_us = 90;
  e.cache_hit = false;
  e.ok = false;
  e.rerun = true;
  e.timed_out = true;
  e.resumed = true;
  e.fault = "torn_write";
  e.has_key = true;
  e.key = 0xdeadbeefcafe1234ull;
  journal.record(e);
  journal.end_run();

  std::stringstream disk;
  journal.save(disk);
  RunJournal loaded;
  ASSERT_TRUE(loaded.load(disk));
  std::vector<JournalEntry> entries = loaded.entries();
  ASSERT_EQ(entries.size(), 1u);
  const JournalEntry& r = entries[0];
  EXPECT_EQ(r.step, e.step);
  EXPECT_EQ(r.worker, e.worker);
  EXPECT_EQ(r.attempt, e.attempt);
  EXPECT_EQ(r.start_us, e.start_us);
  EXPECT_EQ(r.end_us, e.end_us);
  EXPECT_EQ(r.ok, e.ok);
  EXPECT_EQ(r.rerun, e.rerun);
  EXPECT_EQ(r.timed_out, e.timed_out);
  EXPECT_EQ(r.resumed, e.resumed);
  EXPECT_EQ(r.fault, e.fault);
  EXPECT_EQ(r.has_key, e.has_key);
  EXPECT_EQ(r.key, e.key);
  EXPECT_EQ(loaded.workers(), 3);

  std::stringstream garbage("not-a-journal\tv9\n");
  RunJournal bad;
  EXPECT_FALSE(bad.load(garbage));
}

// ------------------------- journal load hardening (fail-soft semantics)

namespace {

/// A valid 3-entry journal for one step, attempts 1..3, as saved text.
std::string well_formed_journal() {
  RunJournal journal;
  journal.set_clock(std::make_shared<SimClock>());
  journal.begin_run(2);
  for (int a = 1; a <= 3; ++a) {
    JournalEntry e;
    e.step = "step";
    e.worker = 0;
    e.attempt = a;
    e.start_us = std::uint64_t(a) * 10;
    e.end_us = std::uint64_t(a) * 10 + 5;
    e.ok = a == 3;
    journal.record(e);
  }
  journal.end_run();
  std::stringstream disk;
  journal.save(disk);
  return disk.str();
}

}  // namespace

TEST(RuntimeChaos, JournalLoadKeepsValidPrefixWhenFinalLineIsTorn) {
  std::string text = well_formed_journal();
  // Tear the last line mid-write, as a kill -9 during save would.
  std::size_t cut = text.rfind('\t');
  std::stringstream torn(text.substr(0, cut));
  RunJournal loaded;
  ASSERT_TRUE(loaded.load(torn)) << "a torn tail must not void the journal";
  EXPECT_EQ(loaded.entries().size(), 2u) << "the valid prefix survives";
  EXPECT_EQ(loaded.load_dropped_lines(), 1u);
  EXPECT_EQ(loaded.entries().back().attempt, 2);
  EXPECT_TRUE(loaded.completed_steps().empty())
      << "the torn success marker must not count as completed";
}

TEST(RuntimeChaos, JournalLoadStopsAtGarbageLineAndDropsTheSuffix) {
  std::string text = well_formed_journal();
  // Splice a garbage line between entry 1 and entry 2: everything from
  // the corruption on is untrusted, even though later lines parse.
  std::size_t first_nl = text.find('\n');
  std::size_t second_nl = text.find('\n', first_nl + 1);
  std::string spliced = text.substr(0, second_nl + 1) +
                        "n\xc3\xb8t\ta\tjournal\tline\n" +
                        text.substr(second_nl + 1);
  std::stringstream disk(spliced);
  RunJournal loaded;
  ASSERT_TRUE(loaded.load(disk));
  EXPECT_EQ(loaded.entries().size(), 1u);
  EXPECT_EQ(loaded.load_dropped_lines(), 3u)
      << "the garbage line and both orphaned entries drop";
}

TEST(RuntimeChaos, JournalLoadSkipsDoubledLinesAndKeepsTheRest) {
  std::string text = well_formed_journal();
  // Double the middle entry line (a flaky-filesystem double write).
  std::size_t first_nl = text.find('\n');
  std::size_t second_nl = text.find('\n', first_nl + 1);
  std::size_t third_nl = text.find('\n', second_nl + 1);
  std::string line2 =
      text.substr(second_nl + 1, third_nl - second_nl);
  std::string doubled = text.substr(0, third_nl + 1) + line2 +
                        text.substr(third_nl + 1);
  std::stringstream disk(doubled);
  RunJournal loaded;
  ASSERT_TRUE(loaded.load(disk));
  EXPECT_EQ(loaded.entries().size(), 3u)
      << "a byte-identical doubled line is noise, not corruption";
  EXPECT_EQ(loaded.load_dropped_lines(), 1u);
  EXPECT_EQ(loaded.entries()[2].attempt, 3);
  EXPECT_EQ(loaded.completed_steps(), std::vector<std::string>{"step"});
}

TEST(RuntimeChaos, JournalLoadRejectsSplicedAttemptNumbers) {
  std::string text = well_formed_journal();
  // Duplicate the attempt-2 line AFTER attempt 3 (a non-adjacent splice):
  // attempt 2 after attempt 3 is neither a fresh claim nor a successor.
  std::size_t first_nl = text.find('\n');
  std::size_t second_nl = text.find('\n', first_nl + 1);
  std::size_t third_nl = text.find('\n', second_nl + 1);
  std::string line2 =
      text.substr(second_nl + 1, third_nl - second_nl);
  std::stringstream disk(text + line2);
  RunJournal loaded;
  ASSERT_TRUE(loaded.load(disk));
  EXPECT_EQ(loaded.entries().size(), 3u);
  EXPECT_EQ(loaded.load_dropped_lines(), 1u)
      << "the spliced duplicate-step line must drop";
  // The intact prefix still resolves completion correctly.
  EXPECT_EQ(loaded.completed_steps(), std::vector<std::string>{"step"});
}

TEST(RuntimeChaos, JournalLoadFailsCleanlyOnBadHeader) {
  for (const char* header :
       {"", "interop-journal\tv2\t2\t0\n", "interop-journal\tv1\tx\ty\n",
        "interop-journal\tv1\t2\n"}) {
    std::stringstream disk(header);
    RunJournal loaded;
    EXPECT_FALSE(loaded.load(disk)) << "header: " << header;
    EXPECT_TRUE(loaded.entries().empty());
  }
}

TEST(RuntimeChaos, InjectorDecisionsArePureInSeedStepAttempt) {
  FaultPlan plan;
  plan.probability = 0.5;
  plan.kinds = {FaultKind::Fail, FaultKind::Hang, FaultKind::TornWrite};
  plan.max_faults_per_step = 3;

  FaultInjector a(42, plan);
  FaultInjector b(42, plan);
  FaultInjector c(43, plan);
  bool any_differs = false;
  for (int step = 0; step < 32; ++step) {
    std::string name = "step" + std::to_string(step);
    for (int attempt = 1; attempt <= 4; ++attempt) {
      FaultKind lhs = a.decide(name, attempt, /*hangs_ok=*/true);
      // Same seed: identical decisions regardless of query order or count.
      EXPECT_EQ(lhs, b.decide(name, attempt, true)) << name << attempt;
      if (lhs != c.decide(name, attempt, true)) any_differs = true;
      // hangs_ok=false may only downgrade Hang to Fail.
      FaultKind no_hang = FaultInjector(42, plan).decide(name, attempt, false);
      if (lhs == FaultKind::Hang)
        EXPECT_EQ(no_hang, FaultKind::Fail);
      else
        EXPECT_EQ(no_hang, lhs);
    }
  }
  EXPECT_TRUE(any_differs) << "different seeds must differ somewhere";
  EXPECT_GT(a.counts().total(), 0);

  // Attempts past max_faults_per_step are always clean: the convergence
  // guarantee behind max_attempts > max_faults_per_step.
  for (int step = 0; step < 32; ++step)
    EXPECT_EQ(a.decide("step" + std::to_string(step), 4, true),
              FaultKind::None);
}

}  // namespace
}  // namespace interop::runtime
