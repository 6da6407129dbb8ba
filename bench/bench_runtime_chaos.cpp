// Chaos bench — what fault tolerance buys and what it costs. Results
// print as one JSON object for the bench harness (BENCH_runtime_chaos.json
// via bench/run_perf.sh). See EXPERIMENTS.md §R1.
//
// Measurements:
//  - survival: fraction of fault-injected runs (probabilistic Fail/Hang/
//    TornWrite, one run per seed) that still converge to a complete flow,
//    with retries disabled vs a 4-attempt budget. Simulated clock, so
//    backoff and hang timeouts are instant and the sweep is deterministic.
//  - retry_overhead: wall-time ratio of a fault-free run with the retry/
//    watchdog machinery armed vs the plain executor (real clock).
//  - resume: a one-worker run killed at a mid-flow step, then resume_run()
//    from the reloaded journal — how many steps replay vs re-execute.
//
// Self-checking: exits nonzero unless retried survival is 100%, unretried
// survival is below it, overhead is < 1.5x, and the resume re-executes
// only the lost steps.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>

#include "base/rng.hpp"
#include "runtime/executor.hpp"
#include "runtime/hash.hpp"
#include "workflow/engine.hpp"

using namespace interop;
using namespace interop::runtime;
using wf::ActionApi;
using wf::ActionLanguage;
using wf::ActionResult;
using wf::FlowTemplate;
using wf::SimpleDataManager;
using wf::StepDef;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Layered DAG whose outputs derive purely from inputs (same shape as the
/// runtime tests).
FlowTemplate make_layered(int layers, int width, std::uint64_t seed) {
  base::Rng rng(seed);
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

struct SurvivalResult {
  int runs = 0;
  int survived = 0;
  int faults = 0;
  int retries = 0;
  double rate() const { return runs ? double(survived) / runs : 0; }
};

SurvivalResult survival_sweep(const FlowTemplate& flow, int max_attempts,
                              int seeds) {
  SurvivalResult r;
  for (int s = 1; s <= seeds; ++s) {
    FaultPlan plan;
    plan.probability = 0.25;
    plan.kinds = {FaultKind::Fail, FaultKind::Hang, FaultKind::TornWrite};
    plan.max_faults_per_step = 2;

    ExecutorOptions options;
    options.workers = 4;
    options.max_attempts = max_attempts;
    options.step_timeout_us = 50'000;

    ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                         options);
    par.set_clock(std::make_shared<SimClock>());
    par.set_fault_injector(
        std::make_shared<FaultInjector>(std::uint64_t(s), plan));
    par.engine().data().write("inputs.dat", "v1");
    par.instantiate({});
    RunStats stats = par.run();
    ++r.runs;
    if (par.complete()) ++r.survived;
    r.faults += stats.faults_injected;
    r.retries += stats.retries;
  }
  return r;
}

}  // namespace

int main() {
  const FlowTemplate flow = make_layered(/*layers=*/6, /*width=*/6, 7);
  const int kSeeds = 50;

  // --- survival with vs without retries -------------------------------
  SurvivalResult no_retry = survival_sweep(flow, /*max_attempts=*/1, kSeeds);
  SurvivalResult retried = survival_sweep(flow, /*max_attempts=*/4, kSeeds);

  // --- retry-machinery overhead on a fault-free run (real clock) ------
  double plain_ms = 0, armed_ms = 0;
  const int kReps = 20;
  for (int i = 0; i < kReps; ++i) {
    {
      ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                           {.workers = 4});
      par.engine().data().write("inputs.dat", "v1");
      par.instantiate({});
      auto t0 = std::chrono::steady_clock::now();
      par.run();
      plain_ms += ms_since(t0);
      if (!par.complete()) return 2;
    }
    {
      ExecutorOptions options;
      options.workers = 4;
      options.max_attempts = 4;
      options.step_timeout_us = 10'000'000;  // watchdog armed, never fires
      ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                           options);
      par.engine().data().write("inputs.dat", "v1");
      par.instantiate({});
      auto t0 = std::chrono::steady_clock::now();
      par.run();
      armed_ms += ms_since(t0);
      if (!par.complete()) return 2;
    }
  }
  double overhead = plain_ms > 0 ? armed_ms / plain_ms : 0;

  // --- kill mid-run, then warm resume ---------------------------------
  ParallelExecutor* live = nullptr;
  FlowTemplate killable = flow;
  for (StepDef& step : killable.steps) {
    if (step.name != "s3_0") continue;
    wf::Action inner = step.action;
    step.action = {inner.name, inner.language,
                   [inner, &live](ActionApi& api) {
                     ActionResult r = inner.fn(api);
                     live->request_stop();
                     return r;
                   }};
  }
  // The killed run has one worker, so the (rank, name) pop order fixes
  // how many steps complete before the stop: with two, that count follows
  // thread timing. The resumed run keeps two workers.
  auto cache = std::make_shared<ResultCache>();
  ParallelExecutor killed(killable, {}, std::make_unique<SimpleDataManager>(),
                          {.workers = 1}, cache);
  live = &killed;
  killed.set_clock(std::make_shared<SimClock>());
  killed.engine().data().write("inputs.dat", "v1");
  killed.instantiate({});
  killed.run();
  std::size_t done = killed.journal().completed_steps().size();

  std::stringstream disk;
  killed.journal().save(disk);
  RunJournal recovered;
  if (!recovered.load(disk)) return 3;

  ParallelExecutor resumed(flow, {}, std::make_unique<SimpleDataManager>(),
                           {.workers = 2}, cache);
  resumed.set_clock(std::make_shared<SimClock>());
  resumed.engine().data().write("inputs.dat", "v1");
  resumed.instantiate({});
  RunStats resume_stats = resumed.resume_run(recovered);

  bool pass = retried.rate() == 1.0 && no_retry.rate() < retried.rate() &&
              overhead < 1.5 && resumed.complete() &&
              resume_stats.resumed == int(done) &&
              resume_stats.executed == int(flow.steps.size() - done);

  std::ostringstream os;
  os << "{\"bench\":\"runtime_chaos\",\"seeds\":" << kSeeds
     << ",\"steps\":" << flow.steps.size()
     << ",\"survival\":{\"no_retry\":{\"rate\":" << no_retry.rate()
     << ",\"faults\":" << no_retry.faults << "}"
     << ",\"retry4\":{\"rate\":" << retried.rate()
     << ",\"faults\":" << retried.faults
     << ",\"retries\":" << retried.retries << "}}"
     << ",\"retry_overhead\":{\"plain_ms\":" << plain_ms / kReps
     << ",\"armed_ms\":" << armed_ms / kReps << ",\"ratio\":" << overhead
     << "}"
     << ",\"resume\":{\"completed_before_kill\":" << done
     << ",\"resumed\":" << resume_stats.resumed
     << ",\"re_executed\":" << resume_stats.executed << "}"
     << ",\"pass\":" << (pass ? "true" : "false") << "}";
  std::cout << os.str() << "\n";

  std::cerr << "survival: no-retry " << no_retry.survived << "/"
            << no_retry.runs << ", retry4 " << retried.survived << "/"
            << retried.runs << " (" << retried.faults
            << " faults, " << retried.retries << " retries)\n"
            << "retry machinery overhead (fault-free): " << overhead
            << "x\nresume: " << done << " steps replayed, "
            << resume_stats.executed << " re-executed\n";
  return pass ? 0 : 1;
}
