#pragma once
// The serial engine loop, kept in the tests as the oracle for
// runtime::ParallelExecutor: run the lowest-rank runnable step (ties by
// name), one at a time, through the engine's claim/attempt/apply hooks,
// until no step is runnable. Its own livelock bound stops a step scheduled
// more than kLivelockLimit times in one call. The executor's 1-worker run
// must match it step for step, and a rework run at any worker count must
// run the same steps as often (RuntimeExecutor.OneWorkerMatchesSerial*).

#include <map>
#include <string>

#include "workflow/engine.hpp"

namespace interop::wf::oracle {

/// The executor's bound (runtime::kLivelockLimit), restated here so the
/// oracle depends on the workflow engine alone.
inline constexpr int kLivelockLimit = 20;

/// Run one step if permitted and runnable; returns false otherwise.
inline bool run_step(Engine& engine, const std::string& name) {
  std::vector<Engine::StepClaim> claims = engine.begin_steps({name});
  if (claims.empty()) return false;
  engine.start_attempt(name);
  const StepStatus* status = engine.instance().find(name);
  ActionApi api(engine, engine.instance(), name);
  ActionResult result;
  if (status->def.action.fn) result = status->def.action.fn(api);
  engine.apply_step_result(name, result, api, claims.front().was_rerun);
  return true;  // the step ran; failure is a result, not an engine error
}

/// Run until no step makes progress. Returns the number of steps run.
inline int run_all(Engine& engine) {
  int executed = 0;
  std::map<std::string, int> scheduled;  // per-step count, this call only
  for (;;) {
    engine.refresh_readiness();
    std::vector<std::string> runnable = engine.runnable_steps();
    if (runnable.empty()) break;
    const std::string next = runnable.front();
    if (++scheduled[next] > kLivelockLimit) {
      engine.report_run_error(
          "livelock detected: step '" + next + "' was scheduled " +
          std::to_string(scheduled[next]) +
          " times in one run_all(); a data write/read cycle keeps marking "
          "it NeedsRerun");
      break;
    }
    if (!run_step(engine, next)) break;
    ++executed;
  }
  return executed;
}

}  // namespace interop::wf::oracle
