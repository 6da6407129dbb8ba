#pragma once
// Workflow templates and instances — the §5 model.
//
// A FlowTemplate captures the process structure once; every design block
// derives its FlowInstance "from the same template, providing process
// consistency". Steps declare start dependencies ("certain events trigger
// the availability of tasks"), finish dependencies ("insure a task does not
// complete too soon"), data reads/writes (trigger subscriptions), required
// permissions, and an action in whatever language the flow developer likes
// — the action body here is a std::function, the `language` tag records the
// §5 "open language environment" claim that the engine does not care.

#include <atomic>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "workflow/data.hpp"

namespace interop::wf {

class Engine;
struct FlowInstance;

/// What an action reports back. Default completion policy: exit_code 0 =
/// success, non-zero = failure — unless the action set the state explicitly
/// through the API (§5 "default behavior, not built-in policies").
struct ActionResult {
  int exit_code = 0;
  std::string log;
};

/// Handle an action uses to talk to the workflow (the §5 "workflow
/// application procedural interface").
class ActionApi {
 public:
  ActionApi(Engine& engine, FlowInstance& instance, std::string step)
      : engine_(engine), instance_(instance), step_(std::move(step)) {}

  /// Design data access (through the flow's data manager).
  void write_data(const std::string& path, std::string content);
  std::optional<std::string> read_data(const std::string& path) const;

  /// Metadata variables (state proxies, separate from design data).
  void set_variable(const std::string& name, std::string value);
  std::optional<std::string> get_variable(const std::string& name) const;

  /// Explicit completion: overrides the default zero/non-zero policy.
  void set_step_state_success();
  void set_step_state_failure(const std::string& reason);

  /// Send a request to a long-running tool session (started on first use).
  std::string tool_request(const std::string& tool, const std::string& cmd);

  const std::string& step() const { return step_; }

  /// Cooperative cancellation: set when the runtime's watchdog expires this
  /// attempt's timeout (or the run is being stopped). Long-running actions
  /// should poll it and return early.
  bool cancel_requested() const {
    return cancel_ && cancel_->load(std::memory_order_relaxed);
  }
  /// Installed by the parallel runtime, one flag per attempt.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_ = flag; }

  /// The completion policy applied to `result` for this action run: the
  /// explicitly set state when there is one, else zero/non-zero exit. The
  /// runtime uses this to classify attempts before deciding to retry.
  bool outcome_ok(const ActionResult& result) const {
    return explicit_state_ ? *explicit_state_ : result.exit_code == 0;
  }

  /// Effects recorded during the action run, in call order. The parallel
  /// runtime memoizes these so an unchanged step can be replayed from cache
  /// instead of re-executed.
  const std::vector<std::pair<std::string, std::string>>& data_writes() const {
    return data_writes_;
  }
  const std::vector<std::pair<std::string, std::string>>& var_writes() const {
    return var_writes_;
  }

 private:
  friend class Engine;
  Engine& engine_;
  FlowInstance& instance_;
  std::string step_;
  std::optional<bool> explicit_state_;
  std::string failure_reason_;
  std::vector<std::pair<std::string, std::string>> data_writes_;
  std::vector<std::pair<std::string, std::string>> var_writes_;
  const std::atomic<bool>* cancel_ = nullptr;
};

using ActionFn = std::function<ActionResult(ActionApi&)>;

/// §5 "open language environment": the engine records but never interprets
/// the implementation language.
enum class ActionLanguage { Shell, Perl, Tcl, CLang, Native };

std::string to_string(ActionLanguage l);

struct Action {
  std::string name;
  ActionLanguage language = ActionLanguage::Native;
  ActionFn fn;
};

struct StepDef {
  std::string name;
  Action action;
  /// Start dependencies: all must have succeeded before this step is ready.
  std::vector<std::string> start_after;
  /// Finish dependencies: this step cannot COMPLETE until these completed;
  /// if it runs first, it parks in AwaitingFinish.
  std::vector<std::string> finish_with;
  /// Data trigger subscriptions: a write to a read path after this step
  /// succeeded marks it NeedsRerun and notifies the user.
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  /// Role required to run or reset this step ("" = anyone).
  std::string required_role;
  /// Name of a sub-flow template expanded per design block ("" = plain).
  std::string subflow;
  /// Stable identity of the action for content-addressed memoization:
  /// two steps with the same tag, the same declared reads/writes, and the
  /// same input contents are assumed to produce the same outputs. Exporters
  /// (core::export_flow) derive it from task/tool ids; when empty, the
  /// runtime falls back to the action name + language.
  std::string content_tag;
};

/// The process template.
struct FlowTemplate {
  std::string name;
  std::vector<StepDef> steps;

  const StepDef* find_step(const std::string& name) const;
  /// Check the start-dependency graph is a DAG over known steps.
  /// Returns an error message, or empty when valid.
  std::string validate() const;
};

enum class StepState {
  Waiting,         ///< start dependencies not yet satisfied
  Ready,           ///< runnable
  Running,
  AwaitingFinish,  ///< ran fine, parked on a finish dependency
  Succeeded,
  Failed,
  NeedsRerun,      ///< upstream data changed after success
};

std::string to_string(StepState s);

/// Per-step live status inside an instance.
struct StepStatus {
  StepDef def;           ///< expanded definition (block-qualified names)
  StepState state = StepState::Waiting;
  /// Longest start-dependency chain above this step; the engine runs
  /// runnable steps in rank order so rework flows downstream once.
  int rank = 0;
  int runs = 0;
  int reruns = 0;        ///< runs caused by NeedsRerun
  int failures = 0;
  /// Attempts that failed (or timed out) and were retried in place by the
  /// runtime without a Failed-state transition; `failures` counts only
  /// final, state-changing failures.
  int failed_attempts = 0;
  LogicalTime last_finished = 0;
  LogicalTime last_started = 0;  ///< logical time when the last run began
  std::string block;     ///< owning design block ("" = top)
  std::string log;
};

/// A flow instance: one top-level process, with sub-flows expanded per
/// design block but "the data and process status kept separate for each
/// block" (§5).
struct FlowInstance {
  std::string template_name;
  std::vector<std::string> blocks;
  /// Step statuses keyed by expanded name ("blockA:lint").
  std::map<std::string, StepStatus> steps;

  StepStatus* find(const std::string& name);
  const StepStatus* find(const std::string& name) const;
  /// All step names in deterministic order.
  std::vector<std::string> step_names() const;
};

}  // namespace interop::wf
