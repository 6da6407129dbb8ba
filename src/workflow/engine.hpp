#pragma once
// The workflow engine: instantiation, scheduling, dependency management,
// trigger-based rework notification, tool sessions, and metrics — §5's
// characteristics as one executable component.

#include <memory>
#include <mutex>
#include <set>

#include "workflow/flow.hpp"

namespace interop::wf {

/// A long-running tool session (§5 "flexible tool management": one flow may
/// spawn a tool per step, another drives a single running tool over IPC).
class ToolSession {
 public:
  explicit ToolSession(std::string name) : name_(std::move(name)) {}
  /// Handle one request; the session keeps state across requests.
  std::string request(const std::string& cmd);
  int requests_served() const { return requests_; }

 private:
  std::string name_;
  int requests_ = 0;
  std::vector<std::string> history_;
};

struct EngineMetrics {
  int steps_run = 0;
  int failures = 0;
  int failed_attempts = 0;  ///< retried-in-place attempt failures
  int reruns = 0;
  int notifications = 0;
  int tool_spawns = 0;     ///< long-running tool sessions started
  int tool_requests = 0;
};

class Engine {
 public:
  /// `role` is the current user's role for permission checks.
  Engine(FlowTemplate main, std::map<std::string, FlowTemplate> subflows,
         std::unique_ptr<DataManager> data, std::string role = "engineer");

  /// Derive the instance for the given design blocks (hierarchical design
  /// support: each block gets its own copy of referenced sub-flows).
  /// Returns an error message, or empty on success.
  std::string instantiate(const std::vector<std::string>& blocks);

  FlowInstance& instance() { return instance_; }
  const FlowInstance& instance() const { return instance_; }
  DataManager& data() { return *data_; }
  VariablePool& variables() { return variables_; }

  /// Recompute Waiting -> Ready transitions.
  void refresh_readiness();

  // --- Runtime hooks -----------------------------------------------------
  // runtime::ParallelExecutor runs steps through these: begin_steps,
  // start_attempt, the action (through an ActionApi), apply_step_result.

  /// Guards engine state: ActionApi calls take it; callers of the hooks
  /// below hold it while actions may be running.
  std::mutex& mutex() { return mu_; }

  /// Steps currently claimable (see claimable_steps()), ordered by
  /// topological rank (upstream first) then name.
  std::vector<std::string> runnable_steps() const;

  /// One granted claim out of begin_steps().
  struct StepClaim {
    std::string name;
    bool was_rerun = false;
  };
  /// Frontier claim: recompute readiness once, then claim every step in
  /// `names` that is claimable (see claimable_steps()), transitioning it to
  /// Running. Returns the granted claims in input order; non-claimable
  /// names are skipped silently.
  std::vector<StepClaim> begin_steps(const std::vector<std::string>& names);

  /// Stamp the start of a claimed step's attempt: apply_step_result()
  /// reworks the step when one of its inputs was rewritten after this.
  void start_attempt(const std::string& name);

  /// Apply an action's result to a Running step: success/failure policy,
  /// metrics, finish dependencies, stale-input detection, and readiness
  /// refresh.
  void apply_step_result(const std::string& name, const ActionResult& result,
                         const ActionApi& api, bool was_rerun);

  /// Note a failed attempt of a Running step that the runtime will retry in
  /// place: records per-step/global failed-attempt counts and the attempt
  /// log WITHOUT the Failed-state transition (the step stays Running).
  void note_failed_attempt(const std::string& name, const std::string& log);

  /// A run-level failure (such as a livelock): sets last_error() and
  /// notifies the user.
  void report_run_error(std::string diagnostic) {
    last_error_ = std::move(diagnostic);
    notifications_.push_back(last_error_);
    ++metrics_.notifications;
  }

  /// Reset a step (and everything downstream of it) for rerun, subject to
  /// the §5 permission question "Do I have the necessary permissions?".
  bool reset_step(const std::string& name);

  /// Pending user notifications from triggers ("something has changed that
  /// does, or might, require rework").
  const std::vector<std::string>& notifications() const {
    return notifications_;
  }
  void clear_notifications() { notifications_.clear(); }

  const EngineMetrics& metrics() const { return metrics_; }
  const std::string& last_error() const { return last_error_; }

  /// Status report: step name -> state (what §5's "status is collected and
  /// reported" means here).
  std::map<std::string, StepState> status_report() const;

  /// §5's closed loop: "these collected metrics can later be analyzed and
  /// used to tune the process." Hotspots are steps with the most rework or
  /// failures — the places the process (not the people) needs fixing.
  struct TuningReport {
    struct Hotspot {
      std::string step;
      int count;
    };
    std::vector<Hotspot> rework_hotspots;
    std::vector<Hotspot> failure_hotspots;
    int total_runs = 0;
    int total_reruns = 0;
    int total_failures = 0;
  };
  TuningReport tuning_report(std::size_t top_n = 5) const;

  /// True when every step succeeded.
  bool complete() const;

  ToolSession& tool(const std::string& name);

 private:
  friend class ActionApi;

  /// The claim rule (§5: a step starts only after the steps it depends
  /// on), in (rank, name) order: the step is Ready or NeedsRerun, every
  /// step upstream of it through start_after, transitively, has
  /// Succeeded, and the user's role permits it. A rework step therefore
  /// waits until every rerun above it has finished, so at any worker count
  /// it runs once per change, as in the serial loop.
  std::vector<StepStatus*> claimable_steps() const;
  /// True when `name`'s finish_with deps (if any) are all Succeeded.
  bool finish_deps_ok(const std::string& name) const;
  void on_data_written(const std::string& path, LogicalTime t);
  void try_finish(const std::string& name);
  /// Steps whose start_after chain reaches `name` (transitively).
  std::set<std::string> downstream_of(const std::string& name) const;

  FlowTemplate main_;
  std::map<std::string, FlowTemplate> subflows_;
  std::unique_ptr<DataManager> data_;
  std::string role_;
  FlowInstance instance_;
  VariablePool variables_;
  std::vector<std::string> notifications_;
  EngineMetrics metrics_;
  std::string last_error_;
  std::map<std::string, std::unique_ptr<ToolSession>> tools_;
  // Resolved-pointer indexes, rebuilt by instantiate(). instance_.steps is
  // a std::map, so StepStatus nodes are address-stable for the lifetime of
  // the instance; resolving dependency names to pointers once drops the
  // per-refresh / per-write string lookups that dominated scheduling cost
  // on flows with hundreds of steps.

  /// Trigger index: data path -> steps that declare it in `reads`.
  /// on_data_written() consults only a path's readers instead of scanning
  /// every step per write.
  std::map<std::string, std::vector<StepStatus*>> readers_;
  /// One row per step with the rows of its start_after deps (kNoRow for a
  /// name that resolves to no step, which keeps the step Waiting forever),
  /// in (rank, name) order, so a dep's row comes before the rows that name
  /// it. refresh_readiness() and claimable_steps() walk this flat array.
  struct ReadyRow {
    StepStatus* status;
    std::vector<std::size_t> deps;
  };
  static constexpr std::size_t kNoRow = std::size_t(-1);
  std::vector<ReadyRow> ready_index_;
  /// Resolved finish_with deps, only for steps that declare any.
  std::map<std::string, std::vector<StepStatus*>> finish_deps_;
  /// Steps currently parked in AwaitingFinish, maintained at every
  /// transition in/out of that state. The unpark pass after a success
  /// visits only these (in name order, matching the old full-map scan)
  /// instead of every step.
  std::set<std::string> awaiting_;
  /// Step whose ActionApi write is landing (its own writes do not
  /// re-trigger it).
  std::string current_step_;
  std::mutex mu_;
};

}  // namespace interop::wf
