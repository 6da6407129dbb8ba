#include "workflow/engine.hpp"

#include <algorithm>
#include <deque>
#include <functional>

#include "obs/trace.hpp"

namespace interop::wf {

namespace {

/// Trace one step's state transition as an instant event (category "wf").
void trace_transition(const std::string& step, StepState to,
                      const char* cause) {
  if (!obs::armed()) return;
  obs::instant("wf", "state:" + step,
               "\"to\":\"" + std::string(to_string(to)) + "\",\"cause\":\"" +
                   cause + "\"");
}

}  // namespace

// ----------------------------------------------------------- ToolSession

std::string ToolSession::request(const std::string& cmd) {
  ++requests_;
  history_.push_back(cmd);
  return name_ + " ok: " + cmd + " (#" + std::to_string(requests_) + ")";
}

// ------------------------------------------------------------- ActionApi
//
// Every method that touches engine state takes the engine's mutex, so
// actions running on parallel runtime workers serialize their state access
// while their own compute overlaps.

void ActionApi::write_data(const std::string& path, std::string content) {
  std::lock_guard<std::mutex> lock(engine_.mu_);
  data_writes_.emplace_back(path, content);
  // The write must be attributed to this step so its own output does not
  // re-trigger it; with several steps in flight current_step_ is per-write.
  engine_.current_step_ = step_;
  engine_.data().write(path, std::move(content));
  engine_.current_step_.clear();
}

std::optional<std::string> ActionApi::read_data(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(engine_.mu_);
  return engine_.data().read(path);
}

void ActionApi::set_variable(const std::string& name, std::string value) {
  std::lock_guard<std::mutex> lock(engine_.mu_);
  var_writes_.emplace_back(name, value);
  engine_.variables().set(name, std::move(value));
}

std::optional<std::string> ActionApi::get_variable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(engine_.mu_);
  return engine_.variables().get(name);
}

void ActionApi::set_step_state_success() { explicit_state_ = true; }

void ActionApi::set_step_state_failure(const std::string& reason) {
  explicit_state_ = false;
  failure_reason_ = reason;
}

std::string ActionApi::tool_request(const std::string& tool,
                                    const std::string& cmd) {
  std::lock_guard<std::mutex> lock(engine_.mu_);
  engine_.metrics_.tool_requests++;
  return engine_.tool(tool).request(cmd);
}

// ---------------------------------------------------------------- Engine

Engine::Engine(FlowTemplate main, std::map<std::string, FlowTemplate> subflows,
               std::unique_ptr<DataManager> data, std::string role)
    : main_(std::move(main)),
      subflows_(std::move(subflows)),
      data_(std::move(data)),
      role_(std::move(role)) {
  data_->add_listener([this](const std::string& path, LogicalTime t) {
    on_data_written(path, t);
  });
}

std::string Engine::instantiate(const std::vector<std::string>& blocks) {
  if (std::string err = main_.validate(); !err.empty()) return err;
  for (const auto& [name, tmpl] : subflows_)
    if (std::string err = tmpl.validate(); !err.empty()) return err;

  instance_ = FlowInstance{};
  instance_.template_name = main_.name;
  instance_.blocks = blocks;

  // Expansion: plain steps copy through; a sub-flow step expands into one
  // copy of the sub-template per design block ("blockA:substep"), each
  // inheriting the container's start dependencies. Steps that depended on
  // the container step depend on ALL expanded steps instead.
  std::map<std::string, std::vector<std::string>> expansion;  // container->all
  for (const StepDef& def : main_.steps) {
    if (def.subflow.empty()) {
      StepStatus status;
      status.def = def;
      instance_.steps[def.name] = std::move(status);
      continue;
    }
    auto it = subflows_.find(def.subflow);
    if (it == subflows_.end())
      return "step " + def.name + " references unknown sub-flow " +
             def.subflow;
    std::vector<std::string> all;
    for (const std::string& block : blocks) {
      for (const StepDef& sub : it->second.steps) {
        StepDef expanded = sub;
        expanded.name = block + ":" + sub.name;
        expanded.start_after.clear();
        for (const std::string& dep : sub.start_after)
          expanded.start_after.push_back(block + ":" + dep);
        // Sub-steps with no internal deps inherit the container's deps.
        if (sub.start_after.empty())
          for (const std::string& dep : def.start_after)
            expanded.start_after.push_back(dep);
        expanded.finish_with.clear();
        for (const std::string& dep : sub.finish_with)
          expanded.finish_with.push_back(block + ":" + dep);
        // Block-local data namespace.
        expanded.reads.clear();
        for (const std::string& r : sub.reads)
          expanded.reads.push_back(block + "/" + r);
        expanded.writes.clear();
        for (const std::string& w : sub.writes)
          expanded.writes.push_back(block + "/" + w);
        StepStatus status;
        status.def = expanded;
        status.block = block;
        instance_.steps[expanded.name] = std::move(status);
        all.push_back(expanded.name);
      }
    }
    expansion[def.name] = std::move(all);
  }

  // Rewrite dependencies on container steps.
  for (auto& [name, status] : instance_.steps) {
    std::vector<std::string> rewritten;
    for (const std::string& dep : status.def.start_after) {
      auto it = expansion.find(dep);
      if (it == expansion.end()) {
        rewritten.push_back(dep);
      } else {
        rewritten.insert(rewritten.end(), it->second.begin(),
                         it->second.end());
      }
    }
    status.def.start_after = std::move(rewritten);
  }

  // Topological ranks (longest dependency chain), for downstream-ordered
  // scheduling. The flow validated as a DAG, so this terminates.
  std::function<int(const std::string&)> rank_of =
      [&](const std::string& name) -> int {
    StepStatus* s = instance_.find(name);
    if (!s) return 0;
    if (s->rank > 0) return s->rank;
    int r = 1;
    for (const std::string& dep : s->def.start_after)
      r = std::max(r, rank_of(dep) + 1);
    s->rank = r;
    return r;
  };
  for (auto& [name, status] : instance_.steps) rank_of(name);

  readers_.clear();
  ready_index_.clear();
  ready_index_.reserve(instance_.steps.size());
  finish_deps_.clear();
  awaiting_.clear();
  for (auto& [name, status] : instance_.steps) {
    for (const std::string& path : status.def.reads)
      readers_[path].push_back(&status);
    ready_index_.push_back({&status, {}});
    if (!status.def.finish_with.empty()) {
      std::vector<StepStatus*> fdeps;
      fdeps.reserve(status.def.finish_with.size());
      for (const std::string& dep : status.def.finish_with)
        fdeps.push_back(instance_.find(dep));
      finish_deps_[name] = std::move(fdeps);
    }
  }

  std::sort(ready_index_.begin(), ready_index_.end(),
            [](const ReadyRow& a, const ReadyRow& b) {
              if (a.status->rank != b.status->rank)
                return a.status->rank < b.status->rank;
              return a.status->def.name < b.status->def.name;
            });
  std::map<const StepStatus*, std::size_t> row_of;
  for (std::size_t i = 0; i < ready_index_.size(); ++i)
    row_of[ready_index_[i].status] = i;
  for (ReadyRow& row : ready_index_)
    for (const std::string& dep : row.status->def.start_after) {
      const StepStatus* s = instance_.find(dep);
      row.deps.push_back(s ? row_of.at(s) : kNoRow);
    }

  refresh_readiness();
  return "";
}

bool Engine::finish_deps_ok(const std::string& name) const {
  auto it = finish_deps_.find(name);
  if (it == finish_deps_.end()) return true;
  for (const StepStatus* s : it->second)
    if (!s || s->state != StepState::Succeeded) return false;
  return true;
}

void Engine::refresh_readiness() {
  for (ReadyRow& row : ready_index_) {
    if (row.status->state != StepState::Waiting) continue;
    bool ok = true;
    for (std::size_t dep : row.deps)
      if (dep == kNoRow ||
          ready_index_[dep].status->state != StepState::Succeeded) {
        ok = false;
        break;
      }
    if (ok) row.status->state = StepState::Ready;
  }
}

void Engine::apply_step_result(const std::string& name,
                               const ActionResult& result,
                               const ActionApi& api, bool was_rerun) {
  StepStatus* status = instance_.find(name);
  if (!status || status->state != StepState::Running) return;

  ++status->runs;
  ++metrics_.steps_run;
  if (was_rerun) {
    ++status->reruns;
    ++metrics_.reruns;
  }
  status->log = result.log;

  // §5 default behavior, not built-in policies: zero/non-zero exit status
  // completes the step unless the action set the state explicitly.
  bool ok = api.outcome_ok(result);
  if (!ok) {
    status->state = StepState::Failed;
    trace_transition(name, StepState::Failed, "result");
    ++status->failures;
    ++metrics_.failures;
    last_error_ = api.failure_reason_.empty()
                      ? ("step " + name + " failed (exit " +
                         std::to_string(result.exit_code) + ")")
                      : api.failure_reason_;
    return;
  }

  // Finish dependencies: park when they are not yet complete.
  if (finish_deps_ok(name)) {
    status->state = StepState::Succeeded;
    status->last_finished = data_->now();
    trace_transition(name, StepState::Succeeded, "result");
    // Unpark anyone awaiting us. try_finish() erases from awaiting_, so
    // iterate a snapshot; the set's name order matches the full-map scan
    // this replaced, preserving cascade order within one pass.
    if (!awaiting_.empty()) {
      std::vector<std::string> parked(awaiting_.begin(), awaiting_.end());
      for (const std::string& other : parked) try_finish(other);
    }
  } else {
    status->state = StepState::AwaitingFinish;
    awaiting_.insert(name);
    trace_transition(name, StepState::AwaitingFinish, "finish_with");
  }

  // Parallel hazard: an input rewritten by a concurrently-running step after
  // this attempt started (start_attempt) means it computed with stale data.
  // The trigger in on_data_written() skips Running steps, so catch it here.
  // The step's own writes do not count.
  for (const std::string& path : status->def.reads) {
    bool own = false;
    for (const auto& [p, c] : api.data_writes())
      if (p == path) {
        own = true;
        break;
      }
    if (own) continue;
    auto t = data_->timestamp(path);
    if (t && *t > status->last_started) {
      status->state = StepState::NeedsRerun;
      awaiting_.erase(name);  // in case the park above just happened
      trace_transition(name, StepState::NeedsRerun, "stale_input");
      notifications_.push_back("step " + name + " needs rework: input '" +
                               path + "' changed while it ran");
      ++metrics_.notifications;
      break;
    }
  }
  refresh_readiness();
}

void Engine::note_failed_attempt(const std::string& name,
                                 const std::string& log) {
  StepStatus* status = instance_.find(name);
  if (!status || status->state != StepState::Running) return;
  ++status->failed_attempts;
  ++metrics_.failed_attempts;
  status->log = log;
  if (obs::armed())
    obs::instant("wf", "attempt_failed:" + name,
                 "\"failed_attempts\":" +
                     std::to_string(status->failed_attempts));
}

void Engine::try_finish(const std::string& name) {
  StepStatus* status = instance_.find(name);
  if (!status || status->state != StepState::AwaitingFinish) return;
  if (finish_deps_ok(name)) {
    status->state = StepState::Succeeded;
    status->last_finished = data_->now();
    awaiting_.erase(name);
    trace_transition(name, StepState::Succeeded, "finish_with");
  }
}

std::vector<StepStatus*> Engine::claimable_steps() const {
  // One pass in rank order: a step is settled when it and everything above
  // it have Succeeded; its deps' rows come before its own.
  std::vector<char> settled(ready_index_.size(), 0);
  std::vector<StepStatus*> out;
  for (std::size_t i = 0; i < ready_index_.size(); ++i) {
    const ReadyRow& row = ready_index_[i];
    bool upstream_ok = true;
    for (std::size_t dep : row.deps)
      if (dep == kNoRow || !settled[dep]) {
        upstream_ok = false;
        break;
      }
    StepState state = row.status->state;
    settled[i] = upstream_ok && state == StepState::Succeeded;
    if (upstream_ok &&
        (state == StepState::Ready || state == StepState::NeedsRerun) &&
        (row.status->def.required_role.empty() ||
         row.status->def.required_role == role_))
      out.push_back(row.status);
  }
  return out;
}

std::vector<std::string> Engine::runnable_steps() const {
  std::vector<std::string> out;
  for (const StepStatus* status : claimable_steps())
    out.push_back(status->def.name);
  return out;
}

std::vector<Engine::StepClaim> Engine::begin_steps(
    const std::vector<std::string>& names) {
  refresh_readiness();
  std::vector<StepStatus*> claimable = claimable_steps();
  std::sort(claimable.begin(), claimable.end(), std::less<StepStatus*>());
  std::vector<StepClaim> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    StepStatus* status = instance_.find(name);
    if (!std::binary_search(claimable.begin(), claimable.end(), status,
                            std::less<StepStatus*>()))
      continue;
    StepClaim claim;
    claim.name = name;
    claim.was_rerun = status->state == StepState::NeedsRerun;
    status->state = StepState::Running;
    trace_transition(name, StepState::Running, "begin_step");
    out.push_back(std::move(claim));
  }
  return out;
}

void Engine::start_attempt(const std::string& name) {
  if (StepStatus* status = instance_.find(name))
    status->last_started = data_->now();
}

bool Engine::reset_step(const std::string& name) {
  StepStatus* status = instance_.find(name);
  if (!status) {
    last_error_ = "unknown step " + name;
    return false;
  }
  if (!status->def.required_role.empty() &&
      status->def.required_role != role_) {
    last_error_ = "role '" + role_ + "' may not reset step " + name;
    return false;
  }
  std::set<std::string> affected = downstream_of(name);
  affected.insert(name);
  for (const std::string& n : affected) {
    StepStatus* s = instance_.find(n);
    s->state = StepState::Waiting;
    awaiting_.erase(n);
    trace_transition(n, StepState::Waiting, "reset");
  }
  refresh_readiness();
  return true;
}

std::set<std::string> Engine::downstream_of(const std::string& name) const {
  std::set<std::string> out;
  std::deque<std::string> work{name};
  while (!work.empty()) {
    std::string cur = work.front();
    work.pop_front();
    for (const auto& [other, status] : instance_.steps) {
      if (out.count(other)) continue;
      for (const std::string& dep : status.def.start_after) {
        if (dep == cur) {
          out.insert(other);
          work.push_back(other);
        }
      }
    }
  }
  out.erase(name);
  return out;
}

void Engine::on_data_written(const std::string& path, LogicalTime t) {
  auto it = readers_.find(path);
  if (it == readers_.end()) return;
  for (StepStatus* status : it->second) {
    const std::string& name = status->def.name;
    if (name == current_step_) continue;  // own writes don't re-trigger
    if (status->state != StepState::Succeeded &&
        status->state != StepState::AwaitingFinish)
      continue;
    if (status->last_finished >= t) continue;
    status->state = StepState::NeedsRerun;
    awaiting_.erase(name);
    notifications_.push_back("step " + name + " needs rework: input '" +
                             path + "' changed");
    ++metrics_.notifications;
  }
}

Engine::TuningReport Engine::tuning_report(std::size_t top_n) const {
  TuningReport report;
  std::vector<TuningReport::Hotspot> rework, failures;
  for (const auto& [name, status] : instance_.steps) {
    report.total_runs += status.runs;
    report.total_reruns += status.reruns;
    report.total_failures += status.failures;
    if (status.reruns > 0) rework.push_back({name, status.reruns});
    if (status.failures > 0) failures.push_back({name, status.failures});
  }
  auto by_count = [](const TuningReport::Hotspot& a,
                     const TuningReport::Hotspot& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.step < b.step;
  };
  std::sort(rework.begin(), rework.end(), by_count);
  std::sort(failures.begin(), failures.end(), by_count);
  if (rework.size() > top_n) rework.resize(top_n);
  if (failures.size() > top_n) failures.resize(top_n);
  report.rework_hotspots = std::move(rework);
  report.failure_hotspots = std::move(failures);
  return report;
}

std::map<std::string, StepState> Engine::status_report() const {
  std::map<std::string, StepState> out;
  for (const auto& [name, status] : instance_.steps)
    out[name] = status.state;
  return out;
}

bool Engine::complete() const {
  for (const auto& [name, status] : instance_.steps)
    if (status.state != StepState::Succeeded) return false;
  return !instance_.steps.empty();
}

ToolSession& Engine::tool(const std::string& name) {
  auto it = tools_.find(name);
  if (it == tools_.end()) {
    it = tools_.emplace(name, std::make_unique<ToolSession>(name)).first;
    ++metrics_.tool_spawns;
  }
  return *it->second;
}

}  // namespace interop::wf
