#pragma once
// The §6 system-specification model: user tasks and the task graph.
//
// "The basic approach is to model the CAD user's design methodology as a set
// of well defined tasks. A task consists of a textual description of what
// work is performed, the set of inputs required ... and the set of outputs
// produced. Tasks are defined in a tool independent way. ... it is important
// that task inputs and outputs be normalized: the fundamental information
// being consumed or produced is identified, rather than the file format
// which some tool may use to represent it."
//
// Tasks are nodes of a directed graph linked through their normalized
// information kinds.

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/graph.hpp"

namespace interop::core {

/// Major design activity classes (§6: "design creation, analysis, and
/// validation steps").
enum class TaskCategory { Creation, Analysis, Validation, Management };

std::string to_string(TaskCategory c);

/// One tool-independent task.
struct Task {
  std::string id;            ///< short unique id ("rtl.write_block")
  std::string description;   ///< what work is performed
  TaskCategory category = TaskCategory::Creation;
  std::vector<std::string> inputs;   ///< normalized information kinds
  std::vector<std::string> outputs;
  std::string phase{};       ///< methodology phase ("rtl", "synthesis", ...)
};

/// The task graph: tasks linked through shared information kinds.
class TaskGraph {
 public:
  /// Add a task; returns false when the id already exists.
  bool add(Task task);

  std::size_t size() const { return tasks_.size(); }
  const std::vector<Task>& tasks() const { return tasks_; }
  const Task* find(const std::string& id) const;

  /// Producers / consumers of an information kind.
  std::vector<std::string> producers_of(const std::string& kind) const;
  std::vector<std::string> consumers_of(const std::string& kind) const;
  /// Every information kind seen on any task.
  std::set<std::string> info_kinds() const;
  /// Kinds consumed but never produced (external inputs) and produced but
  /// never consumed (final deliverables or dead data).
  std::set<std::string> external_inputs() const;
  std::set<std::string> terminal_outputs() const;

  /// The dependency digraph (edge producer -> consumer). Built on demand.
  const base::Digraph& graph() const;
  /// Node index of a task id in graph().
  std::optional<base::NodeId> node_of(const std::string& id) const;
  const std::string& id_of(base::NodeId n) const { return tasks_[n].id; }

  bool is_dag() const { return !graph().has_cycle(); }

  /// Tasks from which any task producing one of `kinds` is reachable
  /// backwards — the §6 pruning primitive.
  std::set<std::string> tasks_reaching_outputs(
      const std::set<std::string>& kinds) const;

  /// Keep only `keep`; returns the induced sub-methodology.
  TaskGraph subset(const std::set<std::string>& keep) const;

 private:
  std::vector<Task> tasks_;
  std::map<std::string, std::size_t> index_;
  mutable std::optional<base::Digraph> cached_graph_;
};

}  // namespace interop::core
