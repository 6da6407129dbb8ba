#pragma once
// §6 meets §5: turn an analyzed methodology (task graph + task-to-tool map)
// into an executable workflow template. Each task becomes a step whose
// start dependencies are the task graph's data edges and whose action
// "runs" the mapped tool: it reads the task's input artifacts and writes
// its outputs, so the workflow engine's triggers and rework machinery
// operate on the real information-flow structure of the methodology. The
// action models the tool's data effects only and returns at once; a
// caller that needs a step to take a tool's time wraps the action.

#include "core/analysis.hpp"
#include "workflow/flow.hpp"

namespace interop::core {

/// Build a workflow template from `tasks`. Step names are task ids; data
/// paths are information kinds. A step whose task no tool in `map`
/// performs fails at run time. The template validates iff the task graph
/// is a DAG.
wf::FlowTemplate export_flow(const TaskGraph& tasks, const TaskToolMap& map);

}  // namespace interop::core
