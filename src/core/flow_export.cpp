#include "core/flow_export.hpp"

namespace interop::core {

wf::FlowTemplate export_flow(const TaskGraph& tasks, const TaskToolMap& map) {
  wf::FlowTemplate flow;
  flow.name = "methodology";

  const base::Digraph& g = tasks.graph();
  for (std::size_t i = 0; i < tasks.tasks().size(); ++i) {
    const Task& task = tasks.tasks()[i];
    wf::StepDef step;
    step.name = task.id;
    step.reads = task.inputs;
    step.writes = task.outputs;
    for (base::NodeId p : g.predecessors(base::NodeId(i)))
      step.start_after.push_back(tasks.tasks()[p].id);

    const std::vector<std::string>* tools = map.tools_for(task.id);
    std::string tool =
        tools && !tools->empty() ? tools->front() : std::string();
    // Stable content key for the runtime's memoization: the same task run
    // by the same tool is the same computation, across exports and runs.
    step.content_tag = task.id + "@" + (tool.empty() ? "unmapped" : tool);
    if (tool.empty()) {
      step.action = {task.id, wf::ActionLanguage::Native,
                     [id = task.id](wf::ActionApi&) {
                       return wf::ActionResult{1, "no tool performs " + id};
                     }};
    } else {
      // The exported action models the tool run: consume inputs, stamp
      // outputs. Tool sessions keep per-tool state alive across steps.
      auto inputs = task.inputs;
      auto outputs = task.outputs;
      step.action = {tool, wf::ActionLanguage::Native,
                     [tool, inputs, outputs](wf::ActionApi& api) {
                       std::string digest;
                       for (const std::string& in : inputs)
                         digest += api.read_data(in).value_or("?");
                       api.tool_request(tool, "run " + api.step());
                       for (const std::string& out : outputs)
                         api.write_data(out, tool + "(" +
                                                 std::to_string(digest.size()) +
                                                 ")");
                       return wf::ActionResult{0, ""};
                     }};
    }
    flow.steps.push_back(std::move(step));
  }
  return flow;
}

}  // namespace interop::core
