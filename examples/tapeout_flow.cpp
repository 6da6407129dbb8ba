// §5 + §6 together: drive a hierarchical, workflow-managed design process,
// then analyze the same methodology with the interoperability methodology —
// task graph, scenario pruning, the five classic problems, and the three
// optimization moves.

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "base/report.hpp"
#include "core/methodology.hpp"
#include "core/optimize.hpp"
#include "obs/trace.hpp"
#include "runtime/executor.hpp"
#include "workflow/engine.hpp"

using namespace interop;

namespace {

wf::Action step_action(const std::string& out_path) {
  return {out_path, wf::ActionLanguage::Shell,
          [out_path](wf::ActionApi& api) {
            if (!out_path.empty()) api.write_data(out_path, "artifact");
            return wf::ActionResult{0, "done"};
          }};
}

}  // namespace

int main(int argc, char** argv) {
  // `--trace out.json` records the whole run (workflow state transitions
  // and anything below them) as a Chrome trace_event file.
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
  }
  std::unique_ptr<obs::TraceSession> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::TraceSession>();
    trace->arm();
  }

  // ---- Part 1: the workflow engine runs a per-block flow ----
  wf::FlowTemplate block_flow;
  block_flow.name = "block";
  block_flow.steps = {
      {"rtl", step_action("rtl.v"), {}, {}, {"spec.txt"}, {"rtl.v"}, "", "", ""},
      {"sim", step_action("sim.log"), {"rtl"}, {}, {"rtl.v"}, {"sim.log"},
       "", "", ""},
      {"syn", step_action("netlist.v"), {"sim"}, {}, {"rtl.v"},
       {"netlist.v"}, "", "", ""},
  };
  wf::FlowTemplate chip;
  chip.name = "chip";
  chip.steps = {
      {"spec", {"spec", wf::ActionLanguage::Perl,
                [](wf::ActionApi& api) {
                  api.write_data("spec.txt", "v1");
                  return wf::ActionResult{0, ""};
                }},
       {}, {}, {}, {"spec.txt"}, "", "", ""},
      {"blocks", {}, {"spec"}, {}, {}, {}, "", "block", ""},
      {"signoff", step_action(""), {"blocks"}, {}, {}, {}, "manager", "", ""},
  };

  // One worker, no result cache: every step runs, one at a time.
  runtime::ExecutorOptions one_worker;
  one_worker.workers = 1;
  runtime::ParallelExecutor flow_run(
      chip, {{"block", block_flow}},
      std::make_unique<wf::VersioningDataManager>(), one_worker,
      /*cache=*/nullptr, "manager");
  wf::Engine& engine = flow_run.engine();
  std::string err = flow_run.instantiate({"alu", "lsu", "fetch"});
  if (!err.empty()) {
    std::cout << "instantiation failed: " << err << "\n";
    return 1;
  }
  int ran = flow_run.run().executed;
  std::cout << "workflow: ran " << ran << " steps across "
            << engine.instance().blocks.size()
            << " blocks; complete=" << engine.complete() << "\n";

  // An upstream change arrives: the engine reworks only what it must.
  engine.data().write("spec.txt", "v2 — ECO in the spec");
  int reworked = flow_run.run().executed;
  std::cout << "after spec change: " << engine.notifications().size()
            << " notifications, " << reworked
            << " steps re-executed, complete=" << engine.complete() << "\n\n";

  // ---- Part 2: the §6 methodology analysis of a full ASIC flow ----
  core::CellBasedMethodology m = core::make_cell_based_methodology();
  std::cout << "methodology: " << m.tasks.size() << " tasks (paper: ~200), "
            << m.tools.size() << " tools\n";

  core::PruneReport prune;
  core::TaskGraph flow =
      core::apply_scenario(m.tasks, *m.scenario("full-asic"), &prune);
  std::cout << "scenario 'full-asic' prunes " << prune.before << " -> "
            << prune.after << " tasks\n";

  auto issues = core::analyze_flow(flow, m.tools, m.map);
  std::map<std::string, int> by_kind;
  for (const core::InteropIssue& i : issues) ++by_kind[to_string(i.kind)];
  std::cout << "\nflow analysis finds " << issues.size()
            << " interoperability issues:\n";
  for (const auto& [kind, count] : by_kind)
    std::cout << "  " << kind << ": " << count << "\n";

  double cost0 = core::flow_cost(flow, m.tools, m.map).total();
  auto r1 = core::repartition_boundaries(flow, m.tools, m.map,
                                         {"vlogic", "layo", "synplex"});
  auto r2 = core::apply_data_conventions(
      flow, m.tools, m.map,
      {{"long", "8char"},
       {"case-insensitive", "long"},
       {"long", "case-insensitive"}});
  double cost2 = core::flow_cost(flow, m.tools, m.map).total();
  std::cout << "\noptimization:\n"
            << "  start cost            : " << cost0 << "\n"
            << "  repartition boundaries: -" << r1.improvement() << " ("
            << r1.summary << ")\n"
            << "  data conventions      : -" << r2.improvement() << " ("
            << r2.summary << ")\n"
            << "  final cost            : " << cost2 << "\n";

  if (trace) {
    trace->disarm();
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot write trace file " << trace_path << "\n";
      return 1;
    }
    trace->write_chrome_json(out);
    std::cerr << "trace written to " << trace_path << "\n";
  }
  return 0;
}
