// Runtime bench — the flow executor at 4 workers vs a 1-worker run, plus
// the content-addressed cache's warm re-run behavior. Results print as one
// JSON object for the bench harness.
//
// Workloads:
//  - fanout: src -> N independent "tool runs" -> sink. Each step models a
//    tool invocation with a fixed latency (§5 tool management: the engine
//    mostly waits on tools), so a worker pool overlaps that latency even
//    on a single core — exactly what it buys a real multi-tool CAD flow.
//  - t8_layered: the T8 generated dependency-flow shape (layers x width).
//  - t9_methodology: the full-asic scenario of the §6 cell-based
//    methodology exported through core::export_flow (~200 real tasks).
//
// Self-checking: exits nonzero unless the fanout speedup at 4 workers is
// >= 2x and the warm-cache re-run executes zero step actions.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "base/rng.hpp"
#include "core/flow_export.hpp"
#include "core/methodology.hpp"
#include "obs/trace.hpp"
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

/// One modeled tool run: a fixed invocation latency plus a little real
/// hashing work, output derived from the inputs (deterministic).
wf::Action tool_action(std::string out, std::vector<std::string> reads,
                       int latency_us) {
  return {out, ActionLanguage::Native,
          [out, reads, latency_us](ActionApi& api) {
            std::string content;
            for (const std::string& r : reads)
              content += api.read_data(r).value_or("?");
            std::this_thread::sleep_for(
                std::chrono::microseconds(latency_us));
            api.write_data(out, to_hex(fnv1a(content)) + "+");
            return ActionResult{0, ""};
          }};
}

/// src -> `width` parallel tool runs -> sink.
FlowTemplate make_fanout(int width, int latency_us) {
  FlowTemplate flow;
  flow.name = "fanout";
  StepDef src;
  src.name = "src";
  src.writes = {"src.out"};
  src.action = tool_action("src.out", {}, latency_us);
  flow.steps.push_back(src);

  StepDef sink;
  sink.name = "sink";
  for (int i = 0; i < width; ++i) {
    std::string name = "w" + std::to_string(i);
    StepDef step;
    step.name = name;
    step.start_after = {"src"};
    step.reads = {"src.out"};
    step.writes = {name + ".out"};
    step.action = tool_action(name + ".out", {"src.out"}, latency_us);
    flow.steps.push_back(std::move(step));
    sink.start_after.push_back(name);
    sink.reads.push_back(name + ".out");
  }
  sink.writes = {"sink.out"};
  sink.action = tool_action("sink.out", sink.reads, latency_us);
  flow.steps.push_back(std::move(sink));
  return flow;
}

/// The T8 generated flow shape: layers x width with random 1-2 deps.
FlowTemplate make_layered(int layers, int width, std::uint64_t seed,
                          int latency_us) {
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
      step.action = tool_action(name + ".out", step.reads, latency_us);
      flow.steps.push_back(std::move(step));
    }
  }
  return flow;
}

struct WorkloadResult {
  std::size_t steps = 0;
  double serial_ms = 0;
  double parallel_ms = 0;
  double speedup = 0;
  double busy_ms = 0;       ///< sum of step spans (journal busy_us)
  double utilization = 0;   ///< busy / (wall * workers)
  int batches = 0;          ///< scheduler claims, one step each (cold run)
  int steals = 0;           ///< claims run by a worker that did not queue them
  int warm_executed = -1;
  int warm_cache_hits = 0;
  double warm_ms = 0;
  int warm_batches = 0;
  std::string journal_json;
};

/// Serial baseline (a 1-worker run, no cache), cold parallel run, then a
/// warm run of a FRESH instance over a FRESH store sharing only the
/// content-addressed cache.
WorkloadResult run_workload(const FlowTemplate& flow, int workers,
                            const std::string& seed_path,
                            const std::string& seed_content) {
  WorkloadResult r;
  r.steps = flow.steps.size();

  ExecutorOptions one_worker, parallel;
  one_worker.workers = 1;
  parallel.workers = workers;
  {
    ParallelExecutor serial(flow, {}, std::make_unique<SimpleDataManager>(),
                            one_worker, /*cache=*/nullptr);
    if (!seed_path.empty())
      serial.engine().data().write(seed_path, seed_content);
    if (std::string err = serial.instantiate({}); !err.empty()) {
      std::cerr << "instantiate failed: " << err << "\n";
      std::exit(1);
    }
    auto t0 = std::chrono::steady_clock::now();
    serial.run();
    r.serial_ms = ms_since(t0);
  }

  auto cache = std::make_shared<ResultCache>();
  {
    ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                         parallel, cache);
    if (!seed_path.empty()) par.engine().data().write(seed_path, seed_content);
    par.instantiate({});
    auto t0 = std::chrono::steady_clock::now();
    RunStats stats = par.run();
    r.parallel_ms = ms_since(t0);
    r.batches = stats.batches;
    r.steals = stats.steals;
    RunJournal::Summary sum = par.journal().summary(par.engine().instance());
    r.busy_ms = double(sum.busy_us) / 1000.0;
    // Worker utilization: the share of the pool's wall-clock capacity spent
    // inside step attempts/replays. The seed scheduler idled at ~7% here.
    if (sum.wall_us > 0 && workers > 0)
      r.utilization = double(sum.busy_us) / (double(sum.wall_us) * workers);
    r.journal_json = par.journal().to_json(par.engine().instance());
  }
  r.speedup = r.parallel_ms > 0 ? r.serial_ms / r.parallel_ms : 0;

  {
    ParallelExecutor warm(flow, {}, std::make_unique<SimpleDataManager>(),
                          parallel, cache);
    if (!seed_path.empty())
      warm.engine().data().write(seed_path, seed_content);
    warm.instantiate({});
    auto t0 = std::chrono::steady_clock::now();
    RunStats stats = warm.run();
    r.warm_ms = ms_since(t0);
    r.warm_executed = stats.executed;
    r.warm_cache_hits = stats.cache_hits;
    r.warm_batches = stats.batches;
  }
  return r;
}

void emit(std::ostream& os, const std::string& name,
          const WorkloadResult& r, bool with_journal) {
  os << "\"" << name << "\":{\"steps\":" << r.steps
     << ",\"serial_ms\":" << r.serial_ms
     << ",\"parallel_ms\":" << r.parallel_ms << ",\"speedup\":" << r.speedup
     << ",\"busy_ms\":" << r.busy_ms << ",\"utilization\":" << r.utilization
     << ",\"sched\":{\"batches\":" << r.batches << ",\"steals\":" << r.steals
     << "}"
     << ",\"warm\":{\"executed\":" << r.warm_executed
     << ",\"cache_hits\":" << r.warm_cache_hits << ",\"ms\":" << r.warm_ms
     << ",\"batches\":" << r.warm_batches << "}";
  if (with_journal) os << ",\"journal\":" << r.journal_json;
  os << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const int kWorkers = 4;

  // `--trace out.json` records every workload of the bench as one Chrome
  // trace_event file (per-attempt runtime spans, engine transitions).
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

  // Acceptance workload: >= 32-step fan-out, 4 workers.
  WorkloadResult fanout =
      run_workload(make_fanout(/*width=*/40, /*latency_us=*/3000), kWorkers,
                   "", "");

  WorkloadResult layered = run_workload(
      make_layered(/*layers=*/8, /*width=*/8, /*seed=*/7, /*latency_us=*/1000),
      kWorkers, "inputs.dat", "v1");

  core::CellBasedMethodology m = core::make_cell_based_methodology();
  core::TaskGraph pruned =
      core::apply_scenario(m.tasks, *m.scenario("full-asic"));
  // Each task models a real tool run (§6 steps live inside external tools);
  // without the wait the "flow" is 183 instant actions and
  // serial-vs-parallel only measures scheduler bookkeeping.
  FlowTemplate exported = core::export_flow(pruned, m.map);
  for (StepDef& step : exported.steps)
    step.action.fn = [inner = step.action.fn](ActionApi& api) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return inner(api);
    };
  WorkloadResult methodology = run_workload(exported, kWorkers, "", "");

  // The t9 warm numbers are informational only: the §6 methodology has
  // overlapping producers, so a handful of legitimate rework executions can
  // survive a warm start there. Its cold speedup IS gated: the old
  // single-guard scheduler ran it at 0.73x vs serial.
  bool pass = fanout.speedup >= 2.0 && fanout.warm_executed == 0 &&
              layered.warm_executed == 0 && methodology.speedup >= 2.0;

  std::ostringstream os;
  os << "{\"bench\":\"runtime_parallel\",\"workers\":" << kWorkers << ",";
  emit(os, "fanout", fanout, /*with_journal=*/true);
  os << ",";
  emit(os, "t8_layered", layered, false);
  os << ",";
  emit(os, "t9_methodology", methodology, false);
  os << ",\"pass\":" << (pass ? "true" : "false") << "}";
  std::cout << os.str() << "\n";

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

  std::cerr << "fanout: " << fanout.steps << " steps, serial "
            << fanout.serial_ms << " ms, " << kWorkers << " workers "
            << fanout.parallel_ms << " ms (" << fanout.speedup
            << "x, utilization " << int(fanout.utilization * 100)
            << "%), warm re-run executed " << fanout.warm_executed
            << " actions in " << fanout.warm_ms << " ms\n"
            << "t9 methodology: " << methodology.steps << " tasks, serial "
            << methodology.serial_ms << " ms, parallel "
            << methodology.parallel_ms << " ms (" << methodology.speedup
            << "x, utilization " << int(methodology.utilization * 100)
            << "%, " << methodology.batches << " claims, "
            << methodology.steals << " steals), warm executed "
            << methodology.warm_executed << "\n";
  return pass ? 0 : 1;
}
