// Micro-benchmarks (google-benchmark) for the computational kernels behind
// the experiments: the simulation kernel, the maze router, the migration
// pipeline, flow analysis, and the a/L interpreter. These guard against
// performance regressions; the experiment tables live in the bench_t*
// binaries.

#include <benchmark/benchmark.h>

#include "al/interp.hpp"
#include "core/methodology.hpp"
#include "core/optimize.hpp"
#include "hdl/parser.hpp"
#include "hdl/sim.hpp"
#include "obs/metrics.hpp"
#include "pnr/backplane.hpp"
#include "pnr/check.hpp"
#include "pnr/generator.hpp"
#include "pnr/place.hpp"
#include "pnr/route.hpp"
#include "schematic/generator.hpp"
#include "schematic/migrate.hpp"
#include "schematic/netlist.hpp"
#include "schematic/textio.hpp"
#include "service/service.hpp"

namespace {

void BM_SimKernelClockedCounter(benchmark::State& state) {
  using namespace interop::hdl;
  // A 4-bit ripple of xor/and always blocks clocked for `range` cycles.
  const char* src = R"(
    module top(); reg clk; reg [3:0] q;
      always @(posedge clk) begin
        q[0] <= !q[0];
        q[1] <= q[1] ^ q[0];
        q[2] <= q[2] ^ (q[1] & q[0]);
        q[3] <= q[3] ^ (q[2] & q[1] & q[0]);
      end
      initial begin clk = 0; q = 4'b0000; forever #5 clk = !clk; end
    endmodule
  )";
  SourceUnit unit = parse(src);
  ElabDesign design = elaborate(unit, "top");
  // Resolve signal names to ids OUTSIDE the measured region — the
  // name->id lookup is a std::map probe and would skew the kernel numbers.
  const SignalId q0 = design.signal("top.q[0]");
  const SignalId q3 = design.signal("top.q[3]");
  const std::int64_t horizon = state.range(0);
  for (auto _ : state) {
    Simulation sim(design, SchedulerPolicy::SourceOrder);
    sim.run(horizon);
    benchmark::DoNotOptimize(sim.delta_cycles());
    benchmark::DoNotOptimize(sim.value(q0));
    benchmark::DoNotOptimize(sim.value(q3));
  }
  state.SetItemsProcessed(state.iterations() * horizon / 5);
}
BENCHMARK(BM_SimKernelClockedCounter)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MazeRoute(benchmark::State& state) {
  using namespace interop::pnr;
  PnrGenOptions opt;
  opt.seed = 3;
  opt.instances = int(state.range(0));
  PhysDesign design = make_pnr_workload(opt);
  interop::base::DiagnosticEngine diags;
  ToolInput input = export_direct(design, router_beta_caps(), diags);
  for (auto _ : state) {
    RouteResult r = route(input);
    benchmark::DoNotOptimize(r.wirelength);
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(input.nets.size()));
}
BENCHMARK(BM_MazeRoute)->Arg(16)->Arg(32)->Arg(64);

/// The tapeout_flow P&R shape: 64 instances, 24 nets, die 170, on the
/// generator's 14-track rows.
interop::pnr::PhysDesign tapeout_design(interop::pnr::PlaceOptions& popt) {
  using namespace interop::pnr;
  PnrGenOptions gen;
  gen.seed = 3;
  gen.instances = 64;
  gen.nets = 24;
  gen.die_w = gen.die_h = 170;
  popt.seed = gen.seed;
  popt.row_height = 14;
  return make_pnr_workload(gen);
}

/// Row packing plus the 2000 swap iterations. Each call repacks every
/// movable instance, so placing the same design again does the same work.
void BM_Place(benchmark::State& state) {
  using namespace interop::pnr;
  PlaceOptions popt;
  PhysDesign design = tapeout_design(popt);
  for (auto _ : state) {
    PlaceResult r = place(design, popt);
    benchmark::DoNotOptimize(r.hpwl_final);
  }
  state.SetItemsProcessed(state.iterations() * popt.swap_iterations);
}
BENCHMARK(BM_Place)->Unit(benchmark::kMicrosecond);

/// The router at the tapeout shape: placed, exported through the
/// backplane for RouterAlpha. `pops_per_s` is the rate of BFS pops (the
/// `pnr.route.expansions` counter), so 1e9 / pops_per_s is ns per pop.
void BM_MazeRouteTapeout(benchmark::State& state) {
  using namespace interop::pnr;
  PlaceOptions popt;
  PhysDesign design = tapeout_design(popt);
  place(design, popt);
  interop::base::DiagnosticEngine diags;
  LossReport loss;
  ToolInput input =
      export_via_backplane(design, router_alpha_caps(), loss, diags);
  interop::obs::MetricCounter& pops =
      interop::obs::Metrics::global().counter("pnr.route.expansions");
  const std::int64_t pops_before = pops.value();
  for (auto _ : state) {
    RouteResult r = route(input);
    benchmark::DoNotOptimize(r.wirelength);
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(input.nets.size()));
  state.counters["pops_per_s"] = benchmark::Counter(
      double(pops.value() - pops_before), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MazeRouteTapeout)->Unit(benchmark::kMillisecond);

/// The post-route check at the tapeout shape, on the routes of
/// BM_MazeRouteTapeout's input (routed once, outside the timed loop).
void BM_CheckRoutes(benchmark::State& state) {
  using namespace interop::pnr;
  PlaceOptions popt;
  PhysDesign design = tapeout_design(popt);
  place(design, popt);
  interop::base::DiagnosticEngine diags;
  LossReport loss;
  const RouteResult routes = route(
      export_via_backplane(design, router_alpha_caps(), loss, diags));
  for (auto _ : state) {
    CheckResult c = check_routes(design, routes);
    benchmark::DoNotOptimize(c.spacing_violations);
  }
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t(routes.nets.size()));
}
BENCHMARK(BM_CheckRoutes)->Unit(benchmark::kMicrosecond);

/// The migrate_large proportions: two sheets, two-pin nets at two thirds
/// of the components per sheet (range 100 / 400 / 1600 -> about 200 / 800 /
/// 3200 instances).
interop::sch::Scenario schematic_scenario(benchmark::State& state) {
  interop::sch::GeneratorOptions opt;
  opt.seed = 5;
  opt.components_per_sheet = int(state.range(0));
  opt.nets_per_sheet = opt.components_per_sheet * 2 / 3;
  return interop::sch::make_exar_scenario(opt);
}

void BM_SchematicMigration(benchmark::State& state) {
  using namespace interop::sch;
  Scenario sc = schematic_scenario(state);
  for (auto _ : state) {
    interop::base::DiagnosticEngine diags;
    MigrationResult result = migrate_design(sc.source, sc.config, diags);
    benchmark::DoNotOptimize(result.report.sheets);
  }
  state.counters["instances"] = double(sc.source.instance_count());
}
BENCHMARK(BM_SchematicMigration)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_NetlistExtract(benchmark::State& state) {
  using namespace interop::sch;
  Scenario sc = schematic_scenario(state);
  const Schematic& top = *sc.source.find_schematic("top");
  for (auto _ : state) {
    interop::base::DiagnosticEngine diags;
    Netlist n = extract_netlist(sc.source, top, sc.config.source, diags);
    benchmark::DoNotOptimize(n.nets.size());
  }
  state.counters["instances"] = double(sc.source.instance_count());
}
BENCHMARK(BM_NetlistExtract)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

/// Independent verification alone, on a design migrated once up front:
/// extract both netlists, map the golden one through the symbol map, and
/// compare.
void BM_VerifyMigration(benchmark::State& state) {
  using namespace interop::sch;
  Scenario sc = schematic_scenario(state);
  interop::base::DiagnosticEngine migrate_diags;
  const MigrationResult result =
      migrate_design(sc.source, sc.config, migrate_diags);
  for (auto _ : state) {
    interop::base::DiagnosticEngine diags;
    auto diffs = verify_migration(sc.source, result.design, sc.config, diags);
    benchmark::DoNotOptimize(diffs.size());
  }
  state.counters["instances"] = double(sc.source.instance_count());
}
BENCHMARK(BM_VerifyMigration)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

/// One Migrate request's schematic work, single-threaded: read the design
/// text, migrate, verify, write the migrated design.
void BM_MigrateRequest(benchmark::State& state) {
  using namespace interop::sch;
  Scenario sc = schematic_scenario(state);
  const std::string text = write_design(sc.source);
  for (auto _ : state) {
    interop::base::DiagnosticEngine diags;
    Design src = read_design(text, diags);
    MigrationResult result = migrate_design(src, sc.config, diags);
    auto diffs = verify_migration(src, result.design, sc.config, diags);
    std::string out = write_design(result.design);
    benchmark::DoNotOptimize(diffs.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["instances"] = double(sc.source.instance_count());
}
BENCHMARK(BM_MigrateRequest)->Arg(12)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

/// The same request through the service, one at a time: the Migrate
/// endpoint runs verify's source side beside the migration and the check
/// beside the write, so its wall time is the parallel critical path.
void BM_MigrateEndpoint(benchmark::State& state) {
  using namespace interop;
  sch::Scenario sc = schematic_scenario(state);
  service::InteropService svc;
  service::Request req;
  req.type = service::MsgType::Migrate;
  req.tenant = "bench";
  req.design = sch::write_design(sc.source);
  for (auto _ : state) {
    service::Response resp = svc.call(req);
    if (resp.status != service::Status::Ok ||
        resp.counter("diffs", 1) != 0) {
      state.SkipWithError("migrate request failed");
      break;
    }
    benchmark::DoNotOptimize(resp.body.data());
  }
  state.counters["instances"] = double(sc.source.instance_count());
}
BENCHMARK(BM_MigrateEndpoint)->Arg(400)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The two text stages of a Migrate request on their own: parse the design
/// text, and write a design back out.
void BM_ReadDesign(benchmark::State& state) {
  using namespace interop::sch;
  Scenario sc = schematic_scenario(state);
  const std::string text = write_design(sc.source);
  for (auto _ : state) {
    interop::base::DiagnosticEngine diags;
    Design d = read_design(text, diags);
    benchmark::DoNotOptimize(&d);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations() * text.size()));
  state.counters["instances"] = double(sc.source.instance_count());
}
BENCHMARK(BM_ReadDesign)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_WriteDesign(benchmark::State& state) {
  using namespace interop::sch;
  Scenario sc = schematic_scenario(state);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string text = write_design(sc.source);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(std::int64_t(state.iterations() * bytes));
  state.counters["instances"] = double(sc.source.instance_count());
}
BENCHMARK(BM_WriteDesign)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_FlowAnalysis(benchmark::State& state) {
  using namespace interop::core;
  CellBasedMethodology m = make_cell_based_methodology();
  for (auto _ : state) {
    auto issues = analyze_flow(m.tasks, m.tools, m.map);
    benchmark::DoNotOptimize(issues.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          std::int64_t(m.tasks.graph().edge_count()));
}
BENCHMARK(BM_FlowAnalysis);

void BM_AlInterpreter(benchmark::State& state) {
  using namespace interop::al;
  Interpreter interp;
  interp.eval_source(
      "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))");
  for (auto _ : state) {
    Value v = interp.eval_source("(fib 12)");
    benchmark::DoNotOptimize(v.as_int());
  }
}
BENCHMARK(BM_AlInterpreter);

}  // namespace

BENCHMARK_MAIN();
