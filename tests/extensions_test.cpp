// Tests for the extension modules: VCD persistence, the annealing placer,
// and the §5 closed-loop tuning report.

#include <gtest/gtest.h>

#include "hdl/parser.hpp"
#include "hdl/vcd.hpp"
#include "pnr/generator.hpp"
#include "pnr/place.hpp"
#include "serial_oracle.hpp"
#include "workflow/engine.hpp"

namespace {

// ---------------------------------------------------------------- VCD

TEST(Vcd, WriteContainsDeclarationsAndChanges) {
  using namespace interop::hdl;
  ElabDesign d = elaborate(parse(R"(
    module top(); reg a;
      initial begin a = 0; #5 a = 1; #5 a = 0; end
    endmodule)"), "top");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.watch_all();
  sim.run(20);
  std::string vcd = write_vcd(d, sim.trace());
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! top.a $end"), std::string::npos);
  EXPECT_NE(vcd.find("#0\n0!"), std::string::npos);
  EXPECT_NE(vcd.find("#5\n1!"), std::string::npos);
  EXPECT_NE(vcd.find("#10\n0!"), std::string::npos);
}

TEST(Vcd, RoundTripsTrace) {
  using namespace interop::hdl;
  ElabDesign d = elaborate(parse(R"(
    module top(); reg clk; reg q;
      always @(posedge clk) q <= !q;
      initial begin clk = 0; q = 0; forever #5 clk = !clk; end
    endmodule)"), "top");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.watch_all();
  sim.run(40);
  Trace original = sim.trace();
  Trace back = read_vcd(d, write_vcd(d, original));
  EXPECT_EQ(back, original);
}

TEST(Vcd, XAndZValuesSurvive) {
  using namespace interop::hdl;
  ElabDesign d = elaborate(parse(R"(
    module top(); reg en; wire t;
      assign t = en ? 1'b1 : 1'bz;
      initial begin en = 0; #5 en = 1; end
    endmodule)"), "top");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.watch_all();
  sim.run(10);
  Trace back = read_vcd(d, write_vcd(d, sim.trace()));
  EXPECT_EQ(back, sim.trace());
  bool saw_z = false;
  for (const TraceEvent& e : back)
    if (e.value == Logic::Z) saw_z = true;
  EXPECT_TRUE(saw_z);
}

TEST(Vcd, RejectsUndeclaredId) {
  using namespace interop::hdl;
  ElabDesign d = elaborate(parse("module top(); reg a; endmodule"), "top");
  EXPECT_THROW(read_vcd(d, "$enddefinitions $end\n#0\n1?\n"),
               std::runtime_error);
}

// ------------------------------------------------------------- annealing

class Anneal : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Anneal, RefinementNeverWorsensBeyondNoise) {
  using namespace interop::pnr;
  PnrGenOptions opt;
  opt.seed = GetParam();
  opt.instances = 30;
  PhysDesign design = make_pnr_workload(opt);

  std::int64_t initial = total_hpwl(design);
  PlaceResult r = place_annealed(design, GetParam() * 3 + 1);
  EXPECT_EQ(r.hpwl_initial, initial);
  // Annealing ends cold: final is at or below the initial placement.
  EXPECT_LE(r.hpwl_final, initial);
  EXPECT_EQ(r.hpwl_final, total_hpwl(design));
  EXPECT_GT(r.swaps_accepted, 0);

  // Placement stays legal: no overlaps.
  for (std::size_t i = 0; i < design.instances.size(); ++i) {
    Rect bi = design.instances[i].placed_boundary(
        *design.find_cell(design.instances[i].cell));
    for (std::size_t j = i + 1; j < design.instances.size(); ++j) {
      Rect bj = design.instances[j].placed_boundary(
          *design.find_cell(design.instances[j].cell));
      EXPECT_FALSE(bi.overlaps(bj));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Anneal, ::testing::Values(2, 6, 11));

// Ablation finding: the same-footprint swap neighborhood is small enough
// that pure descent is near-optimal; annealing must at least stay within
// noise of it (and both crush raw row packing).
TEST(Anneal, WithinNoiseOfGreedy) {
  using namespace interop::pnr;
  std::int64_t greedy_total = 0, anneal_total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    PnrGenOptions opt;
    opt.seed = seed;
    opt.instances = 30;
    PhysDesign g = make_pnr_workload(opt);
    PhysDesign a = g;
    PlaceOptions popt;
    popt.seed = seed;
    popt.swap_iterations = 3000;
    // place() was already run by the generator; apply refinement passes.
    greedy_total += place(g, popt).hpwl_final;
    anneal_total += place_annealed(a, seed).hpwl_final;
  }
  EXPECT_LE(anneal_total, std::int64_t(double(greedy_total) * 1.15));
}

// ---------------------------------------------------------- tuning report

TEST(Tuning, HotspotsIdentifyReworkAndFailures) {
  using namespace interop::wf;
  FlowTemplate flow;
  flow.name = "f";
  flow.steps = {
      {"src", {"src", ActionLanguage::Shell,
               [](ActionApi& api) {
                 api.write_data("a", "x");
                 return ActionResult{0, ""};
               }},
       {}, {}, {}, {"a"}, "", "", ""},
      {"churner", {"churner", ActionLanguage::Shell,
                   [](ActionApi&) { return ActionResult{0, ""}; }},
       {"src"}, {}, {"a"}, {}, "", "", ""},
      {"flaky", {"flaky", ActionLanguage::Shell,
                 [](ActionApi&) {
                   static int attempts = 0;
                   return ActionResult{++attempts < 3 ? 1 : 0, ""};
                 }},
       {}, {}, {}, {}, "", "", ""},
  };
  Engine engine(flow, {}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({}), "");
  oracle::run_all(engine);
  // Drive rework: the source data changes twice.
  for (int i = 0; i < 2; ++i) {
    engine.data().write("a", "v" + std::to_string(i));
    oracle::run_all(engine);
  }
  // Retry the flaky step until it passes.
  while (engine.status_report().at("flaky") == StepState::Failed) {
    engine.instance().find("flaky")->state = StepState::Ready;
    oracle::run_step(engine, "flaky");
  }

  Engine::TuningReport report = engine.tuning_report();
  ASSERT_FALSE(report.rework_hotspots.empty());
  EXPECT_EQ(report.rework_hotspots[0].step, "churner");
  EXPECT_EQ(report.rework_hotspots[0].count, 2);
  ASSERT_FALSE(report.failure_hotspots.empty());
  EXPECT_EQ(report.failure_hotspots[0].step, "flaky");
  EXPECT_EQ(report.failure_hotspots[0].count, 2);
  EXPECT_GE(report.total_runs, 6);
}

TEST(Tuning, TopNTruncates) {
  using namespace interop::wf;
  FlowTemplate flow;
  flow.name = "f";
  for (int i = 0; i < 8; ++i) {
    StepDef s;
    s.name = "s" + std::to_string(i);
    s.action = {"fail", ActionLanguage::Shell,
                [](ActionApi&) { return ActionResult{1, ""}; }};
    flow.steps.push_back(std::move(s));
  }
  Engine engine(flow, {}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({}), "");
  oracle::run_all(engine);
  EXPECT_EQ(engine.tuning_report(3).failure_hotspots.size(), 3u);
  EXPECT_EQ(engine.tuning_report(20).failure_hotspots.size(), 8u);
}

}  // namespace
