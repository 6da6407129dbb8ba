#include "core/flow_export.hpp"

#include <gtest/gtest.h>

#include "core/methodology.hpp"
#include "serial_oracle.hpp"
#include "workflow/engine.hpp"

namespace interop::core {
namespace {

TEST(FlowExport, SmallGraphExportsAndRuns) {
  TaskGraph g;
  g.add({"write", "", TaskCategory::Creation, {}, {"rtl"}, "x"});
  g.add({"check", "", TaskCategory::Analysis, {"rtl"}, {"report"}, "x"});
  TaskToolMap map;
  map.assign("write", "Editor");
  map.assign("check", "Linter");

  wf::FlowTemplate flow = export_flow(g, map);
  EXPECT_EQ(flow.validate(), "");
  ASSERT_EQ(flow.steps.size(), 2u);
  EXPECT_EQ(flow.find_step("check")->start_after,
            std::vector<std::string>{"write"});
  // Stable content keys for the runtime's memoization layer.
  EXPECT_EQ(flow.find_step("write")->content_tag, "write@Editor");
  EXPECT_EQ(flow.find_step("check")->content_tag, "check@Linter");

  wf::Engine engine(flow, {}, std::make_unique<wf::SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({}), "");
  EXPECT_EQ(wf::oracle::run_all(engine), 2);
  EXPECT_TRUE(engine.complete());
  EXPECT_TRUE(engine.data().exists("report"));
  // Each tool got its own session.
  EXPECT_EQ(engine.metrics().tool_spawns, 2);
}

TEST(FlowExport, UnmappedTaskFailsItsStep) {
  TaskGraph g;
  g.add({"orphan", "", TaskCategory::Creation, {}, {"out"}, "x"});
  wf::FlowTemplate flow = export_flow(g, TaskToolMap{});
  wf::Engine engine(flow, {}, std::make_unique<wf::SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({}), "");
  wf::oracle::run_all(engine);
  EXPECT_EQ(engine.status_report().at("orphan"), wf::StepState::Failed);
}

// The headline integration: run the PRUNED fpga-proto scenario of the full
// cell-based methodology through the workflow engine, end to end, then
// change the architecture spec and watch rework cascade along the real
// information-flow edges.
TEST(FlowExport, FpgaScenarioRunsEndToEnd) {
  CellBasedMethodology m = make_cell_based_methodology();
  TaskGraph pruned = apply_scenario(m.tasks, *m.scenario("fpga-proto"));
  ASSERT_GT(pruned.size(), 20u);

  wf::FlowTemplate flow = export_flow(pruned, m.map);
  EXPECT_EQ(flow.validate(), "");

  wf::Engine engine(flow, {}, std::make_unique<wf::VersioningDataManager>());
  ASSERT_EQ(engine.instantiate({}), "");
  int ran = wf::oracle::run_all(engine);
  EXPECT_EQ(ran, int(pruned.size()));
  EXPECT_TRUE(engine.complete()) << engine.last_error();
  // The final deliverable of the scenario exists.
  EXPECT_TRUE(engine.data().exists("proto-signoff"));

  // An ECO arrives: the architecture spec changes. Trigger-based rework
  // re-runs exactly the downstream cone.
  engine.clear_notifications();
  engine.data().write("arch-spec", "v2");
  int reworked = wf::oracle::run_all(engine);
  EXPECT_GT(reworked, 0);
  EXPECT_LT(reworked, int(pruned.size()));  // upstream tasks untouched
  EXPECT_TRUE(engine.complete());

  // Rework reached the deliverable (its producer depends on the spec).
  auto ver = dynamic_cast<wf::VersioningDataManager*>(&engine.data());
  ASSERT_NE(ver, nullptr);
  EXPECT_GE(ver->revision_count("proto-signoff"), 2u);
}

TEST(FlowExport, FullAsicScenarioValidates) {
  CellBasedMethodology m = make_cell_based_methodology();
  TaskGraph pruned = apply_scenario(m.tasks, *m.scenario("full-asic"));
  wf::FlowTemplate flow = export_flow(pruned, m.map);
  EXPECT_EQ(flow.validate(), "");
  EXPECT_EQ(flow.steps.size(), pruned.size());
}

}  // namespace
}  // namespace interop::core
