#include "workflow/engine.hpp"

#include <gtest/gtest.h>

#include "serial_oracle.hpp"
#include "workflow/adhoc.hpp"

namespace interop::wf {
namespace {

Action ok_action(const std::string& name,
                 ActionLanguage lang = ActionLanguage::Shell) {
  return {name, lang, [](ActionApi&) { return ActionResult{0, "ok"}; }};
}

// A small RTL-ish flow: spec -> rtl -> (lint, sim) -> signoff.
FlowTemplate make_flow() {
  FlowTemplate flow;
  flow.name = "rtl_flow";
  StepDef spec{"spec", {"write_spec", ActionLanguage::Perl,
                        [](ActionApi& api) {
                          api.write_data("spec.txt", "the spec");
                          return ActionResult{0, ""};
                        }},
               {}, {}, {}, {"spec.txt"}, "", "", ""};
  StepDef rtl{"rtl", {"write_rtl", ActionLanguage::Native,
                      [](ActionApi& api) {
                        auto spec_data = api.read_data("spec.txt");
                        api.write_data("rtl.v", "rtl for " + *spec_data);
                        return ActionResult{0, ""};
                      }},
              {"spec"}, {}, {"spec.txt"}, {"rtl.v"}, "", "", ""};
  StepDef lint{"lint", ok_action("lint"), {"rtl"}, {}, {"rtl.v"}, {}, "", "", ""};
  StepDef sim{"sim", {"simulate", ActionLanguage::CLang,
                      [](ActionApi& api) {
                        api.set_variable("sim_status", "clean");
                        return ActionResult{0, ""};
                      }},
              {"rtl"}, {}, {"rtl.v"}, {"sim.log"}, "", "", ""};
  StepDef signoff{"signoff", ok_action("signoff"), {"lint", "sim"},
                  {}, {}, {}, "manager", "", ""};
  flow.steps = {spec, rtl, lint, sim, signoff};
  return flow;
}

TEST(FlowTemplate, ValidatesDag) {
  FlowTemplate flow = make_flow();
  EXPECT_EQ(flow.validate(), "");

  FlowTemplate cyclic;
  cyclic.name = "c";
  cyclic.steps = {{"a", {}, {"b"}, {}, {}, {}, "", "", ""},
                  {"b", {}, {"a"}, {}, {}, {}, "", "", ""}};
  EXPECT_NE(cyclic.validate().find("cycle"), std::string::npos);

  FlowTemplate unknown;
  unknown.steps = {{"a", {}, {"ghost"}, {}, {}, {}, "", "", ""}};
  EXPECT_NE(unknown.validate().find("unknown"), std::string::npos);

  FlowTemplate dup;
  dup.steps = {{"a", {}, {}, {}, {}, {}, "", "", ""},
               {"a", {}, {}, {}, {}, {}, "", "", ""}};
  EXPECT_NE(dup.validate().find("duplicate"), std::string::npos);
}

TEST(Engine, RunsInDependencyOrder) {
  Engine engine(make_flow(), {}, std::make_unique<SimpleDataManager>(),
                "manager");
  ASSERT_EQ(engine.instantiate({}), "");
  int ran = oracle::run_all(engine);
  EXPECT_EQ(ran, 5);
  EXPECT_TRUE(engine.complete());
  EXPECT_EQ(*engine.data().read("rtl.v"), "rtl for the spec");
  EXPECT_EQ(*engine.variables().get("sim_status"), "clean");
}

TEST(Engine, StepNotRunnableBeforeDeps) {
  Engine engine(make_flow(), {}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({}), "");
  EXPECT_FALSE(oracle::run_step(engine, "rtl"));
  EXPECT_TRUE(oracle::run_step(engine, "spec"));
  EXPECT_TRUE(oracle::run_step(engine, "rtl"));
}

TEST(Engine, PermissionsEnforced) {
  Engine engineer(make_flow(), {}, std::make_unique<SimpleDataManager>(),
                  "engineer");
  ASSERT_EQ(engineer.instantiate({}), "");
  oracle::run_all(engineer);
  // Everything except the manager-only signoff.
  EXPECT_FALSE(engineer.complete());
  EXPECT_EQ(engineer.status_report().at("signoff"), StepState::Ready);
  EXPECT_FALSE(oracle::run_step(engineer, "signoff"));
}

TEST(Engine, DefaultStatusPolicyZeroNonzero) {
  FlowTemplate flow;
  flow.name = "f";
  flow.steps = {
      {"bad", {"fails", ActionLanguage::Shell,
               [](ActionApi&) { return ActionResult{3, "boom"}; }},
       {}, {}, {}, {}, "", "", ""},
      {"after", ok_action("after"), {"bad"}, {}, {}, {}, "", "", ""}};
  Engine engine(flow, {}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({}), "");
  oracle::run_all(engine);
  EXPECT_EQ(engine.status_report().at("bad"), StepState::Failed);
  // Downstream never became ready.
  EXPECT_EQ(engine.status_report().at("after"), StepState::Waiting);
  EXPECT_EQ(engine.metrics().failures, 1);
}

TEST(Engine, ExplicitCompletionOverridesExitCode) {
  FlowTemplate flow;
  flow.name = "f";
  flow.steps = {
      // Exit code 1, but the action declares success through the API.
      {"odd_tool", {"odd", ActionLanguage::Tcl,
                    [](ActionApi& api) {
                      api.set_step_state_success();
                      return ActionResult{1, "tool exits 1 on success"};
                    }},
       {}, {}, {}, {}, "", "", ""},
      // Exit code 0, but the action knows better (§5: "based on whatever
      // criteria is necessary").
      {"sneaky", {"sneaky", ActionLanguage::Shell,
                  [](ActionApi& api) {
                    api.set_step_state_failure("log contains ERROR");
                    return ActionResult{0, ""};
                  }},
       {}, {}, {}, {}, "", "", ""}};
  Engine engine(flow, {}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({}), "");
  oracle::run_all(engine);
  EXPECT_EQ(engine.status_report().at("odd_tool"), StepState::Succeeded);
  EXPECT_EQ(engine.status_report().at("sneaky"), StepState::Failed);
}

TEST(Engine, FinishDependencyParksStep) {
  FlowTemplate flow;
  flow.name = "f";
  flow.steps = {
      {"slow", ok_action("slow"), {}, {}, {}, {}, "", "", ""},
      // quick must not COMPLETE before slow completes.
      {"quick", ok_action("quick"), {}, {"slow"}, {}, {}, "", "", ""}};
  Engine engine(flow, {}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({}), "");
  ASSERT_TRUE(oracle::run_step(engine, "quick"));
  EXPECT_EQ(engine.status_report().at("quick"), StepState::AwaitingFinish);
  ASSERT_TRUE(oracle::run_step(engine, "slow"));
  EXPECT_EQ(engine.status_report().at("quick"), StepState::Succeeded);
}

TEST(Engine, TriggerMarksDownstreamForRework) {
  Engine engine(make_flow(), {}, std::make_unique<SimpleDataManager>(),
                "manager");
  ASSERT_EQ(engine.instantiate({}), "");
  oracle::run_all(engine);
  ASSERT_TRUE(engine.complete());
  engine.clear_notifications();

  // The spec changes after the fact.
  engine.data().write("spec.txt", "the spec, revised");
  EXPECT_EQ(engine.status_report().at("rtl"), StepState::NeedsRerun);
  ASSERT_EQ(engine.notifications().size(), 1u);
  EXPECT_NE(engine.notifications()[0].find("rtl"), std::string::npos);

  // Re-running rtl rewrites rtl.v, which cascades to lint and sim.
  int ran = oracle::run_all(engine);
  EXPECT_GE(ran, 3);  // rtl + lint + sim (signoff may or may not rerun)
  EXPECT_TRUE(engine.complete());
  EXPECT_EQ(*engine.data().read("rtl.v"), "rtl for the spec, revised");
  EXPECT_GT(engine.metrics().reruns, 0);
}

// top -> mid -> low, where top and low both read in.dat: one write to
// in.dat marks both for rework, two ranks apart.
FlowTemplate make_chain(Action top_action, std::string top_role) {
  FlowTemplate flow;
  flow.name = "chain";
  flow.steps = {
      {"top", std::move(top_action), {}, {}, {"in.dat"}, {}, top_role, "",
       ""},
      {"mid", ok_action("mid"), {"top"}, {}, {}, {}, "", "", ""},
      {"low", ok_action("low"), {"mid"}, {}, {"in.dat"}, {}, "", "", ""}};
  return flow;
}

TEST(Engine, ReworkWaitsBelowAFailedStep) {
  Engine engine(make_chain({"top", ActionLanguage::Shell,
                            [](ActionApi& api) {
                              bool v1 = api.read_data("in.dat") == "v1";
                              return ActionResult{v1 ? 0 : 1, ""};
                            }},
                           ""),
                {}, std::make_unique<SimpleDataManager>());
  engine.data().write("in.dat", "v1");
  ASSERT_EQ(engine.instantiate({}), "");
  oracle::run_all(engine);
  ASSERT_TRUE(engine.complete());

  engine.data().write("in.dat", "v2");
  EXPECT_EQ(engine.runnable_steps(), std::vector<std::string>{"top"});
  EXPECT_EQ(oracle::run_all(engine), 1);  // top reruns and fails
  EXPECT_EQ(engine.status_report().at("top"), StepState::Failed);
  // mid is still Succeeded, but low waits below the failed top.
  EXPECT_EQ(engine.status_report().at("low"), StepState::NeedsRerun);
  EXPECT_TRUE(engine.runnable_steps().empty());
  EXPECT_FALSE(oracle::run_step(engine, "low"));
}

TEST(Engine, ReworkWaitsBelowAStepTheRoleMayNotRun) {
  Engine engine(make_chain(ok_action("top"), "manager"), {},
                std::make_unique<SimpleDataManager>(), "engineer");
  ASSERT_EQ(engine.instantiate({}), "");
  // A manager's earlier session ran the whole chain.
  for (const char* name : {"top", "mid", "low"})
    engine.instance().find(name)->state = StepState::Succeeded;

  engine.data().write("in.dat", "v2");
  EXPECT_EQ(engine.status_report().at("top"), StepState::NeedsRerun);
  EXPECT_EQ(engine.status_report().at("low"), StepState::NeedsRerun);
  // The engineer may not rerun top, so low waits below it.
  EXPECT_TRUE(engine.runnable_steps().empty());
  EXPECT_EQ(oracle::run_all(engine), 0);
  EXPECT_FALSE(oracle::run_step(engine, "low"));
}

TEST(Engine, ResetStepCascadesDownstream) {
  Engine engine(make_flow(), {}, std::make_unique<SimpleDataManager>(),
                "manager");
  ASSERT_EQ(engine.instantiate({}), "");
  oracle::run_all(engine);
  ASSERT_TRUE(engine.reset_step("rtl"));
  auto report = engine.status_report();
  EXPECT_EQ(report.at("spec"), StepState::Succeeded);  // upstream untouched
  EXPECT_EQ(report.at("rtl"), StepState::Ready);       // deps still met
  EXPECT_EQ(report.at("lint"), StepState::Waiting);
  EXPECT_EQ(report.at("sim"), StepState::Waiting);
  EXPECT_EQ(report.at("signoff"), StepState::Waiting);
}

TEST(Engine, ResetRequiresPermission) {
  FlowTemplate flow;
  flow.name = "f";
  flow.steps = {{"locked", ok_action("locked"), {}, {}, {}, {}, "cad_admin",
                 "", ""}};
  Engine engine(flow, {}, std::make_unique<SimpleDataManager>(), "engineer");
  ASSERT_EQ(engine.instantiate({}), "");
  EXPECT_FALSE(engine.reset_step("locked"));
}

TEST(Engine, HierarchicalSubflowsPerBlock) {
  FlowTemplate sub;
  sub.name = "block_flow";
  sub.steps = {
      {"syn", ok_action("syn"), {}, {}, {"netlist.spec"}, {"netlist.v"}, "",
       "", ""},
      {"sta", ok_action("sta"), {"syn"}, {}, {"netlist.v"}, {}, "", "", ""}};
  FlowTemplate main;
  main.name = "chip";
  main.steps = {
      {"partition", ok_action("partition"), {}, {}, {}, {}, "", "", ""},
      {"blocks", {}, {"partition"}, {}, {}, {}, "", "block_flow", ""},
      {"assemble", ok_action("assemble"), {"blocks"}, {}, {}, {}, "", "", ""}};

  Engine engine(main, {{"block_flow", sub}},
                std::make_unique<SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({"cpu", "cache"}), "");

  // Expanded: partition, cpu:syn, cpu:sta, cache:syn, cache:sta, assemble.
  EXPECT_EQ(engine.instance().steps.size(), 6u);
  ASSERT_NE(engine.instance().find("cpu:syn"), nullptr);
  EXPECT_EQ(engine.instance().find("cpu:syn")->block, "cpu");
  // Data namespaces are per block.
  EXPECT_EQ(engine.instance().find("cpu:syn")->def.writes[0],
            "cpu/netlist.v");

  oracle::run_all(engine);
  EXPECT_TRUE(engine.complete());
  // assemble ran only after all block sub-steps.
  EXPECT_EQ(engine.status_report().at("assemble"), StepState::Succeeded);
}

TEST(Engine, SubflowStatusIsPerBlock) {
  FlowTemplate sub;
  sub.name = "bf";
  int cpu_runs = 0;
  sub.steps = {{"syn",
                {"syn", ActionLanguage::Native,
                 [&cpu_runs](ActionApi& api) {
                   if (api.step() == "cpu:syn") {
                     ++cpu_runs;
                     return ActionResult{1, "cpu syn fails"};
                   }
                   return ActionResult{0, ""};
                 }},
                {}, {}, {}, {}, "", "", ""}};
  FlowTemplate main;
  main.name = "chip";
  main.steps = {{"blocks", {}, {}, {}, {}, {}, "", "bf", ""}};
  Engine engine(main, {{"bf", sub}}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({"cpu", "cache"}), "");
  oracle::run_all(engine);
  EXPECT_EQ(engine.status_report().at("cpu:syn"), StepState::Failed);
  EXPECT_EQ(engine.status_report().at("cache:syn"), StepState::Succeeded);
  EXPECT_EQ(cpu_runs, 1);
}

TEST(Engine, LongRunningToolSessionReused) {
  FlowTemplate flow;
  flow.name = "f";
  auto talk = [](ActionApi& api) {
    api.tool_request("synthesizer", "load");
    api.tool_request("synthesizer", "compile");
    return ActionResult{0, ""};
  };
  flow.steps = {{"s1", {"s1", ActionLanguage::Native, talk}, {}, {}, {}, {},
                 "", "", ""},
                {"s2", {"s2", ActionLanguage::Native, talk}, {"s1"}, {}, {},
                 {}, "", "", ""}};
  Engine engine(flow, {}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(engine.instantiate({}), "");
  oracle::run_all(engine);
  // One tool spawn, four requests over the living session.
  EXPECT_EQ(engine.metrics().tool_spawns, 1);
  EXPECT_EQ(engine.metrics().tool_requests, 4);
  EXPECT_EQ(engine.tool("synthesizer").requests_served(), 4);
}

TEST(Engine, HealthyRerunCascadeIsNotLivelock) {
  Engine engine(make_flow(), {}, std::make_unique<SimpleDataManager>(),
                "manager");
  ASSERT_EQ(engine.instantiate({}), "");
  oracle::run_all(engine);
  ASSERT_TRUE(engine.complete());
  // A legitimate upstream change causes a finite cascade, no diagnostic.
  engine.data().write("spec.txt", "revised");
  oracle::run_all(engine);
  EXPECT_TRUE(engine.complete());
  EXPECT_EQ(engine.last_error().find("livelock"), std::string::npos);
}

// ---------------------------------------------------------------- ad hoc

TEST(Adhoc, WrongOrderAndMissedRework) {
  FlowTemplate flow = make_flow();
  SimpleDataManager data;
  // The script author remembered the order wrong (lint before rtl) and
  // nobody re-runs anything when the spec changes mid-run.
  std::vector<std::string> script = {"spec", "lint", "rtl", "sim", "signoff"};
  AdhocMetrics m = run_adhoc(flow, script, data,
                             [](DataManager& dm) {
                               dm.write("spec.txt", "revised spec");
                             },
                             /*change_after=*/3);
  EXPECT_EQ(m.steps_run, 5);
  EXPECT_GE(m.dependency_violations, 1);  // lint before rtl
  EXPECT_GE(m.missed_rework, 1);          // rtl is stale vs revised spec
  EXPECT_GE(m.status_lies, 1);
}

TEST(Adhoc, EngineCatchesWhatTheScriptMisses) {
  // The same scenario through the engine: order is enforced and the change
  // triggers rework, so nothing ends up stale.
  Engine engine(make_flow(), {}, std::make_unique<SimpleDataManager>(),
                "manager");
  ASSERT_EQ(engine.instantiate({}), "");
  oracle::run_all(engine);
  engine.data().write("spec.txt", "revised spec");
  oracle::run_all(engine);
  EXPECT_TRUE(engine.complete());
  // No step is stale: every reader of spec.txt reran.
  for (const auto& [name, status] : engine.instance().steps) {
    for (const std::string& path : status.def.reads) {
      auto t = engine.data().timestamp(path);
      if (t) {
        EXPECT_LE(*t, status.last_finished) << name;
      }
    }
  }
}

}  // namespace
}  // namespace interop::wf
