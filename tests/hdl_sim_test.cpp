#include "hdl/sim.hpp"

#include <gtest/gtest.h>

#include "hdl/parser.hpp"
#include "obs/metrics.hpp"

namespace interop::hdl {
namespace {

ElabDesign elab(const std::string& src, const std::string& top = "top") {
  return elaborate(parse(src), top);
}

TEST(Elaborate, FlattensHierarchyWithDottedNames) {
  ElabDesign d = elab(R"(
    module inv(i, o); input i; output o; not (o, i); endmodule
    module top(); wire a, b, c;
      inv u1 (.i(a), .o(b));
      inv u2 (.i(b), .o(c));
    endmodule
  )");
  EXPECT_NO_THROW(d.signal("top.a"));
  EXPECT_NO_THROW(d.signal("top.b"));
  // Ports alias the parent signal: no separate "top.u1.i".
  EXPECT_THROW(d.signal("top.u1.i"), ElabError);
  EXPECT_EQ(d.gates.size(), 2u);
}

TEST(Elaborate, ChildLocalsGetHierarchicalNames) {
  ElabDesign d = elab(R"(
    module child(i, o); input i; output o; wire mid;
      not (mid, i); not (o, mid);
    endmodule
    module top(); wire a, y; child u1 (.i(a), .o(y)); endmodule
  )");
  EXPECT_NO_THROW(d.signal("top.u1.mid"));
}

TEST(Elaborate, VectorBitsExpand) {
  ElabDesign d = elab(R"(
    module top(); wire [3:0] bus; assign bus = 4'b1010; endmodule
  )");
  EXPECT_NO_THROW(d.signal("top.bus[3]"));
  EXPECT_NO_THROW(d.signal("top.bus[0]"));
  EXPECT_EQ(d.bus("top.bus", 3, 0).size(), 4u);
}

TEST(Elaborate, Errors) {
  EXPECT_THROW(elab("module top(); wire a; assign a = nosuch; endmodule"),
               ElabError);
  EXPECT_THROW(elab(R"(
    module top(); wire a; missing u1 (.x(a)); endmodule
  )"),
               ElabError);
  EXPECT_THROW(elab(R"(
    module top(); reg q; wire a;
      always @(a) #5 q = 1;
    endmodule
  )"),
               ElabError);
}

TEST(Sim, GateEvaluatesAtTimeZero) {
  ElabDesign d = elab(R"(
    module top(); wire a, b, y;
      assign a = 1'b1;
      assign b = 1'b1;
      and (y, a, b);
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(0);
  EXPECT_EQ(sim.value("top.y"), Logic::L1);
}

TEST(Sim, InitialBlockDrivesRegs) {
  ElabDesign d = elab(R"(
    module top(); reg a; wire y;
      not (y, a);
      initial a = 1'b0;
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(0);
  EXPECT_EQ(sim.value("top.a"), Logic::L0);
  EXPECT_EQ(sim.value("top.y"), Logic::L1);
}

TEST(Sim, DelayedStimulusAdvancesTime) {
  ElabDesign d = elab(R"(
    module top(); reg a; wire y;
      not (y, a);
      initial begin a = 0; #10 a = 1; end
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(5);
  EXPECT_EQ(sim.value("top.y"), Logic::L1);
  sim.run(20);
  EXPECT_EQ(sim.value("top.a"), Logic::L1);
  EXPECT_EQ(sim.value("top.y"), Logic::L0);
}

TEST(Sim, ClockGeneratorForeverLoop) {
  ElabDesign d = elab(R"(
    module top(); reg clk;
      initial begin clk = 0; forever #5 clk = !clk; end
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.watch(d.signal("top.clk"));
  sim.run(23);
  // Toggles at 5, 10, 15, 20.
  ASSERT_EQ(sim.trace().size(), 5u);  // includes t=0 init to 0
  EXPECT_EQ(sim.trace()[0].time, 0);
  EXPECT_EQ(sim.trace()[1].time, 5);
  EXPECT_EQ(sim.trace()[1].value, Logic::L1);
  EXPECT_EQ(sim.trace()[4].time, 20);
}

TEST(Sim, RunAddsItsCountsToTheRegistry) {
  ElabDesign d = elab(R"(
    module top(); reg clk; reg q;
      always @(posedge clk) q <= !q;
      initial begin clk = 0; q = 0; forever #5 clk = !clk; end
    endmodule
  )");
  obs::Metrics& m = obs::Metrics::global();
  const obs::MetricCounter& timesteps = m.counter("hdl.sim.timesteps");
  const obs::MetricCounter& events = m.counter("hdl.sim.events");
  const obs::MetricCounter& wakeups = m.counter("hdl.sim.wakeups");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  // Each run adds its own timesteps, delta cycles and thread wake-ups.
  auto expect_run_adds = [&](std::int64_t until, std::int64_t steps,
                             std::int64_t deltas, std::int64_t wakes) {
    const std::int64_t t0 = timesteps.value(), e0 = events.value(),
                       w0 = wakeups.value();
    const std::uint64_t d0 = sim.delta_cycles();
    sim.run(until);
    EXPECT_EQ(timesteps.value() - t0, steps) << "until " << until;
    EXPECT_EQ(events.value() - e0, deltas) << "until " << until;
    EXPECT_EQ(std::uint64_t(deltas), sim.delta_cycles() - d0);
    EXPECT_EQ(wakeups.value() - w0, wakes) << "until " << until;
  };
  // Times 0, 5, 10, 15, 20; the always block runs on the rises at 5 and
  // 15; the thread starts at 0 and wakes at each toggle.
  expect_run_adds(23, 5, 2, 5);
  // The current time (20) is settled again but not counted again; then 25,
  // 30, 35, 40; rises at 25 and 35.
  expect_run_adds(43, 4, 2, 4);
}

TEST(Sim, GateDelayPropagates) {
  ElabDesign d = elab(R"(
    module top(); reg a; wire y;
      not #3 (y, a);
      initial begin a = 0; #10 a = 1; end
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(11);
  EXPECT_EQ(sim.value("top.y"), Logic::L1);  // inversion of old a until 13
  sim.run(13);
  EXPECT_EQ(sim.value("top.y"), Logic::L0);
}

TEST(Sim, AlwaysCombinationalFollowsInputs) {
  ElabDesign d = elab(R"(
    module top(); reg a, b; reg y;
      always @(a or b) y = a & b;
      initial begin a = 0; b = 0; #5 a = 1; #5 b = 1; end
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(4);
  EXPECT_EQ(sim.value("top.y"), Logic::L0);
  sim.run(12);
  EXPECT_EQ(sim.value("top.y"), Logic::L1);
}

// The paper's modeling-style example: out is NOT recomputed when only c
// changes, because c is missing from the sensitivity list.
TEST(Sim, IncompleteSensitivityHonoredInSimulation) {
  ElabDesign d = elab(R"(
    module top(); reg a, b, c; reg out;
      always @(a or b) out = a & b & c;
      initial begin
        a = 1; b = 1; c = 1;
        #10 c = 0;
        #10 a = 0;
        #5  a = 1;
      end
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(15);
  // c fell at t=10 but out still holds the stale 1.
  EXPECT_EQ(sim.value("top.out"), Logic::L1);
  sim.run(30);
  // a toggled: block re-ran and picked up c=0.
  EXPECT_EQ(sim.value("top.out"), Logic::L0);
}

TEST(Sim, PosedgeTriggersOnlyOnRise) {
  ElabDesign d = elab(R"(
    module top(); reg clk, d; reg q;
      always @(posedge clk) q = d;
      initial begin
        q = 0; d = 1; clk = 0;
        #5 clk = 1;
        #5 clk = 0;
        #2 d = 0;
        #3 clk = 1;
      end
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(7);
  EXPECT_EQ(sim.value("top.q"), Logic::L1);  // captured d=1 at t=5
  sim.run(11);
  EXPECT_EQ(sim.value("top.q"), Logic::L1);  // falling edge: no trigger
  sim.run(16);
  EXPECT_EQ(sim.value("top.q"), Logic::L0);  // captured d=0 at t=15
}

TEST(Sim, NonblockingSwapWorks) {
  ElabDesign d = elab(R"(
    module top(); reg clk; reg a, b;
      always @(posedge clk) begin
        a <= b;
        b <= a;
      end
      initial begin
        a = 0; b = 1; clk = 0;
        #5 clk = 1;
      end
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(6);
  EXPECT_EQ(sim.value("top.a"), Logic::L1);
  EXPECT_EQ(sim.value("top.b"), Logic::L0);
}

TEST(Sim, VectorAssignAndSelect) {
  ElabDesign d = elab(R"(
    module top(); wire [3:0] v; wire y;
      assign v = 4'b1010;
      assign y = v[1];
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(0);
  EXPECT_EQ(sim.value("top.v[3]"), Logic::L1);
  EXPECT_EQ(sim.value("top.v[2]"), Logic::L0);
  EXPECT_EQ(sim.value("top.y"), Logic::L1);
}

TEST(Sim, ArithmeticAndComparison) {
  ElabDesign d = elab(R"(
    module top(); wire [3:0] a, b, s; wire gt;
      assign a = 4'd9;
      assign b = 4'd3;
      assign s = a + b;
      assign gt = a > b;
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(0);
  EXPECT_EQ(sim.value("top.s[3]"), Logic::L1);  // 12 = 1100
  EXPECT_EQ(sim.value("top.s[2]"), Logic::L1);
  EXPECT_EQ(sim.value("top.s[1]"), Logic::L0);
  EXPECT_EQ(sim.value("top.s[0]"), Logic::L0);
  EXPECT_EQ(sim.value("top.gt"), Logic::L1);
}

TEST(Sim, XPropagatesThroughGates) {
  ElabDesign d = elab(R"(
    module top(); reg a; wire y0, y1;
      and (y0, a, a);
      or  (y1, a, a);
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(0);
  EXPECT_EQ(sim.value("top.y0"), Logic::X);  // a never driven
  EXPECT_EQ(sim.value("top.y1"), Logic::X);
}

TEST(Sim, ZeroDelayOscillationGuard) {
  ElabDesign d = elab(R"(
    module top(); wire a; not (a, a); endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.set_delta_limit(1000);
  // a starts X; not(X)=X: stable. Force a value to start the oscillation.
  sim.force(d.signal("top.a"), Logic::L0);
  EXPECT_THROW(sim.run(0), std::runtime_error);
}

TEST(Sim, CaseStatementSelects) {
  ElabDesign d = elab(R"(
    module top(); reg [1:0] s; reg [1:0] q;
      always @(s) begin
        case (s)
          0: q = 2'b11;
          1: q = 2'b10;
          default: q = 2'b00;
        endcase
      end
      initial begin s = 0; #5 s = 1; #5 s = 2; end
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(1);
  EXPECT_EQ(sim.value("top.q[1]"), Logic::L1);
  EXPECT_EQ(sim.value("top.q[0]"), Logic::L1);
  sim.run(6);
  EXPECT_EQ(sim.value("top.q[0]"), Logic::L0);
  sim.run(11);
  EXPECT_EQ(sim.value("top.q[1]"), Logic::L0);
}

TEST(Sim, HierarchicalSimulation) {
  ElabDesign d = elab(R"(
    module halfadd(a, b, s, c); input a, b; output s, c;
      xor (s, a, b);
      and (c, a, b);
    endmodule
    module top(); reg x, y; wire s, c;
      halfadd u1 (.a(x), .b(y), .s(s), .c(c));
      initial begin x = 1; y = 1; end
    endmodule
  )");
  Simulation sim(d, SchedulerPolicy::SourceOrder);
  sim.run(0);
  EXPECT_EQ(sim.value("top.s"), Logic::L0);
  EXPECT_EQ(sim.value("top.c"), Logic::L1);
}

}  // namespace
}  // namespace interop::hdl
