#include "pnr/route.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "pnr/backplane.hpp"
#include "pnr/check.hpp"
#include "pnr/generator.hpp"

namespace interop::pnr {
namespace {

// Hand-built two-cell design for precise routing assertions.
class RouteFixture : public ::testing::Test {
 protected:
  RouteFixture() {
    design.floorplan.die = Rect::from_xywh(0, 0, 40, 20);

    CellAbstract cell;
    cell.name = "c";
    cell.boundary = Rect::from_xywh(0, 0, 4, 4);
    AbstractPin east_pin;
    east_pin.name = "Y";
    east_pin.shapes.push_back({Layer::M1, Rect::from_xywh(3, 1, 1, 1)});
    east_pin.props.access = {false, false, true, false};
    cell.pins.push_back(east_pin);
    AbstractPin west_pin;
    west_pin.name = "A";
    west_pin.shapes.push_back({Layer::M1, Rect::from_xywh(0, 1, 1, 1)});
    west_pin.props.access = {false, false, false, true};
    cell.pins.push_back(west_pin);
    design.cells["c"] = cell;

    PhysInstance u0{"u0", "c", {2, 8}, Orient::R0, false};
    PhysInstance u1{"u1", "c", {20, 8}, Orient::R0, false};
    design.instances = {u0, u1};

    PhysNet net;
    net.name = "n0";
    net.terms = {{"u0", "Y"}, {"u1", "A"}};
    design.nets.push_back(net);
  }

  ToolInput route_input_for_gamma() {
    return export_direct(design, router_gamma_caps(), diags);
  }

  PhysDesign design;
  base::DiagnosticEngine diags;
};

TEST_F(RouteFixture, RoutesSimpleNet) {
  ToolInput input = export_direct(design, router_alpha_caps(), diags);
  RouteResult r = route(input);
  ASSERT_EQ(r.nets.size(), 1u);
  EXPECT_TRUE(r.nets[0].routed);
  EXPECT_EQ(r.failed_nets, 0);
  EXPECT_GT(r.wirelength, 0);
  // Entry sides honored: into A from the west, connected.
  for (const RoutedTerm& t : r.nets[0].terms) EXPECT_TRUE(t.connected);
}

TEST_F(RouteFixture, AccessPropertyForcesEntrySide) {
  ToolInput input = export_direct(design, router_alpha_caps(), diags);
  RouteResult r = route(input);
  CheckResult c = check_routes(design, r);
  EXPECT_EQ(c.access_violations, 0);
}

TEST_F(RouteFixture, DroppedAccessCausesViolations) {
  // Gamma derives access from blockages, but the cells carry none: the
  // router is free to enter pins from any side. Stack u0 directly above u1
  // so the natural shortest path drops onto u1.A from the NORTH — which the
  // designer's west-only access forbids.
  design.instances[0].origin = {20, 14};  // u0 above u1
  design.instances[1].origin = {20, 2};   // u1 below
  ToolInput unaware = export_direct(design, router_gamma_caps(), diags);
  RouteResult r = route(unaware);
  ASSERT_TRUE(r.nets[0].routed);
  CheckResult c = check_routes(design, r);
  EXPECT_GT(c.access_violations, 0);

  // The access-aware tool wraps around and enters from the west.
  ToolInput aware = export_direct(design, router_alpha_caps(), diags);
  RouteResult r2 = route(aware);
  ASSERT_TRUE(r2.nets[0].routed);
  EXPECT_EQ(check_routes(design, r2).access_violations, 0);
  // The legal route is longer — the price of honoring the constraint.
  EXPECT_GT(r2.wirelength, r.wirelength);
}

TEST_F(RouteFixture, KeepoutsHonoredWhenConveyed) {
  // A keepout wall between the cells with a gap at the top.
  design.floorplan.keepouts.push_back(
      {Layer::M1, Rect::from_xywh(12, 0, 2, 16)});
  ToolInput with = export_direct(design, router_alpha_caps(), diags);
  RouteResult r1 = route(with);
  ASSERT_TRUE(r1.nets[0].routed);
  EXPECT_EQ(check_routes(design, r1).keepout_violations, 0);

  // Gamma never hears about the keepout and routes straight through it.
  ToolInput without = export_direct(design, router_gamma_caps(), diags);
  RouteResult r2 = route(without);
  ASSERT_TRUE(r2.nets[0].routed);
  EXPECT_GT(check_routes(design, r2).keepout_violations, 0);
  // The unaware route is shorter — it cheated through the wall.
  EXPECT_LT(r2.wirelength, r1.wirelength);
}

TEST_F(RouteFixture, WidthConveyedMeansWiderRoute) {
  design.nets[0].topology.width = 2;
  ToolInput input = export_direct(design, router_alpha_caps(), diags);
  RouteResult r = route(input);
  ASSERT_TRUE(r.nets[0].routed);
  EXPECT_EQ(r.nets[0].width_used, 2);
  EXPECT_FALSE(r.nets[0].width_cells.empty());
  EXPECT_EQ(check_routes(design, r).width_violations, 0);

  // Gamma drops width: the checker flags the too-narrow net.
  ToolInput gamma = route_input_for_gamma();
  RouteResult rg = route(gamma);
  EXPECT_GT(check_routes(design, rg).width_violations, 0);
}

TEST_F(RouteFixture, ShieldOccupiesGuardTracks) {
  design.nets[0].topology.shield = true;
  ToolInput beta = export_direct(design, router_beta_caps(), diags);
  RouteResult r = route(beta);
  ASSERT_TRUE(r.nets[0].routed);
  EXPECT_TRUE(r.nets[0].shielded);
  EXPECT_FALSE(r.nets[0].shield_cells.empty());
  EXPECT_EQ(check_routes(design, r).shield_violations, 0);

  ToolInput alpha = export_direct(design, router_alpha_caps(), diags);
  RouteResult ra = route(alpha);
  EXPECT_GT(check_routes(design, ra).shield_violations, 0);
}

TEST_F(RouteFixture, UnroutableNetReported) {
  // Solid wall, no gap.
  design.floorplan.keepouts.push_back(
      {Layer::M1, Rect::from_xywh(12, 0, 2, 21)});
  ToolInput input = export_direct(design, router_alpha_caps(), diags);
  RouteResult r = route(input);
  EXPECT_EQ(r.failed_nets, 1);
  EXPECT_FALSE(r.nets[0].routed);
}

TEST_F(RouteFixture, UnplacedShieldNetIsRoutabilityNotShieldViolation) {
  // A shield net whose far-end instance does not exist on the die: the
  // router never produces metal for it, so the checker must report a
  // failed net — not a shield (or width) violation. Found by the
  // differential fuzzer (tests/corpus/shield-unplaced-net.repro): on a
  // crowded die the placer drops an instance, the net short-circuits out
  // of the router with zero cells, and the old checker blamed shield
  // conveyance for what is a placement failure.
  design.nets[0].topology.shield = true;
  design.nets[0].topology.width = 3;
  design.nets[0].terms.push_back({"u_missing", "A"});
  design.instances.pop_back();  // u1 gone: only one placeable terminal left

  ToolInput beta = export_direct(design, router_beta_caps(), diags);
  RouteResult r = route(beta);
  ASSERT_EQ(r.nets.size(), 1u);
  EXPECT_FALSE(r.nets[0].routed);
  EXPECT_TRUE(r.nets[0].cells.empty());
  EXPECT_EQ(r.failed_nets, 1);

  CheckResult c = check_routes(design, r);
  EXPECT_EQ(c.failed_nets, 1);
  EXPECT_EQ(c.shield_violations, 0);
  EXPECT_EQ(c.width_violations, 0);
}

// ---- generated workload, end to end ----

class PnrEndToEnd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PnrEndToEnd, BackplaneNeverWorseThanDirect) {
  PnrGenOptions opt;
  opt.seed = GetParam();
  PhysDesign design = make_pnr_workload(opt);

  for (const ToolCaps& caps :
       {router_alpha_caps(), router_beta_caps(), router_gamma_caps()}) {
    base::DiagnosticEngine d1, d2;
    ToolInput direct = export_direct(design, caps, d1);
    CheckResult direct_check = check_routes(design, route(direct));

    LossReport loss;
    ToolInput via_bp = export_via_backplane(design, caps, loss, d2);
    CheckResult bp_check = check_routes(design, route(via_bp));

    // The backplane path never increases access violations (its main
    // emulation) and overall violations stay <= direct + noise from the
    // extra blockages; assert the headline metrics.
    EXPECT_LE(bp_check.access_violations, direct_check.access_violations)
        << caps.name << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PnrEndToEnd, ::testing::Values(1, 7, 13));

// Search nodes are 32-bit keys cell * 3 + axis, so route() refuses a die
// with 3 * w * h >= 2^32 cells, naming it, before it allocates anything.
// Each die below needs more memory than a 64-bit address space holds, so a
// grid allocation would throw std::bad_alloc (or abort under ASan) instead
// of the std::length_error expected here.
TEST(RoutePrecondition, HugeDieThrowsBeforeAllocating) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const Rect dies[] = {
      Rect({0, 0}, {(1 << 24) - 1, (1 << 24) - 1}),  // 2^48 cells
      Rect({0, 0}, {std::int64_t(1) << 46, 0}),      // one long row
      Rect({-kMax, 0}, {kMax, 0}),                   // span overflows int64
  };
  for (const Rect& die : dies) {
    ToolInput input;
    input.die = die;
    try {
      route(input);
      ADD_FAILURE() << "route() accepted die hi " << die.hi().x;
    } catch (const std::length_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(die.hi().x)),
                std::string::npos)
          << "message does not name the die: " << e.what();
    }
  }
}

TEST(PnrWorkload, MostNetsRoute) {
  PnrGenOptions opt;
  opt.seed = 2;
  PhysDesign design = make_pnr_workload(opt);
  base::DiagnosticEngine diags;
  ToolInput input = export_direct(design, router_beta_caps(), diags);
  RouteResult r = route(input);
  EXPECT_LT(r.failed_nets, int(r.nets.size()) / 2);
  EXPECT_GT(r.wirelength, 0);
}

}  // namespace
}  // namespace interop::pnr
