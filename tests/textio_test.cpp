#include <gtest/gtest.h>

#include <locale>

#include "al/value.hpp"
#include "hdl/parser.hpp"
#include "hdl/sim.hpp"
#include "hdl/synth.hpp"
#include "hdl/writer.hpp"
#include "pnr/backplane.hpp"
#include "pnr/check.hpp"
#include "pnr/generator.hpp"
#include "pnr/route.hpp"
#include "pnr/textio.hpp"
#include "schematic/generator.hpp"
#include "schematic/migrate.hpp"
#include "schematic/textio.hpp"

namespace {

// ------------------------------------------------------ schematic format

class SchTextIo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchTextIo, DesignRoundTripsLosslessly) {
  using namespace interop::sch;
  GeneratorOptions opt;
  opt.seed = GetParam();
  Scenario sc = make_exar_scenario(opt);

  std::string text = write_design(sc.source);
  interop::base::DiagnosticEngine diags;
  Design back = read_design(text, diags);
  EXPECT_EQ(diags.count(interop::base::Severity::Warning), 0u);

  // Structure identical: same symbols, instances, wires...
  EXPECT_EQ(back.grid(), sc.source.grid());
  EXPECT_EQ(back.symbols().size(), sc.source.symbols().size());
  EXPECT_EQ(back.instance_count(), sc.source.instance_count());
  EXPECT_EQ(back.wire_count(), sc.source.wire_count());

  // ...and the writer is a fixed point (write(read(write)) == write).
  EXPECT_EQ(write_design(back), text);

  // Electrically identical: extraction matches net for net.
  interop::base::DiagnosticEngine d1, d2;
  for (const auto& [cell, sch] : sc.source.schematics()) {
    Netlist a = extract_netlist(sc.source, sch, viewlogic_dialect(), d1);
    Netlist b = extract_netlist(back, *back.find_schematic(cell),
                                viewlogic_dialect(), d2);
    EXPECT_TRUE(compare_netlists(a, b).empty()) << cell;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchTextIo, ::testing::Values(1, 5, 9));

/// Decimal ',' and thousands '.' grouped by three: through a stream imbued
/// with it, 2193 prints as "2.193" and 2.5 as "2,5".
struct GroupingPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

// Regression: write_design formatted numbers through an ostringstream,
// which takes the global C++ locale, so under a grouping locale it wrote
// (frame -8 -144 2.193 244) and read_design rejected its own output.
TEST(SchTextIo, WriteIgnoresGlobalLocale) {
  using namespace interop::sch;
  GeneratorOptions opt;
  opt.seed = 1;
  Scenario sc = make_exar_scenario(opt);
  Schematic& top = *sc.source.find_schematic("top");
  top.sheets[0].frame = interop::base::Rect({-8, -144}, {2193, 244});
  top.sheets[0].instances[0].props.set("w", interop::base::PropertyValue(2.5));
  const std::string classic = write_design(sc.source);
  ASSERT_NE(classic.find("(frame -8 -144 2193 244)"), std::string::npos);

  std::locale saved = std::locale::global(
      std::locale(std::locale::classic(), new GroupingPunct));
  std::string localized = write_design(sc.source);
  std::locale::global(saved);

  EXPECT_EQ(localized, classic);
  interop::base::DiagnosticEngine diags;
  EXPECT_EQ(write_design(read_design(localized, diags)), classic);
}

// write_design measures its text before writing it, so the string it
// returns carries no growth slack (which a cache holding it would keep).
TEST(SchTextIo, WriteSizesItsOutputOnce) {
  using namespace interop::sch;
  GeneratorOptions opt;
  opt.seed = 3;
  opt.components_per_sheet = 100;
  Scenario sc = make_exar_scenario(opt);
  sc.source.find_schematic("top")->props.set(
      "q\"uote", interop::base::PropertyValue(-1.25e-7));
  const std::string text = write_design(sc.source);
  EXPECT_LE(text.capacity() - text.size(), 32u);
}

TEST(SchTextIoErrors, RejectsMalformedInput) {
  using namespace interop::sch;
  interop::base::DiagnosticEngine diags;
  EXPECT_THROW(read_design("(not-a-design)", diags), std::runtime_error);
  EXPECT_THROW(read_design("(design (grid 1))", diags), std::runtime_error);
  EXPECT_THROW(read_design("garbage ((", diags), std::exception);
}

// A syntax error anywhere in the text wins over a structure error before
// it and suppresses the unknown-field warnings; warnings before a
// structure error are kept.
TEST(SchTextIoErrors, SyntaxErrorSuppressesWarnings) {
  using namespace interop::sch;
  interop::base::DiagnosticEngine diags;
  EXPECT_THROW(read_design("(design (bogus) (grid x 1)) (", diags),
               interop::al::AlError);
  EXPECT_TRUE(diags.all().empty());
  EXPECT_THROW(read_design("(design (bogus)) x", diags), std::runtime_error);
  EXPECT_TRUE(diags.all().empty());
  try {
    read_design("(design (bogus) (grid x 1) (later))", diags);
    ADD_FAILURE() << "accepted a non-integer grid";
  } catch (const interop::al::AlError&) {
    ADD_FAILURE() << "a structure error reported as a syntax error";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(diags.count_code("unknown-field"), 1u);
}

TEST(SchTextIoErrors, WarnsOnUnknownFields) {
  using namespace interop::sch;
  interop::base::DiagnosticEngine diags;
  Design d = read_design("(design (grid 1 10) (future-extension 1))", diags);
  EXPECT_EQ(diags.count_code("unknown-field"), 1u);
  EXPECT_EQ(d.grid().pitch(), interop::base::Rational(1, 10));
}

// --------------------------------------------------------- verilog writer

class VerilogRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(VerilogRoundTrip, WriteParsesBackEquivalently) {
  using namespace interop::hdl;
  Module m = parse_module(GetParam());
  std::string text = write_module(m);
  Module back = parse_module(text);
  // The writer is a fixed point of write∘parse.
  EXPECT_EQ(write_module(back), text);
  EXPECT_EQ(back.name, m.name);
  EXPECT_EQ(back.ports.size(), m.ports.size());
  EXPECT_EQ(back.nets.size(), m.nets.size());
  EXPECT_EQ(back.gates.size(), m.gates.size());
  EXPECT_EQ(back.assigns.size(), m.assigns.size());
  EXPECT_EQ(back.always_blocks.size(), m.always_blocks.size());
  EXPECT_EQ(back.initial_blocks.size(), m.initial_blocks.size());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, VerilogRoundTrip,
    ::testing::Values(
        R"(module t(a, y); input a; output y; assign y = !a; endmodule)",
        R"(module t(); wire [3:0] v; assign v = 4'b10xz; endmodule)",
        R"(module t(a, b, q); input a, b; output q; reg q;
           always @(a or b) begin
             if (a == b) q = a & b | !a; else q = a ^ b;
           end endmodule)",
        R"(module t(); reg clk; initial begin clk = 0;
           forever #5 clk = !clk; end endmodule)",
        R"(module t(c, q); input c; output q; reg q; wire [1:0] s;
           assign s = 2'b01;
           always @(s or c) begin
             case (s) 2'b00: q = 0; 2'b01: q = c; default: q = 1; endcase
           end endmodule)",
        R"(module t(); wire a, b, y; nand g1 (y, a, b);
           not (a, y); endmodule)"));

TEST(VerilogWriter, SynthesizedNetlistSimulatesViaText) {
  // The full §3 hand-off: synthesize, WRITE the netlist to text, parse it
  // back as "the other tool" would, simulate.
  using namespace interop::hdl;
  Module rtl = parse_module(R"(
    module t(s, a, b, y); input s, a, b; output y; reg y;
      always @(s or a or b) begin
        if (s) y = a; else y = b;
      end
    endmodule)");
  SynthResult syn = synthesize(rtl, vendor_a_subset());
  ASSERT_TRUE(syn.ok);
  std::string text = write_module(syn.netlist);
  SourceUnit unit = parse(text);
  ElabDesign design = elaborate(unit, "t_syn");
  Simulation sim(design, SchedulerPolicy::SourceOrder);
  sim.force(design.signal("t_syn.s"), Logic::L1);
  sim.force(design.signal("t_syn.a"), Logic::L0);
  sim.force(design.signal("t_syn.b"), Logic::L1);
  sim.run(0);
  EXPECT_EQ(sim.value("t_syn.y"), Logic::L0);
}

TEST(VerilogWriter, PrecedenceParenthesization) {
  using namespace interop::hdl;
  // (a | b) & c must not round-trip into a | b & c.
  Module m = parse_module(
      "module t(); wire a, b, c, y; assign y = (a | b) & c; endmodule");
  Module back = parse_module(write_module(m));
  const Expr& e = *back.assigns[0].rhs;
  EXPECT_EQ(e.bin_op, BinOp::And);
  EXPECT_EQ(e.operands[0]->bin_op, BinOp::Or);
}

// ------------------------------------------------------------ tool decks

class PnrDeck : public ::testing::TestWithParam<int> {};

TEST_P(PnrDeck, DeckRoundTripsAndRoutesIdentically) {
  using namespace interop::pnr;
  ToolCaps caps = GetParam() == 0   ? router_alpha_caps()
                  : GetParam() == 1 ? router_beta_caps()
                                    : router_gamma_caps();
  PnrGenOptions opt;
  opt.seed = 4;
  PhysDesign design = make_pnr_workload(opt);
  interop::base::DiagnosticEngine d1, d2;
  LossReport loss;
  ToolInput input = export_via_backplane(design, caps, loss, d1);

  std::string deck = write_tool_input(input);
  ToolInput back = read_tool_input(deck, caps, d2);

  // The writer is a fixed point through the tool's own reader.
  EXPECT_EQ(write_tool_input(back), deck);

  // Routing the parsed deck gives the identical result.
  RouteResult r1 = route(input);
  RouteResult r2 = route(back);
  EXPECT_EQ(r1.wirelength, r2.wirelength);
  EXPECT_EQ(r1.failed_nets, r2.failed_nets);
  CheckResult c1 = check_routes(design, r1);
  CheckResult c2 = check_routes(design, r2);
  EXPECT_EQ(c1.total(), c2.total());
}

INSTANTIATE_TEST_SUITE_P(Tools, PnrDeck, ::testing::Values(0, 1, 2));

TEST(PnrDeckSemantics, ForeignRecordsAreIgnoredNotErrors) {
  // Feed an Alpha-style deck (ACCESS/CONN records) to Gamma: a real tool
  // skips what it does not understand — and the information is simply gone.
  using namespace interop::pnr;
  PnrGenOptions opt;
  opt.seed = 4;
  PhysDesign design = make_pnr_workload(opt);
  interop::base::DiagnosticEngine d1, d2;
  ToolInput alpha_input = export_direct(design, router_alpha_caps(), d1);
  std::string deck = write_tool_input(alpha_input);

  ToolInput as_gamma = read_tool_input(deck, router_gamma_caps(), d2);
  EXPECT_GT(d2.count_code("deck-ignored"), 0u);
  for (const ToolInput::PinRecord& pin : as_gamma.pins) {
    EXPECT_FALSE(pin.access.has_value());
    EXPECT_FALSE(pin.conn.has_value());
  }
  for (const ToolInput::NetRecord& net : as_gamma.nets) {
    EXPECT_FALSE(net.width.has_value());
    EXPECT_FALSE(net.shield.has_value());
  }
  EXPECT_TRUE(as_gamma.keepouts.empty());
}

TEST(PnrDeckErrors, MalformedDecksRejected) {
  using namespace interop::pnr;
  interop::base::DiagnosticEngine diags;
  EXPECT_THROW(read_tool_input("DIE 0 0\nENDDECK\n", router_alpha_caps(),
                               diags),
               std::runtime_error);
  EXPECT_THROW(read_tool_input("TOOLDECK x\n", router_alpha_caps(), diags),
               std::runtime_error);  // missing ENDDECK
  EXPECT_THROW(read_tool_input("TERM a b\nENDDECK\n", router_alpha_caps(),
                               diags),
               std::runtime_error);  // TERM outside NET
}

}  // namespace
