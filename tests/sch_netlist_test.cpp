#include "schematic/netlist.hpp"

#include <gtest/gtest.h>

#include "schematic/generator.hpp"

namespace interop::sch {
namespace {

// A tiny fixture: one inverter driving another through a labeled wire.
class NetlistFixture : public ::testing::Test {
 protected:
  NetlistFixture() : design(viewlogic_dialect().grid) {
    add_source_library(design, "top", {{"PA", {0, 2}, PinDir::Input}});
  }

  Instance make_inv(const std::string& name, Point at) {
    Instance inst;
    inst.name = name;
    inst.symbol = {"vl_lib", "vl_inv", "sym"};
    inst.placement = Transform(base::Orient::R0, at);
    return inst;
  }

  Design design;
  base::DiagnosticEngine diags;
};

TEST_F(NetlistFixture, WireConnectsTwoPins) {
  Schematic sch;
  sch.cell = "top";
  Sheet sheet;
  sheet.number = 1;
  // U1 at (0,0): pins A(0,2), Y(4,2).  U2 at (10,0): pins A(10,2), Y(14,2).
  sheet.instances.push_back(make_inv("U1", {0, 0}));
  sheet.instances.push_back(make_inv("U2", {10, 0}));
  sheet.wires.push_back({{4, 2}, {10, 2}});
  NetLabel l;
  l.text = "mid";
  l.at = {7, 2};
  sheet.labels.push_back(l);
  sch.sheets.push_back(sheet);

  Netlist nl = extract_netlist(design, sch, viewlogic_dialect(), diags);
  ASSERT_TRUE(nl.nets.count("mid"));
  const ExtractedNet& net = nl.nets.at("mid");
  EXPECT_EQ(net.connections.size(), 2u);
  EXPECT_TRUE(net.connections.count({"U1", "Y"}));
  EXPECT_TRUE(net.connections.count({"U2", "A"}));
  // Unwired pins become dangling notes.
  EXPECT_EQ(diags.count_code("dangling-pin"), 2u);
}

TEST_F(NetlistFixture, CrossingWithoutJunctionDoesNotConnect) {
  Schematic sch;
  sch.cell = "top";
  Sheet sheet;
  sheet.number = 1;
  sheet.wires.push_back({{0, 5}, {10, 5}});
  sheet.wires.push_back({{5, 0}, {5, 10}});
  NetLabel a{"h", {0, 5}, {}};
  NetLabel b{"v", {5, 0}, {}};
  sheet.labels.push_back(a);
  sheet.labels.push_back(b);
  sch.sheets.push_back(sheet);

  Netlist nl = extract_netlist(design, sch, viewlogic_dialect(), diags);
  EXPECT_TRUE(nl.nets.count("h"));
  EXPECT_TRUE(nl.nets.count("v"));  // two distinct nets
}

TEST_F(NetlistFixture, JunctionConnectsCrossing) {
  Schematic sch;
  sch.cell = "top";
  Sheet sheet;
  sheet.number = 1;
  sheet.wires.push_back({{0, 5}, {10, 5}});
  sheet.wires.push_back({{5, 0}, {5, 10}});
  sheet.junctions.push_back({5, 5});
  NetLabel a{"h", {0, 5}, {}};
  NetLabel b{"v", {5, 0}, {}};
  sheet.labels.push_back(a);
  sheet.labels.push_back(b);
  sch.sheets.push_back(sheet);

  Netlist nl = extract_netlist(design, sch, viewlogic_dialect(), diags);
  // One electrical net under two names: both names map to the same pin set,
  // and extraction merges the group under each label.
  ASSERT_TRUE(nl.nets.count("h"));
  ASSERT_TRUE(nl.nets.count("v"));
  EXPECT_EQ(Netlist::signature(nl.nets.at("h")),
            Netlist::signature(nl.nets.at("v")));
}

TEST_F(NetlistFixture, ImplicitOffPageJoinsInViewlogic) {
  Schematic sch;
  sch.cell = "top";
  for (int page = 1; page <= 2; ++page) {
    Sheet sheet;
    sheet.number = page;
    Instance inst = make_inv("U" + std::to_string(page), {0, 0});
    sheet.instances.push_back(inst);
    sheet.wires.push_back({{4, 2}, {8, 2}});
    NetLabel l{"shared", {8, 2}, {}};
    sheet.labels.push_back(l);
    sch.sheets.push_back(sheet);
  }

  Netlist vl = extract_netlist(design, sch, viewlogic_dialect(), diags);
  ASSERT_TRUE(vl.nets.count("shared"));
  EXPECT_EQ(vl.nets.at("shared").connections.size(), 2u);

  // Composer semantics: without off-page connectors the two pages hold two
  // DIFFERENT nets, page-scoped.
  Netlist cd = extract_netlist(design, sch, composer_dialect(), diags);
  EXPECT_FALSE(cd.nets.count("shared"));
  ASSERT_TRUE(cd.nets.count("shared@p1"));
  ASSERT_TRUE(cd.nets.count("shared@p2"));
  EXPECT_EQ(cd.nets.at("shared@p1").connections.size(), 1u);
}

TEST_F(NetlistFixture, OffPageConnectorJoinsInComposer) {
  Schematic sch;
  sch.cell = "top";
  for (int page = 1; page <= 2; ++page) {
    Sheet sheet;
    sheet.number = page;
    Instance inst = make_inv("U" + std::to_string(page), {0, 0});
    sheet.instances.push_back(inst);
    sheet.wires.push_back({{4, 2}, {8, 2}});
    NetLabel l{"shared", {8, 2}, {}};
    sheet.labels.push_back(l);
    // Explicit off-page connector at the wire end.
    Instance conn;
    conn.name = "OP" + std::to_string(page);
    conn.symbol = {"connectors", "offpage", "symbol"};
    conn.placement = Transform(base::Orient::R0, Point{8, 2} - Point{1, 0});
    conn.props.set("net", "shared");
    sheet.instances.push_back(conn);
    sch.sheets.push_back(sheet);
  }
  for (const SymbolDef& def : make_target_library()) design.add_symbol(def);

  Netlist cd = extract_netlist(design, sch, composer_dialect(), diags);
  ASSERT_TRUE(cd.nets.count("shared"));
  EXPECT_EQ(cd.nets.at("shared").connections.size(), 2u);
}

TEST_F(NetlistFixture, GlobalSymbolsJoinAcrossPages) {
  Schematic sch;
  sch.cell = "top";
  for (int page = 1; page <= 2; ++page) {
    Sheet sheet;
    sheet.number = page;
    Instance inst = make_inv("U" + std::to_string(page), {0, 0});
    sheet.instances.push_back(inst);
    // Tap VDD onto pin A at (0,2): global pin lands at (0,0).
    Instance tap;
    tap.name = "V" + std::to_string(page);
    tap.symbol = {"vl_lib", "vl_vdd", "sym"};
    tap.placement = Transform(base::Orient::R0, {-1, 0});
    sheet.wires.push_back({{0, 2}, {0, 0}});
    sheet.instances.push_back(tap);
    sch.sheets.push_back(sheet);
  }
  Netlist nl = extract_netlist(design, sch, composer_dialect(), diags);
  ASSERT_TRUE(nl.nets.count("VDD"));
  EXPECT_TRUE(nl.nets.at("VDD").global);
  EXPECT_EQ(nl.nets.at("VDD").connections.size(), 2u);
}

TEST_F(NetlistFixture, CondensedLabelMergesWithBusBit) {
  Schematic sch;
  sch.cell = "top";
  Sheet sheet;
  sheet.number = 1;
  sheet.instances.push_back(make_inv("U1", {0, 0}));
  sheet.instances.push_back(make_inv("U2", {0, 10}));
  // Bus wire labeled A<0:3> on U1.Y.
  sheet.wires.push_back({{4, 2}, {8, 2}});
  NetLabel bus{"A<0:3>", {8, 2}, {}};
  sheet.labels.push_back(bus);
  // Separate wire labeled condensed "A2" on U2.Y.
  sheet.wires.push_back({{4, 12}, {8, 12}});
  NetLabel bit{"A2", {8, 12}, {}};
  sheet.labels.push_back(bit);
  sch.sheets.push_back(sheet);

  Netlist vl = extract_netlist(design, sch, viewlogic_dialect(), diags);
  // In Viewlogic, A2 is bit 2 of the bus: U1.Y and U2.Y share A[2].
  ASSERT_TRUE(vl.nets.count("A[2]"));
  EXPECT_EQ(vl.nets.at("A[2]").connections.size(), 2u);
  // Other bits carry only the bus-attached pin.
  ASSERT_TRUE(vl.nets.count("A[1]"));
  EXPECT_EQ(vl.nets.at("A[1]").connections.size(), 1u);

  // In Composer, "A2" is an unrelated scalar net.
  Netlist cd = extract_netlist(design, sch, composer_dialect(), diags);
  ASSERT_TRUE(cd.nets.count("A2"));
  ASSERT_TRUE(cd.nets.count("A[2]"));
  EXPECT_EQ(cd.nets.at("A[2]").connections.size(), 1u);
}

TEST_F(NetlistFixture, ImplicitPortFromCellSymbolPin) {
  Schematic sch;
  sch.cell = "top";
  Sheet sheet;
  sheet.number = 1;
  sheet.instances.push_back(make_inv("U1", {0, 0}));
  sheet.wires.push_back({{0, 2}, {-4, 2}});
  NetLabel l{"PA", {-4, 2}, {}};
  sheet.labels.push_back(l);
  sch.sheets.push_back(sheet);

  Netlist vl = extract_netlist(design, sch, viewlogic_dialect(), diags);
  ASSERT_TRUE(vl.nets.count("PA"));
  EXPECT_TRUE(vl.nets.at("PA").is_port);
  EXPECT_EQ(vl.nets.at("PA").port_dir, PinDir::Input);

  // Composer requires an explicit hierarchy connector: without one the net
  // is not a port.
  Netlist cd = extract_netlist(design, sch, composer_dialect(), diags);
  ASSERT_TRUE(cd.nets.count("PA"));
  EXPECT_FALSE(cd.nets.at("PA").is_port);
}

TEST_F(NetlistFixture, ExplicitHierConnectorMakesPort) {
  for (const SymbolDef& def : make_target_library()) design.add_symbol(def);
  Schematic sch;
  sch.cell = "top";
  Sheet sheet;
  sheet.number = 1;
  sheet.instances.push_back(make_inv("U1", {0, 0}));
  sheet.wires.push_back({{0, 2}, {-4, 2}});
  NetLabel l{"PA", {-4, 2}, {}};
  sheet.labels.push_back(l);
  Instance conn;
  conn.name = "PORT_PA";
  conn.symbol = {"connectors", "ipin", "symbol"};
  conn.placement = Transform(base::Orient::R0, Point{-4, 2} - Point{1, 0});
  conn.props.set("port", "PA");
  conn.props.set("dir", "input");
  sheet.instances.push_back(conn);
  sch.sheets.push_back(sheet);

  Netlist cd = extract_netlist(design, sch, composer_dialect(), diags);
  ASSERT_TRUE(cd.nets.count("PA"));
  EXPECT_TRUE(cd.nets.at("PA").is_port);
  EXPECT_EQ(cd.nets.at("PA").port_dir, PinDir::Input);
}

TEST_F(NetlistFixture, FloatingLabelAndUnknownSymbolDiagnostics) {
  Schematic sch;
  sch.cell = "top";
  Sheet sheet;
  sheet.number = 1;
  NetLabel l{"ghost", {50, 50}, {}};
  sheet.labels.push_back(l);
  Instance bad;
  bad.name = "X1";
  bad.symbol = {"nolib", "nocell", "nov"};
  sheet.instances.push_back(bad);
  sch.sheets.push_back(sheet);

  extract_netlist(design, sch, viewlogic_dialect(), diags);
  EXPECT_EQ(diags.count_code("floating-label"), 1u);
  EXPECT_EQ(diags.count_code("unknown-symbol"), 1u);
}

// ------------------------------------------------------------- comparator

TEST(NetlistCompare, DetectsEachDiffKind) {
  Netlist golden, subject;
  golden.cell = subject.cell = "top";

  ExtractedNet a;
  a.canonical = "a";
  a.named = true;
  a.connections = {{"U1", "Y"}, {"U2", "A"}};
  golden.nets["a"] = a;

  // subject: missing "a", has "b" extra, and "c" differs in connections.
  ExtractedNet b = a;
  b.canonical = "b";
  subject.nets["b"] = b;

  ExtractedNet c1 = a, c2 = a;
  c1.canonical = c2.canonical = "c";
  c2.connections = {{"U1", "Y"}};
  golden.nets["c"] = c1;
  subject.nets["c"] = c2;

  auto diffs = compare_netlists(golden, subject);
  ASSERT_EQ(diffs.size(), 3u);
  std::multiset<NetlistDiff::Kind> kinds;
  for (const auto& d : diffs) kinds.insert(d.kind);
  EXPECT_TRUE(kinds.count(NetlistDiff::Kind::MissingNet));
  EXPECT_TRUE(kinds.count(NetlistDiff::Kind::ExtraNet));
  EXPECT_TRUE(kinds.count(NetlistDiff::Kind::ConnectionChange));
}

TEST(NetlistCompare, AnonymousNetsMatchBySignature) {
  Netlist golden, subject;
  ExtractedNet g;
  g.canonical = "$anon0";
  g.named = false;
  g.connections = {{"U1", "Y"}, {"U2", "A"}};
  golden.nets["$anon0"] = g;
  ExtractedNet s = g;
  s.canonical = "$anon99";  // different auto-name, same connections
  subject.nets["$anon99"] = s;
  EXPECT_TRUE(compare_netlists(golden, subject).empty());
}

TEST(NetlistCompare, AnonymousTieGoesToTheGreatestName) {
  // Two anonymous subject nets with the same pins: the golden net matches
  // the one whose name sorts last, and the other is extra.
  Netlist golden, subject;
  ExtractedNet g;
  g.canonical = "$anon0";
  g.connections = {{"U1", "Y"}, {"U2", "A"}};
  golden.nets["$anon0"] = g;
  for (const char* name : {"$anon1", "$anon2"}) {
    ExtractedNet s = g;
    s.canonical = name;
    subject.nets[name] = s;
  }
  auto diffs = compare_netlists(golden, subject);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].kind, NetlistDiff::Kind::ExtraNet);
  EXPECT_EQ(diffs[0].net, "$anon1");
}

TEST(NetlistCompare, PortAndGlobalChanges) {
  Netlist golden, subject;
  ExtractedNet g;
  g.canonical = "p";
  g.named = true;
  g.is_port = true;
  g.port_dir = PinDir::Input;
  g.global = false;
  g.connections = {{"U1", "A"}};
  golden.nets["p"] = g;
  ExtractedNet s = g;
  s.is_port = false;
  s.global = true;
  subject.nets["p"] = s;
  auto diffs = compare_netlists(golden, subject);
  ASSERT_EQ(diffs.size(), 2u);
}

TEST(NetlistCompare, DirectionOnlyPortChangeNamesBothDirections) {
  Netlist golden, subject;
  ExtractedNet g;
  g.canonical = "p";
  g.named = true;
  g.is_port = true;
  g.port_dir = PinDir::Input;
  g.connections = {{"U1", "A"}};
  golden.nets["p"] = g;
  ExtractedNet s = g;
  s.port_dir = PinDir::Output;
  subject.nets["p"] = s;
  auto diffs = compare_netlists(golden, subject);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].kind, NetlistDiff::Kind::PortChange);
  EXPECT_EQ(diffs[0].net, "p");
  EXPECT_EQ(diffs[0].detail,
            "golden port=1 dir=input subject port=1 dir=output");
}

TEST(NetlistCompare, IgnoresDanglingSingletons) {
  Netlist golden, subject;
  ExtractedNet g;
  g.canonical = "$anon0";
  g.named = false;
  g.connections = {{"U1", "A"}};  // single dangling pin
  golden.nets["$anon0"] = g;
  EXPECT_TRUE(compare_netlists(golden, subject).empty());
}

}  // namespace
}  // namespace interop::sch
