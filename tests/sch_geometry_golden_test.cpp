// Differential goldens for the schematic geometry: symbol replacement with
// rip-up / reroute, connector placement, and netlist extraction.
//
// Every case runs the Migrate request's schematic path (migrate → extract
// both netlists → verify → write) and digests what it observes: the
// migrated design text, both extracted netlists, every MigrationReport /
// RipupStats counter, and the diagnostic sequence. The goldens below were
// captured from the linear-scan geometry (parent of the sheet-index change)
// on generator seeds 1-5 at four sizes under both rip-up policies, plus
// every schematic entry of tests/corpus/. A mismatch prints the actual row
// in the table's own syntax.
//
// The sweep (GOLDEN_SEED_RANGE=lo:hi, ctest label `sweep`) has no goldens
// to lean on; it checks the indexed geometry against a linear-scan oracle
// kept below: the rip-up / reroute sequence of every sheet, connector
// junctions, and every point query extraction makes, on generator designs
// and on random sheets with wiring the generator never draws.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "base/rng.hpp"
#include "fuzz/corpus.hpp"
#include "runtime/hash.hpp"
#include "schematic/generator.hpp"
#include "schematic/migrate.hpp"
#include "schematic/netlist.hpp"
#include "schematic/sheet_index.hpp"
#include "schematic/textio.hpp"

namespace interop::sch {
namespace {

using runtime::fnv1a;

/// The Netlist endpoint's body lines ("net NAME pins=N port=P global=G"),
/// each followed by the net's connection signature.
std::string netlist_text(const Netlist& netlist) {
  std::string out;
  for (const auto& [name, net] : netlist.nets) {
    out += "net " + name + " pins=" + std::to_string(net.connections.size()) +
           " port=" + std::to_string(net.is_port ? 1 : 0) +
           " global=" + std::to_string(net.global ? 1 : 0) + "\n";
    out += "  " + Netlist::signature(net) + "\n";
  }
  return out;
}

std::string report_text(const MigrationReport& r) {
  const RipupStats& s = r.ripup;
  const PropertyApplyStats& p = r.props;
  std::string out;
  for (std::int64_t v :
       {std::int64_t(r.sheets), std::int64_t(r.points_rescaled),
        std::int64_t(r.points_snapped), std::int64_t(s.instances_replaced),
        std::int64_t(s.segments_ripped), std::int64_t(s.segments_rerouted),
        std::int64_t(s.fullnet_would_rip), s.reroute_length,
        s.next_rebuild_lane, std::int64_t(p.added), std::int64_t(p.deleted),
        std::int64_t(p.renamed), std::int64_t(p.changed),
        std::int64_t(p.callbacks_run), std::int64_t(r.labels_translated),
        std::int64_t(r.hier_connectors_added),
        std::int64_t(r.offpage_connectors_added),
        std::int64_t(r.globals_replaced), std::int64_t(r.texts_adjusted)})
    out += std::to_string(v) + ",";
  return out;
}

std::string diag_text(const base::DiagnosticEngine& diags) {
  std::string out;
  for (const base::Diagnostic& d : diags.all())
    out += std::to_string(int(d.severity)) + "|" + d.code + "|" +
           d.location.subsystem + "|" + d.location.object + "|" + d.message +
           "\n";
  return out;
}

struct Observed {
  std::uint64_t design = 0;
  std::uint64_t source_netlist = 0;
  std::uint64_t migrated_netlist = 0;
  std::uint64_t report = 0;
  std::uint64_t diags = 0;
  std::size_t diffs = 0;
  std::size_t fullnet_would_rip = 0;
  std::size_t segments_ripped = 0;
  std::int64_t reroute_length = 0;
  std::int64_t next_rebuild_lane = 0;
};

Observed observe(const Scenario& scenario, RipupPolicy policy) {
  MigrationConfig config = scenario.config;
  config.ripup_policy = policy;
  base::DiagnosticEngine diags;
  MigrationResult result = migrate_design(scenario.source, config, diags);

  std::string source_nets, migrated_nets;
  for (const auto& [cell, sch] : scenario.source.schematics()) {
    source_nets += netlist_text(
        extract_netlist(scenario.source, sch, config.source, diags));
    if (const Schematic* dst = result.design.find_schematic(cell))
      migrated_nets += netlist_text(
          extract_netlist(result.design, *dst, config.target, diags));
  }
  std::vector<NetlistDiff> diffs =
      verify_migration(scenario.source, result.design, config, diags);

  Observed o;
  o.design = fnv1a(write_design(result.design));
  o.source_netlist = fnv1a(source_nets);
  o.migrated_netlist = fnv1a(migrated_nets);
  o.report = fnv1a(report_text(result.report));
  o.diags = fnv1a(diag_text(diags));
  o.diffs = diffs.size();
  o.fullnet_would_rip = result.report.ripup.fullnet_would_rip;
  o.segments_ripped = result.report.ripup.segments_ripped;
  o.reroute_length = result.report.ripup.reroute_length;
  o.next_rebuild_lane = result.report.ripup.next_rebuild_lane;
  return o;
}

struct Golden {
  const char* name;  ///< "s<seed>c<components>/<policy>" or corpus stem
  std::uint64_t design;
  std::uint64_t source_netlist;
  std::uint64_t migrated_netlist;
  std::uint64_t report;
  std::uint64_t diags;
  std::size_t diffs;
  std::size_t fullnet_would_rip;
  std::size_t segments_ripped;
  std::int64_t reroute_length;
  std::int64_t next_rebuild_lane;
};

// clang-format off
constexpr Golden kGoldens[] = {
    {"condensed-busref/minimal", 0x96249e00efcdbd46ULL, 0x35e9616377617b84ULL, 0xfe12bf6ff40bd122ULL, 0x9e0786d5b66ce384ULL, 0x552dabc78ebfce3fULL, 0, 364, 52, 78, -1001},
    {"condensed-busref/fullnet", 0xf0a7c99ce6c59ac9ULL, 0x35e9616377617b84ULL, 0xfe12bf6ff40bd122ULL, 0x0b24d5dfec84451aULL, 0x9fda1d77c0218f3fULL, 0, 327, 327, 235656, -1205},
    {"s1c12/minimal", 0x4d3c9f9eb520869dULL, 0xbcc5bee28694542bULL, 0x9df68fe7006df63aULL, 0x0cc9a6a7ee6e7867ULL, 0x18cfdb1aed784cb6ULL, 0, 380, 60, 83, -1001},
    {"s1c12/fullnet", 0x3018717b086b024aULL, 0xbcc5bee28694542bULL, 0x9df68fe7006df63aULL, 0xc48f238dac598e4eULL, 0x18cfdb1aed784cb6ULL, 0, 343, 343, 252332, -1217},
    {"s2c12/minimal", 0x6703b56fdaaa25ccULL, 0x1ce9796b41ffe377ULL, 0xa310f5bfd40ce3f0ULL, 0x6cc41974bff55a53ULL, 0xd521b1726fb3801aULL, 0, 370, 60, 87, -1001},
    {"s2c12/fullnet", 0xb51c643a6a6ce983ULL, 0x1ce9796b41ffe377ULL, 0xa310f5bfd40ce3f0ULL, 0x86b96fbfc69371c6ULL, 0x25af3d8ce182780eULL, 0, 335, 335, 247238, -1213},
    {"s3c12/minimal", 0x87d6e4191ebb05b5ULL, 0xd08a3c8d4c05251bULL, 0xdc475af74071ab47ULL, 0xe944438cce26c59dULL, 0x0992c3ba50865feeULL, 0, 378, 60, 89, -1001},
    {"s3c12/fullnet", 0xa0f8592040d6c6cdULL, 0xd08a3c8d4c05251bULL, 0xdc475af74071ab47ULL, 0xbdbe7139e001630dULL, 0x0992c3ba50865feeULL, 0, 344, 344, 252536, -1217},
    {"s4c12/minimal", 0xcf78b560c961476eULL, 0x6e784be4142acf0eULL, 0xd5cedff5299d67f5ULL, 0xde86d418a3fdd101ULL, 0x219c1cd190830392ULL, 0, 411, 60, 91, -1001},
    {"s4c12/fullnet", 0x0ea00251af98efbaULL, 0x6e784be4142acf0eULL, 0xd5cedff5299d67f5ULL, 0x8c26ac7317b8fc92ULL, 0x1eb66adec0c7c254ULL, 0, 366, 366, 272465, -1233},
    {"s5c12/minimal", 0x0bc9ff07a3be6646ULL, 0xc83f10b6ee76530dULL, 0x416ed4cb339619c9ULL, 0xd43e8cc373f0e2bdULL, 0xca6a172e917d5baeULL, 0, 394, 60, 89, -1001},
    {"s5c12/fullnet", 0x7119a8890120ca62ULL, 0xc83f10b6ee76530dULL, 0x416ed4cb339619c9ULL, 0xf4b2454ccccfc442ULL, 0xca6a172e917d5baeULL, 0, 356, 356, 262203, -1225},
    {"s1c100/minimal", 0xd1510c7449616d63ULL, 0xfa9e0d37d183b405ULL, 0x4b6158b2635ade60ULL, 0x973d8f9648c10f2aULL, 0x220136c9bbab4de2ULL, 0, 2072, 292, 416, -1001},
    {"s1c100/fullnet", 0xcae3ef11d6b189b7ULL, 0xfa9e0d37d183b405ULL, 0x4b6158b2635ade60ULL, 0xc4750e8cd70ffa71ULL, 0x821798046b7656ceULL, 0, 1861, 1861, 2217733, -2157},
    {"s2c100/minimal", 0xe52e1c960ca39ee3ULL, 0x949ba372c825ba64ULL, 0xe119f48f21c12519ULL, 0xffea4a250344645eULL, 0x605e8164ae96acaeULL, 0, 2082, 292, 420, -1001},
    {"s2c100/fullnet", 0x4cb1a1dcf224750bULL, 0x949ba372c825ba64ULL, 0xe119f48f21c12519ULL, 0x8ef6fe542628fbbfULL, 0x846295d600398764ULL, 0, 1873, 1873, 2224074, -2161},
    {"s3c100/minimal", 0x5cb6a60e23270a0fULL, 0x5cb74a2c4aeadecdULL, 0xfb6ebd8168a3c507ULL, 0x4333c0814c7667f8ULL, 0x25f28ead4f669896ULL, 0, 2081, 292, 423, -1001},
    {"s3c100/fullnet", 0xdc5a5d9c252a6a76ULL, 0x5cb74a2c4aeadecdULL, 0xfb6ebd8168a3c507ULL, 0x61e573c722d40a75ULL, 0x233107f4ce96a0fcULL, 0, 1868, 1868, 2222729, -2161},
    {"s4c100/minimal", 0xd2cd33ae342c6c44ULL, 0xaed7cddcc1230430ULL, 0xaba2050a3eb08651ULL, 0x620879b8a1730f23ULL, 0x708467e74ecb2dd2ULL, 0, 2071, 292, 427, -1001},
    {"s4c100/fullnet", 0x805361fd1d94d5b7ULL, 0xaed7cddcc1230430ULL, 0xaba2050a3eb08651ULL, 0xb10c4ae8129871f9ULL, 0x9c1c6d3121788f96ULL, 0, 1860, 1860, 2204664, -2153},
    {"s5c100/minimal", 0x2e6251ff096b1a40ULL, 0xcb59c84e3fd860baULL, 0x90bf18d8d6aab57dULL, 0x49285b5e5c3d5c6cULL, 0x6a9d79449199693eULL, 0, 2079, 292, 421, -1001},
    {"s5c100/fullnet", 0x7c97613f31132088ULL, 0xcb59c84e3fd860baULL, 0x90bf18d8d6aab57dULL, 0x9ea4eb5643189b1aULL, 0xd815925dcb636f16ULL, 0, 1871, 1871, 2225760, -2161},
    {"s1c400/minimal", 0x4be3dc5a4ae23199ULL, 0x2a68b63f9f4a31d5ULL, 0xe33e0143c75efcbcULL, 0x981bb15b97caf94bULL, 0xf12ea1375da564a2ULL, 0, 7855, 1092, 1570, -1001},
    {"s1c400/fullnet", 0xe780e7ef402e4f80ULL, 0x2a68b63f9f4a31d5ULL, 0xe33e0143c75efcbcULL, 0xf10856fe76a33e00ULL, 0xd69c1bf22f412cbcULL, 0, 7035, 7035, 19578229, -5357},
    {"s2c400/minimal", 0xa7f7348e6389ad9cULL, 0x17c50f070a6e7937ULL, 0xfdc8ab7f719cef41ULL, 0x47e2dc3fb3c64ae3ULL, 0xc2a23940afe412c6ULL, 0, 7858, 1092, 1566, -1001},
    {"s2c400/fullnet", 0xac594adc23206eccULL, 0x17c50f070a6e7937ULL, 0xfdc8ab7f719cef41ULL, 0x31dc42ae1b56cc31ULL, 0x639415948c8cfb36ULL, 0, 7049, 7049, 19566735, -5361},
    {"s3c400/minimal", 0xfe9e5480cdd16f82ULL, 0x0da17f48e583269cULL, 0xb2380d4d25f52ab1ULL, 0x6c413f4331be5894ULL, 0x07bb4b59c9ec97c2ULL, 0, 7853, 1092, 1581, -1001},
    {"s3c400/fullnet", 0x996174b6b4011092ULL, 0x0da17f48e583269cULL, 0xb2380d4d25f52ab1ULL, 0x935b0926b4c5efbdULL, 0x26cf13c53eeddc26ULL, 0, 7044, 7044, 19571417, -5357},
    {"s4c400/minimal", 0xeddd294ab699653eULL, 0xd5e235234dc59847ULL, 0xb6ba2a5480c0de71ULL, 0xe117d9b98ba9e8d6ULL, 0x7deae36daf379510ULL, 0, 7877, 1092, 1598, -1001},
    {"s4c400/fullnet", 0xda196c64f6de41b6ULL, 0xd5e235234dc59847ULL, 0xb6ba2a5480c0de71ULL, 0x309d6f31e9d679abULL, 0xb2220872045eb24aULL, 0, 7041, 7041, 19568844, -5357},
    {"s5c400/minimal", 0x3f135ae946e19147ULL, 0xefb69b136e223b96ULL, 0x2d3931e10e69f42bULL, 0x1c90d2c53868b213ULL, 0x35fb31728d5b9462ULL, 0, 7870, 1092, 1576, -1001},
    {"s5c400/fullnet", 0xd6201d04192772dcULL, 0xefb69b136e223b96ULL, 0x2d3931e10e69f42bULL, 0x152cc88393f473c3ULL, 0xc99dd395549042baULL, 0, 7044, 7044, 19589826, -5361},
    {"s1c1600/minimal", 0xf6c114af20b864d1ULL, 0x58edb3641b3ec357ULL, 0xbde36b8e1ac57251ULL, 0x3d23669b0d0000a0ULL, 0x0d7e6e7be3d923f6ULL, 0, 30975, 4292, 6219, -1001},
    {"s1c1600/fullnet", 0x0d6e13d8e96ff2feULL, 0x58edb3641b3ec357ULL, 0xbde36b8e1ac57251ULL, 0xa10d64a5bba0e8e5ULL, 0x56f29af9260de540ULL, 0, 27770, 27770, 253805038, -18161},
    {"s2c1600/minimal", 0xa6b594f89760ac43ULL, 0x2842fcfec5a39a62ULL, 0x9f7bae7b3a61b7e8ULL, 0x7a12947f14412f4dULL, 0x1558aca4934466c4ULL, 0, 30958, 4292, 6200, -1001},
    {"s2c1600/fullnet", 0x504c09d3bac491beULL, 0x2842fcfec5a39a62ULL, 0x9f7bae7b3a61b7e8ULL, 0x646b1511b240f92fULL, 0xb01c1d4800868a96ULL, 0, 27752, 27752, 253834891, -18157},
    {"s3c1600/minimal", 0x616064ee05bdbfe5ULL, 0x3603b4156511a5beULL, 0x2580a8fddbd4180eULL, 0xb92144113daa5463ULL, 0x62c1b29371da57beULL, 0, 30949, 4292, 6176, -1001},
    {"s3c1600/fullnet", 0xa63f4a05ee91d6b8ULL, 0x3603b4156511a5beULL, 0x2580a8fddbd4180eULL, 0x6cf78c0ba17be63eULL, 0x68deff05a6e09248ULL, 0, 27748, 27748, 253921421, -18161},
    {"s4c1600/minimal", 0x5804b9f5776182e9ULL, 0x46a17b111cc39d23ULL, 0x30edfbfb7de3e2f8ULL, 0x80e798080291280fULL, 0xa94f766139d8e1eeULL, 0, 30990, 4292, 6215, -1001},
    {"s4c1600/fullnet", 0x1a5b2bbc584b1b45ULL, 0x46a17b111cc39d23ULL, 0x30edfbfb7de3e2f8ULL, 0x8de97d66cbf4d998ULL, 0x2010b11b44d31e0aULL, 0, 27770, 27770, 253859647, -18157},
    {"s5c1600/minimal", 0xd05b0152dc934e8eULL, 0x82daa2b316c03a83ULL, 0xfc02f7c135ca49c6ULL, 0x3fea38673f10b0c7ULL, 0xb75911ac245bcbeeULL, 0, 30944, 4292, 6189, -1001},
    {"s5c1600/fullnet", 0xaf4d4dfa9428ff55ULL, 0x82daa2b316c03a83ULL, 0xfc02f7c135ca49c6ULL, 0xc5e91d96cdab8f16ULL, 0xc95c64bb86cc0a3aULL, 0, 27766, 27766, 253945030, -18161},
};
// clang-format on

const Golden* find_golden(const std::string& name) {
  for (const Golden& g : kGoldens)
    if (name == g.name) return &g;
  return nullptr;
}

std::string row(const std::string& name, const Observed& o) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, %zu, %zu, %zu, %" PRId64 ", %" PRId64 "},",
                name.c_str(), o.design, o.source_netlist, o.migrated_netlist,
                o.report, o.diags, o.diffs, o.fullnet_would_rip,
                o.segments_ripped, o.reroute_length, o.next_rebuild_lane);
  return buf;
}

void expect_golden(const std::string& name, const Observed& o) {
  const Golden* g = find_golden(name);
  ASSERT_NE(g, nullptr) << "no golden for " << name << "; actual:\n"
                        << row(name, o);
  EXPECT_EQ(o.design, g->design) << name;
  EXPECT_EQ(o.source_netlist, g->source_netlist) << name;
  EXPECT_EQ(o.migrated_netlist, g->migrated_netlist) << name;
  EXPECT_EQ(o.report, g->report) << name;
  EXPECT_EQ(o.diags, g->diags) << name;
  EXPECT_EQ(o.diffs, g->diffs) << name;
  EXPECT_EQ(o.fullnet_would_rip, g->fullnet_would_rip) << name;
  EXPECT_EQ(o.segments_ripped, g->segments_ripped) << name;
  EXPECT_EQ(o.reroute_length, g->reroute_length) << name;
  EXPECT_EQ(o.next_rebuild_lane, g->next_rebuild_lane) << name;
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "actual:\n" << row(name, o);
}

const char* policy_name(RipupPolicy p) {
  return p == RipupPolicy::Minimal ? "minimal" : "fullnet";
}

/// Generator options of a reproducer's schematic leg.
GeneratorOptions corpus_case(const fuzz::FuzzSpec& spec) {
  GeneratorOptions opt;
  opt.seed = spec.seed;
  opt.sheets = spec.sheets;
  opt.components_per_sheet = spec.components_per_sheet;
  opt.nets_per_sheet = spec.nets_per_sheet;
  opt.buses = spec.buses;
  opt.bus_width = spec.bus_width;
  opt.condensed_refs = spec.condensed_refs;
  opt.postfix_nets = spec.postfix_nets;
  opt.cross_page_nets = spec.cross_page_nets;
  opt.global_taps = spec.global_taps;
  opt.ports = spec.ports;
  opt.analog_fraction = spec.analog_pct / 100.0;
  return opt;
}

/// Generator size axis: components per sheet, with two-pin nets at two
/// thirds of that (the migrate_large / tapeout proportions).
GeneratorOptions generator_case(std::uint64_t seed, int components) {
  GeneratorOptions opt;
  opt.seed = seed;
  opt.components_per_sheet = components;
  opt.nets_per_sheet = components * 2 / 3;
  return opt;
}

class SchGeometryGolden : public ::testing::TestWithParam<int> {};

TEST_P(SchGeometryGolden, GeneratorSeedsMatch) {
  const int components = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Scenario scenario = make_exar_scenario(generator_case(seed, components));
    for (RipupPolicy policy : {RipupPolicy::Minimal, RipupPolicy::FullNet}) {
      std::string name = "s" + std::to_string(seed) + "c" +
                         std::to_string(components) + "/" +
                         policy_name(policy);
      expect_golden(name, observe(scenario, policy));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SchGeometryGolden,
                         ::testing::Values(12, 100, 400, 1600));

TEST(SchGeometryGoldenCorpus, SchematicEntriesMatch) {
  std::size_t replayed = 0;
  for (const std::string& path : fuzz::list_reproducers(INTEROP_CORPUS_DIR)) {
    fuzz::Reproducer repro = fuzz::load_reproducer(path);
    if (!repro.spec.sch) continue;
    Scenario scenario = make_exar_scenario(corpus_case(repro.spec));
    for (RipupPolicy policy : {RipupPolicy::Minimal, RipupPolicy::FullNet})
      expect_golden(repro.name + "/" + policy_name(policy),
                    observe(scenario, policy));
    ++replayed;
  }
  EXPECT_GE(replayed, 1u) << "corpus had no schematic entries";
}

// ------------------------------------------------------------------ oracle
//
// The linear-scan geometry the index replaced: every query scans every
// wire, rip-up floods nets by pairwise comparison and erases wires one at
// a time.

std::vector<std::size_t> scan_ending_at(const Sheet& sheet, const Point& p) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sheet.wires.size(); ++i)
    if (sheet.wires[i].a == p || sheet.wires[i].b == p) out.push_back(i);
  return out;
}

std::vector<std::size_t> scan_containing(const Sheet& sheet, const Point& p) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sheet.wires.size(); ++i)
    if (sheet.wires[i].contains(p)) out.push_back(i);
  return out;
}

bool scan_junction(const Sheet& sheet, const Point& p) {
  return std::find(sheet.junctions.begin(), sheet.junctions.end(), p) !=
         sheet.junctions.end();
}

std::set<std::size_t> scan_flood(const Sheet& sheet,
                                 const std::set<std::size_t>& seeds) {
  std::set<std::size_t> seen = seeds;
  std::vector<std::size_t> work(seeds.begin(), seeds.end());
  auto joined = [&sheet](const Segment& a, const Segment& b) {
    if (a.a == b.a || a.a == b.b || a.b == b.a || a.b == b.b) return true;
    for (const Point& j : sheet.junctions)
      if (a.contains(j) && b.contains(j)) return true;
    return false;
  };
  while (!work.empty()) {
    std::size_t cur = work.back();
    work.pop_back();
    for (std::size_t i = 0; i < sheet.wires.size(); ++i) {
      if (seen.count(i) || !joined(sheet.wires[cur], sheet.wires[i])) continue;
      seen.insert(i);
      work.push_back(i);
    }
  }
  return seen;
}

void scan_route_l(Sheet& sheet, const Point& from, const Point& to,
                  const Rect& avoid, RipupStats& stats) {
  if (from == to) return;
  if (from.x == to.x || from.y == to.y) {
    sheet.wires.push_back({from, to});
    ++stats.segments_rerouted;
    stats.reroute_length += base::manhattan(from, to);
    return;
  }
  Point corner1{to.x, from.y};
  Point corner2{from.x, to.y};
  Point corner = avoid.contains(corner1) && !avoid.contains(corner2)
                     ? corner2
                     : corner1;
  sheet.wires.push_back({from, corner});
  sheet.wires.push_back({corner, to});
  stats.segments_rerouted += 2;
  stats.reroute_length +=
      base::manhattan(from, corner) + base::manhattan(corner, to);
}

void scan_replace(Sheet& sheet, const std::string& inst_name,
                  const SymbolMapEntry& entry, const SymbolDef& from_def,
                  const SymbolDef& to_def, RipupPolicy policy,
                  RipupStats& stats, base::DiagnosticEngine& diags) {
  auto idx = sheet.find_instance(inst_name);
  ASSERT_TRUE(idx.has_value()) << inst_name;
  Instance& inst = sheet.instances[*idx];
  struct PinWork {
    std::string from_pin, to_pin;
    Point old_pos;
    std::vector<std::size_t> ripped;
    std::vector<Point> stubs;
  };
  std::vector<PinWork> work;
  std::set<std::size_t> seeds;
  for (const SymbolPin& pin : from_def.pins) {
    PinWork w{pin.name, SymbolMap::map_pin(entry, pin.name),
              inst.placement.apply(pin.pos), {}, {}};
    w.ripped = scan_ending_at(sheet, w.old_pos);
    for (std::size_t i : w.ripped) {
      const Segment& s = sheet.wires[i];
      w.stubs.push_back(s.a == w.old_pos ? s.b : s.a);
      seeds.insert(i);
    }
    work.push_back(std::move(w));
  }
  std::set<std::size_t> full = scan_flood(sheet, seeds);
  stats.fullnet_would_rip += full.size();
  const std::set<std::size_t>& to_rip =
      policy == RipupPolicy::Minimal ? seeds : full;
  stats.segments_ripped += to_rip.size();

  struct NetRebuild {
    std::string to_pin;
    std::vector<std::string> other_pins;
    std::vector<Point> anchors;
  };
  std::vector<NetRebuild> rebuilds;
  if (policy == RipupPolicy::FullNet) {
    std::set<Point> old_pins;
    for (const PinWork& w : work) old_pins.insert(w.old_pos);
    std::set<std::size_t> assigned;
    for (const PinWork& w : work) {
      if (w.ripped.empty()) continue;
      std::set<std::size_t> group =
          scan_flood(sheet, {w.ripped.begin(), w.ripped.end()});
      bool fresh = true;
      for (std::size_t i : group)
        if (assigned.count(i)) fresh = false;
      if (!fresh) continue;
      assigned.insert(group.begin(), group.end());
      NetRebuild rb{w.to_pin, {}, {}};
      std::map<Point, int> uses;
      for (std::size_t i : group) {
        ++uses[sheet.wires[i].a];
        ++uses[sheet.wires[i].b];
      }
      for (const PinWork& ww : work)
        if (&ww != &w && !ww.ripped.empty() && uses.count(ww.old_pos))
          rb.other_pins.push_back(ww.to_pin);
      for (const auto& [pt, count] : uses)
        if (!old_pins.count(pt) && count == 1) rb.anchors.push_back(pt);
      for (const NetLabel& label : sheet.labels) {
        bool on_group = false;
        for (std::size_t i : group)
          if (sheet.wires[i].contains(label.at)) on_group = true;
        if (on_group && !old_pins.count(label.at))
          rb.anchors.push_back(label.at);
      }
      std::sort(rb.anchors.begin(), rb.anchors.end());
      rb.anchors.erase(std::unique(rb.anchors.begin(), rb.anchors.end()),
                       rb.anchors.end());
      rebuilds.push_back(std::move(rb));
    }
  }

  for (auto it = to_rip.rbegin(); it != to_rip.rend(); ++it)
    sheet.wires.erase(sheet.wires.begin() + std::ptrdiff_t(*it));

  inst.symbol = entry.to;
  inst.placement =
      Transform(entry.rotation, entry.origin_offset) * inst.placement;
  Rect body = inst.placement.apply(to_def.body);

  if (policy == RipupPolicy::FullNet) {
    for (const NetRebuild& rb : rebuilds) {
      const SymbolPin* new_pin = to_def.find_pin(rb.to_pin);
      if (!new_pin) {
        diags.error("pin-map-missing", "", {"sch.replace", inst.name});
        continue;
      }
      Point cur = inst.placement.apply(new_pin->pos);
      std::vector<Point> chain = rb.anchors;
      for (const std::string& other : rb.other_pins)
        if (const SymbolPin* p = to_def.find_pin(other))
          chain.push_back(inst.placement.apply(p->pos));
      for (const Point& anchor : chain) {
        if (cur == anchor) continue;
        std::int64_t lane = stats.next_rebuild_lane;
        stats.next_rebuild_lane -= 2;
        Point down_a{cur.x, lane};
        Point down_b{anchor.x, lane};
        std::vector<Segment> hops{{cur, down_a}};
        if (down_a != down_b) hops.push_back({down_a, down_b});
        hops.push_back({down_b, anchor});
        for (const Segment& hop : hops) {
          sheet.wires.push_back(hop);
          ++stats.segments_rerouted;
          stats.reroute_length += base::manhattan(hop.a, hop.b);
        }
        cur = anchor;
      }
    }
    ++stats.instances_replaced;
    return;
  }
  for (const PinWork& w : work) {
    const SymbolPin* new_pin = to_def.find_pin(w.to_pin);
    if (!new_pin) {
      if (!w.stubs.empty())
        diags.error("pin-map-missing", "", {"sch.replace", inst.name});
      continue;
    }
    Point new_pos = inst.placement.apply(new_pin->pos);
    for (const Point& stub : w.stubs)
      scan_route_l(sheet, stub, new_pos, body, stats);
    if (w.stubs.size() > 1) sheet.junctions.push_back(new_pos);
  }
  ++stats.instances_replaced;
}

void expect_same_stats(const RipupStats& a, const RipupStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.instances_replaced, b.instances_replaced) << what;
  EXPECT_EQ(a.segments_ripped, b.segments_ripped) << what;
  EXPECT_EQ(a.segments_rerouted, b.segments_rerouted) << what;
  EXPECT_EQ(a.fullnet_would_rip, b.fullnet_would_rip) << what;
  EXPECT_EQ(a.reroute_length, b.reroute_length) << what;
  EXPECT_EQ(a.next_rebuild_lane, b.next_rebuild_lane) << what;
}

std::vector<std::string> diag_codes(const base::DiagnosticEngine& diags) {
  std::vector<std::string> out;
  for (const base::Diagnostic& d : diags.all())
    out.push_back(d.code + "@" + d.location.object);
  return out;
}

/// Every point query extraction makes on `sheet` (wire ends, junctions,
/// pins, label anchors) answers like the scans.
void expect_queries_match(const Design& design, const Sheet& sheet,
                          const std::string& what) {
  SheetIndex index(sheet);
  std::vector<Point> probes;
  for (const Segment& w : sheet.wires) {
    probes.push_back(w.a);
    probes.push_back(w.b);
  }
  probes.insert(probes.end(), sheet.junctions.begin(), sheet.junctions.end());
  for (const NetLabel& l : sheet.labels) probes.push_back(l.at);
  for (const Instance& inst : sheet.instances)
    if (const SymbolDef* def = design.find_symbol(inst.symbol))
      for (const SymbolPin& pin : def->pins)
        probes.push_back(inst.placement.apply(pin.pos));
  for (const Point& p : probes) {
    ASSERT_EQ(index.ending_at(p), scan_ending_at(sheet, p)) << what << p;
    ASSERT_EQ(index.containing(p), scan_containing(sheet, p)) << what << p;
    ASSERT_EQ(index.has_junction(p), scan_junction(sheet, p)) << what << p;
  }
}

/// Indexed vs linear-scan geometry on one scenario under `policy`.
void expect_oracle_agrees(const Scenario& scenario, RipupPolicy policy,
                          const std::string& what) {
  MigrationConfig config = scenario.config;
  config.ripup_policy = policy;
  base::DiagnosticEngine diags;
  MigrationResult result = migrate_design(scenario.source, config, diags);

  // Lanes and counters run on across sheets, as in migrate_design.
  RipupStats scanned_stats, indexed_stats;
  for (const auto& [cell, src] : scenario.source.schematics()) {
    const Schematic* dst = result.design.find_schematic(cell);
    ASSERT_NE(dst, nullptr) << what;
    ASSERT_EQ(dst->sheets.size(), src.sheets.size()) << what;
    for (std::size_t s = 0; s < src.sheets.size(); ++s) {
      const std::string where = what + " sheet " + std::to_string(s);
      // Rip-up: the scanning replacement sequence vs the indexed one (the
      // generator's grid is kept, so step 1 scaling is the identity).
      Sheet scanned = src.sheets[s];
      Sheet indexed = src.sheets[s];
      SheetIndex index(indexed);
      base::DiagnosticEngine scanned_diags, indexed_diags;
      std::vector<std::pair<std::string, const SymbolMapEntry*>> todo;
      for (const Instance& inst : indexed.instances)
        if (const SymbolMapEntry* e = config.symbol_map.find(inst.symbol))
          todo.emplace_back(inst.name, e);
      for (const auto& [name, entry] : todo) {
        const SymbolDef* from = scenario.source.find_symbol(entry->from);
        const SymbolDef* to = result.design.find_symbol(entry->to);
        ASSERT_TRUE(from && to) << where;
        scan_replace(scanned, name, *entry, *from, *to, policy,
                     scanned_stats, scanned_diags);
        replace_component(indexed, index, *indexed.find_instance(name),
                          *entry, *from, *to, policy, indexed_stats,
                          indexed_diags);
      }
      index.store(indexed);
      ASSERT_EQ(indexed.wires, scanned.wires) << where;
      ASSERT_EQ(indexed.junctions, scanned.junctions) << where;
      expect_same_stats(indexed_stats, scanned_stats, where);
      EXPECT_EQ(diag_codes(indexed_diags), diag_codes(scanned_diags)) << where;

      // Connector placement: the migrated sheet is the ripped-up sheet
      // plus, per added connector in order, a dot wherever its pin lands
      // on a wire interior only.
      const Sheet& migrated = dst->sheets[s];
      ASSERT_EQ(migrated.wires, scanned.wires) << where;
      for (std::size_t i = scanned.instances.size();
           i < migrated.instances.size(); ++i) {
        const Instance& conn = migrated.instances[i];
        const SymbolDef* def = result.design.find_symbol(conn.symbol);
        ASSERT_TRUE(def && !def->pins.empty()) << where;
        Point at = conn.placement.apply(def->pins.front().pos);
        if (scan_ending_at(scanned, at).empty() &&
            !scan_containing(scanned, at).empty() &&
            !scan_junction(scanned, at))
          scanned.junctions.push_back(at);
      }
      EXPECT_EQ(migrated.junctions, scanned.junctions) << where;

      // Extraction's queries, on both sides of the migration.
      expect_queries_match(scenario.source, src.sheets[s], where + " src");
      expect_queries_match(result.design, migrated, where + " dst");
    }
  }
}

/// A small random sheet whose wiring the generator never draws: crossings,
/// tees with and without dots, overlapping, zero-length and diagonal wires,
/// and multi-wire pins. Every component's first pin sits on a wire end.
Sheet random_sheet(base::Rng& rng, const Design& library) {
  auto coord = [&rng] { return std::int64_t(rng.index(17)) - 8; };
  Sheet sheet;
  for (int i = 0; i < 40; ++i) {
    Point a{coord(), coord()};
    switch (rng.index(8)) {
      case 0: sheet.wires.push_back({a, a}); break;
      case 1: sheet.wires.push_back({a, {coord(), coord()}}); break;
      case 2: case 3: case 4: sheet.wires.push_back({a, {coord(), a.y}}); break;
      default: sheet.wires.push_back({a, {a.x, coord()}});
    }
  }
  for (int i = 0; i < 8; ++i) {
    const Segment& w = sheet.wires[rng.index(sheet.wires.size())];
    sheet.junctions.push_back(rng.chance(0.5) ? w.a : Point{coord(), coord()});
  }
  const char* kinds[] = {"vl_nand2", "vl_inv", "vl_res", "vl_cap"};
  for (int i = 0; i < 6; ++i) {
    Instance inst;
    inst.name = "U" + std::to_string(i);
    inst.symbol = {"vl_lib", kinds[rng.index(4)], "sym"};
    const SymbolDef* def = library.find_symbol(inst.symbol);
    const Segment& w = sheet.wires[rng.index(sheet.wires.size())];
    inst.placement = Transform(base::Orient::R0, w.b - def->pins.front().pos);
    sheet.instances.push_back(inst);
  }
  for (int i = 0; i < 6; ++i) {
    NetLabel label;
    label.text = "L" + std::to_string(i);
    const Segment& w = sheet.wires[rng.index(sheet.wires.size())];
    label.at = rng.chance(0.5) ? w.a : Point{coord(), coord()};
    sheet.labels.push_back(label);
  }
  return sheet;
}

/// Indexed vs linear-scan rip-up of every component of a random sheet.
void expect_random_ripup_agrees(std::uint64_t seed) {
  Design library(viewlogic_dialect().grid);
  add_source_library(library, "top", {});
  for (const SymbolDef& def : make_target_library()) library.add_symbol(def);
  const SymbolMap map = make_standard_symbol_map();
  base::Rng rng(seed);
  const Sheet sheet = random_sheet(rng, library);
  for (RipupPolicy policy : {RipupPolicy::Minimal, RipupPolicy::FullNet}) {
    const std::string what =
        "random sheet " + std::to_string(seed) + "/" + policy_name(policy);
    Sheet scanned = sheet, indexed = sheet;
    SheetIndex index(indexed);
    RipupStats scanned_stats, indexed_stats;
    base::DiagnosticEngine scanned_diags, indexed_diags;
    for (std::size_t i = 0; i < sheet.instances.size(); ++i) {
      const SymbolMapEntry& entry = *map.find(sheet.instances[i].symbol);
      const SymbolDef& from = *library.find_symbol(entry.from);
      const SymbolDef& to = *library.find_symbol(entry.to);
      scan_replace(scanned, sheet.instances[i].name, entry, from, to, policy,
                   scanned_stats, scanned_diags);
      replace_component(indexed, index, i, entry, from, to, policy,
                        indexed_stats, indexed_diags);
    }
    index.store(indexed);
    ASSERT_EQ(indexed.wires, scanned.wires) << what;
    ASSERT_EQ(indexed.junctions, scanned.junctions) << what;
    expect_same_stats(indexed_stats, scanned_stats, what);
    expect_queries_match(library, sheet, what + " before");
    expect_queries_match(library, indexed, what + " after");
  }
}

/// "lo:hi" from GOLDEN_SEED_RANGE; false (-> GTEST_SKIP) when unset, so the
/// sweep only runs from its `sweep`-labeled ctest entry (see
/// tests/CMakeLists.txt: INTEROP_SCH_SWEEP_RANGE).
bool golden_seed_range(std::uint64_t* lo, std::uint64_t* hi) {
  const char* v = std::getenv("GOLDEN_SEED_RANGE");
  if (!v || !*v) return false;
  return std::sscanf(v, "%" SCNu64 ":%" SCNu64, lo, hi) == 2 && *lo <= *hi;
}

TEST(SchGeometrySweep, IndexedGeometryMatchesLinearScanOracle) {
  std::uint64_t lo = 0, hi = 0;
  if (!golden_seed_range(&lo, &hi))
    GTEST_SKIP() << "set GOLDEN_SEED_RANGE=lo:hi to run the broad sweep";
  for (std::uint64_t seed = lo; seed <= hi; ++seed) {
    for (std::uint64_t k = 0; k < 16; ++k)
      expect_random_ripup_agrees(seed * 16 + k);
    for (int components : {12, 100}) {
      Scenario scenario = make_exar_scenario(generator_case(seed, components));
      for (RipupPolicy policy : {RipupPolicy::Minimal, RipupPolicy::FullNet})
        expect_oracle_agrees(scenario, policy,
                             "s" + std::to_string(seed) + "c" +
                                 std::to_string(components) + "/" +
                                 policy_name(policy));
    }
  }
}

// Random sheets reach what the generator never draws (dotted crossings,
// undotted tees, zero-length and diagonal wires); the sweep widens these.
TEST(SchGeometryOracle, RandomSheetRipupAgrees) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed)
    expect_random_ripup_agrees(seed);
}

// The oracle itself must stay honest: on the default seeds it reproduces
// the goldens' rip-up counters, so it is the geometry they were captured
// from.
TEST(SchGeometryGolden, OracleReproducesGoldenRipupCounters) {
  for (int components : {12, 100}) {
    Scenario scenario = make_exar_scenario(generator_case(1, components));
    for (RipupPolicy policy : {RipupPolicy::Minimal, RipupPolicy::FullNet}) {
      expect_oracle_agrees(scenario, policy, "oracle");
      RipupStats stats;
      base::DiagnosticEngine diags;
      for (const Sheet& source : scenario.source.schematics().at("top").sheets) {
        Sheet sheet = source;
        std::vector<std::pair<std::string, const SymbolMapEntry*>> todo;
        for (const Instance& inst : sheet.instances)
          if (const SymbolMapEntry* e =
                  scenario.config.symbol_map.find(inst.symbol))
            todo.emplace_back(inst.name, e);
        for (const auto& [name, entry] : todo) {
          const SymbolDef* from = scenario.source.find_symbol(entry->from);
          const SymbolDef* to = nullptr;
          for (const SymbolDef& def : scenario.config.target_symbols)
            if (def.key == entry->to) to = &def;
          ASSERT_TRUE(from && to);
          scan_replace(sheet, name, *entry, *from, *to, policy, stats, diags);
        }
      }
      std::string name = "s1c" + std::to_string(components) + "/" +
                         policy_name(policy);
      const Golden* g = find_golden(name);
      ASSERT_NE(g, nullptr) << name;
      EXPECT_EQ(stats.fullnet_would_rip, g->fullnet_would_rip) << name;
      EXPECT_EQ(stats.segments_ripped, g->segments_ripped) << name;
      EXPECT_EQ(stats.reroute_length, g->reroute_length) << name;
      EXPECT_EQ(stats.next_rebuild_lane, g->next_rebuild_lane) << name;
    }
  }
}

}  // namespace
}  // namespace interop::sch
