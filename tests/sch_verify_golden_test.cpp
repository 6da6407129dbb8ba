// Differential goldens for independent verification (`verify_migration`).
//
// Every case migrates a generator design, optionally breaks the migrated
// design or the verify configuration, and digests what verify reports: the
// NetlistDiff list (kind, net, detail, in order) and the diagnostic
// sequence verify itself emits. The goldens below were captured from the
// string-keyed extraction and comparison, before netlists were interned,
// on generator seeds 1-5 at four sizes, and on migrated designs broken so
// that all five diff kinds occur. A clean migration reports no diff, so
// the broken cases are the only coverage of the diff paths. The three-cell
// goldens ("m" rows) were captured from the one-pass verify_migration,
// before it was split into a source side and a check; they pin the order
// of diffs and diagnostics across cells. A mismatch prints the actual row
// in the table's own syntax.
//
// The sweep (GOLDEN_SEED_RANGE=lo:hi, ctest `sch_verify_sweep`, label
// `sweep`) has no goldens to lean on; it checks verify_migration, the
// Netlist view and compare_netlists against the string-keyed extraction
// and comparison kept below as an oracle, on 250 random edits of each
// seed's source and migrated designs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "base/rng.hpp"
#include "base/strings.hpp"
#include "runtime/hash.hpp"
#include "schematic/generator.hpp"
#include "schematic/migrate.hpp"
#include "schematic/netlist.hpp"
#include "schematic/sheet_index.hpp"

namespace interop::sch {
namespace {

using runtime::fnv1a;

std::string diffs_text(const std::vector<NetlistDiff>& diffs) {
  std::string out;
  for (const NetlistDiff& d : diffs)
    out += to_string(d.kind) + "|" + d.net + "|" + d.detail + "\n";
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

/// Generator size axis: components per sheet, with two-pin nets at two
/// thirds of that (the migrate_large proportions).
GeneratorOptions generator_case(std::uint64_t seed, int components) {
  GeneratorOptions opt;
  opt.seed = seed;
  opt.components_per_sheet = components;
  opt.nets_per_sheet = components * 2 / 3;
  return opt;
}

// ------------------------------------------------------------- breakage
//
// Each one edits the migrated design (or the verify configuration) the way
// a faulty translator would. They pick their target with `rng`, so a seed
// reproduces the same edit.

/// Instances of `design` whose symbol has `role`, as (sheet, index) pairs.
std::vector<std::pair<std::size_t, std::size_t>> instances_with_role(
    const Design& design, const Schematic& sch, SymbolRole role) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t s = 0; s < sch.sheets.size(); ++s)
    for (std::size_t i = 0; i < sch.sheets[s].instances.size(); ++i) {
      const SymbolDef* def =
          design.find_symbol(sch.sheets[s].instances[i].symbol);
      if (def && def->role == role) out.emplace_back(s, i);
    }
  return out;
}

/// Erase one wire.
void drop_wire(Schematic& sch, base::Rng& rng) {
  Sheet& sheet = sch.sheets[rng.index(sch.sheets.size())];
  if (sheet.wires.empty()) return;
  sheet.wires.erase(sheet.wires.begin() +
                    std::ptrdiff_t(rng.index(sheet.wires.size())));
}

/// Append "_x" to one net label.
void rename_label(Schematic& sch, base::Rng& rng) {
  Sheet& sheet = sch.sheets[rng.index(sch.sheets.size())];
  if (sheet.labels.empty()) return;
  NetLabel& label = sheet.labels[rng.index(sheet.labels.size())];
  label.text += "_x";
  label.visual.text = label.text;
}

/// Turn one hierarchy connector's direction around.
void flip_port(const Design& design, Schematic& sch, base::Rng& rng) {
  auto ports = instances_with_role(design, sch, SymbolRole::HierPort);
  if (ports.empty()) return;
  auto [s, i] = ports[rng.index(ports.size())];
  Instance& inst = sch.sheets[s].instances[i];
  inst.props.set("dir", inst.props.get_text("dir", "inout") == "input"
                            ? "output"
                            : "input");
}

/// Erase one global-net symbol; its wire keeps only the component pin.
void drop_global_tap(const Design& design, Schematic& sch, base::Rng& rng) {
  auto taps = instances_with_role(design, sch, SymbolRole::GlobalNet);
  if (taps.empty()) return;
  auto [s, i] = taps[rng.index(taps.size())];
  std::vector<Instance>& insts = sch.sheets[s].instances;
  insts.erase(insts.begin() + std::ptrdiff_t(i));
}

/// Replace every tap of one global net by a plain label of the same name at
/// the tap's pin: the net keeps its name and pins but is no longer global.
void unglobal_net(const Design& design, Schematic& sch, base::Rng& rng) {
  auto taps = instances_with_role(design, sch, SymbolRole::GlobalNet);
  if (taps.empty()) return;
  auto [cs, ci] = taps[rng.index(taps.size())];
  const SymbolKey chosen = sch.sheets[cs].instances[ci].symbol;
  const SymbolDef& def = *design.find_symbol(chosen);
  const std::string net =
      def.default_props.get_text("global_net", def.key.cell);
  for (auto it = taps.rbegin(); it != taps.rend(); ++it) {
    Sheet& sheet = sch.sheets[it->first];
    const Instance& inst = sheet.instances[it->second];
    if (!(inst.symbol == chosen)) continue;
    NetLabel label;
    label.text = net;
    label.at = inst.placement.apply(def.pins.front().pos);
    label.visual.text = net;
    label.visual.origin = label.at;
    sheet.labels.push_back(label);
    sheet.instances.erase(sheet.instances.begin() +
                          std::ptrdiff_t(it->second));
  }
}

/// Map one pin of one used symbol to a pin the target symbol lacks.
void break_pin_map(const Design& src, MigrationConfig& config,
                   base::Rng& rng) {
  std::vector<const SymbolMapEntry*> used;
  for (const auto& [key, def] : src.symbols())
    if (const SymbolMapEntry* e = config.symbol_map.find(key))
      if (!def.pins.empty()) used.push_back(e);
  if (used.empty()) return;
  SymbolMapEntry entry = *used[rng.index(used.size())];
  const SymbolDef& from = *src.find_symbol(entry.from);
  entry.pin_map[from.pins[rng.index(from.pins.size())].name] = "WRONG";
  config.symbol_map.add(std::move(entry));
}

enum class Breakage {
  None,
  DropWire,
  RenameLabel,
  FlipPort,
  DropGlobalTap,
  UnglobalNet,
  PinMap,
};

const char* breakage_name(Breakage b) {
  switch (b) {
    case Breakage::None: return "clean";
    case Breakage::DropWire: return "drop-wire";
    case Breakage::RenameLabel: return "rename-label";
    case Breakage::FlipPort: return "flip-port";
    case Breakage::DropGlobalTap: return "drop-global-tap";
    case Breakage::UnglobalNet: return "unglobal-net";
    case Breakage::PinMap: return "pin-map";
  }
  return "?";
}

struct Observed {
  std::size_t diffs = 0;
  std::uint64_t diff_digest = 0;
  std::uint64_t diag_digest = 0;
  std::set<NetlistDiff::Kind> kinds;
};

Observed observe(const Scenario& scenario, Breakage breakage,
                 std::uint64_t seed) {
  base::DiagnosticEngine migrate_diags;
  MigrationResult result =
      migrate_design(scenario.source, scenario.config, migrate_diags);
  MigrationConfig config = scenario.config;
  Design& migrated = result.design;
  Schematic& sch = *migrated.find_schematic("top");
  base::Rng rng(seed * 7919 + std::uint64_t(breakage));
  switch (breakage) {
    case Breakage::None: break;
    case Breakage::DropWire: drop_wire(sch, rng); break;
    case Breakage::RenameLabel: rename_label(sch, rng); break;
    case Breakage::FlipPort: flip_port(migrated, sch, rng); break;
    case Breakage::DropGlobalTap: drop_global_tap(migrated, sch, rng); break;
    case Breakage::UnglobalNet: unglobal_net(migrated, sch, rng); break;
    case Breakage::PinMap: break_pin_map(scenario.source, config, rng); break;
  }
  base::DiagnosticEngine diags;
  std::vector<NetlistDiff> diffs =
      verify_migration(scenario.source, migrated, config, diags);
  Observed o;
  o.diffs = diffs.size();
  o.diff_digest = fnv1a(diffs_text(diffs));
  o.diag_digest = fnv1a(diag_text(diags));
  for (const NetlistDiff& d : diffs) o.kinds.insert(d.kind);
  return o;
}

struct Golden {
  const char* name;  ///< "s<seed>c<components>/<breakage>"
  std::size_t diffs;
  std::uint64_t diff_digest;
  std::uint64_t diag_digest;
};

// clang-format off
constexpr Golden kGoldens[] = {
    {"s1c12/clean", 0, 0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL},
    {"s2c12/clean", 0, 0xcbf29ce484222325ULL, 0x465e5bf9ba745e38ULL},
    {"s3c12/clean", 0, 0xcbf29ce484222325ULL, 0xacd17ba404193a90ULL},
    {"s4c12/clean", 0, 0xcbf29ce484222325ULL, 0xfa22c587539dfe30ULL},
    {"s5c12/clean", 0, 0xcbf29ce484222325ULL, 0xe3b0b603e0030681ULL},
    {"s1c100/clean", 0, 0xcbf29ce484222325ULL, 0xb87a17f3897330feULL},
    {"s2c100/clean", 0, 0xcbf29ce484222325ULL, 0xeb8391f67dd433fbULL},
    {"s3c100/clean", 0, 0xcbf29ce484222325ULL, 0x9c55a7d4039be5b8ULL},
    {"s4c100/clean", 0, 0xcbf29ce484222325ULL, 0x35880c3d778b9031ULL},
    {"s5c100/clean", 0, 0xcbf29ce484222325ULL, 0x226a678baccbce73ULL},
    {"s1c400/clean", 0, 0xcbf29ce484222325ULL, 0xdd06e879efd6a07fULL},
    {"s2c400/clean", 0, 0xcbf29ce484222325ULL, 0x22bbc9e0145f6685ULL},
    {"s3c400/clean", 0, 0xcbf29ce484222325ULL, 0xf77115863ec93693ULL},
    {"s4c400/clean", 0, 0xcbf29ce484222325ULL, 0xf2a2efc3614e4a38ULL},
    {"s5c400/clean", 0, 0xcbf29ce484222325ULL, 0xc1f9da39e79f1bfdULL},
    {"s1c1600/clean", 0, 0xcbf29ce484222325ULL, 0xc920977dee5ac3abULL},
    {"s2c1600/clean", 0, 0xcbf29ce484222325ULL, 0xa4de44ed39eb39feULL},
    {"s3c1600/clean", 0, 0xcbf29ce484222325ULL, 0x44a7ae6060c9765fULL},
    {"s4c1600/clean", 0, 0xcbf29ce484222325ULL, 0xf6cad6dc2e91af6fULL},
    {"s5c1600/clean", 0, 0xcbf29ce484222325ULL, 0xdc221877c2a0f900ULL},
    {"s1c12/drop-wire", 1, 0x340ae95ae5fb17a9ULL, 0xcbf29ce484222325ULL},
    {"s1c12/rename-label", 1, 0x38bd569405f46aefULL, 0xcbf29ce484222325ULL},
    {"s1c12/flip-port", 1, 0x58d4c786f7319dedULL, 0xcbf29ce484222325ULL},
    {"s1c12/drop-global-tap", 1, 0x60732bbb28f216f6ULL, 0xcbf29ce484222325ULL},
    {"s1c12/unglobal-net", 3, 0xac6990810eacc695ULL, 0xcbf29ce484222325ULL},
    {"s1c12/pin-map", 8, 0xe1a4d20b577a7ed1ULL, 0xcbf29ce484222325ULL},
    {"s2c12/drop-wire", 1, 0xd6c6c638725ced2fULL, 0x7efe474206ef89d4ULL},
    {"s2c12/rename-label", 2, 0x5aea069d46371bc8ULL, 0x465e5bf9ba745e38ULL},
    {"s2c12/flip-port", 1, 0x58d4c786f7319dedULL, 0x465e5bf9ba745e38ULL},
    {"s2c12/drop-global-tap", 1, 0xcbc7f1f97912cdf9ULL, 0x465e5bf9ba745e38ULL},
    {"s2c12/unglobal-net", 3, 0xa6b218ddfb905931ULL, 0x465e5bf9ba745e38ULL},
    {"s2c12/pin-map", 5, 0x170f800e270d80e3ULL, 0x465e5bf9ba745e38ULL},
    {"s3c12/drop-wire", 1, 0xd30cd74ead78f849ULL, 0xacd17ba404193a90ULL},
    {"s3c12/rename-label", 2, 0x1819bb4fa4e530b0ULL, 0xacd17ba404193a90ULL},
    {"s3c12/flip-port", 1, 0x58d4c786f7319dedULL, 0xacd17ba404193a90ULL},
    {"s3c12/drop-global-tap", 1, 0x626759b882b21853ULL, 0xacd17ba404193a90ULL},
    {"s3c12/unglobal-net", 3, 0x7c4e102fe43033e9ULL, 0xacd17ba404193a90ULL},
    {"s3c12/pin-map", 9, 0x4b4f618a6a5321d7ULL, 0xacd17ba404193a90ULL},
    {"s4c12/drop-wire", 1, 0xf39b7e3c23b356c9ULL, 0xfa22c587539dfe30ULL},
    {"s4c12/rename-label", 2, 0x216c385bf0cb2ce8ULL, 0xfa22c587539dfe30ULL},
    {"s4c12/flip-port", 1, 0x3be82a1c3145e40aULL, 0xfa22c587539dfe30ULL},
    {"s4c12/drop-global-tap", 1, 0xecb02d0d482f6c6bULL, 0xfa22c587539dfe30ULL},
    {"s4c12/unglobal-net", 4, 0x7a3c2ad965382bceULL, 0xfa22c587539dfe30ULL},
    {"s4c12/pin-map", 6, 0x49eaa75cb0a954e8ULL, 0xfa22c587539dfe30ULL},
    {"s5c12/drop-wire", 1, 0x85c18670590fae90ULL, 0xe3b0b603e0030681ULL},
    {"s5c12/rename-label", 2, 0x9858db8029b69a62ULL, 0xe3b0b603e0030681ULL},
    {"s5c12/flip-port", 1, 0x58d4c786f7319dedULL, 0xe3b0b603e0030681ULL},
    {"s5c12/drop-global-tap", 1, 0x3419a44db77a650dULL, 0xe3b0b603e0030681ULL},
    {"s5c12/unglobal-net", 6, 0x315150d52bba7aafULL, 0xe3b0b603e0030681ULL},
    {"s5c12/pin-map", 5, 0x1f3f97455bad4d95ULL, 0xe3b0b603e0030681ULL},
    {"s1c100/drop-wire", 1, 0x68095ff1fe4a93a3ULL, 0xd3a077bae1199130ULL},
    {"s1c100/rename-label", 2, 0x97bc2a7b7c851f36ULL, 0xb87a17f3897330feULL},
    {"s1c100/flip-port", 1, 0x58d4c786f7319dedULL, 0xb87a17f3897330feULL},
    {"s1c100/drop-global-tap", 1, 0xa60362e16388424eULL, 0xb87a17f3897330feULL},
    {"s1c100/unglobal-net", 4, 0xb7c07654a85ab38eULL, 0xb87a17f3897330feULL},
    {"s1c100/pin-map", 28, 0x077383ad313dd92dULL, 0xb87a17f3897330feULL},
    {"s2c100/drop-wire", 1, 0x87478704894e39abULL, 0xeb8391f67dd433fbULL},
    {"s2c100/rename-label", 2, 0x7ee10cf0c078e5ccULL, 0xeb8391f67dd433fbULL},
    {"s2c100/flip-port", 1, 0x58d4c786f7319dedULL, 0xeb8391f67dd433fbULL},
    {"s2c100/drop-global-tap", 1, 0xd961af8aa9863bdbULL, 0xeb8391f67dd433fbULL},
    {"s2c100/unglobal-net", 4, 0xc1e83218e6bfb5d8ULL, 0xeb8391f67dd433fbULL},
    {"s2c100/pin-map", 27, 0x216b43d2c7f7b336ULL, 0xeb8391f67dd433fbULL},
    {"s3c100/drop-wire", 1, 0x06f9fdc4b42b3afbULL, 0x9c55a7d4039be5b8ULL},
    {"s3c100/rename-label", 2, 0x1aa27435d4b3be5aULL, 0x9c55a7d4039be5b8ULL},
    {"s3c100/flip-port", 1, 0x58d4c786f7319dedULL, 0x9c55a7d4039be5b8ULL},
    {"s3c100/drop-global-tap", 1, 0x121ea7f2c747e85dULL, 0x9c55a7d4039be5b8ULL},
    {"s3c100/unglobal-net", 1, 0x84a67975ca406178ULL, 0x9c55a7d4039be5b8ULL},
    {"s3c100/pin-map", 34, 0x50caa82f65b8308dULL, 0x9c55a7d4039be5b8ULL},
    {"s4c100/drop-wire", 1, 0x8c8e9c718c4ac628ULL, 0xaf49b382c21baf2eULL},
    {"s4c100/rename-label", 2, 0x8dfc1acb5a7da99eULL, 0x35880c3d778b9031ULL},
    {"s4c100/flip-port", 1, 0x3be82a1c3145e40aULL, 0x35880c3d778b9031ULL},
    {"s4c100/drop-global-tap", 1, 0x3bb1814e9a79942bULL, 0x35880c3d778b9031ULL},
    {"s4c100/unglobal-net", 1, 0x84a67975ca406178ULL, 0x35880c3d778b9031ULL},
    {"s4c100/pin-map", 26, 0xeb63e401ae68cf52ULL, 0x35880c3d778b9031ULL},
    {"s5c100/drop-wire", 1, 0x131aca661de29fb1ULL, 0x226a678baccbce73ULL},
    {"s5c100/rename-label", 2, 0x99bd6010c1776216ULL, 0x226a678baccbce73ULL},
    {"s5c100/flip-port", 1, 0x58d4c786f7319dedULL, 0x226a678baccbce73ULL},
    {"s5c100/drop-global-tap", 1, 0xb655ac33af1dada6ULL, 0x226a678baccbce73ULL},
    {"s5c100/unglobal-net", 1, 0xace3cc67f138cfe9ULL, 0x226a678baccbce73ULL},
    {"s5c100/pin-map", 32, 0x6047c86c4a5f3438ULL, 0x226a678baccbce73ULL},
    // Three-cell designs (SchVerifyGoldenMultiCell), "m<seed>c<components>".
    {"m1c12/clean", 0, 0xcbf29ce484222325ULL, 0x44605987eecd1d9dULL},
    {"m1c12/mid-drop-wire", 1, 0x4cb7043439904f90ULL, 0x44605987eecd1d9dULL},
    {"m1c12/leaf-rename-top-flip", 2, 0x878525fae2fc3872ULL, 0x44605987eecd1d9dULL},
    {"m1c12/pin-map", 30, 0xd5edd368d109ad6dULL, 0x44605987eecd1d9dULL},
    {"m1c12/mid-missing", 1, 0x838967092c89a9fbULL, 0xcbf29ce484222325ULL},
    {"m2c12/clean", 0, 0xcbf29ce484222325ULL, 0x9fee59bcc4203288ULL},
    {"m2c12/mid-drop-wire", 1, 0xba083bf80efaac2cULL, 0x9fee59bcc4203288ULL},
    {"m2c12/leaf-rename-top-flip", 3, 0x2b45f6219ea95f32ULL, 0x9fee59bcc4203288ULL},
    {"m2c12/pin-map", 18, 0xb06a21a886944e23ULL, 0x9fee59bcc4203288ULL},
    {"m2c12/mid-missing", 1, 0x838967092c89a9fbULL, 0xfc0f361515ef182aULL},
    {"m3c12/clean", 0, 0xcbf29ce484222325ULL, 0xbe1c18ad3a970295ULL},
    {"m3c12/mid-drop-wire", 1, 0x828ba10d7b9bfbbaULL, 0xbe1c18ad3a970295ULL},
    {"m3c12/leaf-rename-top-flip", 3, 0x028abaaef511628cULL, 0xbe1c18ad3a970295ULL},
    {"m3c12/pin-map", 28, 0xc1d03b818b1d327dULL, 0xbe1c18ad3a970295ULL},
    {"m3c12/mid-missing", 1, 0x838967092c89a9fbULL, 0x56640c4a5232cdc0ULL},
    {"m4c12/clean", 0, 0xcbf29ce484222325ULL, 0x962224141254ddbcULL},
    {"m4c12/mid-drop-wire", 1, 0x59dbbb374dc251e5ULL, 0x962224141254ddbcULL},
    {"m4c12/leaf-rename-top-flip", 3, 0xf9644a0a9b82c4cbULL, 0x962224141254ddbcULL},
    {"m4c12/pin-map", 28, 0x0929a10a662fe6fbULL, 0x962224141254ddbcULL},
    {"m4c12/mid-missing", 1, 0x838967092c89a9fbULL, 0x962224141254ddbcULL},
    {"m5c12/clean", 0, 0xcbf29ce484222325ULL, 0x3fbc2600c568b5e2ULL},
    {"m5c12/mid-drop-wire", 1, 0xddfe95b5b1b7b1dfULL, 0x3fbc2600c568b5e2ULL},
    {"m5c12/leaf-rename-top-flip", 3, 0x7278ba10eb884deeULL, 0x3fbc2600c568b5e2ULL},
    {"m5c12/pin-map", 24, 0x681e002f515918d1ULL, 0x3fbc2600c568b5e2ULL},
    {"m5c12/mid-missing", 1, 0x838967092c89a9fbULL, 0x783cfbfc3902b674ULL},
    {"m1c100/clean", 0, 0xcbf29ce484222325ULL, 0x7f70da199049f431ULL},
    {"m1c100/mid-drop-wire", 1, 0xbd187fb0f2bcba76ULL, 0x7f70da199049f431ULL},
    {"m1c100/leaf-rename-top-flip", 3, 0x3b10216f4cffdf83ULL, 0x7f70da199049f431ULL},
    {"m1c100/pin-map", 108, 0x8db17d31eeb187c4ULL, 0x7f70da199049f431ULL},
    {"m1c100/mid-missing", 1, 0x838967092c89a9fbULL, 0x6798dfd8dcdb4fd1ULL},
    {"m2c100/clean", 0, 0xcbf29ce484222325ULL, 0x493ca5084f81fbf3ULL},
    {"m2c100/mid-drop-wire", 1, 0xa745f60024175ad0ULL, 0x493ca5084f81fbf3ULL},
    {"m2c100/leaf-rename-top-flip", 3, 0x86e2714a5de77b0aULL, 0x493ca5084f81fbf3ULL},
    {"m2c100/pin-map", 86, 0x2787252f55ca7b43ULL, 0x493ca5084f81fbf3ULL},
    {"m2c100/mid-missing", 1, 0x838967092c89a9fbULL, 0xf54e572e6d5bc259ULL},
    {"m3c100/clean", 0, 0xcbf29ce484222325ULL, 0x46f3f3b98884dd28ULL},
    {"m3c100/mid-drop-wire", 1, 0x8b4a08bcafbad436ULL, 0x46f3f3b98884dd28ULL},
    {"m3c100/leaf-rename-top-flip", 3, 0x7d4dde457a475a78ULL, 0x46f3f3b98884dd28ULL},
    {"m3c100/pin-map", 106, 0xc8a7e77281b3b40fULL, 0x46f3f3b98884dd28ULL},
    {"m3c100/mid-missing", 1, 0x838967092c89a9fbULL, 0xbcdf30fb96d2cd9eULL},
    {"m4c100/clean", 0, 0xcbf29ce484222325ULL, 0x8272e3bf1b355c79ULL},
    {"m4c100/mid-drop-wire", 1, 0x8d991aa337e7a930ULL, 0x8272e3bf1b355c79ULL},
    {"m4c100/leaf-rename-top-flip", 3, 0x95769fe5ffd58dd5ULL, 0x8272e3bf1b355c79ULL},
    {"m4c100/pin-map", 79, 0xe5578291fe454dcfULL, 0x8272e3bf1b355c79ULL},
    {"m4c100/mid-missing", 1, 0x838967092c89a9fbULL, 0x723122d245c0e9adULL},
    {"m5c100/clean", 0, 0xcbf29ce484222325ULL, 0x63910ceab5b2ed83ULL},
    {"m5c100/mid-drop-wire", 1, 0x925694339adb021eULL, 0x34fdc65f81c46c49ULL},
    {"m5c100/leaf-rename-top-flip", 3, 0xafbddf33a15859faULL, 0x63910ceab5b2ed83ULL},
    {"m5c100/pin-map", 110, 0xd56a4412272ff100ULL, 0x63910ceab5b2ed83ULL},
    {"m5c100/mid-missing", 1, 0x838967092c89a9fbULL, 0x21bba05bc71ebf5eULL},
};
// clang-format on

std::string row(const std::string& name, const Observed& o) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %zu, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},",
                name.c_str(), o.diffs, o.diff_digest, o.diag_digest);
  return buf;
}

void expect_golden(const std::string& name, const Observed& o) {
  const Golden* g = nullptr;
  for (const Golden& k : kGoldens)
    if (name == k.name) g = &k;
  ASSERT_NE(g, nullptr) << "no golden for " << name << "; actual:\n"
                        << row(name, o);
  EXPECT_EQ(o.diffs, g->diffs) << name;
  EXPECT_EQ(o.diff_digest, g->diff_digest) << name;
  EXPECT_EQ(o.diag_digest, g->diag_digest) << name;
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "actual:\n" << row(name, o);
}

std::string case_name(std::uint64_t seed, int components, Breakage b) {
  return "s" + std::to_string(seed) + "c" + std::to_string(components) + "/" +
         breakage_name(b);
}

class SchVerifyGolden : public ::testing::TestWithParam<int> {};

TEST_P(SchVerifyGolden, CleanMigrationsMatch) {
  const int components = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Scenario scenario = make_exar_scenario(generator_case(seed, components));
    Observed o = observe(scenario, Breakage::None, seed);
    EXPECT_EQ(o.diffs, 0u) << "seed " << seed;
    expect_golden(case_name(seed, components, Breakage::None), o);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SchVerifyGolden,
                         ::testing::Values(12, 100, 400, 1600));

constexpr Breakage kBreakages[] = {
    Breakage::DropWire,      Breakage::RenameLabel, Breakage::FlipPort,
    Breakage::DropGlobalTap, Breakage::UnglobalNet, Breakage::PinMap,
};

TEST(SchVerifyGoldenBroken, EveryDiffKindMatches) {
  std::set<NetlistDiff::Kind> seen;
  for (int components : {12, 100}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Scenario scenario = make_exar_scenario(generator_case(seed, components));
      for (Breakage b : kBreakages) {
        Observed o = observe(scenario, b, seed);
        EXPECT_GT(o.diffs, 0u) << case_name(seed, components, b);
        seen.insert(o.kinds.begin(), o.kinds.end());
        expect_golden(case_name(seed, components, b), o);
      }
    }
  }
  for (NetlistDiff::Kind k :
       {NetlistDiff::Kind::MissingNet, NetlistDiff::Kind::ExtraNet,
        NetlistDiff::Kind::ConnectionChange, NetlistDiff::Kind::PortChange,
        NetlistDiff::Kind::GlobalChange})
    EXPECT_TRUE(seen.count(k)) << "no case reports " << to_string(k);
}

// ------------------------------------------------------------- multi-cell
//
// verify_migration checks cell after cell in name order, and within a cell
// it reports the golden extraction's diagnostics before the subject's. The
// generator draws one cell ("top"), so these designs join three seeds'
// cells into one design; each case edits the migrated design (or the
// configuration) in one or more cells, or drops a cell.

/// `seed`'s scenario plus the "top" cells of seeds seed + 100 and seed + 200
/// as "mid" and "leaf", each with its own cell symbol.
Scenario multi_cell_scenario(std::uint64_t seed, int components) {
  Scenario scenario = make_exar_scenario(generator_case(seed, components));
  for (const auto& [offset, cell] :
       {std::pair<std::uint64_t, const char*>{100, "mid"}, {200, "leaf"}}) {
    Scenario other =
        make_exar_scenario(generator_case(seed + offset, components));
    SymbolDef symbol = *other.source.find_symbol({"design_lib", "top", "sym"});
    symbol.key.cell = cell;
    scenario.source.add_symbol(std::move(symbol));
    Schematic sch = *other.source.find_schematic("top");
    sch.cell = cell;
    scenario.source.add_schematic(std::move(sch));
  }
  return scenario;
}

/// `design` without the schematic of `cell`.
Design without_cell(const Design& design, const std::string& cell) {
  Design out(design.grid());
  for (const auto& [key, def] : design.symbols()) out.add_symbol(def);
  for (const auto& [name, sch] : design.schematics())
    if (name != cell) out.add_schematic(sch);
  return out;
}

TEST(SchVerifyGoldenMultiCell, PerCellOrderMatches) {
  using Edit = void (*)(const Design& src, Design& migrated,
                        MigrationConfig& config, base::Rng& rng);
  const std::pair<const char*, Edit> cases[] = {
      {"clean", [](const Design&, Design&, MigrationConfig&, base::Rng&) {}},
      {"mid-drop-wire",
       [](const Design&, Design& migrated, MigrationConfig&, base::Rng& rng) {
         drop_wire(*migrated.find_schematic("mid"), rng);
       }},
      {"leaf-rename-top-flip",
       [](const Design&, Design& migrated, MigrationConfig&, base::Rng& rng) {
         rename_label(*migrated.find_schematic("leaf"), rng);
         flip_port(migrated, *migrated.find_schematic("top"), rng);
       }},
      {"pin-map",
       [](const Design& src, Design&, MigrationConfig& config,
          base::Rng& rng) { break_pin_map(src, config, rng); }},
      {"mid-missing",
       [](const Design&, Design& migrated, MigrationConfig&, base::Rng&) {
         migrated = without_cell(migrated, "mid");
       }},
  };
  for (int components : {12, 100}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Scenario scenario = multi_cell_scenario(seed, components);
      ASSERT_EQ(scenario.source.schematics().size(), 3u);
      base::DiagnosticEngine migrate_diags;
      const MigrationResult result =
          migrate_design(scenario.source, scenario.config, migrate_diags);
      for (std::size_t c = 0; c < std::size(cases); ++c) {
        const auto& [name, edit] = cases[c];
        Design migrated = result.design;
        MigrationConfig config = scenario.config;
        base::Rng rng(seed * 7919 + c);
        edit(scenario.source, migrated, config, rng);
        base::DiagnosticEngine diags;
        std::vector<NetlistDiff> diffs =
            verify_migration(scenario.source, migrated, config, diags);
        Observed o;
        o.diffs = diffs.size();
        o.diff_digest = fnv1a(diffs_text(diffs));
        o.diag_digest = fnv1a(diag_text(diags));
        const std::string label = "m" + std::to_string(seed) + "c" +
                                  std::to_string(components) + "/" + name;
        EXPECT_EQ(o.diffs == 0, c == 0) << label;
        expect_golden(label, o);
      }
    }
  }
}


// ------------------------------------------------------------------ oracle
//
// The string-keyed extraction and comparison the interned tables replaced:
// nets in a std::map by name, each with a std::set of (instance, pin)
// strings; verify builds a third, renamed netlist and matches anonymous
// nets by joined "inst.pin" signatures.

namespace oracle {

/// Union-find over dense ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Everything we learn about one connected wire group on one sheet.
struct WireGroup {
  std::set<NetConnection> connections;
  std::vector<NetRef> label_refs;          ///< labels, parsed
  std::vector<std::string> offpage_names;   ///< from off-page connectors
  std::vector<std::string> global_names;    ///< from global-net symbols
  std::vector<std::pair<std::string, PinDir>> ports;  ///< hier connectors
  Point anchor{0, 0};  ///< smallest point, for deterministic anon naming
  bool has_anchor = false;

  void note_point(const Point& p) {
    if (!has_anchor || p < anchor) {
      anchor = p;
      has_anchor = true;
    }
  }
};

PinDir dir_from_text(const std::string& s) {
  if (s == "input") return PinDir::Input;
  if (s == "output") return PinDir::Output;
  return PinDir::Inout;
}

Netlist extract(const Design& design, const Schematic& sch,
                const Dialect& dialect, base::DiagnosticEngine& diags) {
  Netlist out;
  out.cell = sch.cell;

  // The cell's own symbol (for Viewlogic-style implicit ports).
  const SymbolDef* cell_symbol = nullptr;
  for (const auto& [key, def] : design.symbols())
    if (key.cell == sch.cell && def.role == SymbolRole::Component)
      cell_symbol = &def;

  // Pass 1 over all sheets: find explicit bus ranges so condensed refs
  // ("A0") can be recognized on pass 2.
  std::vector<std::string> known_buses;
  for (const Sheet& sheet : sch.sheets) {
    for (const NetLabel& label : sheet.labels) {
      NetRef ref = parse_net_ref(label.text, dialect);
      if (ref.range) known_buses.push_back(ref.base);
    }
  }
  std::sort(known_buses.begin(), known_buses.end());
  known_buses.erase(std::unique(known_buses.begin(), known_buses.end()),
                    known_buses.end());

  // Per-sheet wire groups.
  struct SheetGroups {
    int page;
    std::vector<WireGroup> groups;
  };
  std::vector<SheetGroups> all_groups;

  for (const Sheet& sheet : sch.sheets) {
    const SheetIndex index(sheet);
    // Union-find nodes: every distinct point that takes part in
    // connectivity, numbered wire ends first (as the index numbers them),
    // then junctions, pins and label anchors.
    PointIds nodes = index.endpoints();
    std::vector<std::size_t> wire_a, wire_b;  ///< node of each wire end
    wire_a.reserve(sheet.wires.size());
    wire_b.reserve(sheet.wires.size());
    for (SheetIndex::Id i = 0; i < sheet.wires.size(); ++i) {
      wire_a.push_back(index.end_id(i, false));
      wire_b.push_back(index.end_id(i, true));
    }
    for (const Point& j : sheet.junctions) nodes.id_of(j);
    const std::string page_obj = "page" + std::to_string(sheet.number);

    // Extra nodes for instance pins and labels are appended after wiring
    // nodes; remember the mapping.
    struct PinSite {
      std::size_t node;
      const Instance* inst;
      const SymbolDef* def;
      const SymbolPin* pin;
      Point pos;
    };
    std::vector<PinSite> pin_sites;

    for (const Instance& inst : sheet.instances) {
      const SymbolDef* def = design.find_symbol(inst.symbol);
      if (!def) {
        diags.error("unknown-symbol",
                    "instance " + inst.name + " references missing symbol " +
                        inst.symbol.str(),
                    {"sch.extract", page_obj + "/" + inst.name});
        continue;
      }
      for (const SymbolPin& pin : def->pins) {
        Point pos = inst.placement.apply(pin.pos);
        pin_sites.push_back({nodes.id_of(pos), &inst, def, &pin, pos});
      }
    }

    struct LabelSite {
      std::size_t node;
      const NetLabel* label;
    };
    std::vector<LabelSite> label_sites;
    for (const NetLabel& label : sheet.labels)
      label_sites.push_back({nodes.id_of(label.at), &label});

    // Union wires.
    UnionFind uf(nodes.size());
    for (std::size_t i = 0; i < sheet.wires.size(); ++i)
      uf.unite(wire_a[i], wire_b[i]);

    // Junction dots connect interior crossings/tees.
    for (const Point& j : sheet.junctions) {
      std::size_t jid = nodes.id_of(j);
      for (SheetIndex::Id si : index.containing(j)) uf.unite(jid, wire_a[si]);
    }

    // Pins: connect when the pin sits on a wire endpoint, or on a wire
    // interior that carries a junction dot. Coincident pins connect by
    // abutment because they share the node id.
    auto pin_diag = [&](base::Severity severity, const char* code,
                        const PinSite& site, std::string_view what) {
      const std::string& inst = site.inst->name;
      std::string message;
      message.reserve(5 + inst.size() + site.pin->name.size() + what.size());
      message.append("pin ").append(inst).append(".").append(site.pin->name)
          .append(what);
      std::string object;
      object.reserve(page_obj.size() + 1 + inst.size());
      object.append(page_obj).append("/").append(inst);
      diags.report(severity, code, std::move(message),
                   {"sch.extract", std::move(object)});
    };
    std::vector<std::size_t> pins_at_node(nodes.size(), 0);
    for (const PinSite& site : pin_sites) ++pins_at_node[site.node];
    for (const PinSite& site : pin_sites) {
      bool wired = false;
      if (index.has_endpoint(site.pos)) {
        wired = true;  // endpoint: id_of already unified via segment union
      } else if (index.on_wire(site.pos)) {
        if (index.has_junction(site.pos)) {
          wired = true;
        } else {
          pin_diag(base::Severity::Warning, "pin-crosses-wire", site,
                   " lies on a wire interior without a junction; "
                   "not connected");
        }
      }
      // Dangling pin: forms (or joins) a node only with coincident pins.
      if (!wired && pins_at_node[site.node] == 1)
        pin_diag(base::Severity::Note, "dangling-pin", site, " is unconnected");
    }

    // Labels must land on a wire; one on several joins the lowest-index.
    for (const LabelSite& site : label_sites) {
      std::vector<SheetIndex::Id> segs = index.containing(site.label->at);
      if (segs.empty()) {
        diags.warn("floating-label",
                   "label '" + site.label->text + "' is not on any wire",
                   {"sch.extract", page_obj});
      } else {
        uf.unite(site.node, wire_a[segs.front()]);
      }
    }

    // Gather groups, numbered in ascending root order.
    std::vector<std::size_t> group_of(nodes.size(), 0);
    for (std::size_t w : wire_a) group_of[uf.find(w)] = 1;
    for (const PinSite& site : pin_sites) group_of[uf.find(site.node)] = 1;
    for (const LabelSite& site : label_sites) group_of[uf.find(site.node)] = 1;
    std::size_t group_count = 0;
    for (std::size_t& g : group_of) g = g ? group_count++ : 0;
    std::vector<WireGroup> groups(group_count);
    auto group = [&](std::size_t node) -> WireGroup& {
      return groups[group_of[uf.find(node)]];
    };
    for (std::size_t i = 0; i < sheet.wires.size(); ++i) {
      const Segment& w = sheet.wires[i];
      WireGroup& g = group(wire_a[i]);
      g.note_point(w.a);
      g.note_point(w.b);
    }
    for (const PinSite& site : pin_sites) {
      WireGroup& g = group(site.node);
      g.note_point(site.pos);
      const Instance& inst = *site.inst;
      const SymbolDef* def = site.def;
      switch (def->role) {
        case SymbolRole::Component:
          g.connections.insert({inst.name, site.pin->name});
          break;
        case SymbolRole::HierPort:
          g.ports.emplace_back(
              inst.props.get_text("port", inst.name),
              dir_from_text(inst.props.get_text("dir", "inout")));
          break;
        case SymbolRole::OffPage:
          g.offpage_names.push_back(inst.props.get_text("net", inst.name));
          break;
        case SymbolRole::GlobalNet:
          g.global_names.push_back(
              def->default_props.get_text("global_net", def->key.cell));
          break;
      }
    }
    for (const LabelSite& site : label_sites)
      group(site.node).label_refs.push_back(
          parse_net_ref(site.label->text, dialect, known_buses));

    // Deterministic order (sorting a permutation moves no group around
    // but places them exactly as sorting the groups themselves would).
    std::vector<std::size_t> order(groups.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&groups](std::size_t a, std::size_t b) {
                return groups[a].anchor < groups[b].anchor;
              });
    SheetGroups sg;
    sg.page = sheet.number;
    sg.groups.reserve(groups.size());
    for (std::size_t i : order) sg.groups.push_back(std::move(groups[i]));
    all_groups.push_back(std::move(sg));
  }

  // ---- Resolve group names to canonical nets ----
  //
  // Scoping rule: within one page, same names always join (true in both
  // tools). Across pages, a name joins design-wide when (a) it is global,
  // (b) the dialect joins same names across pages implicitly, or (c) the
  // group carries an off-page connector. A name that appears on several
  // pages *without* those becomes page-scoped ("name@p2") — two same-named
  // labels on different Composer pages are different nets.
  //
  // Pre-pass: which pages does each canonical label name appear on?
  std::map<std::string, std::set<int>> name_pages;
  if (!dialect.implicit_offpage_by_name) {
    for (const SheetGroups& sg : all_groups) {
      for (const WireGroup& g : sg.groups) {
        for (const NetRef& ref : g.label_refs)
          for (const std::string& bit : canonical_bits(ref))
            name_pages[bit].insert(sg.page);
        for (const std::string& on : g.offpage_names) {
          NetRef ref = parse_net_ref(on, dialect, known_buses);
          for (const std::string& bit : canonical_bits(ref))
            name_pages[bit].insert(sg.page);
        }
      }
    }
  }

  // Viewlogic-style implicit ports: the canonical bits of the cell symbol's
  // pins, in pin order.
  std::vector<std::pair<std::string, PinDir>> implicit_port_bits;
  if (!dialect.requires_hier_connectors && cell_symbol)
    for (const SymbolPin& pin : cell_symbol->pins)
      for (std::string& bit :
           canonical_bits(parse_net_ref(pin.name, dialect, known_buses)))
        implicit_port_bits.emplace_back(std::move(bit), pin.dir);

  int anon_counter = 0;
  // `last_use`: the group's connections are not needed afterwards, so a
  // fresh net may take them over instead of copying.
  auto add_connections = [&out](const std::string& canon, bool named,
                                bool global, WireGroup& g, bool last_use) {
    ExtractedNet& net = out.nets[canon];
    net.canonical = canon;
    net.named = net.named || named;
    net.global = net.global || global;
    if (last_use && net.connections.empty())
      net.connections = std::move(g.connections);
    else
      net.connections.insert(g.connections.begin(), g.connections.end());
  };

  for (SheetGroups& sg : all_groups) {
    for (WireGroup& g : sg.groups) {
      std::vector<std::pair<std::string, bool>> names;  // canonical, global

      for (NetRef& cleaned : g.label_refs) {
        bool global = false;
        if (!dialect.global_suffix.empty() &&
            base::ends_with(cleaned.base, dialect.global_suffix)) {
          global = true;
          cleaned.base = cleaned.base.substr(
              0, cleaned.base.size() - dialect.global_suffix.size());
        }
        for (const std::string& bit : canonical_bits(cleaned))
          names.emplace_back(bit, global);
      }
      for (const std::string& gn : g.global_names)
        names.emplace_back(gn, true);
      for (const std::string& on : g.offpage_names) {
        NetRef ref = parse_net_ref(on, dialect, known_buses);
        for (const std::string& bit : canonical_bits(ref))
          names.emplace_back(bit, false);
      }

      // An unlabeled wire with a hier connector takes the port's name.
      if (names.empty() && !g.ports.empty()) {
        for (const auto& [pname, pdir] : g.ports) {
          (void)pdir;
          NetRef pref = parse_net_ref(pname, dialect, known_buses);
          for (const std::string& bit : canonical_bits(pref))
            names.emplace_back(bit, false);
        }
      }

      if (names.empty()) {
        std::string anon = "$anon" + std::to_string(anon_counter++);
        add_connections(anon, false, false, g, true);
        continue;
      }

      std::vector<std::string> resolved;
      for (std::size_t n = 0; n < names.size(); ++n) {
        const auto& [canon, global] = names[n];
        bool design_wide = global || dialect.implicit_offpage_by_name ||
                           !g.offpage_names.empty();
        bool multipage = !design_wide && name_pages[canon].size() > 1;
        std::string scoped =
            multipage ? canon + "@p" + std::to_string(sg.page) : canon;
        add_connections(scoped, true, global, g, n + 1 == names.size());
        resolved.push_back(std::move(scoped));
      }

      // Port bindings: a hier connector marks the group's net as a port.
      for (const auto& [pname, pdir] : g.ports) {
        (void)pname;  // ports name their net; the group's name binds it
        ExtractedNet& net = out.nets[resolved.front()];
        net.canonical = resolved.front();
        net.named = true;
        net.is_port = true;
        net.port_dir = pdir;
      }
      if (g.ports.empty() && !dialect.requires_hier_connectors &&
          cell_symbol) {
        // Viewlogic-style implicit ports: a labeled net whose name matches
        // a pin of the cell's own symbol is a port.
        for (const auto& [canon, global] : names) {
          (void)global;
          for (const auto& [bit, dir] : implicit_port_bits) {
            if (bit != canon) continue;
            ExtractedNet& net = out.nets[canon];
            net.canonical = canon;
            net.named = true;
            net.is_port = true;
            net.port_dir = dir;
          }
        }
      }
    }
  }

  return out;
}

std::vector<NetlistDiff> compare(const Netlist& golden,
                                 const Netlist& subject) {
  std::vector<NetlistDiff> diffs;

  // Anonymous nets match by connection signature.
  std::unordered_map<std::string, const ExtractedNet*> subject_anon;
  for (const auto& [name, net] : subject.nets)
    if (!net.named) subject_anon[Netlist::signature(net)] = &net;

  std::unordered_set<std::string> matched_subject;

  for (const auto& [name, gnet] : golden.nets) {
    const ExtractedNet* snet = nullptr;
    if (gnet.named) {
      auto it = subject.nets.find(name);
      if (it != subject.nets.end()) snet = &it->second;
    } else {
      auto it = subject_anon.find(Netlist::signature(gnet));
      if (it != subject_anon.end()) snet = it->second;
    }
    if (!snet) {
      // Single-connection anonymous nets (dangling pins) are noise; still
      // report named ones and multi-pin anonymous ones.
      if (gnet.named || gnet.connections.size() > 1)
        diffs.push_back({NetlistDiff::Kind::MissingNet, name,
                         "connections: " + Netlist::signature(gnet)});
      continue;
    }
    matched_subject.insert(snet->canonical);
    if (gnet.connections != snet->connections) {
      diffs.push_back({NetlistDiff::Kind::ConnectionChange, name,
                       "golden{" + Netlist::signature(gnet) + "} subject{" +
                           Netlist::signature(*snet) + "}"});
    }
    if (gnet.is_port != snet->is_port) {
      diffs.push_back({NetlistDiff::Kind::PortChange, name,
                       "golden port=" + std::to_string(gnet.is_port) +
                           " subject port=" + std::to_string(snet->is_port)});
    } else if (gnet.is_port && gnet.port_dir != snet->port_dir) {
      diffs.push_back({NetlistDiff::Kind::PortChange, name,
                       "golden port=1 dir=" + to_string(gnet.port_dir) +
                           " subject port=1 dir=" +
                           to_string(snet->port_dir)});
    }
    if (gnet.global != snet->global) {
      diffs.push_back({NetlistDiff::Kind::GlobalChange, name,
                       "golden global=" + std::to_string(gnet.global) +
                           " subject global=" +
                           std::to_string(snet->global)});
    }
  }

  for (const auto& [name, snet] : subject.nets) {
    if (matched_subject.count(name)) continue;
    bool matched_named = snet.named && golden.nets.count(name);
    if (matched_named) continue;  // handled above
    if (snet.named || snet.connections.size() > 1)
      diffs.push_back({NetlistDiff::Kind::ExtraNet, name,
                       "connections: " + Netlist::signature(snet)});
  }
  return diffs;
}

std::vector<NetlistDiff> verify(const Design& src, const Design& migrated,
                                const MigrationConfig& config,
                                base::DiagnosticEngine& diags) {
  std::vector<NetlistDiff> all;

  // Rewrite a golden canonical name the way translation would have.
  auto normalize_name = [&config](const std::string& name) {
    std::string out;
    bool in_bits = false;
    for (char c : name) {
      if (c == '[') in_bits = true;
      if (c == ']') in_bits = false;
      if (in_bits || c == ']' || config.target.legal_name_char(c))
        out += c;
      else
        out += '_';
    }
    return out;
  };

  for (const auto& [cell, sch_src] : src.schematics()) {
    const Schematic* sch_dst = migrated.find_schematic(cell);
    if (!sch_dst) {
      all.push_back({NetlistDiff::Kind::MissingNet, cell,
                     "whole cell missing from migrated design"});
      continue;
    }

    Netlist golden = extract(src, sch_src, config.source, diags);
    Netlist subject = extract(migrated, *sch_dst, config.target, diags);

    // Map golden pin names through the symbol map, and normalize net names.
    // (The last instance of a name decides its symbol.)
    std::unordered_map<std::string, const SymbolMapEntry*> inst_entries;
    for (const Sheet& sheet : sch_src.sheets)
      for (const Instance& inst : sheet.instances)
        inst_entries[inst.name] = config.symbol_map.find(inst.symbol);

    Netlist mapped;
    mapped.cell = golden.cell;
    for (const auto& [name, net] : golden.nets) {
      ExtractedNet copy{normalize_name(name), net.named,    net.global,
                        net.is_port,          net.port_dir, {}};
      for (const NetConnection& c : net.connections) {
        auto it = inst_entries.find(c.instance);
        if (it != inst_entries.end() && it->second)
          copy.connections.insert(
              {c.instance, SymbolMap::map_pin(*it->second, c.pin)});
        else
          copy.connections.insert(c);
      }
      // Merge in case normalization collides two names (itself a finding).
      ExtractedNet& slot = mapped.nets[copy.canonical];
      if (slot.canonical.empty()) {
        slot = std::move(copy);
      } else {
        for (const NetConnection& c : copy.connections)
          slot.connections.insert(c);
      }
    }

    std::vector<NetlistDiff> diffs = compare(mapped, subject);
    for (NetlistDiff& d : diffs) d.net = cell + "/" + d.net;
    all.insert(all.end(), diffs.begin(), diffs.end());
  }
  return all;
}


}  // namespace oracle

/// Every field of every net, one line per net.
std::string netlist_dump(const Netlist& netlist) {
  std::string out = "cell " + netlist.cell + "\n";
  for (const auto& [name, net] : netlist.nets) {
    out += name + " canonical=" + net.canonical +
           " named=" + std::to_string(net.named) +
           " global=" + std::to_string(net.global) +
           " port=" + std::to_string(net.is_port) +
           " dir=" + to_string(net.port_dir) + " :";
    for (const NetConnection& c : net.connections)
      out += " " + c.instance + "." + c.pin;
    out += "\n";
  }
  return out;
}

/// Verify, both views and the view comparison on (src, migrated, config),
/// interned code against the oracle.
void expect_oracle_agrees(const Design& src, const Design& migrated,
                          const MigrationConfig& config,
                          const std::string& what) {
  base::DiagnosticEngine got_diags, want_diags;
  std::vector<NetlistDiff> got =
      verify_migration(src, migrated, config, got_diags);
  std::vector<NetlistDiff> want =
      oracle::verify(src, migrated, config, want_diags);
  ASSERT_EQ(diffs_text(got), diffs_text(want)) << what << ": verify diffs";
  ASSERT_EQ(diag_text(got_diags), diag_text(want_diags))
      << what << ": verify diagnostics";

  for (const auto& [cell, sch] : src.schematics()) {
    const Schematic* dst = migrated.find_schematic(cell);
    if (!dst) continue;
    base::DiagnosticEngine d1, d2, d3, d4;
    Netlist got_src = extract_netlist(src, sch, config.source, d1);
    Netlist want_src = oracle::extract(src, sch, config.source, d2);
    Netlist got_dst = extract_netlist(migrated, *dst, config.target, d3);
    Netlist want_dst = oracle::extract(migrated, *dst, config.target, d4);
    ASSERT_EQ(netlist_dump(got_src), netlist_dump(want_src))
        << what << ": source view";
    ASSERT_EQ(netlist_dump(got_dst), netlist_dump(want_dst))
        << what << ": migrated view";
    ASSERT_EQ(diag_text(d1), diag_text(d2)) << what << ": source diagnostics";
    ASSERT_EQ(diag_text(d3), diag_text(d4))
        << what << ": migrated diagnostics";
    ASSERT_EQ(diffs_text(compare_netlists(got_src, got_dst)),
              diffs_text(oracle::compare(want_src, want_dst)))
        << what << ": view comparison";
  }
}

// The oracle is only trusted by the sweep if it reproduces the goldens.
TEST(SchVerifyOracle, ReproducesTheGoldens) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Scenario scenario = make_exar_scenario(generator_case(seed, 12));
    for (Breakage b : kBreakages) {
      base::DiagnosticEngine migrate_diags;
      MigrationResult result =
          migrate_design(scenario.source, scenario.config, migrate_diags);
      MigrationConfig config = scenario.config;
      Schematic& sch = *result.design.find_schematic("top");
      base::Rng rng(seed * 7919 + std::uint64_t(b));
      switch (b) {
        case Breakage::None: break;
        case Breakage::DropWire: drop_wire(sch, rng); break;
        case Breakage::RenameLabel: rename_label(sch, rng); break;
        case Breakage::FlipPort: flip_port(result.design, sch, rng); break;
        case Breakage::DropGlobalTap:
          drop_global_tap(result.design, sch, rng);
          break;
        case Breakage::UnglobalNet:
          unglobal_net(result.design, sch, rng);
          break;
        case Breakage::PinMap:
          break_pin_map(scenario.source, config, rng);
          break;
      }
      base::DiagnosticEngine diags;
      std::vector<NetlistDiff> diffs =
          oracle::verify(scenario.source, result.design, config, diags);
      Observed o;
      o.diffs = diffs.size();
      o.diff_digest = fnv1a(diffs_text(diffs));
      o.diag_digest = fnv1a(diag_text(diags));
      expect_golden(case_name(seed, 12, b), o);
      expect_oracle_agrees(scenario.source, result.design, config,
                           case_name(seed, 12, b));
    }
  }
}

// A plain label may spell the bit name of a global bus label before its
// suffix is stripped ("DA![0]" against "DA!<0:1>"); the two then share page
// scoping. Random edits rarely build this, so it is built here.
TEST(SchVerifyOracle, UnstrippedGlobalBitSharesPageScoping) {
  Scenario scenario = make_exar_scenario(generator_case(1, 12));
  base::DiagnosticEngine migrate_diags;
  MigrationResult result =
      migrate_design(scenario.source, scenario.config, migrate_diags);
  Schematic& sch = *result.design.find_schematic("top");
  ASSERT_GE(sch.sheets.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    Sheet& sheet = sch.sheets[s];
    ASSERT_FALSE(sheet.wires.empty());
    NetLabel label;
    label.text = s == 0 ? "DA!<0:1>" : "DA![0]";
    label.at = sheet.wires.front().a;
    sheet.labels.push_back(label);
  }
  expect_oracle_agrees(scenario.source, result.design, scenario.config,
                       "global bus bit");
  base::DiagnosticEngine diags;
  Netlist view = extract_netlist(result.design, sch, scenario.config.target,
                                 diags);
  EXPECT_TRUE(
      view.nets.count("DA![0]@p" + std::to_string(sch.sheets[1].number)));
}

// ------------------------------------------------------------------- sweep

/// Label texts an edit may write: other labels' names, names that collide
/// once illegal characters become '_', global-suffixed, bus and condensed
/// forms, a page-scoped and an auto-generated lookalike, the empty name,
/// and a global bus whose unstripped bit name a plain label can spell.
const char* const kLabelTexts[] = {
    "n1",   "n2",     "a-b",  "a_b",   "a+b",   "$anon0", "_anon1",
    "x@p1", "x_p1",   "VDD",  "GND",   "VDD!",  "n3!",    "DA<0:3>",
    "DA2",  "DA<1>",  "ack-", "acka_n", "P0",   "P1",     "",
    "DA!<0:1>", "DA![0]",
};

/// One random edit of `design`'s "top" schematic, or of `config`'s symbol
/// map. Instance and pin names never gain '.' or '|': the oracle matches
/// anonymous nets by joined "inst.pin" strings, which such names can make
/// collide where the pin sets differ.
void random_edit(Design& design, MigrationConfig& config, const Design& src,
                 base::Rng& rng) {
  Schematic& sch = *design.find_schematic("top");
  Sheet& sheet = sch.sheets[rng.index(sch.sheets.size())];
  auto any_point = [&]() -> Point {
    if (!sheet.wires.empty() && rng.chance(0.8)) {
      const Segment& w = sheet.wires[rng.index(sheet.wires.size())];
      if (w.a.x == w.b.x && w.a.y != w.b.y)
        return {w.a.x, rng.uniform(std::min(w.a.y, w.b.y),
                                   std::max(w.a.y, w.b.y))};
      if (w.a.y == w.b.y && w.a.x != w.b.x)
        return {rng.uniform(std::min(w.a.x, w.b.x), std::max(w.a.x, w.b.x)),
                w.a.y};
      return rng.chance(0.5) ? w.a : w.b;
    }
    return {rng.uniform(-4, 200), rng.uniform(-200, 200)};
  };
  switch (rng.index(15)) {
    case 0:
      drop_wire(sch, rng);
      break;
    case 1:
      if (!sheet.wires.empty()) {
        Segment& w = sheet.wires[rng.index(sheet.wires.size())];
        (rng.chance(0.5) ? w.a : w.b) = any_point();
      }
      break;
    case 2:
      sheet.junctions.push_back(any_point());
      break;
    case 3:
      if (!sheet.junctions.empty())
        sheet.junctions.erase(
            sheet.junctions.begin() +
            std::ptrdiff_t(rng.index(sheet.junctions.size())));
      break;
    case 4:
      if (!sheet.labels.empty()) {
        NetLabel& label = sheet.labels[rng.index(sheet.labels.size())];
        label.text = rng.chance(0.5)
                         ? std::string(kLabelTexts[rng.index(
                               std::size(kLabelTexts))])
                         : sheet.labels[rng.index(sheet.labels.size())].text;
      }
      break;
    case 5: {
      NetLabel label;
      label.text = kLabelTexts[rng.index(std::size(kLabelTexts))];
      label.at = any_point();
      sheet.labels.push_back(label);
      break;
    }
    case 6:
      if (!sheet.labels.empty())
        sheet.labels[rng.index(sheet.labels.size())].at = any_point();
      break;
    case 7:
      if (!sheet.instances.empty())
        sheet.instances.erase(
            sheet.instances.begin() +
            std::ptrdiff_t(rng.index(sheet.instances.size())));
      break;
    case 8:
      if (!sheet.instances.empty()) {
        Instance& inst = sheet.instances[rng.index(sheet.instances.size())];
        const Instance& other =
            sheet.instances[rng.index(sheet.instances.size())];
        inst.name = rng.chance(0.5) ? other.name : inst.name + "b";
      }
      break;
    case 9:
      if (!sheet.instances.empty()) {
        Instance& inst = sheet.instances[rng.index(sheet.instances.size())];
        if (rng.chance(0.3)) {
          inst.symbol = {"nolib", "nocell", "sym"};
        } else {
          auto it = design.symbols().begin();
          std::advance(it, std::ptrdiff_t(rng.index(design.symbols().size())));
          inst.symbol = it->first;
        }
      }
      break;
    case 10:
      if (!sheet.instances.empty()) {
        Instance& inst = sheet.instances[rng.index(sheet.instances.size())];
        const char* keys[] = {"net", "port", "dir"};
        const char* dirs[] = {"input", "output", "inout", "sideways"};
        const char* key = keys[rng.index(3)];
        const char* text = std::string(key) == "dir"
                               ? dirs[rng.index(4)]
                               : kLabelTexts[rng.index(std::size(kLabelTexts))];
        inst.props.set(key, text);
      }
      break;
    case 11:
      flip_port(design, sch, rng);
      break;
    case 12:
      if (rng.chance(0.5))
        drop_global_tap(design, sch, rng);
      else
        unglobal_net(design, sch, rng);
      break;
    case 13:
      break_pin_map(src, config, rng);
      break;
    case 14:
      if (!sheet.wires.empty())
        sheet.wires.push_back(sheet.wires[rng.index(sheet.wires.size())]);
      break;
  }
}

/// "lo:hi" from GOLDEN_SEED_RANGE; false (-> GTEST_SKIP) when unset, so the
/// sweep only runs from its `sweep`-labeled ctest entry (see
/// tests/CMakeLists.txt: INTEROP_SCH_SWEEP_RANGE).
bool sweep_range(std::uint64_t& lo, std::uint64_t& hi) {
  const char* v = std::getenv("GOLDEN_SEED_RANGE");
  if (v == nullptr) return false;
  unsigned long long a = 0, b = 0;
  if (std::sscanf(v, "%llu:%llu", &a, &b) != 2 || b < a) return false;
  lo = a;
  hi = b;
  return true;
}

TEST(SchVerifySweep, InternedVerifyMatchesStringOracle) {
  std::uint64_t lo = 0, hi = 0;
  if (!sweep_range(lo, hi))
    GTEST_SKIP() << "set GOLDEN_SEED_RANGE=lo:hi to run the broad sweep";
  for (std::uint64_t seed = lo; seed <= hi; ++seed) {
    base::Rng shape(seed);
    GeneratorOptions opt;
    opt.seed = seed;
    opt.sheets = 1 + int(shape.index(3));
    opt.components_per_sheet = 2 + int(shape.index(30));
    opt.nets_per_sheet = int(shape.index(20));
    opt.buses = int(shape.index(3));
    opt.ports = int(shape.index(3));
    opt.cross_page_nets = int(shape.index(3));
    opt.global_taps = int(shape.index(5));
    const Scenario scenario = make_exar_scenario(opt);
    base::DiagnosticEngine migrate_diags;
    const MigrationResult migrated =
        migrate_design(scenario.source, scenario.config, migrate_diags);
    const std::string name = "seed " + std::to_string(seed);
    expect_oracle_agrees(scenario.source, migrated.design, scenario.config,
                         name);
    base::Rng rng(seed * 7919);
    for (int i = 0; i < 250; ++i) {
      Design src = scenario.source;
      Design dst = migrated.design;
      MigrationConfig config = scenario.config;
      for (std::size_t e = 1 + rng.index(3); e > 0; --e) {
        if (rng.chance(0.5))
          random_edit(src, config, scenario.source, rng);
        else
          random_edit(dst, config, scenario.source, rng);
      }
      expect_oracle_agrees(src, dst, config,
                           name + " edit " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace interop::sch
