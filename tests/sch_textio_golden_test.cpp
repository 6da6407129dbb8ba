// Differential goldens for the schematic text format (schematic/textio).
//
// Every case feeds a text to read_design and observes the outcome: for an
// accepted text, the digest of write_design(read_design(text)) and of the
// diagnostic sequence; for a rejected one, the exception type (AlError,
// runtime_error or another std::exception) and its what(). The goldens
// below were captured from the reader that built a full a/L value tree
// and walked it, and from the ostream writer:
//   - generator seeds 1-5 at four sizes, plus every schematic entry of
//     tests/corpus/;
//   - hand-written texts pinning the error precedence: a syntax error
//     anywhere beats a structure error and suppresses unknown-field
//     warnings;
//   - 2 000 mutated texts (erase, insert, replace, paren and field
//     duplication), folded into one digest per group of 50.
// A mismatch prints the actual row in the table's own syntax.
//
// The sweep (GOLDEN_SEED_RANGE=lo:hi, ctest label `sweep`) has no goldens
// to lean on; it checks read_design against the value-tree reader kept
// below as an oracle, on mutations of generator designs of varied shape.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "al/reader.hpp"
#include "base/rng.hpp"
#include "fuzz/corpus.hpp"
#include "runtime/hash.hpp"
#include "schematic/generator.hpp"
#include "schematic/textio.hpp"

namespace interop::sch {
namespace {

using runtime::fnv1a;

std::string diag_text(const base::DiagnosticEngine& diags) {
  std::string out;
  for (const base::Diagnostic& d : diags.all())
    out += std::to_string(int(d.severity)) + "|" + d.code + "|" +
           d.location.subsystem + "|" + d.location.object + "|" + d.message +
           "\n";
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// One line per outcome: "ok <design digest> <diags digest>" or
/// "<exception type>: <what()>".
template <class Reader>
std::string observe_with(Reader&& read, const std::string& text) {
  base::DiagnosticEngine diags;
  try {
    Design d = read(text, diags);
    return "ok " + hex(fnv1a(write_design(d))) + " " +
           hex(fnv1a(diag_text(diags)));
  } catch (const al::AlError& e) {
    return std::string("AlError: ") + e.what();
  } catch (const std::runtime_error& e) {
    return std::string("runtime_error: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

std::string observe(const std::string& text) {
  return observe_with(
      [](const std::string& t, base::DiagnosticEngine& d) {
        return read_design(t, d);
      },
      text);
}

// ------------------------------------------------------------ generators

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

/// The text of a generator design: `components` per sheet, with two-pin
/// nets at two thirds of that (the migrate_large / tapeout proportions).
std::string generated_text(std::uint64_t seed, int components) {
  GeneratorOptions opt;
  opt.seed = seed;
  opt.components_per_sheet = components;
  opt.nets_per_sheet = components * 2 / 3;
  return write_design(make_exar_scenario(opt).source);
}

/// A small design that uses every tag and value kind the format has: all
/// symbol roles and pin directions, int/dbl/bool/str/list properties,
/// attached text, labels with visuals, junctions and notes.
std::string rich_text() {
  Design d(base::Grid(base::Rational(1, 10)));
  SymbolDef inv;
  inv.key = {"lib", "inv", "sym"};
  inv.body = Rect({-2, -1}, {2, 1});
  inv.grid = base::Grid(base::Rational(1, 20));
  inv.pins = {{"A", {-2, 0}, PinDir::Input},
              {"Y", {2, 0}, PinDir::Output},
              {"B\\\"q", {0, 1}, PinDir::Inout}};
  inv.default_props.set("area", base::PropertyValue(std::int64_t(-3)));
  inv.default_props.set("delay", base::PropertyValue(1.5e-9));
  inv.default_props.set("big", base::PropertyValue(12345678.9));
  inv.default_props.set("flag", base::PropertyValue(true));
  d.add_symbol(inv);
  const SymbolRole roles[] = {SymbolRole::HierPort, SymbolRole::OffPage,
                              SymbolRole::GlobalNet};
  const char* names[] = {"port", "offpage", "vdd"};
  for (int i = 0; i < 3; ++i) {
    SymbolDef s;
    s.key = {"conn", names[i], "sym"};
    s.role = roles[i];
    s.body = Rect({0, 0}, {1, 1});
    s.pins = {{"P", {0, 0}, PinDir::Inout}};
    d.add_symbol(s);
  }

  Schematic sch;
  sch.cell = "top \"cell\"";
  sch.props.set("rev", base::PropertyValue("a\\b"));
  sch.props.set("list", base::PropertyValue(base::PropertyValue::List{
                            base::PropertyValue("x"),
                            base::PropertyValue(std::int64_t(2))}));
  for (int n = 1; n <= 2; ++n) {
    Sheet sheet;
    sheet.number = n;
    sheet.frame = Rect({-8, -144}, {2193, 244});
    Instance u;
    u.name = "U" + std::to_string(n);
    u.symbol = inv.key;
    u.placement = Transform(Orient::MYR90, {10 * n, -20});
    u.props.set("REFDES", base::PropertyValue(u.name));
    u.props.set("fanout", base::PropertyValue(0.25));
    u.attached_text.push_back({"U", {10 * n, -18}, 2, 1, Orient::R90});
    sheet.instances.push_back(u);
    Instance p;
    p.name = "P" + std::to_string(n);
    p.symbol = {"conn", "port", "sym"};
    sheet.instances.push_back(p);
    sheet.wires.push_back({{0, 0}, {12, 0}});
    sheet.wires.push_back({{12, 0}, {12, -20}});
    sheet.junctions.push_back({12, 0});
    sheet.labels.push_back(
        {"D<3:0>", {6, 0}, {"D<3:0>", {6, 1}, 1, 0, Orient::R0}});
    sheet.notes.push_back({"note\nline", {0, 50}, 3, -1, Orient::MX});
    sch.sheets.push_back(sheet);
  }
  d.add_schematic(sch);
  return write_design(d);
}

// -------------------------------------------------------------- mutation

/// Index of the ')' closing the '(' at `open`, counting parens naively
/// (strings are not skipped); npos when unbalanced.
std::size_t matching_close(const std::string& s, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// 1-4 edits: the robustness_test erase/insert/replace, plus duplicating
/// a paren and duplicating a whole parenthesised field in place.
std::string mutate(const std::string& src, base::Rng& rng) {
  std::string out = src;
  int edits = 1 + int(rng.index(4));
  for (int e = 0; e < edits; ++e) {
    if (out.empty()) break;
    std::size_t pos = rng.index(out.size());
    switch (rng.index(5)) {
      case 0: out.erase(pos, 1 + rng.index(5)); break;
      case 1: out.insert(pos, std::string(1, char(33 + rng.index(90)))); break;
      case 2: out[pos] = char(33 + rng.index(90)); break;
      case 3: {
        std::size_t p = out.find_first_of("()", pos);
        if (p != std::string::npos) out.insert(p, 1, out[p]);
        break;
      }
      default: {
        std::size_t open = out.find('(', pos);
        if (open == std::string::npos) break;
        std::size_t close = matching_close(out, open);
        if (close == std::string::npos) break;
        out.insert(close + 1, out.substr(open, close + 1 - open));
        break;
      }
    }
  }
  return out;
}

// --------------------------------------------------------------- goldens

struct Golden {
  const char* name;
  const char* outcome;
};

// clang-format off
constexpr Golden kDesignGoldens[] = {
    {"condensed-busref", "ok a79f53c3af94f13b cbf29ce484222325"},
    {"rich", "ok 824cf66fa9abce23 cbf29ce484222325"},
    {"s1c12", "ok 74b2344c9eb22f86 cbf29ce484222325"},
    {"s2c12", "ok 40126283bb3ddbb0 cbf29ce484222325"},
    {"s3c12", "ok 70c5177c23013c33 cbf29ce484222325"},
    {"s4c12", "ok b58ed4ce9a980be0 cbf29ce484222325"},
    {"s5c12", "ok 47faec28122e7af2 cbf29ce484222325"},
    {"s1c100", "ok d494a00964a99d95 cbf29ce484222325"},
    {"s2c100", "ok 5ff4171f94f3c1e3 cbf29ce484222325"},
    {"s3c100", "ok 027ea7c02568fa27 cbf29ce484222325"},
    {"s4c100", "ok 7f9b95e2142a88d9 cbf29ce484222325"},
    {"s5c100", "ok 765185452b91a0be cbf29ce484222325"},
    {"s1c400", "ok dc4461b01ebbbd50 cbf29ce484222325"},
    {"s2c400", "ok d5a18539329513f2 cbf29ce484222325"},
    {"s3c400", "ok 5af749197e82d9a4 cbf29ce484222325"},
    {"s4c400", "ok bfd3173cc099f662 cbf29ce484222325"},
    {"s5c400", "ok 8d6d83129bb692e1 cbf29ce484222325"},
    {"s1c1600", "ok 48f1ef32c66e7ab3 cbf29ce484222325"},
    {"s2c1600", "ok 07897c1e56e52f65 cbf29ce484222325"},
    {"s3c1600", "ok 0714685a101802b0 cbf29ce484222325"},
    {"s4c1600", "ok a98d728b5799423a cbf29ce484222325"},
    {"s5c1600", "ok dad06d7352eaa340 cbf29ce484222325"},
};

/// Hand-written texts and their outcome lines, verbatim.
constexpr Golden kPrecedenceGoldens[] = {
    {"", "runtime_error: schematic read: expected a single (design ...) form"},
    {"(design", "AlError: unterminated list"},
    {"(design (grid 1 1)", "AlError: unterminated list"},
    {"(design))", "AlError: unexpected ')'"},
    {")", "AlError: unexpected ')'"},
    {"'", "AlError: unexpected end of input"},
    {"(design '", "AlError: unexpected end of input"},
    {"(design ')", "AlError: unexpected ')'"},
    {"(design \"abc", "AlError: unterminated string"},
    {"(design \"a\\", "AlError: dangling escape"},
    {"(design \"a\\q\")", "AlError: unknown escape \\q"},
    {"(design) x", "runtime_error: schematic read: expected a single (design ...) form"},
    {"x", "runtime_error: schematic read: expected a tagged list"},
    {"(x)", "runtime_error: schematic read: expected a single (design ...) form"},
    {"()", "runtime_error: schematic read: expected a tagged list"},
    {"nil", "runtime_error: schematic read: expected a tagged list"},
    {"'design", "runtime_error: schematic read: expected a single (design ...) form"},
    {"'(design)", "runtime_error: schematic read: expected a single (design ...) form"},
    {"(design) (design)", "runtime_error: schematic read: expected a single (design ...) form"},
    {"(design) ;c\n", "ok 5c5a796a7e4350cf cbf29ce484222325"},
    {"(design (grid x 1) (", "AlError: unterminated list"},
    {"(design (grid 1 0) \"", "AlError: unterminated string"},
    {"(x) )", "AlError: unexpected ')'"},
    {"(design (symbol (body 1 2 3)) (schematic \"a\" (sheet 1 (frame", "AlError: unterminated list"},
    {"(design (bogus) (grid 1 1) (symbol (key \"a\" \"b\" \"c\") (what)) (", "AlError: unterminated list"},
    {"(design (grid x 1)) (design)", "runtime_error: schematic read: expected a single (design ...) form"},
    {"(design (grid x 1)) y", "runtime_error: schematic read: expected a single (design ...) form"},
    {"(design (grid 1 0)) )", "AlError: unexpected ')'"},
    {"(design (grid 1 0)) x", "runtime_error: schematic read: expected a single (design ...) form"},
    {"(design (bogus)) (", "AlError: unterminated list"},
    {"(design (bogus) (grid x 1)) ;\n(", "AlError: unterminated list"},
    {"(design ''x (grid 1 2) '(a))", "ok cbd448a5bbc6bd3a 46d0c68e78cd1ed3"},
    {"(design (bogus) (symbol (key \"l\" \"c\" \"v\") (odd 1)) (grid 1 x))", "runtime_error: schematic read: expected integer field"},
    {"(design (grid 1 1 9 (a) \"b\"))", "ok 5c5a796a7e4350cf cbf29ce484222325"},
    {"(design (grid 1))", "runtime_error: schematic read: expected integer field"},
    {"(design (grid 1.5 1))", "runtime_error: schematic read: expected integer field"},
    {"(design (grid #t 1))", "runtime_error: schematic read: expected integer field"},
    {"(design (grid nil 1))", "runtime_error: schematic read: expected integer field"},
    {"(design (grid '1 1))", "runtime_error: schematic read: expected integer field"},
    {"(design (grid (1) 1))", "runtime_error: schematic read: expected integer field"},
    {"(design (grid 1 -2))", "ok 713ed57dab565ba1 cbf29ce484222325"},
    {"(design (grid 1 0))", "exception: Rational: zero denominator"},
    {"(design 'x)", "ok 5c5a796a7e4350cf ee929b07a08b0dc0"},
    {"(design (quote x))", "ok 5c5a796a7e4350cf ee929b07a08b0dc0"},
    {"(design x)", "runtime_error: schematic read: expected a tagged list"},
    {"(design 5)", "runtime_error: schematic read: expected a tagged list"},
    {"(design (5))", "runtime_error: schematic read: expected a tagged list"},
    {"(design ())", "runtime_error: schematic read: expected a tagged list"},
    {"(design nil)", "runtime_error: schematic read: expected a tagged list"},
    {"(design (symbol (prop 5 int x)))", "runtime_error: schematic read: expected integer field"},
    {"(design (symbol (prop 5 7)))", "runtime_error: schematic read: expected symbol field"},
    {"(design (symbol (prop)))", "runtime_error: schematic read: expected symbol field"},
    {"(design (symbol (prop \"p\")))", "runtime_error: schematic read: expected symbol field"},
    {"(design (symbol (prop (x y) int 5)))", "runtime_error: schematic read: expected string field"},
    {"(design (symbol (prop \"p\" dbl x)))", "runtime_error: schematic read: expected numeric dbl field"},
    {"(design (symbol (prop \"p\" dbl)))", "runtime_error: schematic read: expected numeric dbl field"},
    {"(design (symbol (prop \"p\" dbl 7) (prop \"q\" dbl -2.5e3)))", "ok efcf585bf26e4bbd cbf29ce484222325"},
    {"(design (symbol (prop \"p\" bool 2) (prop \"q\" bool 0)))", "ok 14b6d8c2c72b9af9 cbf29ce484222325"},
    {"(design (symbol (prop \"p\" int 1.5)))", "runtime_error: schematic read: expected integer field"},
    {"(design (symbol (prop \"p\" str 5)))", "runtime_error: schematic read: expected string field"},
    {"(design (symbol (prop \"p\" any \"v\")))", "ok 9346d918b37a28a8 cbf29ce484222325"},
    {"(design (symbol (prop \"p\" \"int\" 5)))", "runtime_error: schematic read: expected symbol field"},
    {"(design (schematic \"a\" (prop 5 int x)))", "runtime_error: schematic read: expected integer field"},
    {"(design (schematic \"a\" (sheet 1 (instance \"u\" (prop 5 int x)))))", "runtime_error: schematic read: expected integer field"},
    {"(design (symbol (role nil)))", "runtime_error: schematic read: expected symbol field"},
    {"(design (symbol (role \"x\")))", "runtime_error: schematic read: expected symbol field"},
    {"(design (symbol (role hier-port) (role whatever)))", "ok 74436c0374a1eacd cbf29ce484222325"},
    {"(design (symbol (pin \"a\" 1 2 input) (pin \"b\" 1 2 sideways)))", "ok 2d3a3c13401a3653 cbf29ce484222325"},
    {"(design (symbol (pin \"a\" 1 2)))", "runtime_error: schematic read: expected symbol field"},
    {"(design (symbol (pin a 1 2 input)))", "runtime_error: schematic read: expected string field"},
    {"(design (symbol (key \"a\" \"b\")))", "runtime_error: schematic read: expected string field"},
    {"(design (symbol (key \"a\" \"b\" \"c\" \"d\")))", "ok 0b95dd5f6dc676e2 cbf29ce484222325"},
    {"(design (symbol (grid 1 2) (body 4 3 2 1)))", "ok 70fe78191bb3fbf8 cbf29ce484222325"},
    {"(design (symbol (key \"a\" \"b\" \"c\") 'q))", "ok 0b95dd5f6dc676e2 a40bd24a293c502e"},
    {"(design (symbol (zzz) (key \"a\" \"b\" \"c\") (yyy)))", "ok 0b95dd5f6dc676e2 3d538605878e010b"},
    {"(design (symbol))", "ok 74436c0374a1eacd cbf29ce484222325"},
    {"(design (schematic))", "runtime_error: schematic read: expected string field"},
    {"(design (schematic a))", "runtime_error: schematic read: expected string field"},
    {"(design (schematic \"a\"))", "ok cf8d315800cf552e cbf29ce484222325"},
    {"(design (schematic \"a\" (sheet)))", "runtime_error: schematic read: expected integer field"},
    {"(design (schematic \"a\" (sheet x)))", "runtime_error: schematic read: expected integer field"},
    {"(design (schematic \"a\" (sheet 1) (zap 1) 'q))", "ok 2aa74c97771f3461 69fa76e822cdca62"},
    {"(design (schematic \"a\" (sheet 1 (frame 1 2 3 4) (wire 1 2 3 4) (junction 5 6))))", "ok 524429c96bdfb52d cbf29ce484222325"},
    {"(design (schematic \"a\" (sheet 1 (wire 1 2 3))))", "runtime_error: schematic read: expected integer field"},
    {"(design (schematic \"a\" (sheet 1 (junction 1))))", "runtime_error: schematic read: expected integer field"},
    {"(design (schematic \"a\" (sheet 1 (note \"n\" 1 2 3 4 R0))))", "ok db8cae204a7c4816 cbf29ce484222325"},
    {"(design (schematic \"a\" (sheet 1 (note \"n\" 1 2 3 4 Q9))))", "runtime_error: schematic read: bad orient in text"},
    {"(design (schematic \"a\" (sheet 1 (note \"n\" 1 2 3 4))))", "runtime_error: schematic read: expected symbol field"},
    {"(design (schematic \"a\" (sheet 1 (label \"n\" 1 2))))", "ok f8e583381daa8105 cbf29ce484222325"},
    {"(design (schematic \"a\" (sheet 1 (label \"n\" 1 2 (visual \"v\" 1 2 3 4 MY)))))", "ok 6e5de2c191ae39cc cbf29ce484222325"},
    {"(design (schematic \"a\" (sheet 1 (label \"n\" 1 2 (other 1) 'x (visual \"v\" 1 2 3 4 R0) (visual \"w\" 5 6 7 8 R90)))))", "ok 9a7b4d5f93a36722 cbf29ce484222325"},
    {"(design (schematic \"a\" (sheet 1 (label \"n\" 1 2 x))))", "runtime_error: schematic read: expected a tagged list"},
    {"(design (schematic \"a\" (sheet 1 (label \"n\" 1 2 (visual \"v\" 1 2 3)))))", "runtime_error: schematic read: expected integer field"},
    {"(design (schematic \"a\" (sheet 1 (instance \"u\"))))", "ok 995fea5864320dbd cbf29ce484222325"},
    {"(design (schematic \"a\" (sheet 1 (instance u))))", "runtime_error: schematic read: expected string field"},
    {"(design (schematic \"a\" (sheet 1 (instance \"u\" (place R90 1 2) (key \"l\" \"c\" \"v\") (text \"t\" 1 2 3 4 R0) (junk) 'q))))", "ok acee7b7a463b4141 10b404c02a4257b9"},
    {"(design (schematic \"a\" (sheet 1 (instance \"u\" (place R45 1 2)))))", "runtime_error: schematic read: bad orient in place"},
    {"(design (schematic \"a\" (sheet 1 (instance \"u\" (place 1 2 3)))))", "runtime_error: schematic read: expected symbol field"},
    {"(design (schematic \"a\" (sheet 1 (instance \"u\" (place R0 1)))))", "runtime_error: schematic read: expected integer field"},
    {"(design (schematic \"a\" (sheet 1 (instance \"u\" 5))))", "runtime_error: schematic read: expected a tagged list"},
    {"(design (schematic \"a\" (sheet 2) (sheet 1)) (schematic \"a\" (sheet 3)))", "ok 3c5757e2ab607433 cbf29ce484222325"},
    {"(design (grid 99999999999999999999 1))", "runtime_error: schematic read: expected integer field"},
    {"(design (grid 1e99999 1))", "runtime_error: schematic read: expected integer field"},
    {"(design (grid +7 1))", "ok 3ee7e60e036f68f9 cbf29ce484222325"},
    {"(design ; comment (\n (grid 1 2))", "ok cbd448a5bbc6bd3a cbf29ce484222325"},
    {"(design (schematic \"a\\tb\\n\" (sheet 1)))", "ok 7576d51efe30e1dc cbf29ce484222325"},
    {"(design (schematic \"a\" (sheet 1 (note \"x\" 1 2 3 4 R0)(note\"y\"1 2 3 4 R0))))", "ok d75dc987e82c9356 cbf29ce484222325"},
    {"(design(grid 1 2)(symbol(key\"a\"\"b\"\"c\")))", "ok 7f2d65d89a03dd01 cbf29ce484222325"},
    {"(design #f)", "runtime_error: schematic read: expected a tagged list"},
    {"(design (#t))", "runtime_error: schematic read: expected a tagged list"},
    {"(design (grid 1 1) . x)", "runtime_error: schematic read: expected a tagged list"},
};

/// Mutated texts: per group of 50, the digest of the outcome lines and
/// how many were accepted / AlError / runtime_error / other.
constexpr Golden kMutationGoldens[] = {
    {"rich/0", "a4383d06bf4527a1 ok=13 al=24 rt=13 other=0"},
    {"rich/1", "4f2158f9421ee282 ok=14 al=27 rt=9 other=0"},
    {"rich/2", "151bad75b00ee37e ok=10 al=27 rt=13 other=0"},
    {"rich/3", "ccf726d8c5e3ee3d ok=10 al=25 rt=15 other=0"},
    {"rich/4", "d34ca753b0905ba6 ok=13 al=26 rt=11 other=0"},
    {"rich/5", "2bcf8dd928b22151 ok=14 al=24 rt=12 other=0"},
    {"rich/6", "33dcebb3a2025cb2 ok=11 al=23 rt=16 other=0"},
    {"rich/7", "2ddf0d7dd6aa7328 ok=16 al=19 rt=15 other=0"},
    {"rich/8", "b4a0ed23c32474e5 ok=21 al=21 rt=8 other=0"},
    {"rich/9", "695827ee1e0a754f ok=9 al=20 rt=21 other=0"},
    {"s1c12/0", "733bbaf0c7db8142 ok=13 al=23 rt=14 other=0"},
    {"s1c12/1", "2de4c7c9ef1696b6 ok=14 al=22 rt=14 other=0"},
    {"s1c12/2", "8ab024633602dd90 ok=9 al=25 rt=16 other=0"},
    {"s1c12/3", "1c8109e3f5bc7788 ok=9 al=25 rt=16 other=0"},
    {"s1c12/4", "ba0f04b3e23e7ba4 ok=7 al=32 rt=11 other=0"},
    {"s1c12/5", "61c40f28839b6837 ok=11 al=25 rt=14 other=0"},
    {"s1c12/6", "53f467f18eceacec ok=11 al=29 rt=10 other=0"},
    {"s1c12/7", "9ab20e989d99986c ok=9 al=27 rt=14 other=0"},
    {"s1c12/8", "964179292141294e ok=12 al=20 rt=18 other=0"},
    {"s1c12/9", "7b7aa647c305a4c7 ok=10 al=31 rt=9 other=0"},
    {"s2c6/0", "b6f5b94363b08b0e ok=6 al=26 rt=18 other=0"},
    {"s2c6/1", "caf119312f39cf36 ok=8 al=32 rt=10 other=0"},
    {"s2c6/2", "e5e440089c094bc9 ok=14 al=21 rt=15 other=0"},
    {"s2c6/3", "95ba88c8b3472406 ok=16 al=22 rt=12 other=0"},
    {"s2c6/4", "663014c379d2d53c ok=8 al=33 rt=9 other=0"},
    {"s2c6/5", "6305bbd06663835a ok=11 al=21 rt=18 other=0"},
    {"s2c6/6", "f9080938b7db87f0 ok=11 al=23 rt=16 other=0"},
    {"s2c6/7", "2deda26285c5a5c4 ok=9 al=27 rt=14 other=0"},
    {"s2c6/8", "5188c90b2e4e288c ok=13 al=26 rt=11 other=0"},
    {"s2c6/9", "c22dff2b8ee9b49f ok=10 al=26 rt=14 other=0"},
    {"s3c3/0", "666b8d4cdcd30355 ok=8 al=22 rt=20 other=0"},
    {"s3c3/1", "24d8b837da54a350 ok=9 al=30 rt=11 other=0"},
    {"s3c3/2", "0af444d0487e1361 ok=12 al=30 rt=8 other=0"},
    {"s3c3/3", "905a7695d645e15f ok=6 al=31 rt=13 other=0"},
    {"s3c3/4", "c92a1dd3053c2dc7 ok=15 al=19 rt=16 other=0"},
    {"s3c3/5", "93b340b558273746 ok=9 al=23 rt=18 other=0"},
    {"s3c3/6", "142a164c13a0c6e9 ok=9 al=22 rt=19 other=0"},
    {"s3c3/7", "6d81f226554bf14a ok=8 al=22 rt=20 other=0"},
    {"s3c3/8", "0bff0bdaaa6379d6 ok=11 al=29 rt=10 other=0"},
    {"s3c3/9", "471838252f45982f ok=17 al=18 rt=15 other=0"},
};
// clang-format on

const Golden* find_golden(const Golden* table, std::size_t n,
                          const std::string& name) {
  for (std::size_t i = 0; i < n; ++i)
    if (name == table[i].name) return &table[i];
  return nullptr;
}

/// `s` as a C++ string literal.
std::string literal(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  return out + "\"";
}

template <std::size_t N>
void expect_golden(const Golden (&table)[N], const std::string& name,
                   const std::string& outcome) {
  const Golden* g = find_golden(table, N, name);
  if (g == nullptr || outcome != g->outcome)
    ADD_FAILURE() << (g ? "mismatch" : "no golden") << " for " << name
                  << "; actual:\n{" << literal(name) << ", "
                  << literal(outcome) << "},";
}

class SchTextIoGolden : public ::testing::TestWithParam<int> {};

TEST_P(SchTextIoGolden, GeneratorSeedsMatch) {
  const int components = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::string name =
        "s" + std::to_string(seed) + "c" + std::to_string(components);
    expect_golden(kDesignGoldens, name,
                  observe(generated_text(seed, components)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SchTextIoGolden,
                         ::testing::Values(12, 100, 400, 1600));

TEST(SchTextIoGoldenCorpus, SchematicEntriesMatch) {
  std::size_t replayed = 0;
  for (const std::string& path : fuzz::list_reproducers(INTEROP_CORPUS_DIR)) {
    fuzz::Reproducer repro = fuzz::load_reproducer(path);
    if (!repro.spec.sch) continue;
    std::string text =
        write_design(make_exar_scenario(corpus_case(repro.spec)).source);
    expect_golden(kDesignGoldens, repro.name, observe(text));
    ++replayed;
  }
  EXPECT_GE(replayed, 1u) << "corpus had no schematic entries";
}

TEST(SchTextIoGoldenRich, EveryTagRoundTrips) {
  expect_golden(kDesignGoldens, "rich", observe(rich_text()));
}

TEST(SchTextIoGoldenPrecedence, HandWrittenTextsMatch) {
  // clang-format off
  const char* texts[] = {
      // Syntax errors, each alone.
      "", "(design", "(design (grid 1 1)", "(design))", ")", "'",
      "(design '", "(design ')", "(design \"abc", "(design \"a\\",
      "(design \"a\\q\")", "(design) x", "x", "(x)", "()", "nil", "'design",
      "'(design)", "(design) (design)", "(design) ;c\n",
      // A structure error, then a syntax error later in the text.
      "(design (grid x 1) (", "(design (grid 1 0) \"", "(x) )",
      "(design (symbol (body 1 2 3)) (schematic \"a\" (sheet 1 (frame",
      "(design (bogus) (grid 1 1) (symbol (key \"a\" \"b\" \"c\") (what)) (",
      // A structure error, then more forms after the design.
      "(design (grid x 1)) (design)", "(design (grid x 1)) y",
      "(design (grid 1 0)) )", "(design (grid 1 0)) x", "(design (bogus)) (",
      "(design (bogus) (grid x 1)) ;\n(", "(design ''x (grid 1 2) '(a))",
      // Warnings before a structure error.
      "(design (bogus) (symbol (key \"l\" \"c\" \"v\") (odd 1)) (grid 1 x))",
      // Field kinds and counts.
      "(design (grid 1 1 9 (a) \"b\"))", "(design (grid 1))",
      "(design (grid 1.5 1))", "(design (grid #t 1))", "(design (grid nil 1))",
      "(design (grid '1 1))", "(design (grid (1) 1))",
      "(design (grid 1 -2))", "(design (grid 1 0))",
      "(design 'x)", "(design (quote x))", "(design x)", "(design 5)",
      "(design (5))", "(design ())", "(design nil)",
      // Props: the value is checked before the name.
      "(design (symbol (prop 5 int x)))", "(design (symbol (prop 5 7)))",
      "(design (symbol (prop)))", "(design (symbol (prop \"p\")))",
      "(design (symbol (prop (x y) int 5)))",
      "(design (symbol (prop \"p\" dbl x)))", "(design (symbol (prop \"p\" dbl)))",
      "(design (symbol (prop \"p\" dbl 7) (prop \"q\" dbl -2.5e3)))",
      "(design (symbol (prop \"p\" bool 2) (prop \"q\" bool 0)))",
      "(design (symbol (prop \"p\" int 1.5)))",
      "(design (symbol (prop \"p\" str 5)))", "(design (symbol (prop \"p\" any \"v\")))",
      "(design (symbol (prop \"p\" \"int\" 5)))",
      "(design (schematic \"a\" (prop 5 int x)))",
      "(design (schematic \"a\" (sheet 1 (instance \"u\" (prop 5 int x)))))",
      // Symbols.
      "(design (symbol (role nil)))", "(design (symbol (role \"x\")))",
      "(design (symbol (role hier-port) (role whatever)))",
      "(design (symbol (pin \"a\" 1 2 input) (pin \"b\" 1 2 sideways)))",
      "(design (symbol (pin \"a\" 1 2)))", "(design (symbol (pin a 1 2 input)))",
      "(design (symbol (key \"a\" \"b\")))", "(design (symbol (key \"a\" \"b\" \"c\" \"d\")))",
      "(design (symbol (grid 1 2) (body 4 3 2 1)))",
      "(design (symbol (key \"a\" \"b\" \"c\") 'q))",
      "(design (symbol (zzz) (key \"a\" \"b\" \"c\") (yyy)))",
      "(design (symbol))",
      // Schematics, sheets, instances, labels.
      "(design (schematic))", "(design (schematic a))", "(design (schematic \"a\"))",
      "(design (schematic \"a\" (sheet)))", "(design (schematic \"a\" (sheet x)))",
      "(design (schematic \"a\" (sheet 1) (zap 1) 'q))",
      "(design (schematic \"a\" (sheet 1 (frame 1 2 3 4) (wire 1 2 3 4) (junction 5 6))))",
      "(design (schematic \"a\" (sheet 1 (wire 1 2 3))))",
      "(design (schematic \"a\" (sheet 1 (junction 1))))",
      "(design (schematic \"a\" (sheet 1 (note \"n\" 1 2 3 4 R0))))",
      "(design (schematic \"a\" (sheet 1 (note \"n\" 1 2 3 4 Q9))))",
      "(design (schematic \"a\" (sheet 1 (note \"n\" 1 2 3 4))))",
      "(design (schematic \"a\" (sheet 1 (label \"n\" 1 2))))",
      "(design (schematic \"a\" (sheet 1 (label \"n\" 1 2 (visual \"v\" 1 2 3 4 MY)))))",
      "(design (schematic \"a\" (sheet 1 (label \"n\" 1 2 (other 1) 'x (visual \"v\" 1 2 3 4 R0) (visual \"w\" 5 6 7 8 R90)))))",
      "(design (schematic \"a\" (sheet 1 (label \"n\" 1 2 x))))",
      "(design (schematic \"a\" (sheet 1 (label \"n\" 1 2 (visual \"v\" 1 2 3)))))",
      "(design (schematic \"a\" (sheet 1 (instance \"u\"))))",
      "(design (schematic \"a\" (sheet 1 (instance u))))",
      "(design (schematic \"a\" (sheet 1 (instance \"u\" (place R90 1 2) (key \"l\" \"c\" \"v\") (text \"t\" 1 2 3 4 R0) (junk) 'q))))",
      "(design (schematic \"a\" (sheet 1 (instance \"u\" (place R45 1 2)))))",
      "(design (schematic \"a\" (sheet 1 (instance \"u\" (place 1 2 3)))))",
      "(design (schematic \"a\" (sheet 1 (instance \"u\" (place R0 1)))))",
      "(design (schematic \"a\" (sheet 1 (instance \"u\" 5))))",
      "(design (schematic \"a\" (sheet 2) (sheet 1)) (schematic \"a\" (sheet 3)))",
      // Lexical details.
      "(design (grid 99999999999999999999 1))", "(design (grid 1e99999 1))",
      "(design (grid +7 1))", "(design ; comment (\n (grid 1 2))",
      "(design (schematic \"a\\tb\\n\" (sheet 1)))",
      "(design (schematic \"a\" (sheet 1 (note \"x\" 1 2 3 4 R0)(note\"y\"1 2 3 4 R0))))",
      "(design(grid 1 2)(symbol(key\"a\"\"b\"\"c\")))",
      "(design #f)", "(design (#t))", "(design (grid 1 1) . x)",
  };
  // clang-format on
  for (const char* text : texts)
    expect_golden(kPrecedenceGoldens, text, observe(text));
}

TEST(SchTextIoGoldenMutations, MutatedTextsMatch) {
  struct Base {
    const char* name;
    std::string text;
  };
  const Base bases[] = {
      {"rich", rich_text()},
      {"s1c12", generated_text(1, 12)},
      {"s2c6", generated_text(2, 6)},
      {"s3c3", generated_text(3, 3)},
  };
  constexpr int kPerBase = 500, kGroup = 50;
  const char* const kKinds[] = {"ok ", "AlError:", "runtime_error:"};
  for (const Base& b : bases) {
    base::Rng rng(fnv1a(b.name));
    for (int g = 0; g < kPerBase / kGroup; ++g) {
      std::string lines;
      int counts[4] = {0, 0, 0, 0};
      for (int i = 0; i < kGroup; ++i) {
        std::string outcome = observe(mutate(b.text, rng));
        int kind = 3;
        for (int k = 0; k < 3; ++k)
          if (outcome.rfind(kKinds[k], 0) == 0) kind = k;
        ++counts[kind];
        lines += outcome + "\n";
      }
      char row[96];
      std::snprintf(row, sizeof row, "%s ok=%d al=%d rt=%d other=%d",
                    hex(fnv1a(lines)).c_str(), counts[0], counts[1],
                    counts[2], counts[3]);
      expect_golden(kMutationGoldens,
                    std::string(b.name) + "/" + std::to_string(g), row);
    }
  }
}

// ------------------------------------------------------------------ oracle
//
// The reader the single-pass one replaced: al::read_all builds the whole
// value tree (so any syntax error surfaces before any structure check),
// then the tree is walked. A prop's value fields are checked before its
// name, the order the walk's compiled argument evaluation produced.

namespace oracle {

using al::Value;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("schematic read: " + what);
}

const std::string& head_of(const Value& v) {
  if (!v.is_list() || v.as_list().empty() || !v.as_list()[0].is_symbol())
    fail("expected a tagged list");
  return v.as_list()[0].as_symbol().name;
}

std::int64_t num_at(const Value& v, std::size_t i) {
  const auto& l = v.as_list();
  if (i >= l.size() || !l[i].is_int()) fail("expected integer field");
  return l[i].as_int();
}

std::string str_at(const Value& v, std::size_t i) {
  const auto& l = v.as_list();
  if (i >= l.size() || !l[i].is_string()) fail("expected string field");
  return l[i].as_string();
}

std::string sym_at(const Value& v, std::size_t i) {
  const auto& l = v.as_list();
  if (i >= l.size() || !l[i].is_symbol()) fail("expected symbol field");
  return l[i].as_symbol().name;
}

base::PropertyValue prop_value(const Value& v) {
  std::string type = sym_at(v, 2);
  if (type == "int") return base::PropertyValue(num_at(v, 3));
  if (type == "bool") return base::PropertyValue(num_at(v, 3) != 0);
  if (type == "dbl") {
    const auto& l = v.as_list();
    if (l.size() > 3 && l[3].is_number())
      return base::PropertyValue(l[3].as_number());
    fail("expected numeric dbl field");
  }
  return base::PropertyValue(str_at(v, 3));
}

void set_prop(base::PropertySet& props, const Value& v) {
  base::PropertyValue value = prop_value(v);
  props.set(str_at(v, 1), std::move(value));
}

TextLabel text_at(const Value& v) {
  TextLabel t;
  t.text = str_at(v, 1);
  t.origin = {num_at(v, 2), num_at(v, 3)};
  t.height = num_at(v, 4);
  t.baseline_offset = num_at(v, 5);
  auto o = base::orient_from_string(sym_at(v, 6));
  if (!o) fail("bad orient in text");
  t.orient = *o;
  return t;
}

SymbolKey key_at(const Value& v) {
  return {str_at(v, 1), str_at(v, 2), str_at(v, 3)};
}

base::Grid grid_at(const Value& v) {
  std::int64_t num = num_at(v, 1);
  return base::Grid(base::Rational(num, num_at(v, 2)));
}

Rect rect_at(const Value& v) {
  return Rect({num_at(v, 1), num_at(v, 2)}, {num_at(v, 3), num_at(v, 4)});
}

PinDir dir_of(const std::string& s) {
  if (s == "input") return PinDir::Input;
  if (s == "output") return PinDir::Output;
  return PinDir::Inout;
}

SymbolRole role_of(const std::string& s) {
  if (s == "hier-port") return SymbolRole::HierPort;
  if (s == "off-page") return SymbolRole::OffPage;
  if (s == "global-net") return SymbolRole::GlobalNet;
  return SymbolRole::Component;
}

Instance instance_at(const Value& sf, base::DiagnosticEngine& diags) {
  Instance inst;
  inst.name = str_at(sf, 1);
  const auto& fields = sf.as_list();
  for (std::size_t x = 2; x < fields.size(); ++x) {
    const Value& f = fields[x];
    const std::string& tag = head_of(f);
    if (tag == "key") {
      inst.symbol = key_at(f);
    } else if (tag == "place") {
      auto o = base::orient_from_string(sym_at(f, 1));
      if (!o) fail("bad orient in place");
      inst.placement = Transform(*o, {num_at(f, 2), num_at(f, 3)});
    } else if (tag == "prop") {
      set_prop(inst.props, f);
    } else if (tag == "text") {
      inst.attached_text.push_back(text_at(f));
    } else {
      diags.warn("unknown-field", "instance field '" + tag + "' ignored",
                 {"sch.textio", inst.name});
    }
  }
  return inst;
}

Sheet sheet_at(const Value& field, const std::string& cell,
               base::DiagnosticEngine& diags) {
  Sheet sheet;
  sheet.number = int(num_at(field, 1));
  const auto& fields = field.as_list();
  for (std::size_t s = 2; s < fields.size(); ++s) {
    const Value& sf = fields[s];
    const std::string& tag = head_of(sf);
    if (tag == "frame") {
      sheet.frame = rect_at(sf);
    } else if (tag == "wire") {
      sheet.wires.push_back(
          {{num_at(sf, 1), num_at(sf, 2)}, {num_at(sf, 3), num_at(sf, 4)}});
    } else if (tag == "junction") {
      sheet.junctions.push_back({num_at(sf, 1), num_at(sf, 2)});
    } else if (tag == "note") {
      sheet.notes.push_back(text_at(sf));
    } else if (tag == "label") {
      NetLabel label;
      label.text = str_at(sf, 1);
      label.at = {num_at(sf, 2), num_at(sf, 3)};
      const auto& lf = sf.as_list();
      for (std::size_t x = 4; x < lf.size(); ++x)
        if (head_of(lf[x]) == "visual") label.visual = text_at(lf[x]);
      sheet.labels.push_back(std::move(label));
    } else if (tag == "instance") {
      sheet.instances.push_back(instance_at(sf, diags));
    } else {
      diags.warn("unknown-field", "sheet field '" + tag + "' ignored",
                 {"sch.textio", cell});
    }
  }
  return sheet;
}

Design read_design(const std::string& text, base::DiagnosticEngine& diags) {
  std::vector<Value> forms = al::read_all(text);
  if (forms.size() != 1 || head_of(forms[0]) != "design")
    fail("expected a single (design ...) form");

  Design design(base::Grid(base::Rational(1)));
  const auto& items = forms[0].as_list();
  for (std::size_t i = 1; i < items.size(); ++i) {
    const Value& item = items[i];
    const std::string& tag = head_of(item);
    if (tag == "grid") {
      design.set_grid(grid_at(item));
    } else if (tag == "symbol") {
      SymbolDef def;
      const auto& fields = item.as_list();
      for (std::size_t f = 1; f < fields.size(); ++f) {
        const Value& field = fields[f];
        const std::string& ftag = head_of(field);
        if (ftag == "key") {
          def.key = key_at(field);
        } else if (ftag == "role") {
          def.role = role_of(sym_at(field, 1));
        } else if (ftag == "body") {
          def.body = rect_at(field);
        } else if (ftag == "grid") {
          def.grid = grid_at(field);
        } else if (ftag == "pin") {
          def.pins.push_back({str_at(field, 1),
                              {num_at(field, 2), num_at(field, 3)},
                              dir_of(sym_at(field, 4))});
        } else if (ftag == "prop") {
          set_prop(def.default_props, field);
        } else {
          diags.warn("unknown-field", "symbol field '" + ftag + "' ignored",
                     {"sch.textio", def.key.str()});
        }
      }
      design.add_symbol(std::move(def));
    } else if (tag == "schematic") {
      Schematic sch;
      sch.cell = str_at(item, 1);
      const auto& fields = item.as_list();
      for (std::size_t f = 2; f < fields.size(); ++f) {
        const Value& field = fields[f];
        const std::string& ftag = head_of(field);
        if (ftag == "prop") {
          set_prop(sch.props, field);
        } else if (ftag == "sheet") {
          sch.sheets.push_back(sheet_at(field, sch.cell, diags));
        } else {
          diags.warn("unknown-field",
                     "schematic field '" + ftag + "' ignored",
                     {"sch.textio", sch.cell});
        }
      }
      design.add_schematic(std::move(sch));
    } else {
      diags.warn("unknown-field", "design field '" + tag + "' ignored",
                 {"sch.textio", ""});
    }
  }
  return design;
}

}  // namespace oracle

std::string observe_oracle(const std::string& text) {
  return observe_with(oracle::read_design, text);
}

TEST(SchTextIoOracle, AgreesOnTheGoldenInputs) {
  // The oracle is only trusted by the sweep if it reproduces the goldens'
  // own inputs; a cheap cross-check on the rich design and its mutations.
  const std::string text = rich_text();
  EXPECT_EQ(observe_oracle(text), observe(text));
  base::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string m = mutate(text, rng);
    ASSERT_EQ(observe_oracle(m), observe(m)) << m;
  }
}

/// "lo:hi" from GOLDEN_SEED_RANGE; false (-> GTEST_SKIP) when unset, so the
/// default suite stays fast.
bool sweep_range(std::uint64_t& lo, std::uint64_t& hi) {
  const char* v = std::getenv("GOLDEN_SEED_RANGE");
  if (v == nullptr) return false;
  unsigned long long a = 0, b = 0;
  if (std::sscanf(v, "%llu:%llu", &a, &b) != 2 || b < a) return false;
  lo = a;
  hi = b;
  return true;
}

TEST(SchTextIoSweep, ReaderMatchesValueTreeOracle) {
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
    const std::string text = write_design(make_exar_scenario(opt).source);
    ASSERT_EQ(observe(text),
              "ok " + hex(fnv1a(text)) + " " + hex(fnv1a("")))
        << "seed " << seed << ": generated text does not round-trip";
    base::Rng rng(seed * 7919);
    for (int i = 0; i < 250; ++i) {
      std::string m = mutate(text, rng);
      ASSERT_EQ(observe(m), observe_oracle(m)) << "seed " << seed << ":\n" << m;
    }
  }
}

}  // namespace
}  // namespace interop::sch
