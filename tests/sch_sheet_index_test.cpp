// SheetIndex against brute-force scans: every query on random sheets —
// endpoint and interior hits, junction dots, label anchors, net flooding —
// must equal a linear scan over the live wires with Segment::contains, also
// after incremental removes and adds.

#include "schematic/sheet_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "schematic/generator.hpp"
#include "schematic/netlist.hpp"

namespace interop::sch {
namespace {

using Id = SheetIndex::Id;

/// The live wires of `index`, by id (removed ids hold nullopt).
std::vector<std::optional<Segment>> live_wires(const SheetIndex& index,
                                               const std::vector<bool>& dead) {
  std::vector<std::optional<Segment>> out;
  for (Id id = 0; id < index.size(); ++id)
    out.push_back(dead[id] ? std::nullopt
                           : std::optional<Segment>(index.segment(id)));
  return out;
}

struct Brute {
  std::vector<std::optional<Segment>> wires;
  std::vector<Point> junctions;
  std::vector<Point> labels;

  std::vector<Id> ending_at(const Point& p) const {
    std::vector<Id> out;
    for (Id i = 0; i < wires.size(); ++i)
      if (wires[i] && (wires[i]->a == p || wires[i]->b == p)) out.push_back(i);
    return out;
  }
  std::vector<Id> containing(const Point& p) const {
    std::vector<Id> out;
    for (Id i = 0; i < wires.size(); ++i)
      if (wires[i] && wires[i]->contains(p)) out.push_back(i);
    return out;
  }
  bool has_junction(const Point& p) const {
    return std::find(junctions.begin(), junctions.end(), p) != junctions.end();
  }
  std::vector<Point> labels_on(Id id) const {
    std::vector<Point> out;
    for (const Point& at : labels)
      if (wires[id]->contains(at)) out.push_back(at);
    std::sort(out.begin(), out.end());
    return out;
  }
  /// Pairwise flood: shared endpoint, or a junction both segments contain.
  std::vector<Id> net_of(Id seed) const {
    auto joined = [this](const Segment& a, const Segment& b) {
      if (a.a == b.a || a.a == b.b || a.b == b.a || a.b == b.b) return true;
      for (const Point& j : junctions)
        if (a.contains(j) && b.contains(j)) return true;
      return false;
    };
    std::vector<bool> seen(wires.size(), false);
    std::vector<Id> work{seed};
    seen[seed] = true;
    while (!work.empty()) {
      Id cur = work.back();
      work.pop_back();
      for (Id i = 0; i < wires.size(); ++i) {
        if (seen[i] || !wires[i] || !joined(*wires[cur], *wires[i])) continue;
        seen[i] = true;
        work.push_back(i);
      }
    }
    std::vector<Id> out;
    for (Id i = 0; i < wires.size(); ++i)
      if (seen[i]) out.push_back(i);
    return out;
  }
};

std::vector<Point> sorted(std::vector<Point> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Random wiring on a small grid so that hits, overlaps, crossings,
/// zero-length and diagonal segments are all common.
Segment random_segment(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> coord(-5, 5);
  std::uniform_int_distribution<int> kind(0, 9);
  Point a{coord(rng), coord(rng)};
  switch (kind(rng)) {
    case 0: return {a, a};                                   // zero-length
    case 1: return {a, {coord(rng), coord(rng)}};            // usually diagonal
    case 2: case 3: case 4: return {a, {coord(rng), a.y}};   // horizontal
    default: return {a, {a.x, coord(rng)}};                  // vertical
  }
}

Sheet random_sheet(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> coord(-5, 5);
  Sheet sheet;
  for (int i = 0; i < 40; ++i) sheet.wires.push_back(random_segment(rng));
  for (int i = 0; i < 12; ++i)
    sheet.junctions.push_back({coord(rng), coord(rng)});
  sheet.junctions.push_back(sheet.junctions.front());  // a duplicate dot
  for (int i = 0; i < 10; ++i) {
    NetLabel label;
    label.at = {coord(rng), coord(rng)};
    sheet.labels.push_back(label);
  }
  return sheet;
}

/// Every query of `index` equals the brute-force scan of `brute`.
void expect_matches(SheetIndex& index, const Brute& brute) {
  for (std::int64_t x = -6; x <= 6; ++x) {
    for (std::int64_t y = -6; y <= 6; ++y) {
      Point p{x, y};
      EXPECT_EQ(index.ending_at(p), brute.ending_at(p)) << p;
      EXPECT_EQ(index.has_endpoint(p), !brute.ending_at(p).empty()) << p;
      EXPECT_EQ(index.containing(p), brute.containing(p)) << p;
      EXPECT_EQ(index.on_wire(p), !brute.containing(p).empty()) << p;
      EXPECT_EQ(index.has_junction(p), brute.has_junction(p)) << p;
    }
  }
  for (Id id = 0; id < brute.wires.size(); ++id) {
    if (!brute.wires[id]) continue;
    EXPECT_EQ(sorted(index.labels_on(id)), brute.labels_on(id)) << id;
    EXPECT_EQ(index.net_of({id}), brute.net_of(id)) << id;
  }
}

TEST(SheetIndex, RandomSheetsMatchBruteForce) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 30; ++round) {
    Sheet sheet = random_sheet(rng);
    SheetIndex index(sheet);
    Brute brute{{sheet.wires.begin(), sheet.wires.end()},
                sheet.junctions,
                {}};
    for (const NetLabel& l : sheet.labels) brute.labels.push_back(l.at);
    expect_matches(index, brute);
  }
}

TEST(SheetIndex, IncrementalEditsMatchRebuild) {
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int> coord(-5, 5);
  for (int round = 0; round < 20; ++round) {
    Sheet sheet = random_sheet(rng);
    SheetIndex index(sheet);
    std::vector<bool> dead(sheet.wires.size(), false);
    for (int edit = 0; edit < 60; ++edit) {
      std::uniform_int_distribution<int> op(0, 5);
      switch (op(rng)) {
        case 0: case 1: {
          std::uniform_int_distribution<Id> pick(0, index.size() - 1);
          Id id = pick(rng);
          if (!dead[id]) {
            index.remove(id);
            dead[id] = true;
          }
          break;
        }
        case 5:
          index.add_junction({coord(rng), coord(rng)});
          break;
        default:
          index.add(random_segment(rng));
          dead.push_back(false);
      }
    }
    // The edited index answers like a scan over its live wires...
    Sheet stored = sheet;
    index.store(stored);
    Brute brute{live_wires(index, dead), stored.junctions, {}};
    for (const NetLabel& l : sheet.labels) brute.labels.push_back(l.at);
    expect_matches(index, brute);

    // ...and like an index rebuilt from the stored sheet, whose ids are the
    // survivors' ranks (original order, then additions in order).
    std::vector<Id> rank_of(index.size(), 0);
    std::vector<Segment> expect_wires;
    for (Id id = 0; id < index.size(); ++id) {
      if (dead[id]) continue;
      rank_of[id] = expect_wires.size();
      expect_wires.push_back(index.segment(id));
    }
    ASSERT_EQ(stored.wires, expect_wires);
    SheetIndex rebuilt(stored);
    auto ranks = [&rank_of](std::vector<Id> ids) {
      for (Id& id : ids) id = rank_of[id];
      return ids;
    };
    for (std::int64_t x = -6; x <= 6; ++x) {
      for (std::int64_t y = -6; y <= 6; ++y) {
        Point p{x, y};
        EXPECT_EQ(ranks(index.ending_at(p)), rebuilt.ending_at(p)) << p;
        EXPECT_EQ(ranks(index.containing(p)), rebuilt.containing(p)) << p;
        EXPECT_EQ(index.has_junction(p), rebuilt.has_junction(p)) << p;
      }
    }
    for (Id id = 0; id < index.size(); ++id) {
      if (dead[id]) continue;
      EXPECT_EQ(ranks(index.net_of({id})), rebuilt.net_of({rank_of[id]}));
    }
  }
}

TEST(SheetIndex, CrossingWithoutDotDoesNotJoin) {
  Sheet sheet;
  sheet.wires = {{{0, 5}, {10, 5}}, {{5, 0}, {5, 10}}};
  SheetIndex plain(sheet);
  EXPECT_EQ(plain.net_of({0}), std::vector<Id>{0});
  EXPECT_EQ(plain.containing({5, 5}), (std::vector<Id>{0, 1}));
  EXPECT_FALSE(plain.has_endpoint({5, 5}));

  sheet.junctions = {{5, 5}};
  SheetIndex dotted(sheet);
  EXPECT_EQ(dotted.net_of({0}), (std::vector<Id>{0, 1}));

  // A tee (endpoint on an interior) joins only with a dot, too.
  sheet.wires = {{{0, 5}, {10, 5}}, {{5, 5}, {5, 10}}};
  sheet.junctions.clear();
  SheetIndex tee(sheet);
  EXPECT_EQ(tee.net_of({1}), std::vector<Id>{1});
}

TEST(SheetIndex, ZeroLengthAndDiagonalSegments) {
  Sheet sheet;
  sheet.wires = {{{2, 2}, {2, 2}}, {{0, 0}, {4, 4}}, {{2, 2}, {2, 6}}};
  SheetIndex index(sheet);
  // A zero-length wire holds its one point, listed once.
  EXPECT_EQ(index.ending_at({2, 2}), (std::vector<Id>{0, 2}));
  EXPECT_EQ(index.containing({2, 2}), (std::vector<Id>{0, 2}));
  // A diagonal wire contains no point, not even its own ends...
  EXPECT_TRUE(index.containing({0, 0}).empty());
  EXPECT_TRUE(index.containing({1, 1}).empty());
  // ...but its endpoints still match, so it floods through shared ends.
  EXPECT_EQ(index.ending_at({4, 4}), std::vector<Id>{1});
  sheet.wires.push_back({{4, 4}, {9, 4}});
  SheetIndex joined(sheet);
  EXPECT_EQ(joined.net_of({3}), (std::vector<Id>{1, 3}));
}

TEST(SheetIndex, OverlappingCollinearSegments) {
  Sheet sheet;
  sheet.wires = {{{0, 0}, {10, 0}}, {{4, 0}, {6, 0}}, {{8, 0}, {2, 0}},
                 {{-3, 0}, {20, 0}}};
  SheetIndex index(sheet);
  EXPECT_EQ(index.containing({5, 0}), (std::vector<Id>{0, 1, 2, 3}));
  EXPECT_EQ(index.containing({9, 0}), (std::vector<Id>{0, 3}));
  EXPECT_EQ(index.containing({-3, 0}), std::vector<Id>{3});
  // Overlap alone does not join; a dot both contain does.
  EXPECT_EQ(index.net_of({1}), std::vector<Id>{1});
  index.add_junction({5, 0});
  EXPECT_EQ(index.net_of({1}), (std::vector<Id>{0, 1, 2, 3}));
}

TEST(SheetIndex, ExtremeCoordinates) {
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  Sheet sheet;
  sheet.wires = {{{lo, 0}, {hi, 0}},
                 {{hi, lo}, {hi, hi}},
                 {{lo, lo}, {lo, lo}},
                 {{hi, hi}, {lo, lo}}};
  sheet.junctions = {{hi, 0}};
  SheetIndex index(sheet);
  EXPECT_EQ(index.containing({0, 0}), std::vector<Id>{0});
  EXPECT_EQ(index.containing({hi, 0}), (std::vector<Id>{0, 1}));
  EXPECT_EQ(index.containing({hi, hi}), std::vector<Id>{1});
  EXPECT_EQ(index.containing({lo, lo}), std::vector<Id>{2});
  EXPECT_EQ(index.ending_at({lo, lo}), (std::vector<Id>{2, 3}));
  EXPECT_EQ(index.ending_at({hi, hi}), (std::vector<Id>{1, 3}));
  EXPECT_TRUE(index.has_junction({hi, 0}));
  EXPECT_EQ(index.net_of({0}), (std::vector<Id>{0, 1, 2, 3}));
}

// Extraction unites a label with the lowest-index wire containing it, so
// a label on an undotted crossing names whichever wire comes first.
TEST(SheetIndex, LabelJoinsLowestIndexWire) {
  Design design(viewlogic_dialect().grid);
  add_source_library(design, "top", {});
  auto extract = [&design](bool swap) {
    Schematic sch;
    sch.cell = "top";
    Sheet sheet;
    for (auto [name, at] : {std::pair{"R1", Point{0, 5}},
                            std::pair{"R2", Point{5, 0}}}) {
      Instance r;
      r.name = name;
      r.symbol = {"vl_lib", "vl_res", "sym"};
      r.placement = Transform(base::Orient::R0, at - Point{4, 1});  // N pin
      sheet.instances.push_back(r);
    }
    sheet.wires = {{{0, 5}, {10, 5}}, {{5, 0}, {5, 10}}};
    if (swap) std::swap(sheet.wires[0], sheet.wires[1]);
    NetLabel label;
    label.text = "X";
    label.at = {5, 5};
    sheet.labels.push_back(label);
    sch.sheets.push_back(sheet);
    base::DiagnosticEngine diags;
    Netlist n = extract_netlist(design, sch, viewlogic_dialect(), diags);
    return n.nets.at("X").connections;
  };
  EXPECT_EQ(extract(false), (std::set<NetConnection>{{"R1", "N"}}));
  EXPECT_EQ(extract(true), (std::set<NetConnection>{{"R2", "N"}}));
}

}  // namespace
}  // namespace interop::sch
