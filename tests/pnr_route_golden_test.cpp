// Differential golden tests for the array-backed maze router.
//
// The flat (epoch-stamped, grid-indexed) search kernel must route exactly
// like the reference map/set-based router: same wirelength, same failure
// set, same terminal attach sides, cell for cell. The goldens below were
// captured from the reference router (seed commit 9be33dd) on the §4
// workload generator, seeds 1-5, exported through router beta's caps —
// the same path bench_t7/bench_perf_kernels exercise.
//
// RouteCoordGolden pins every routed coordinate over more shapes: seeds
// 1-5 through each router's caps, exported directly and through the
// backplane, plus the tapeout shape (64 instances, 24 nets, die 170,
// placed on 14-track rows, backplane export for RouterAlpha). Those digests
// were captured from the nine-array kernel that preceded the packed-cell
// grid; that kernel is kept below as `oracle::route`, and RouteGoldenSweep
// compares the product router against it over GOLDEN_SEED_RANGE. The oracle
// also counts its expansions, so every comparison checks the router's
// `pnr.route.expansions` counter too, and RouteOracle.ExpansionCapsMatchOracle
// runs both under caps small enough to cut searches short.

#include "pnr/route.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "pnr/backplane.hpp"
#include "pnr/check.hpp"
#include "pnr/generator.hpp"
#include "pnr/place.hpp"

namespace interop::pnr {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Order-sensitive digest of the full routed result: per-net cell counts,
/// routed flags, and per-terminal attach side / connectivity / position.
std::uint64_t route_hash(const RouteResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const RoutedNet& nn : r.nets) {
    h = fnv1a(h, nn.cells.size());
    h = fnv1a(h, nn.width_cells.size());
    h = fnv1a(h, nn.shield_cells.size());
    h = fnv1a(h, nn.routed ? 1 : 0);
    for (const RoutedTerm& t : nn.terms) {
      h = fnv1a(h, std::uint64_t(t.entered_from));
      h = fnv1a(h, t.connected ? 1 : 0);
      h = fnv1a(h, std::uint64_t(t.at.x));
      h = fnv1a(h, std::uint64_t(t.at.y));
    }
  }
  return h;
}

struct Golden {
  std::uint64_t seed;
  std::int64_t wirelength;
  int failed_nets;
  int connected_terms;
  int total_terms;
  std::uint64_t hash;
};

constexpr Golden kGoldens[] = {
    {1ULL, 2007LL, 3, 55, 62, 0x8c9140296953f28eULL},
    {2ULL, 1249LL, 2, 50, 56, 0x92ff5498066748f8ULL},
    {3ULL, 1438LL, 4, 43, 51, 0x28cd8e2724008f07ULL},
    {4ULL, 1766LL, 1, 56, 59, 0xb722773f384dbaceULL},
    {5ULL, 1331LL, 5, 51, 65, 0xfbd60fcaacdd3448ULL},
};

TEST(RouteGolden, WorkloadSeedsMatchReferenceRouter) {
  for (const Golden& g : kGoldens) {
    PnrGenOptions opt;
    opt.seed = g.seed;
    PhysDesign design = make_pnr_workload(opt);
    base::DiagnosticEngine diags;
    ToolInput input = export_direct(design, router_beta_caps(), diags);
    RouteResult r = route(input);

    EXPECT_EQ(r.wirelength, g.wirelength) << "seed " << g.seed;
    EXPECT_EQ(r.failed_nets, g.failed_nets) << "seed " << g.seed;
    int connected = 0, terms = 0;
    for (const RoutedNet& nn : r.nets) {
      for (const RoutedTerm& t : nn.terms) {
        ++terms;
        if (t.connected) ++connected;
      }
    }
    EXPECT_EQ(connected, g.connected_terms) << "seed " << g.seed;
    EXPECT_EQ(terms, g.total_terms) << "seed " << g.seed;
    EXPECT_EQ(route_hash(r), g.hash) << "seed " << g.seed;
  }
}

TEST(RouteGolden, RepeatedRoutingIsDeterministic) {
  // The epoch-stamped scratch must fully isolate nets and calls: routing
  // the same input twice (same RouteResult object lifetimes, fresh call)
  // yields identical results.
  PnrGenOptions opt;
  opt.seed = 2;
  PhysDesign design = make_pnr_workload(opt);
  base::DiagnosticEngine diags;
  ToolInput input = export_direct(design, router_beta_caps(), diags);
  RouteResult a = route(input);
  RouteResult b = route(input);
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_EQ(a.failed_nets, b.failed_nets);
  EXPECT_EQ(route_hash(a), route_hash(b));
}

/// Order-sensitive digest of every coordinate in the result: each net's
/// name, flags and topology, every cell of `cells`, `width_cells` and
/// `shield_cells` in order, and each terminal record.
std::uint64_t route_coord_hash(const RouteResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto text = [&h](const std::string& s) {
    h = fnv1a(h, s.size());
    for (char c : s) h = fnv1a(h, std::uint64_t(std::uint8_t(c)));
  };
  auto points = [&h](const std::vector<Point>& ps) {
    h = fnv1a(h, ps.size());
    for (const Point& p : ps) {
      h = fnv1a(h, std::uint64_t(p.x));
      h = fnv1a(h, std::uint64_t(p.y));
    }
  };
  h = fnv1a(h, std::uint64_t(r.failed_nets));
  h = fnv1a(h, std::uint64_t(r.wirelength));
  for (const RoutedNet& nn : r.nets) {
    text(nn.name);
    h = fnv1a(h, nn.routed ? 1 : 0);
    h = fnv1a(h, std::uint64_t(nn.width_used));
    h = fnv1a(h, std::uint64_t(nn.spacing_used));
    h = fnv1a(h, nn.shielded ? 1 : 0);
    points(nn.cells);
    points(nn.width_cells);
    points(nn.shield_cells);
    h = fnv1a(h, nn.terms.size());
    for (const RoutedTerm& t : nn.terms) {
      text(t.term.instance);
      text(t.term.pin);
      h = fnv1a(h, std::uint64_t(t.at.x));
      h = fnv1a(h, std::uint64_t(t.at.y));
      h = fnv1a(h, std::uint64_t(t.entered_from));
      h = fnv1a(h, t.connected ? 1 : 0);
    }
  }
  return h;
}

/// One routing input shape: the §4 workload through one router's caps,
/// exported directly or through the backplane, or the tapeout shape.
enum class Shape : std::uint8_t {
  AlphaDirect, AlphaBackplane, BetaDirect, BetaBackplane, GammaDirect,
  GammaBackplane, Tapeout
};

constexpr std::array<Shape, 7> kShapes = {
    Shape::AlphaDirect,    Shape::AlphaBackplane, Shape::BetaDirect,
    Shape::BetaBackplane,  Shape::GammaDirect,    Shape::GammaBackplane,
    Shape::Tapeout};

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::AlphaDirect: return "alpha/direct";
    case Shape::AlphaBackplane: return "alpha/backplane";
    case Shape::BetaDirect: return "beta/direct";
    case Shape::BetaBackplane: return "beta/backplane";
    case Shape::GammaDirect: return "gamma/direct";
    case Shape::GammaBackplane: return "gamma/backplane";
    case Shape::Tapeout: return "tapeout";
  }
  return "?";
}

/// A shape's design, the truth `check_routes` judges against, and the
/// router input exported from it.
struct Case {
  PhysDesign design;
  ToolInput input;
};

Case make_case(Shape shape, std::uint64_t seed) {
  PnrGenOptions gen;
  gen.seed = seed;
  if (shape == Shape::Tapeout) {
    gen.instances = 64;
    gen.nets = 24;
    gen.die_w = gen.die_h = 170;
  }
  Case out{make_pnr_workload(gen), {}};
  PhysDesign& design = out.design;
  ToolCaps caps;
  bool backplane = true;
  switch (shape) {
    case Shape::AlphaDirect: backplane = false; [[fallthrough]];
    case Shape::AlphaBackplane: caps = router_alpha_caps(); break;
    case Shape::BetaDirect: backplane = false; [[fallthrough]];
    case Shape::BetaBackplane: caps = router_beta_caps(); break;
    case Shape::GammaDirect: backplane = false; [[fallthrough]];
    case Shape::GammaBackplane: caps = router_gamma_caps(); break;
    case Shape::Tapeout: {
      PlaceOptions popt;
      popt.seed = seed;
      popt.row_height = 14;
      place(design, popt);
      caps = router_alpha_caps();
      break;
    }
  }
  base::DiagnosticEngine diags;
  LossReport loss;
  out.input = backplane ? export_via_backplane(design, caps, loss, diags)
                        : export_direct(design, caps, diags);
  return out;
}

ToolInput make_input(Shape shape, std::uint64_t seed) {
  return make_case(shape, seed).input;
}

struct CoordGolden {
  Shape shape;
  std::uint64_t seed;
  std::int64_t wirelength;
  int failed_nets;
  std::uint64_t hash;
};

constexpr CoordGolden kCoordGoldens[] = {
    {Shape::AlphaDirect, 1ULL, 1830LL, 3, 0xeec788bb97e35bdfULL},
    {Shape::AlphaBackplane, 1ULL, 1830LL, 3, 0xeec788bb97e35bdfULL},
    {Shape::BetaDirect, 1ULL, 2007LL, 3, 0xed12bef3c348cfffULL},
    {Shape::BetaBackplane, 1ULL, 179LL, 19, 0x27fd53b408b56d0fULL},
    {Shape::GammaDirect, 1ULL, 2084LL, 0, 0xc8a3665da57cd220ULL},
    {Shape::GammaBackplane, 1ULL, 179LL, 19, 0x7dc81e6e9b11cc0eULL},
    {Shape::Tapeout, 1ULL, 1589LL, 3, 0xc1cb30e4320a45d0ULL},
    {Shape::AlphaDirect, 2ULL, 1375LL, 0, 0xb292deaa7f2f9f37ULL},
    {Shape::AlphaBackplane, 2ULL, 1375LL, 0, 0xb292deaa7f2f9f37ULL},
    {Shape::BetaDirect, 2ULL, 1249LL, 2, 0x6463f1ba34b315f6ULL},
    {Shape::BetaBackplane, 2ULL, 154LL, 19, 0xa487acadb6474e0cULL},
    {Shape::GammaDirect, 2ULL, 1324LL, 0, 0xf820e94231dd4470ULL},
    {Shape::GammaBackplane, 2ULL, 154LL, 19, 0xec22360ff9193ffcULL},
    {Shape::Tapeout, 2ULL, 1880LL, 3, 0x19e15b1d7d78d2eaULL},
    {Shape::AlphaDirect, 3ULL, 1554LL, 1, 0x3adf419a2dfd25b5ULL},
    {Shape::AlphaBackplane, 3ULL, 1554LL, 1, 0x3adf419a2dfd25b5ULL},
    {Shape::BetaDirect, 3ULL, 1438LL, 4, 0x8b7326f2a892b6a1ULL},
    {Shape::BetaBackplane, 3ULL, 159LL, 18, 0xb98347a5ef83379dULL},
    {Shape::GammaDirect, 3ULL, 1663LL, 0, 0x304f25a02b8e04eaULL},
    {Shape::GammaBackplane, 3ULL, 159LL, 18, 0xcf3d6e9dac6e22aeULL},
    {Shape::Tapeout, 3ULL, 1686LL, 4, 0x144f8b03d966d08eULL},
    {Shape::AlphaDirect, 4ULL, 1847LL, 0, 0x296df9abcf6c10e8ULL},
    {Shape::AlphaBackplane, 4ULL, 1847LL, 0, 0x296df9abcf6c10e8ULL},
    {Shape::BetaDirect, 4ULL, 1766LL, 1, 0x73290a63cc54dbacULL},
    {Shape::BetaBackplane, 4ULL, 174LL, 19, 0x841dae36ed8568e5ULL},
    {Shape::GammaDirect, 4ULL, 1759LL, 0, 0xc3ca5a05e7e77097ULL},
    {Shape::GammaBackplane, 4ULL, 174LL, 19, 0xde51554862c5a990ULL},
    {Shape::Tapeout, 4ULL, 1789LL, 5, 0xbf59daa046b0d206ULL},
    {Shape::AlphaDirect, 5ULL, 1434LL, 5, 0x1466fff3700da89eULL},
    {Shape::AlphaBackplane, 5ULL, 1434LL, 5, 0x1466fff3700da89eULL},
    {Shape::BetaDirect, 5ULL, 1331LL, 5, 0x287f7a84083399e7ULL},
    {Shape::BetaBackplane, 5ULL, 197LL, 19, 0xd644a48dc2b9094cULL},
    {Shape::GammaDirect, 5ULL, 1764LL, 0, 0x9ea8e5ff9dbbce98ULL},
    {Shape::GammaBackplane, 5ULL, 197LL, 19, 0x0af8e6dad3e62358ULL},
    {Shape::Tapeout, 5ULL, 1491LL, 8, 0xee8162cd29e250e9ULL},
};

TEST(RouteCoordGolden, EveryShapeMatchesCapturedCoordinates) {
  for (const CoordGolden& g : kCoordGoldens) {
    RouteResult r = route(make_input(g.shape, g.seed));
    const std::string where =
        std::string(shape_name(g.shape)) + " seed " + std::to_string(g.seed);
    EXPECT_EQ(r.wirelength, g.wirelength) << where;
    EXPECT_EQ(r.failed_nets, g.failed_nets) << where;
    EXPECT_EQ(route_coord_hash(r), g.hash) << where;
  }
}

/// check_routes' seven counters on every shape, in CheckResult order:
/// failed, access, unconnected must, width, spacing, shield, keepout.
/// RouterAlpha and RouterGamma drop the truth's spacing, so their routes
/// (and the tapeout shape's) draw spacing offences, some of them through
/// cells where two nets cross.
struct CheckGolden {
  Shape shape;
  std::uint64_t seed;
  std::array<int, 7> counts;
};

constexpr CheckGolden kCheckGoldens[] = {
    {Shape::AlphaDirect, 1ULL, {3, 0, 0, 0, 1, 7, 0}},
    {Shape::AlphaBackplane, 1ULL, {3, 0, 0, 0, 1, 7, 0}},
    {Shape::BetaDirect, 1ULL, {3, 39, 0, 0, 1, 0, 0}},
    {Shape::BetaBackplane, 1ULL, {19, 0, 0, 0, 0, 0, 0}},
    {Shape::GammaDirect, 1ULL, {0, 51, 0, 4, 2, 7, 0}},
    {Shape::GammaBackplane, 1ULL, {19, 0, 0, 0, 0, 1, 0}},
    {Shape::Tapeout, 1ULL, {3, 0, 0, 0, 3, 4, 0}},
    {Shape::AlphaDirect, 2ULL, {0, 0, 0, 0, 2, 4, 0}},
    {Shape::AlphaBackplane, 2ULL, {0, 0, 0, 0, 2, 4, 0}},
    {Shape::BetaDirect, 2ULL, {2, 37, 0, 0, 0, 0, 0}},
    {Shape::BetaBackplane, 2ULL, {19, 0, 0, 0, 0, 0, 0}},
    {Shape::GammaDirect, 2ULL, {0, 43, 0, 2, 2, 4, 0}},
    {Shape::GammaBackplane, 2ULL, {19, 0, 0, 0, 0, 1, 0}},
    {Shape::Tapeout, 2ULL, {3, 0, 0, 0, 4, 6, 0}},
    {Shape::AlphaDirect, 3ULL, {1, 0, 0, 0, 3, 3, 0}},
    {Shape::AlphaBackplane, 3ULL, {1, 0, 0, 0, 3, 3, 0}},
    {Shape::BetaDirect, 3ULL, {4, 31, 0, 0, 0, 0, 0}},
    {Shape::BetaBackplane, 3ULL, {18, 0, 0, 0, 0, 0, 0}},
    {Shape::GammaDirect, 3ULL, {0, 40, 0, 2, 3, 3, 0}},
    {Shape::GammaBackplane, 3ULL, {18, 0, 0, 0, 0, 1, 0}},
    {Shape::Tapeout, 3ULL, {4, 0, 0, 0, 1, 2, 0}},
    {Shape::AlphaDirect, 4ULL, {0, 0, 0, 0, 1, 5, 0}},
    {Shape::AlphaBackplane, 4ULL, {0, 0, 0, 0, 1, 5, 0}},
    {Shape::BetaDirect, 4ULL, {1, 35, 0, 0, 0, 0, 0}},
    {Shape::BetaBackplane, 4ULL, {19, 0, 0, 0, 0, 0, 0}},
    {Shape::GammaDirect, 4ULL, {0, 45, 0, 1, 1, 5, 0}},
    {Shape::GammaBackplane, 4ULL, {19, 0, 0, 0, 0, 1, 0}},
    {Shape::Tapeout, 4ULL, {5, 0, 0, 0, 1, 2, 0}},
    {Shape::AlphaDirect, 5ULL, {5, 0, 0, 0, 3, 2, 0}},
    {Shape::AlphaBackplane, 5ULL, {5, 0, 0, 0, 3, 2, 0}},
    {Shape::BetaDirect, 5ULL, {5, 31, 0, 0, 0, 0, 0}},
    {Shape::BetaBackplane, 5ULL, {19, 0, 0, 0, 0, 0, 0}},
    {Shape::GammaDirect, 5ULL, {0, 46, 0, 4, 4, 3, 0}},
    {Shape::GammaBackplane, 5ULL, {19, 0, 0, 0, 0, 1, 0}},
    {Shape::Tapeout, 5ULL, {8, 0, 0, 0, 4, 4, 0}},
};

std::array<int, 7> check_counts(const CheckResult& c) {
  return {c.failed_nets,        c.access_violations,  c.unconnected_must,
          c.width_violations,   c.spacing_violations, c.shield_violations,
          c.keepout_violations};
}

TEST(CheckResultGolden, EveryShapeMatchesCapturedCounters) {
  for (const CheckGolden& g : kCheckGoldens) {
    Case c = make_case(g.shape, g.seed);
    EXPECT_EQ(check_counts(check_routes(c.design, route(c.input))), g.counts)
        << shape_name(g.shape) << " seed " << g.seed;
  }
}

// A victim's metal and each aggressor's are sets of cells: a cell listed
// twice counts once, two route records with one name pool their cells, and
// a cell two nets share counts against both. Each offending (victim cell,
// aggressor cell) pair inside the clearance window counts once; four make
// a violation.
TEST(CheckResultGolden, RepeatedCellsAndNamesCountOnce) {
  PhysDesign truth;
  truth.nets.push_back({"v", {}, {1, 1, false}});
  truth.nets.push_back({"a", {}, {1, 1, false}});
  truth.nets.push_back({"b", {}, {1, 0, false}});
  auto net = [](std::string name, std::vector<Point> cells,
                std::vector<Point> width_cells = {}) {
    RoutedNet n;
    n.name = std::move(name);
    n.routed = true;
    n.cells = std::move(cells);
    n.width_cells = std::move(width_cells);
    return n;
  };
  RouteResult r;
  // v's one cell (listed twice) sees 2 cells of a and 3 of b, one of them
  // the shared (5,5); each a record sees 2 of v and 2 of b: no offence.
  r.nets.push_back(net("v", {{5, 5}, {5, 5}}));
  r.nets.push_back(net("a", {{4, 4}}));
  r.nets.push_back(net("a", {{4, 5}}, {{4, 5}}));
  r.nets.push_back(net("b", {{5, 5}, {6, 5}, {6, 6}}));
  EXPECT_EQ(check_routes(truth, r).spacing_violations, 0);
  // A fourth b cell beside v: v is violated, a is not.
  r.nets[3].cells.push_back({6, 4});
  EXPECT_EQ(check_routes(truth, r).spacing_violations, 1);
  // Two more v cells: v now also sees 4 pairs with a, and both a records
  // (one pooled net) see 4 pairs with v.
  r.nets[0].cells.push_back({3, 3});
  r.nets[0].cells.push_back({3, 6});
  EXPECT_EQ(check_routes(truth, r).spacing_violations, 3);
}

// ---------------------------------------------------------------------------
// The oracle: the nine-array kernel the packed-cell grid replaced, verbatim
// but for its trace and metric hooks.

namespace oracle {

constexpr int kFree = 0;
constexpr int kBlocked = -1;
constexpr int kShield = -2;
// Pin cells reserved for a specific net are stored positive as net id + 1;
// reserved-for-other-net pins read as blocked.

struct Grid {
  Rect die;
  std::int64_t w = 0, h = 0;
  std::vector<int> occ;        ///< kFree/kBlocked/kShield or net id + 1
  std::vector<int> halo;       ///< 0 or net id + 1 whose spacing halo covers
  std::vector<int> pin_owner;  ///< 0 or net id + 1 (terminal cells)
  /// Escape reservation: the cells on a pin's legal approach sides are
  /// protected for that pin's net — other nets may only pass straight
  /// through them, perpendicular to the pin-entry axis, and never corner.
  std::vector<int> approach;
  std::vector<std::uint8_t> approach_axis;  ///< 0 = horizontal entry, 1 = vertical
  /// Direction bits of the metal that cast each halo/shield cell; foreign
  /// nets may cross such cells perpendicular and straight (other layer).
  std::vector<std::uint8_t> halo_axis;
  /// Wire direction bits per cell: 1 = horizontal, 2 = vertical, 3 = both
  /// (corner or locked crossing). A perpendicular wire of ANOTHER net may
  /// pass straight through a cell with exactly one direction bit — the
  /// two-layer HV routing abstraction.
  std::vector<std::uint8_t> dir;
  /// Pin site per cell (net index, or -1 when the cell holds no pin) and
  /// its access sides — the dense replacement for a Point-keyed pin map on
  /// the expansion hot path.
  std::vector<int> pin_net;
  std::vector<AccessDirs> pin_access;

  explicit Grid(const Rect& d) : die(d) {
    w = die.width() + 1;
    h = die.height() + 1;
    occ.assign(std::size_t(w * h), kFree);
    halo.assign(std::size_t(w * h), 0);
    pin_owner.assign(std::size_t(w * h), 0);
    approach.assign(std::size_t(w * h), 0);
    approach_axis.assign(std::size_t(w * h), 0);
    halo_axis.assign(std::size_t(w * h), 0);
    dir.assign(std::size_t(w * h), 0);
    pin_net.assign(std::size_t(w * h), -1);
    pin_access.assign(std::size_t(w * h), AccessDirs{});
  }
  bool inside(const Point& p) const { return die.contains(p); }
  std::size_t idx(const Point& p) const {
    return std::size_t((p.y - die.lo().y) * w + (p.x - die.lo().x));
  }
};

/// Flat, epoch-stamped BFS state over (cell, arrival-axis) nodes. A node is
/// addressed as grid.idx(p) * 3 + axis (axis 2 = "any", used for tree
/// seeds). Clearing between terminals is O(1): bump the epoch.
struct SearchScratch {
  struct Node {
    Point p;
    int axis;
  };

  std::vector<std::uint32_t> stamp;  ///< visit epoch per (cell, axis)
  std::vector<Node> parent;          ///< BFS parent per (cell, axis)
  std::uint32_t epoch = 0;

  // Tree membership and terminal-record index per cell, epoch-stamped per
  // net so both reset in O(1) when the next net starts.
  std::vector<std::uint32_t> tree_stamp;
  std::vector<std::uint32_t> term_stamp;
  std::vector<std::size_t> term_index;
  std::uint32_t net_epoch = 0;

  // FIFO frontier: a monotonic vector with a read cursor (each node enters
  // at most once, so no ring buffer is needed).
  std::vector<Node> frontier;
  std::size_t frontier_head = 0;

  explicit SearchScratch(std::size_t cells)
      : stamp(cells * 3, 0),
        parent(cells * 3),
        tree_stamp(cells, 0),
        term_stamp(cells, 0),
        term_index(cells, 0) {}

  void begin_net() { ++net_epoch; }
  void begin_search() {
    ++epoch;
    frontier.clear();
    frontier_head = 0;
  }
  bool visited(std::size_t node_key) const { return stamp[node_key] == epoch; }
  void set_parent(std::size_t node_key, const Node& par) {
    stamp[node_key] = epoch;
    parent[node_key] = par;
  }
};

Side entry_side(const Point& from, const Point& to) {
  if (from.y < to.y) return Side::South;   // moving up: enters south face
  if (from.y > to.y) return Side::North;
  if (from.x < to.x) return Side::West;
  return Side::East;
}

bool side_allowed(const AccessDirs& a, Side s) {
  switch (s) {
    case Side::North: return a.north;
    case Side::South: return a.south;
    case Side::East: return a.east;
    case Side::West: return a.west;
  }
  return true;
}

/// The routes and the total number of frontier pops over every search,
/// the quantity the product router adds to `pnr.route.expansions`.
struct Result {
  RouteResult routes;
  std::int64_t expansions = 0;
};

Result route(const ToolInput& input, const RouteOptions& opt = {}) {
  Result out;
  RouteResult& result = out.routes;
  Grid grid(input.die);

  // ---- index tool data (string-keyed maps built ONCE, before any per-net
  // or per-expansion work) ----
  std::map<std::string, const ToolInput::CellRecord*> cell_by_name;
  for (const ToolInput::CellRecord& c : input.cells) cell_by_name[c.name] = &c;
  std::map<std::pair<std::string, std::string>, const ToolInput::PinRecord*>
      pin_by_key;
  for (const ToolInput::PinRecord& p : input.pins)
    pin_by_key[{p.cell, p.pin}] = &p;
  std::map<std::string, const PhysInstance*> inst_by_name;
  for (const PhysInstance& pi : input.placement) inst_by_name[pi.name] = &pi;

  auto placed_transform = [&](const PhysInstance& inst,
                              const ToolInput::CellRecord& cell) {
    base::Transform rot(inst.orient, {0, 0});
    Rect r = rot.apply(cell.boundary);
    return base::Transform(inst.orient, inst.origin - r.lo());
  };

  // ---- obstacles ----
  for (const PhysInstance& inst : input.placement) {
    auto it = cell_by_name.find(inst.cell);
    if (it == cell_by_name.end()) continue;
    base::Transform t = placed_transform(inst, *it->second);
    for (const Blockage& b : it->second->blockages) {
      Rect r = t.apply(b.rect);
      for (std::int64_t x = r.lo().x; x <= r.hi().x; ++x) {
        for (std::int64_t y = r.lo().y; y <= r.hi().y; ++y) {
          Point p{x, y};
          if (grid.inside(p)) grid.occ[grid.idx(p)] = kBlocked;
        }
      }
    }
  }
  for (const Keepout& ko : input.keepouts) {
    for (std::int64_t x = ko.rect.lo().x; x <= ko.rect.hi().x; ++x) {
      for (std::int64_t y = ko.rect.lo().y; y <= ko.rect.hi().y; ++y) {
        Point p{x, y};
        if (grid.inside(p)) grid.occ[grid.idx(p)] = kBlocked;
      }
    }
  }

  // ---- pin sites (positions resolved once per net list; the grid carries
  // the per-cell pin site so the BFS never touches a map) ----
  std::map<std::pair<std::string, std::string>, Point> term_pos;
  auto pin_position = [&](const PhysNet::Term& term,
                          AccessDirs& access_out) -> std::optional<Point> {
    auto iit = inst_by_name.find(term.instance);
    if (iit == inst_by_name.end()) return std::nullopt;
    const PhysInstance* inst = iit->second;
    auto cit = cell_by_name.find(inst->cell);
    if (cit == cell_by_name.end()) return std::nullopt;
    auto pit = pin_by_key.find({inst->cell, term.pin});
    if (pit == pin_by_key.end()) return std::nullopt;
    const ToolInput::PinRecord& pin = *pit->second;
    if (pin.shapes.empty()) return std::nullopt;
    base::Transform t = placed_transform(*inst, *cit->second);
    Point anchor = pin.shapes.front().rect.center();
    // Access: property when the tool has one, else derived from the cell's
    // blockages (which may include backplane-synthesized strips). NOTE:
    // access sides are interpreted in cell orientation R0; the generator
    // and placer only use R0 for pin-bearing cells.
    if (pin.access) {
      access_out = *pin.access;
    } else {
      AbstractPin tmp;
      tmp.name = pin.pin;
      tmp.shapes = pin.shapes;
      access_out = derive_access_from_blockages(tmp, cit->second->blockages);
    }
    return t.apply(anchor);
  };

  for (std::size_t n = 0; n < input.nets.size(); ++n) {
    for (const PhysNet::Term& term : input.nets[n].terms) {
      AccessDirs access;
      auto pos = pin_position(term, access);
      if (!pos || !grid.inside(*pos)) continue;
      std::size_t pi = grid.idx(*pos);
      grid.pin_net[pi] = int(n);
      grid.pin_access[pi] = access;
      term_pos[{term.instance, term.pin}] = *pos;
      grid.occ[pi] = kFree;  // pins override blockages
      grid.pin_owner[pi] = int(n) + 1;
      // Reserve the escape cells on the pin's legal sides.
      auto reserve = [&grid, n](Point q, std::uint8_t axis) {
        if (!grid.inside(q)) return;
        std::size_t qi = grid.idx(q);
        if (grid.approach[qi] == 0) {
          grid.approach[qi] = int(n) + 1;
          grid.approach_axis[qi] = axis;
        }
      };
      if (access.north) reserve({pos->x, pos->y + 1}, 1);
      if (access.south) reserve({pos->x, pos->y - 1}, 1);
      if (access.east) reserve({pos->x + 1, pos->y}, 0);
      if (access.west) reserve({pos->x - 1, pos->y}, 0);
    }
  }

  // ---- route nets sequentially ----
  const std::array<Point, 4> kDirs = {Point{1, 0}, Point{-1, 0}, Point{0, 1},
                                      Point{0, -1}};
  using Node = SearchScratch::Node;
  SearchScratch search(std::size_t(grid.w * grid.h));
  std::vector<Point> tree_cells;   // insertion order; sorted copy seeds BFS
  std::vector<Point> seed_cells;

  for (std::size_t n = 0; n < input.nets.size(); ++n) {
    const ToolInput::NetRecord& net = input.nets[n];
    RoutedNet routed;
    routed.name = net.name;
    routed.width_used = net.width.value_or(1);
    routed.spacing_used = net.spacing.value_or(0);
    int spacing = routed.spacing_used;
    int width = routed.width_used;
    const int me = int(n) + 1;

    // Terminal positions.
    std::vector<std::pair<PhysNet::Term, Point>> terms;
    for (const PhysNet::Term& term : net.terms) {
      auto it = term_pos.find({term.instance, term.pin});
      if (it != term_pos.end()) terms.emplace_back(term, it->second);
    }
    if (terms.size() < 2) {
      for (auto& [term, pos] : terms)
        routed.terms.push_back({term, pos, Side::North, false});
      routed.routed = false;
      ++result.failed_nets;
      result.nets.push_back(std::move(routed));
      continue;
    }

    auto cell_usable = [&](const Point& p, int axis) {
      if (!grid.inside(p)) return false;
      std::size_t i = grid.idx(p);
      int occ = grid.occ[i];
      if (occ == kBlocked) return false;
      if (occ == kShield || (occ > 0 && occ != me)) {
        // Foreign wire or shield track: only a plain net may cross it,
        // perpendicular to a straight run (the two-layer HV abstraction).
        if (width > 1 || spacing > 0) return false;
        std::uint8_t have = grid.dir[i];
        bool straight_perp =
            (axis == 0 && have == 2) || (axis == 1 && have == 1);
        if (!straight_perp) return false;
      }
      int owner = grid.pin_owner[i];
      if (owner != 0 && owner != me) return false;  // other net's pin
      if (grid.approach[i] != 0 && grid.approach[i] != me) {
        // Another pin's escape cell: perpendicular transit only.
        if (width > 1 || spacing > 0) return false;
        if (axis != 1 - int(grid.approach_axis[i])) return false;
      }
      if (grid.halo[i] != 0 && grid.halo[i] != me) {
        // Clearance zone of a spaced net: perpendicular transit only.
        if (width > 1 || spacing > 0) return false;
        std::uint8_t cast = grid.halo_axis[i];
        bool perp = (axis == 0 && cast == 2) || (axis == 1 && cast == 1);
        if (!perp) return false;
      }
      if (spacing > 0) {
        // This net demands clearance: stay away from other nets' metal.
        for (int dx = -spacing; dx <= spacing; ++dx) {
          for (int dy = -spacing; dy <= spacing; ++dy) {
            Point q{p.x + dx, p.y + dy};
            if (!grid.inside(q)) continue;
            int o = grid.occ[grid.idx(q)];
            if (o > 0 && o != me) return false;
          }
        }
      }
      if (width > 1) {
        // L-corridor approximation: the fat wire needs the cells beside it.
        for (int k = 1; k < width; ++k) {
          for (Point q : {Point{p.x + k, p.y}, Point{p.x, p.y + k}}) {
            if (!grid.inside(q)) return false;
            std::size_t qi = grid.idx(q);
            int o = grid.occ[qi];
            if (o == kBlocked || o == kShield || (o > 0 && o != me))
              return false;
            int qowner = grid.pin_owner[qi];
            if (qowner != 0 && qowner != me) return false;
          }
        }
      }
      return true;
    };

    // Tree cells grow as terminals connect. The seed terminal is only
    // "connected" once the first successful chain actually attaches to it.
    search.begin_net();
    tree_cells.clear();
    auto in_tree = [&](const Point& p) {
      return search.tree_stamp[grid.idx(p)] == search.net_epoch;
    };
    auto tree_insert = [&](const Point& p) {
      search.tree_stamp[grid.idx(p)] = search.net_epoch;
      tree_cells.push_back(p);
    };
    tree_insert(terms[0].second);
    routed.terms.push_back({terms[0].first, terms[0].second, Side::North,
                            false});
    // Terminal record lookup for fixing up attach sides at tree roots.
    auto term_record = [&](const Point& p) -> std::size_t* {
      std::size_t i = grid.idx(p);
      return search.term_stamp[i] == search.net_epoch ? &search.term_index[i]
                                                      : nullptr;
    };
    auto term_record_set = [&](const Point& p, std::size_t v) {
      std::size_t i = grid.idx(p);
      search.term_stamp[i] = search.net_epoch;
      search.term_index[i] = v;
    };
    term_record_set(terms[0].second, 0);
    bool all_ok = true;

    for (std::size_t ti = 1; ti < terms.size(); ++ti) {
      const Point target = terms[ti].second;
      const AccessDirs target_access = grid.pin_access[grid.idx(target)];

      // Axis-aware BFS over (cell, axis) nodes addressed as idx * 3 + axis;
      // axis 0 = horizontal, 1 = vertical; tree seeds use axis 2 ("any").
      // Seeds enter in ascending (x, y) order — the iteration order of the
      // reference kernel's std::set<Point> — so the flat queue explores in
      // exactly the same order.
      search.begin_search();
      seed_cells.assign(tree_cells.begin(), tree_cells.end());
      std::sort(seed_cells.begin(), seed_cells.end());
      for (const Point& p : seed_cells) {
        Node seed{p, 2};
        search.set_parent(grid.idx(p) * 3 + 2, seed);
        search.frontier.push_back(seed);
      }
      bool found = false;
      Node hit{{0, 0}, 0};
      int expansions = 0;

      auto is_foreign = [&](const Point& p) {
        int o = grid.occ[grid.idx(p)];
        return o > 0 && o != me;
      };
      auto is_transit = [&](const Point& p) {
        // Cells we may only pass straight through: foreign wires, shield
        // tracks, foreign clearance zones, other pins' escape cells.
        if (is_foreign(p)) return true;
        std::size_t i = grid.idx(p);
        if (grid.occ[i] == kShield) return true;
        if (grid.halo[i] != 0 && grid.halo[i] != me) return true;
        return grid.approach[i] != 0 && grid.approach[i] != me;
      };

      while (search.frontier_head < search.frontier.size() && !found) {
        Node cur = search.frontier[search.frontier_head++];
        if (++expansions > opt.max_expansions) break;
        bool straight_only = is_transit(cur.p);
        const std::size_t cur_idx = grid.idx(cur.p);
        const int cur_pin = grid.pin_net[cur_idx];
        for (const Point& d : kDirs) {
          int axis = d.y != 0 ? 1 : 0;
          // Inside a transit cell we may only continue straight through.
          if (straight_only && axis != cur.axis) continue;
          Point next{cur.p.x + d.x, cur.p.y + d.y};
          // Off-die nodes are never visited nor usable (the reference
          // kernel rejected them at cell_usable after a guaranteed-empty
          // map probe), so they can be rejected up front.
          if (!grid.inside(next)) continue;
          const std::size_t node_key =
              grid.idx(next) * 3 + std::size_t(axis);
          if (search.visited(node_key)) continue;
          // Leaving one of this net's own pins: respect its access sides
          // (the attach face must be a legal side of the pin).
          if (cur_pin == int(n) &&
              !side_allowed(grid.pin_access[cur_idx],
                            entry_side(next, cur.p)))
            continue;
          if (next == target) {
            // Respect the pin's access sides (when the tool knows them).
            if (!side_allowed(target_access, entry_side(cur.p, next)))
              continue;
            search.set_parent(node_key, cur);
            hit = {next, axis};
            found = true;
            break;
          }
          if (!cell_usable(next, axis)) continue;
          search.set_parent(node_key, cur);
          search.frontier.push_back({next, axis});
        }
      }

      out.expansions += expansions;

      RoutedTerm rterm{terms[ti].first, target, Side::North, false};
      if (!found) {
        all_ok = false;
        routed.terms.push_back(rterm);
        continue;
      }
      auto parent_of = [&](const Node& nd) -> const Node& {
        return search.parent[grid.idx(nd.p) * 3 + std::size_t(nd.axis)];
      };
      rterm.connected = true;
      rterm.entered_from = entry_side(parent_of(hit).p, hit.p);
      term_record_set(target, routed.terms.size());
      routed.terms.push_back(rterm);

      // Walk back, committing the path. `child_axis` is the axis of the
      // step LEAVING each cell (toward the target side of the chain).
      Node cur = hit;
      int child_axis = hit.axis;
      while (!(parent_of(cur).p == cur.p && parent_of(cur).axis == cur.axis)) {
        Node par = parent_of(cur);
        bool par_is_root = [&] {
          const Node& pp = parent_of(par);
          return pp.p == par.p && pp.axis == par.axis;
        }();
        // Reaching the chain root: if it is one of this net's terminals,
        // record which face the wire attaches on (seed pins got a default).
        if (par_is_root) {
          if (std::size_t* tix = term_record(par.p)) {
            routed.terms[*tix].entered_from = entry_side(cur.p, par.p);
            routed.terms[*tix].connected = true;
          }
        }
        const Point& c = cur.p;
        std::size_t ci = grid.idx(c);
        if (is_foreign(c)) {
          // Crossing point: both nets now pass here; lock the cell.
          grid.dir[ci] = 3;
          routed.cells.push_back(c);
        } else if (!in_tree(c)) {
          tree_insert(c);
          routed.cells.push_back(c);
          grid.occ[ci] = me;
          std::uint8_t bits = 0;
          if (cur.axis == 0 || child_axis == 0) bits |= 1;
          if (cur.axis == 1 || child_axis == 1) bits |= 2;
          grid.dir[ci] |= bits;
          // Fat-wire side cells.
          for (int k = 1; k < width; ++k) {
            for (Point q :
                 {Point{c.x + k, c.y}, Point{c.x, c.y + k}}) {
              if (!grid.inside(q)) continue;
              std::size_t qi = grid.idx(q);
              if (grid.occ[qi] == kFree &&
                  (grid.approach[qi] == 0 || grid.approach[qi] == me)) {
                grid.occ[qi] = me;
                // Fat metal runs parallel to the center wire; perpendicular
                // crossings stay legal (corners lock to 3 via bits).
                grid.dir[qi] = bits == 0 ? 3 : bits;
                routed.width_cells.push_back(q);
              }
            }
          }
          // Spacing halo (never over another pin's escape cells).
          for (int dx = -spacing; dx <= spacing; ++dx) {
            for (int dy = -spacing; dy <= spacing; ++dy) {
              Point q{c.x + dx, c.y + dy};
              if (!grid.inside(q)) continue;
              std::size_t qi = grid.idx(q);
              if (grid.approach[qi] != 0 && grid.approach[qi] != me) continue;
              if (grid.halo[qi] == 0) grid.halo[qi] = me;
              if (grid.halo[qi] == me) grid.halo_axis[qi] |= bits;
            }
          }
        }
        child_axis = cur.axis;
        cur = par;
      }
    }

    // Shield wires: guard tracks beside every path cell. The shield cell
    // inherits the path cell's direction bits so others can cross it
    // perpendicular.
    if (net.shield.value_or(false)) {
      routed.shielded = true;
      for (const Point& c : routed.cells) {
        std::uint8_t cbits = grid.dir[grid.idx(c)];
        for (const Point& d : kDirs) {
          Point q{c.x + d.x, c.y + d.y};
          if (!grid.inside(q)) continue;
          std::size_t qi = grid.idx(q);
          if (grid.occ[qi] == kFree && grid.pin_owner[qi] == 0 &&
              grid.approach[qi] == 0) {
            grid.occ[qi] = kShield;
            grid.dir[qi] = cbits == 0 ? 3 : cbits;
            routed.shield_cells.push_back(q);
          }
        }
      }
    }

    routed.routed = all_ok;
    if (!all_ok) ++result.failed_nets;
    result.wirelength += std::int64_t(routed.cells.size());
    result.nets.push_back(std::move(routed));
  }

  return out;
}

}  // namespace oracle

/// Field-by-field comparison of two results, reporting the first net that
/// differs.
void expect_same_routes(const RouteResult& want, const RouteResult& got,
                        const std::string& where) {
  ASSERT_EQ(want.nets.size(), got.nets.size()) << where;
  EXPECT_EQ(want.failed_nets, got.failed_nets) << where;
  EXPECT_EQ(want.wirelength, got.wirelength) << where;
  for (std::size_t i = 0; i < want.nets.size(); ++i) {
    const RoutedNet& a = want.nets[i];
    const RoutedNet& b = got.nets[i];
    const std::string net = where + " net " + a.name;
    ASSERT_EQ(a.name, b.name) << net;
    ASSERT_EQ(a.routed, b.routed) << net;
    ASSERT_EQ(a.cells, b.cells) << net;
    ASSERT_EQ(a.width_cells, b.width_cells) << net;
    ASSERT_EQ(a.shield_cells, b.shield_cells) << net;
    ASSERT_EQ(a.terms.size(), b.terms.size()) << net;
    for (std::size_t t = 0; t < a.terms.size(); ++t) {
      ASSERT_EQ(a.terms[t].term.instance, b.terms[t].term.instance) << net;
      ASSERT_EQ(a.terms[t].term.pin, b.terms[t].term.pin) << net;
      ASSERT_EQ(a.terms[t].at, b.terms[t].at) << net;
      ASSERT_EQ(a.terms[t].entered_from, b.terms[t].entered_from) << net;
      ASSERT_EQ(a.terms[t].connected, b.terms[t].connected) << net;
    }
    ASSERT_EQ(a.width_used, b.width_used) << net;
    ASSERT_EQ(a.spacing_used, b.spacing_used) << net;
    ASSERT_EQ(a.shielded, b.shielded) << net;
  }
}

/// Routes `input` with both kernels under `opt` and checks the results
/// field by field and the `pnr.route.expansions` counter's delta against
/// the oracle's pop count.
void expect_input_matches_oracle(const ToolInput& input,
                                 const RouteOptions& opt,
                                 const std::string& where) {
  obs::MetricCounter& counted =
      obs::Metrics::global().counter("pnr.route.expansions");
  const oracle::Result want = oracle::route(input, opt);
  const std::int64_t before = counted.value();
  const RouteResult got = route(input, opt);
  EXPECT_EQ(counted.value() - before, want.expansions) << where;
  expect_same_routes(want.routes, got, where);
}

/// Every shape of `seed` through expect_input_matches_oracle.
void expect_matches_oracle(std::uint64_t seed, const RouteOptions& opt = {}) {
  for (Shape shape : kShapes) {
    expect_input_matches_oracle(
        make_input(shape, seed), opt,
        std::string(shape_name(shape)) + " seed " + std::to_string(seed) +
            " cap " + std::to_string(opt.max_expansions));
  }
}

TEST(RouteOracle, GoldenSeedsMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_matches_oracle(seed);
    if (HasFatalFailure()) return;
  }
}

// The default cap (200 000 pops per connection) never binds at these dies.
// Small caps stop searches part way, so the count of pops, the pop that
// trips the cap and the nets left unrouted must all match the oracle.
TEST(RouteOracle, ExpansionCapsMatchOracle) {
  for (int cap : {50, 700, 5000}) {
    RouteOptions opt;
    opt.max_expansions = cap;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      expect_matches_oracle(seed, opt);
      if (HasFatalFailure()) return;
    }
  }
}

// A deck may declare a negative spacing ("SPACING -1" parses). Such a net
// routes like one without spacing but casts no halo, not even over its own
// path cells, so only the walk-back marks those cells as taken.
TEST(RouteOracle, NegativeSpacingMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (Shape shape : kShapes) {
      ToolInput input = make_input(shape, seed);
      for (ToolInput::NetRecord& net : input.nets) net.spacing = -1;
      expect_input_matches_oracle(input, {},
                                  std::string(shape_name(shape)) + " seed " +
                                      std::to_string(seed) + " spacing -1");
      if (HasFatalFailure()) return;
    }
  }
}

/// "lo:hi" from GOLDEN_SEED_RANGE; false (-> GTEST_SKIP) when unset, so
/// the broad sweep only runs when ctest's `sweep`-labeled entries (or a
/// nightly CI job) opt in. See tests/CMakeLists.txt.
bool golden_seed_range(std::uint64_t* lo, std::uint64_t* hi) {
  const char* v = std::getenv("GOLDEN_SEED_RANGE");
  if (!v || !*v) return false;
  std::string s(v);
  std::size_t colon = s.find(':');
  if (colon == std::string::npos) return false;
  try {
    *lo = std::stoull(s.substr(0, colon));
    *hi = std::stoull(s.substr(colon + 1));
  } catch (const std::exception&) {
    return false;
  }
  return *lo <= *hi;
}

TEST(RouteGoldenSweep, MatchesOracleOverSeedRange) {
  std::uint64_t lo = 0, hi = 0;
  if (!golden_seed_range(&lo, &hi))
    GTEST_SKIP() << "set GOLDEN_SEED_RANGE=lo:hi to run the broad sweep";
  for (std::uint64_t seed = lo; seed <= hi; ++seed) {
    expect_matches_oracle(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace interop::pnr
