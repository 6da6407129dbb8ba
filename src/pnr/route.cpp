#include "pnr/route.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace interop::pnr {

std::string to_string(Side s) {
  switch (s) {
    case Side::North: return "N";
    case Side::South: return "S";
    case Side::East: return "E";
    case Side::West: return "W";
  }
  return "?";
}

namespace {

constexpr int kFree = 0;
constexpr int kBlocked = -1;
constexpr int kShield = -2;

/// Everything the search knows about one grid cell, in one 24-byte record.
/// The BFS reads it only for cells that are not clean (see Grid::plane).
/// Net ids are stored as id + 1 so that 0 means "none".
struct Cell {
  int occ = kFree;    ///< kFree/kBlocked/kShield or net id + 1
  int halo = 0;       ///< 0 or net id + 1 whose spacing halo covers
  int pin_owner = 0;  ///< 0 or net id + 1 of the terminal on this cell
  /// Escape reservation: the cells on a pin's legal approach sides are
  /// protected for that pin's net — other nets may only pass straight
  /// through them, perpendicular to the pin-entry axis, and never corner.
  int approach = 0;
  std::uint8_t approach_axis = 0;  ///< 0 = horizontal entry, 1 = vertical
  /// Direction bits of the metal that cast this halo/shield cell; foreign
  /// nets may cross such cells perpendicular and straight (other layer).
  std::uint8_t halo_axis = 0;
  /// Wire direction bits: 1 = horizontal, 2 = vertical, 3 = both (corner or
  /// locked crossing). A perpendicular wire of ANOTHER net may pass straight
  /// through a cell with exactly one direction bit — the two-layer HV
  /// routing abstraction.
  std::uint8_t dir = 0;
  AccessDirs pin_access;  ///< access sides of the terminal on this cell
};
static_assert(sizeof(Cell) == 24);

/// Search nodes are 32-bit keys cell * 3 + axis, so a die may hold at most
/// this many cells (3 * w * h < 2^32).
constexpr std::uint64_t kMaxCells = (std::uint64_t(1) << 32) / 3;

/// Cells across [lo, hi], or 0 when that exceeds kMaxCells (computed in
/// unsigned arithmetic, so an absurd die cannot overflow).
std::uint64_t cells_across(std::int64_t lo, std::int64_t hi) {
  std::uint64_t span = std::uint64_t(hi) - std::uint64_t(lo);
  return span < kMaxCells ? span + 1 : 0;
}

/// A cell's byte in Grid::plane: bit d (0..3) says the step-d neighbour
/// (+x, -x, +y, -y) is on the die; kClean says the cell is free and has no
/// halo, no pin owner and no approach mark, so any plain net may enter it
/// and leaving it needs no test but the visited one.
constexpr std::uint8_t kClean = 1 << 4;
/// The on-die bits of steps +x and +y, where a 2-wide wire's side cells lie.
constexpr std::uint8_t kSidesOnDie = 1 << 0 | 1 << 2;

struct Grid {
  Rect die;
  std::int64_t w = 0, h = 0;
  std::vector<Cell> cells;  ///< row-major: index (y - lo.y) * w + (x - lo.x)
  /// One byte per cell, parallel to `cells`. Built once the obstacles and
  /// pin sites are in place; every later write of a mark clears kClean.
  std::vector<std::uint8_t> plane;

  /// Throws std::length_error, before allocating anything, when the die
  /// has too many cells for 32-bit search keys.
  explicit Grid(const Rect& d) : die(d) {
    std::uint64_t cw = cells_across(die.lo().x, die.hi().x);
    std::uint64_t ch = cells_across(die.lo().y, die.hi().y);
    if (cw == 0 || ch == 0 || cw > kMaxCells / ch)
      throw std::length_error(
          "route: die (" + std::to_string(die.lo().x) + "," +
          std::to_string(die.lo().y) + ")-(" + std::to_string(die.hi().x) +
          "," + std::to_string(die.hi().y) +
          ") has too many cells: the router needs 3 * w * h < 2^32");
    w = std::int64_t(cw);
    h = std::int64_t(ch);
    cells.assign(std::size_t(w * h), Cell{});
  }
  bool inside(const Point& p) const { return die.contains(p); }
  std::uint32_t idx(const Point& p) const {
    return std::uint32_t((p.y - die.lo().y) * w + (p.x - die.lo().x));
  }
  Point at(std::uint32_t i) const {
    return {die.lo().x + i % w, die.lo().y + i / w};
  }
  void build_plane() {
    plane.resize(cells.size());
    for (std::int64_t y = 0; y < h; ++y)
      for (std::int64_t x = 0; x < w; ++x) {
        const Cell& c = cells[std::size_t(y * w + x)];
        std::uint8_t b = 0;
        if (x + 1 < w) b |= 1;
        if (x > 0) b |= 2;
        if (y + 1 < h) b |= 4;
        if (y > 0) b |= 8;
        if (c.occ == kFree && c.halo == 0 && c.pin_owner == 0 &&
            c.approach == 0)
          b |= kClean;
        plane[std::size_t(y * w + x)] = b;
      }
  }
  void unclean(std::uint32_t i) { plane[i] &= std::uint8_t(~kClean); }
  /// The side of `to` that a step from the adjacent cell `from` enters.
  Side entry_side(std::uint32_t from, std::uint32_t to) const {
    if (to == from + w) return Side::South;  // moving up: enters south face
    if (from == to + w) return Side::North;
    if (to == from + 1) return Side::West;
    return Side::East;
  }
};

/// Flat BFS state over (cell, arrival-axis) nodes keyed cell * 3 + axis
/// (axis 2 = "any", used for tree seeds): one visited bit per key, cleared
/// per search, and a parent key written only when a node is discovered (so
/// only a visited node's parent is meaningful). A seed is its own parent.
///
/// The visited bit of a cell's axis-2 node, when the cell is not a seed,
/// doubles as the cell's "expanded" mark (see route()): neighbour keys are
/// always axis 0 or 1, and the walk-back reads only chain nodes, whose
/// axis-2 members are seeds, so nothing else reads that slot.
struct SearchScratch {
  std::vector<std::uint64_t> visited_bits;
  std::vector<std::uint32_t> parents;

  // Tree membership and terminal-record index per cell, epoch-stamped per
  // net so both reset in O(1) when the next net starts.
  std::vector<std::uint32_t> tree_stamp;
  std::vector<std::uint32_t> term_stamp;
  std::vector<std::uint32_t> term_index;
  std::uint32_t net_epoch = 0;

  // FIFO frontier: a monotonic vector with a read cursor (each node enters
  // at most once, so no ring buffer is needed).
  std::vector<std::uint32_t> frontier;
  std::size_t frontier_head = 0;

  explicit SearchScratch(std::size_t cells)
      : visited_bits((cells * 3 + 63) / 64),
        parents(cells * 3),
        tree_stamp(cells, 0),
        term_stamp(cells, 0),
        term_index(cells, 0) {}

  void begin_net() { ++net_epoch; }
  void begin_search() {
    std::fill(visited_bits.begin(), visited_bits.end(), 0);
    frontier.clear();
    frontier_head = 0;
  }
  bool visited(std::uint32_t key) const {
    return (visited_bits[key >> 6] >> (key & 63)) & 1;
  }
  void set_visited(std::uint32_t key) {
    visited_bits[key >> 6] |= std::uint64_t(1) << (key & 63);
  }
  void set_parent(std::uint32_t key, std::uint32_t parent) {
    set_visited(key);
    parents[key] = parent;
  }
  std::uint32_t parent(std::uint32_t key) const { return parents[key]; }
  /// Marks cell `ci` expanded in this search; false when it already was
  /// (a seed's cell is marked from the start).
  bool mark_expanded(std::uint32_t ci) {
    if (visited(ci * 3 + 2)) return false;
    set_visited(ci * 3 + 2);
    return true;
  }
};

bool side_allowed(const AccessDirs& a, Side s) {
  switch (s) {
    case Side::North: return a.north;
    case Side::South: return a.south;
    case Side::East: return a.east;
    case Side::West: return a.west;
  }
  return true;
}

/// The four steps in expansion order (+x, -x, +y, -y), matching the on-die
/// bits of Grid::plane: their arrival axis, the side of the next cell they
/// enter, and the side of the current cell they leave by.
constexpr int kStepAxis[4] = {0, 0, 1, 1};
constexpr Side kEnterSide[4] = {Side::West, Side::East, Side::South,
                                Side::North};
constexpr Side kLeaveSide[4] = {Side::East, Side::West, Side::North,
                                Side::South};

}  // namespace

RouteResult route(const ToolInput& input, const RouteOptions& opt) {
  RouteResult result;
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

  // ---- obstacles (clipped to the die) ----
  auto block = [&grid](const Rect& r) {
    const Rect& die = grid.die;
    for (std::int64_t y = std::max(r.lo().y, die.lo().y),
                      y_end = std::min(r.hi().y, die.hi().y);
         y <= y_end; ++y)
      for (std::int64_t x = std::max(r.lo().x, die.lo().x),
                        x_end = std::min(r.hi().x, die.hi().x);
           x <= x_end; ++x)
        grid.cells[grid.idx({x, y})].occ = kBlocked;
  };
  for (const PhysInstance& inst : input.placement) {
    auto it = cell_by_name.find(inst.cell);
    if (it == cell_by_name.end()) continue;
    base::Transform t = placed_transform(inst, *it->second);
    for (const Blockage& b : it->second->blockages) block(t.apply(b.rect));
  }
  for (const Keepout& ko : input.keepouts) block(ko.rect);

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
      Cell& pin = grid.cells[grid.idx(*pos)];
      pin.pin_access = access;
      term_pos[{term.instance, term.pin}] = *pos;
      pin.occ = kFree;  // pins override blockages
      pin.pin_owner = int(n) + 1;
      // Reserve the escape cells on the pin's legal sides.
      auto reserve = [&grid, n](Point q, std::uint8_t axis) {
        if (!grid.inside(q)) return;
        Cell& c = grid.cells[grid.idx(q)];
        if (c.approach == 0) {
          c.approach = int(n) + 1;
          c.approach_axis = axis;
        }
      };
      if (access.north) reserve({pos->x, pos->y + 1}, 1);
      if (access.south) reserve({pos->x, pos->y - 1}, 1);
      if (access.east) reserve({pos->x + 1, pos->y}, 0);
      if (access.west) reserve({pos->x - 1, pos->y}, 0);
    }
  }

  grid.build_plane();

  // ---- route nets sequentially ----
  const std::int64_t w = grid.w, h = grid.h;
  const std::int64_t step[4] = {1, -1, w, -w};  // cell index offsets
  SearchScratch search(grid.cells.size());
  // Tree cells as transposed keys x * h + y (die-relative), whose order is
  // Point's (x, y) order: a sorted copy seeds the BFS.
  std::vector<std::uint32_t> tree_cells;
  std::vector<std::uint32_t> seed_cells;

  for (std::size_t n = 0; n < input.nets.size(); ++n) {
    const ToolInput::NetRecord& net = input.nets[n];
    obs::Span net_span("pnr", [&net] {
      return std::pair{"route:" + net.name, std::string()};
    });
    std::int64_t net_expansions = 0;
    std::size_t frontier_peak = 0;  // tracked only while the span is live
    RoutedNet routed;
    routed.name = net.name;
    routed.width_used = net.width.value_or(1);
    routed.spacing_used = net.spacing.value_or(0);
    const int spacing = routed.spacing_used;
    const int width = routed.width_used;
    const bool plain = width <= 1 && spacing <= 0;
    const bool fat2 = width == 2 && spacing <= 0;
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

    auto foreign = [me](int owner) { return owner != 0 && owner != me; };
    // Whether the cell at index i may be entered on `axis`.
    auto cell_usable = [&](std::uint32_t i, int axis) {
      const Cell& c = grid.cells[i];
      if (c.occ == kBlocked) return false;
      if (c.occ == kShield || (c.occ > 0 && c.occ != me)) {
        // Foreign wire or shield track: only a plain net may cross it,
        // perpendicular to a straight run (the two-layer HV abstraction).
        if (!plain) return false;
        bool straight_perp =
            (axis == 0 && c.dir == 2) || (axis == 1 && c.dir == 1);
        if (!straight_perp) return false;
      }
      if (foreign(c.pin_owner)) return false;  // other net's pin
      if (foreign(c.approach)) {
        // Another pin's escape cell: perpendicular transit only.
        if (!plain) return false;
        if (axis != 1 - int(c.approach_axis)) return false;
      }
      if (foreign(c.halo)) {
        // Clearance zone of a spaced net: perpendicular transit only.
        if (!plain) return false;
        bool perp = (axis == 0 && c.halo_axis == 2) ||
                    (axis == 1 && c.halo_axis == 1);
        if (!perp) return false;
      }
      if (plain) return true;  // the tests below need x and y
      const std::int64_t y = std::int64_t(i) / w, x = std::int64_t(i) - y * w;
      if (spacing > 0) {
        // This net demands clearance: stay away from other nets' metal.
        for (std::int64_t qy = std::max<std::int64_t>(y - spacing, 0),
                          qy_end = std::min(y + spacing, h - 1);
             qy <= qy_end; ++qy)
          for (std::int64_t qx = std::max<std::int64_t>(x - spacing, 0),
                            qx_end = std::min(x + spacing, w - 1);
               qx <= qx_end; ++qx) {
            int o = grid.cells[std::size_t(qy * w + qx)].occ;
            if (o > 0 && o != me) return false;
          }
      }
      // L-corridor approximation: the fat wire needs the cells beside it.
      for (int k = 1; k < width; ++k) {
        if (x + k >= w || y + k >= h) return false;
        for (std::uint32_t qi : {std::uint32_t(i + k),
                                 std::uint32_t(i + k * w)}) {
          const Cell& q = grid.cells[qi];
          if ((q.occ != kFree && q.occ != me) || foreign(q.pin_owner))
            return false;
        }
      }
      return true;
    };
    // Cells we may only pass straight through: foreign wires, shield
    // tracks, foreign clearance zones, other pins' escape cells.
    auto is_transit = [&](const Cell& c) {
      return (c.occ > 0 && c.occ != me) || c.occ == kShield ||
             foreign(c.halo) || foreign(c.approach);
    };

    // Tree cells grow as terminals connect. The seed terminal is only
    // "connected" once the first successful chain actually attaches to it.
    search.begin_net();
    tree_cells.clear();
    auto tree_insert = [&](std::uint32_t i) {
      search.tree_stamp[i] = search.net_epoch;
      tree_cells.push_back(std::uint32_t((i % w) * h + i / w));
    };
    // Terminal record lookup for fixing up attach sides at tree roots.
    auto term_record_set = [&](std::uint32_t i, std::size_t v) {
      search.term_stamp[i] = search.net_epoch;
      search.term_index[i] = std::uint32_t(v);
    };
    const std::uint32_t first = grid.idx(terms[0].second);
    tree_insert(first);
    term_record_set(first, 0);
    routed.terms.push_back({terms[0].first, terms[0].second, Side::North,
                            false});
    bool all_ok = true;

    for (std::size_t ti = 1; ti < terms.size(); ++ti) {
      const std::uint32_t target = grid.idx(terms[ti].second);
      const AccessDirs target_access = grid.cells[target].pin_access;

      // Axis-aware BFS over (cell, axis) nodes keyed cell * 3 + axis;
      // axis 0 = horizontal, 1 = vertical; tree seeds use axis 2 ("any").
      // Seeds enter in ascending (x, y) order — the iteration order of the
      // reference kernel's std::set<Point> — so the flat queue explores in
      // exactly the same order.
      search.begin_search();
      seed_cells.assign(tree_cells.begin(), tree_cells.end());
      std::sort(seed_cells.begin(), seed_cells.end());
      for (std::uint32_t t : seed_cells) {
        const std::uint32_t seed = std::uint32_t((t % h) * w + t / h) * 3 + 2;
        search.set_parent(seed, seed);
        search.frontier.push_back(seed);
      }
      bool found = false;
      std::uint32_t hit = 0;
      int expansions = 0;

      while (search.frontier_head < search.frontier.size() && !found) {
        if (net_span.id() != 0)
          frontier_peak = std::max(
              frontier_peak, search.frontier.size() - search.frontier_head);
        const std::uint32_t cur = search.frontier[search.frontier_head++];
        if (++expansions > opt.max_expansions) break;
        const std::uint32_t ci = cur / 3;
        const int cur_axis = int(cur - ci * 3);
        const std::uint8_t here = grid.plane[ci];
        // A clean cell is no transit cell and no pin, so only a cell that
        // is not clean has its record read. Inside a transit cell we may
        // only continue straight through; leaving one of this net's own
        // pins must respect its access sides (the attach face must be a
        // legal side of the pin).
        bool straight_only = false;
        const AccessDirs* own_pin = nullptr;
        if (!(here & kClean)) {
          const Cell& cell = grid.cells[ci];
          straight_only = is_transit(cell);
          if (cell.pin_owner == me) own_pin = &cell.pin_access;
        }
        // Any other cell expands once. Its neighbour loop does not depend
        // on the arrival axis: every test reads only the step and the
        // neighbour, and cells change only in the walk-back, after the
        // search. So a second arrival (the other axis, or either axis at a
        // seed's cell, which the seed expanded) finds every neighbour key
        // visited or rejected as before and discovers nothing. It still
        // counts as an expansion, so the cap and the metrics are those of
        // the search that expands every arrival.
        if (!straight_only && cur_axis != 2 && !search.mark_expanded(ci))
          continue;
        for (int d = 0; d < 4; ++d) {
          // Off-die neighbours are never visited nor usable.
          if (!(here & (1u << d))) continue;
          const int axis = kStepAxis[d];
          if (straight_only && axis != cur_axis) continue;
          const std::uint32_t ni = std::uint32_t(ci + step[d]);
          const std::uint32_t key = ni * 3 + std::uint32_t(axis);
          if (search.visited(key)) continue;
          if (own_pin && !side_allowed(*own_pin, kLeaveSide[d])) continue;
          // A plain net enters a clean cell on either axis, and a 2-wide
          // net without spacing one whose +x and +y cells (its side
          // cells) are on the die and clean: cell_usable would pass both.
          // The target holds a pin, so it is never clean.
          const std::uint8_t next = grid.plane[ni];
          if ((next & kClean) &&
              (plain || (fat2 && (next & kSidesOnDie) == kSidesOnDie &&
                         (grid.plane[ni + 1] & grid.plane[ni + w] & kClean)))) {
            search.set_parent(key, cur);
            search.frontier.push_back(key);
            continue;
          }
          if (ni == target) {
            // Respect the pin's access sides (when the tool knows them).
            if (!side_allowed(target_access, kEnterSide[d])) continue;
            search.set_parent(key, cur);
            hit = key;
            found = true;
            break;
          }
          if (!cell_usable(ni, axis)) continue;
          search.set_parent(key, cur);
          search.frontier.push_back(key);
        }
      }

      net_expansions += expansions;

      RoutedTerm rterm{terms[ti].first, terms[ti].second, Side::North, false};
      if (!found) {
        all_ok = false;
        routed.terms.push_back(rterm);
        continue;
      }
      rterm.connected = true;
      rterm.entered_from = grid.entry_side(search.parent(hit) / 3, target);
      term_record_set(target, routed.terms.size());
      routed.terms.push_back(rterm);

      // Walk back, committing the path. `child_axis` is the axis of the
      // step LEAVING each cell (toward the target side of the chain).
      std::uint32_t cur = hit;
      int child_axis = int(hit % 3);
      while (search.parent(cur) != cur) {
        const std::uint32_t par = search.parent(cur);
        const std::uint32_t ci = cur / 3, pi = par / 3;
        const int cur_axis = int(cur % 3);
        // Reaching the chain root: if it is one of this net's terminals,
        // record which face the wire attaches on (seed pins got a default).
        if (search.parent(par) == par &&
            search.term_stamp[pi] == search.net_epoch) {
          RoutedTerm& root = routed.terms[search.term_index[pi]];
          root.entered_from = grid.entry_side(ci, pi);
          root.connected = true;
        }
        // Every chain cell now carries metal: this net's, or a locked
        // crossing of a foreign wire.
        grid.unclean(ci);
        Cell& c = grid.cells[ci];
        if (c.occ > 0 && c.occ != me) {
          // Crossing point: both nets now pass here; lock the cell.
          c.dir = 3;
          routed.cells.push_back(grid.at(ci));
        } else if (search.tree_stamp[ci] != search.net_epoch) {
          tree_insert(ci);
          const Point p = grid.at(ci);
          routed.cells.push_back(p);
          c.occ = me;
          std::uint8_t bits = 0;
          if (cur_axis == 0 || child_axis == 0) bits |= 1;
          if (cur_axis == 1 || child_axis == 1) bits |= 2;
          c.dir |= bits;
          // Fat-wire side cells.
          for (int k = 1; k < width; ++k) {
            for (Point q : {Point{p.x + k, p.y}, Point{p.x, p.y + k}}) {
              if (!grid.inside(q)) continue;
              Cell& side = grid.cells[grid.idx(q)];
              if (side.occ == kFree && !foreign(side.approach)) {
                grid.unclean(grid.idx(q));
                side.occ = me;
                // Fat metal runs parallel to the center wire; perpendicular
                // crossings stay legal (corners lock to 3 via bits).
                side.dir = bits == 0 ? 3 : bits;
                routed.width_cells.push_back(q);
              }
            }
          }
          // Spacing halo (never over another pin's escape cells).
          for (int dx = -spacing; dx <= spacing; ++dx) {
            for (int dy = -spacing; dy <= spacing; ++dy) {
              Point q{p.x + dx, p.y + dy};
              if (!grid.inside(q)) continue;
              Cell& near = grid.cells[grid.idx(q)];
              if (foreign(near.approach)) continue;
              if (near.halo == 0) {
                grid.unclean(grid.idx(q));
                near.halo = me;
              }
              if (near.halo == me) near.halo_axis |= bits;
            }
          }
        }
        child_axis = cur_axis;
        cur = par;
      }
    }

    // Shield wires: guard tracks beside every path cell. The shield cell
    // inherits the path cell's direction bits so others can cross it
    // perpendicular.
    if (net.shield.value_or(false)) {
      routed.shielded = true;
      for (const Point& c : routed.cells) {
        std::uint8_t cbits = grid.cells[grid.idx(c)].dir;
        for (Point q : {Point{c.x + 1, c.y}, Point{c.x - 1, c.y},
                        Point{c.x, c.y + 1}, Point{c.x, c.y - 1}}) {
          if (!grid.inside(q)) continue;
          Cell& guard = grid.cells[grid.idx(q)];
          if (guard.occ == kFree && guard.pin_owner == 0 &&
              guard.approach == 0) {
            grid.unclean(grid.idx(q));
            guard.occ = kShield;
            guard.dir = cbits == 0 ? 3 : cbits;
            routed.shield_cells.push_back(q);
          }
        }
      }
    }

    routed.routed = all_ok;
    if (!all_ok) ++result.failed_nets;
    result.wirelength += std::int64_t(routed.cells.size());
    // Registry handles resolved once per process: a lookup takes the
    // registry lock and may allocate the name.
    static obs::MetricCounter& m_nets =
        obs::Metrics::global().counter("pnr.route.nets");
    static obs::MetricCounter& m_expansions =
        obs::Metrics::global().counter("pnr.route.expansions");
    static obs::MetricCounter& m_failed =
        obs::Metrics::global().counter("pnr.route.failed_nets");
    static obs::MetricHistogram& m_per_net =
        obs::Metrics::global().histogram("pnr.route.expansions_per_net");
    m_nets.add();
    m_expansions.add(net_expansions);
    if (!all_ok) m_failed.add();
    m_per_net.observe(std::uint64_t(net_expansions));
    if (net_span.id() != 0) {
      obs::counter("pnr", "route.expansions", net_expansions);
      obs::counter("pnr", "route.frontier_peak",
                   std::int64_t(frontier_peak));
      net_span.end("\"expansions\":" + std::to_string(net_expansions) +
                   ",\"frontier_peak\":" + std::to_string(frontier_peak) +
                   ",\"routed\":" + (all_ok ? "true" : "false"));
    }
    result.nets.push_back(std::move(routed));
  }

  return result;
}

}  // namespace interop::pnr
