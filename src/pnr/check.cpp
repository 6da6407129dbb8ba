#include "pnr/check.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

namespace interop::pnr {

namespace {

bool side_allowed(const AccessDirs& a, Side s) {
  switch (s) {
    case Side::North: return a.north;
    case Side::South: return a.south;
    case Side::East: return a.east;
    case Side::West: return a.west;
  }
  return true;
}

/// Every net's metal (center and width cells) as a set of cells, indexed by
/// cell over the bounding box of all routed metal. Route records that share
/// a name are one net, and a cell a net lists twice is one cell, as if each
/// net's cells were a std::set<Point>. For router output the box lies
/// inside the die the router itself held in memory.
struct MetalIndex {
  std::int64_t w = 0, h = 0;  ///< box size; cells are y * w + x, box-relative
  std::vector<std::uint32_t> net_of;  ///< net id per route record
  /// One (cell, net) pair each. A net's entries are contiguous, nets in id
  /// order: net g holds entries [net_first[g], net_first[g + 1]).
  struct Entry {
    std::uint32_t cell;
    std::uint32_t net;
    std::uint32_t next;  ///< the cell's previous entry + 1, 0 = none
  };
  std::vector<Entry> entries;
  std::vector<std::uint32_t> net_first;
  std::vector<std::uint32_t> newest;  ///< per cell: last entry + 1, 0 = none

  explicit MetalIndex(const std::vector<RoutedNet>& nets) {
    // Net ids: records sorted by name, equal names sharing an id.
    std::vector<std::uint32_t> by_name(nets.size());
    std::iota(by_name.begin(), by_name.end(), 0u);
    std::sort(by_name.begin(), by_name.end(),
              [&nets](std::uint32_t a, std::uint32_t b) {
                return nets[a].name < nets[b].name;
              });
    net_of.resize(nets.size());
    std::uint32_t id = 0;
    for (std::size_t k = 0; k < by_name.size(); ++k) {
      if (k > 0 && nets[by_name[k]].name != nets[by_name[k - 1]].name) ++id;
      net_of[by_name[k]] = id;
    }

    bool any = false;
    std::int64_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
    for (const RoutedNet& rn : nets)
      for (const std::vector<Point>* cells : {&rn.cells, &rn.width_cells})
        for (const Point& p : *cells) {
          if (!any) {
            x0 = x1 = p.x;
            y0 = y1 = p.y;
            any = true;
          }
          x0 = std::min(x0, p.x);
          x1 = std::max(x1, p.x);
          y0 = std::min(y0, p.y);
          y1 = std::max(y1, p.y);
        }
    if (any) {
      w = x1 - x0 + 1;
      h = y1 - y0 + 1;
      newest.assign(std::size_t(w * h), 0);
    }

    // Records in id order, so a cell's newest entry belongs to the current
    // net exactly when the net has listed the cell already.
    for (std::size_t k = 0; k < by_name.size(); ++k) {
      const std::uint32_t r = by_name[k];
      const std::uint32_t g = net_of[r];
      if (k == 0 || g != net_of[by_name[k - 1]])
        net_first.push_back(std::uint32_t(entries.size()));
      for (const std::vector<Point>* cells :
           {&nets[r].cells, &nets[r].width_cells})
        for (const Point& p : *cells) {
          const std::uint32_t i = std::uint32_t((p.y - y0) * w + (p.x - x0));
          if (newest[i] != 0 && entries[newest[i] - 1].net == g) continue;
          entries.push_back({i, g, newest[i]});
          newest[i] = std::uint32_t(entries.size());
        }
    }
    net_first.push_back(std::uint32_t(entries.size()));
  }
};

}  // namespace

CheckResult check_routes(const PhysDesign& truth, const RouteResult& routes) {
  CheckResult out;
  out.failed_nets = routes.failed_nets;

  // True pin properties by (instance, pin).
  auto true_props = [&truth](const PhysNet::Term& term)
      -> const ConnectionProps* {
    const PhysInstance* inst = truth.find_instance(term.instance);
    if (!inst) return nullptr;
    const CellAbstract* cell = truth.find_cell(inst->cell);
    if (!cell) return nullptr;
    const AbstractPin* pin = cell->find_pin(term.pin);
    return pin ? &pin->props : nullptr;
  };

  const MetalIndex metal(routes.nets);
  std::vector<int> offending;  // per aggressor net id

  for (std::size_t r = 0; r < routes.nets.size(); ++r) {
    const RoutedNet& rn = routes.nets[r];
    const PhysNet* net = truth.find_net(rn.name);
    if (!net) continue;

    for (const RoutedTerm& rt : rn.terms) {
      const ConnectionProps* props = true_props(rt.term);
      if (!props) continue;
      if (!rt.connected) {
        if (props->must_connect) ++out.unconnected_must;
        continue;
      }
      if (!side_allowed(props->access, rt.entered_from))
        ++out.access_violations;
    }

    // Width/shield are properties of produced metal. A net with no cells
    // (its terminals never placed, so the router took the short-circuit
    // exit) is a routability failure — already counted in failed_nets —
    // not evidence that the constraint was dropped in translation.
    if (!rn.cells.empty()) {
      if (net->topology.width > rn.width_used) ++out.width_violations;
      if (net->topology.shield && !rn.shielded) ++out.shield_violations;
    }

    if (net->topology.spacing > 0) {
      // Coupling comes from PARALLEL adjacency: a single perpendicular
      // crossing cell is harmless. Count, per aggressor net, the (victim
      // cell, aggressor cell) pairs within the clearance window; four or
      // more from one aggressor is a violation.
      const std::int64_t s = net->topology.spacing;
      const std::uint32_t victim = metal.net_of[r];
      offending.assign(metal.net_first.size() - 1, 0);
      for (std::uint32_t e = metal.net_first[victim];
           e < metal.net_first[victim + 1]; ++e) {
        const std::int64_t cy = metal.entries[e].cell / metal.w;
        const std::int64_t cx = metal.entries[e].cell - cy * metal.w;
        for (std::int64_t y = std::max<std::int64_t>(cy - s, 0),
                          y_end = std::min(cy + s, metal.h - 1);
             y <= y_end; ++y)
          for (std::int64_t x = std::max<std::int64_t>(cx - s, 0),
                            x_end = std::min(cx + s, metal.w - 1);
               x <= x_end; ++x)
            for (std::uint32_t k = metal.newest[std::size_t(y * metal.w + x)];
                 k != 0; k = metal.entries[k - 1].next)
              if (metal.entries[k - 1].net != victim)
                ++offending[metal.entries[k - 1].net];
      }
      // A crossing touches ~3 cells.
      if (std::any_of(offending.begin(), offending.end(),
                      [](int n) { return n >= 4; }))
        ++out.spacing_violations;
    }

    for (const Keepout& ko : truth.floorplan.keepouts) {
      bool inside = false;
      for (const Point& c : rn.cells)
        if (ko.rect.contains(c)) inside = true;
      if (inside) ++out.keepout_violations;
    }
  }
  return out;
}

}  // namespace interop::pnr
