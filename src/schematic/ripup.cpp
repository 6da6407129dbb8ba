#include "schematic/ripup.hpp"

#include <algorithm>
#include <set>
#include <vector>

namespace interop::sch {

namespace {

/// Route from `from` to `to` with at most two axis-parallel segments,
/// preferring a corner outside `avoid`.
std::int64_t route_l(SheetIndex& index, const Point& from, const Point& to,
                     const Rect& avoid, RipupStats& stats) {
  if (from == to) return 0;
  if (from.x == to.x || from.y == to.y) {
    index.add({from, to});
    ++stats.segments_rerouted;
    return base::manhattan(from, to);
  }
  Point corner1{to.x, from.y};
  Point corner2{from.x, to.y};
  Point corner = avoid.contains(corner1) && !avoid.contains(corner2)
                     ? corner2
                     : corner1;
  index.add({from, corner});
  index.add({corner, to});
  stats.segments_rerouted += 2;
  return base::manhattan(from, corner) + base::manhattan(corner, to);
}

}  // namespace

bool replace_component(Sheet& sheet, const std::string& inst_name,
                       const SymbolMapEntry& entry, const SymbolDef& from_def,
                       const SymbolDef& to_def, RipupPolicy policy,
                       RipupStats& stats, base::DiagnosticEngine& diags) {
  auto idx = sheet.find_instance(inst_name);
  if (!idx) return false;
  SheetIndex index(sheet);
  replace_component(sheet, index, *idx, entry, from_def, to_def, policy,
                    stats, diags);
  index.store(sheet);
  return true;
}

void replace_component(Sheet& sheet, SheetIndex& index, std::size_t instance,
                       const SymbolMapEntry& entry, const SymbolDef& from_def,
                       const SymbolDef& to_def, RipupPolicy policy,
                       RipupStats& stats, base::DiagnosticEngine& diags) {
  Instance& inst = sheet.instances[instance];

  // Old pin endpoints, in source-pin order.
  struct PinWork {
    std::string from_pin;
    std::string to_pin;
    Point old_pos;
    std::vector<SheetIndex::Id> ripped;  ///< segments ripped at this pin
    std::vector<Point> stubs;            ///< far endpoints to reroute from
  };
  std::vector<PinWork> work;
  std::vector<SheetIndex::Id> seed_segments;
  for (const SymbolPin& pin : from_def.pins) {
    PinWork w;
    w.from_pin = pin.name;
    w.to_pin = SymbolMap::map_pin(entry, pin.name);
    w.old_pos = inst.placement.apply(pin.pos);
    w.ripped = index.ending_at(w.old_pos);
    for (SheetIndex::Id id : w.ripped) {
      const Segment& s = index.segment(id);
      w.stubs.push_back(s.a == w.old_pos ? s.b : s.a);
    }
    seed_segments.insert(seed_segments.end(), w.ripped.begin(),
                         w.ripped.end());
    work.push_back(std::move(w));
  }
  std::sort(seed_segments.begin(), seed_segments.end());
  seed_segments.erase(
      std::unique(seed_segments.begin(), seed_segments.end()),
      seed_segments.end());

  // What the naive policy would rip: the entire nets touching the instance.
  std::vector<SheetIndex::Id> full = index.net_of(seed_segments);
  stats.fullnet_would_rip += full.size();

  const std::vector<SheetIndex::Id>& to_rip =
      policy == RipupPolicy::Minimal ? seed_segments : full;
  stats.segments_ripped += to_rip.size();

  // FullNet must re-enter ALL the wiring it destroyed, per net: anchors are
  // the points the old net touched besides the replaced pins (other pins,
  // labels, leaf ends). They are chained back together after replacement.
  struct NetRebuild {
    std::string to_pin;            ///< replaced pin this net attaches to
    std::vector<std::string> other_pins;  ///< more replaced pins on this net
    std::vector<Point> anchors;
  };
  std::vector<NetRebuild> rebuilds;
  if (policy == RipupPolicy::FullNet) {
    std::set<Point> old_pins;
    for (const PinWork& w : work) old_pins.insert(w.old_pos);
    std::set<SheetIndex::Id> assigned;
    for (const PinWork& w : work) {
      if (w.ripped.empty()) continue;
      std::vector<SheetIndex::Id> group = index.net_of(w.ripped);
      // Skip groups already rebuilt from another pin (same net on 2 pins).
      bool fresh = true;
      for (SheetIndex::Id i : group)
        if (assigned.count(i)) fresh = false;
      if (!fresh) continue;
      assigned.insert(group.begin(), group.end());

      NetRebuild rb;
      rb.to_pin = w.to_pin;
      // Endpoint usage count within the group.
      std::map<Point, int> uses;
      for (SheetIndex::Id i : group) {
        ++uses[index.segment(i).a];
        ++uses[index.segment(i).b];
      }
      // Other replaced pins on this same net rejoin through the chain.
      for (const PinWork& ww : work) {
        if (&ww == &w || ww.ripped.empty()) continue;
        if (uses.count(ww.old_pos)) rb.other_pins.push_back(ww.to_pin);
      }
      for (const auto& [pt, count] : uses) {
        if (old_pins.count(pt)) continue;   // the replaced pins themselves
        if (count == 1) rb.anchors.push_back(pt);  // leaf: pin/label/end
      }
      // Label points must stay electrically attached, wherever they sat on
      // the old wiring (leaf, tee, or interior).
      for (SheetIndex::Id i : group)
        for (const Point& at : index.labels_on(i))
          if (!old_pins.count(at)) rb.anchors.push_back(at);
      std::sort(rb.anchors.begin(), rb.anchors.end());
      rb.anchors.erase(std::unique(rb.anchors.begin(), rb.anchors.end()),
                       rb.anchors.end());
      rebuilds.push_back(std::move(rb));
    }
  }

  for (SheetIndex::Id id : to_rip) index.remove(id);

  // Re-place the instance with the mapped symbol.
  inst.symbol = entry.to;
  inst.placement = Transform(entry.rotation, entry.origin_offset) *
                   inst.placement;

  // Reroute each stub to its pin's new position.
  Rect body = inst.placement.apply(to_def.body);

  if (policy == RipupPolicy::FullNet) {
    // Chain each destroyed net back together: new pin -> anchor1 -> ... .
    for (const NetRebuild& rb : rebuilds) {
      const SymbolPin* new_pin = to_def.find_pin(rb.to_pin);
      if (!new_pin) {
        diags.error("pin-map-missing",
                    "instance " + inst.name + ": target symbol " +
                        to_def.key.str() + " has no pin '" + rb.to_pin + "'",
                    {"sch.replace", inst.name});
        continue;
      }
      Point cur = inst.placement.apply(new_pin->pos);
      std::vector<Point> chain = rb.anchors;
      for (const std::string& other : rb.other_pins) {
        if (const SymbolPin* p = to_def.find_pin(other))
          chain.push_back(inst.placement.apply(p->pos));
      }
      for (const Point& anchor : chain) {
        if (cur == anchor) continue;
        // Detour through a private channel lane: the lane y is globally
        // unique, so rebuilt chains can never share a wire endpoint with
        // any other net's wiring.
        std::int64_t lane = stats.next_rebuild_lane;
        stats.next_rebuild_lane -= 2;
        Point down_a{cur.x, lane};
        Point down_b{anchor.x, lane};
        index.add({cur, down_a});
        ++stats.segments_rerouted;
        stats.reroute_length += base::manhattan(cur, down_a);
        if (down_a != down_b) {
          index.add({down_a, down_b});
          ++stats.segments_rerouted;
          stats.reroute_length += base::manhattan(down_a, down_b);
        }
        index.add({down_b, anchor});
        ++stats.segments_rerouted;
        stats.reroute_length += base::manhattan(down_b, anchor);
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
        diags.error("pin-map-missing",
                    "instance " + inst.name + ": target symbol " +
                        to_def.key.str() + " has no pin '" + w.to_pin +
                        "' (mapped from '" + w.from_pin + "')",
                    {"sch.replace", inst.name});
      continue;
    }
    Point new_pos = inst.placement.apply(new_pin->pos);
    for (const Point& stub : w.stubs) {
      stats.reroute_length += route_l(index, stub, new_pos, body, stats);
    }
    // More than one stub converging on the pin needs a junction dot so the
    // rejoined wires stay electrically one net.
    if (w.stubs.size() > 1) index.add_junction(new_pos);
  }

  ++stats.instances_replaced;
}

double graphical_similarity(const Sheet& before, const Sheet& after) {
  if (before.wires.empty() && before.instances.empty()) return 1.0;

  std::size_t kept_wires = 0;
  for (const Segment& w : before.wires) {
    if (std::find(after.wires.begin(), after.wires.end(), w) !=
        after.wires.end())
      ++kept_wires;
  }
  std::size_t kept_inst = 0;
  for (const Instance& inst : before.instances) {
    auto idx = after.find_instance(inst.name);
    if (idx && after.instances[*idx].placement.offset() ==
                   inst.placement.offset())
      ++kept_inst;
  }
  double wire_score = before.wires.empty()
                          ? 1.0
                          : double(kept_wires) / double(before.wires.size());
  double inst_score =
      before.instances.empty()
          ? 1.0
          : double(kept_inst) / double(before.instances.size());
  return 0.5 * (wire_score + inst_score);
}

}  // namespace interop::sch
