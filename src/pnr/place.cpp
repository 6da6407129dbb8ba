#include "pnr/place.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "base/rng.hpp"

namespace interop::pnr {

namespace {

/// The terminals total_hpwl() counts, resolved once: per net, each
/// terminal's instance and its pin's offset from that instance's origin.
/// The offsets hold while orientations stay fixed, so the swap loops, which
/// only exchange origins, sum integer bounding boxes with no lookups.
class HpwlTerms {
 public:
  explicit HpwlTerms(const PhysDesign& design) {
    // First instance of each name wins, as in PhysDesign::find_instance.
    std::unordered_map<std::string_view, const PhysInstance*> by_name;
    for (const PhysInstance& inst : design.instances)
      by_name.emplace(inst.name, &inst);
    for (const PhysNet& net : design.nets) {
      for (const PhysNet::Term& term : net.terms) {
        auto it = by_name.find(term.instance);
        if (it == by_name.end()) continue;
        const PhysInstance& inst = *it->second;
        const CellAbstract* cell = design.find_cell(inst.cell);
        if (!cell || !cell->find_pin(term.pin)) continue;
        terms_.push_back(
            {&inst, inst.pin_position(*cell, term.pin) - inst.origin});
      }
      net_end_.push_back(terms_.size());
    }
  }

  /// Sum of half-perimeter bounding boxes over all nets.
  std::int64_t total() const {
    std::int64_t total = 0;
    std::size_t begin = 0;
    for (std::size_t end : net_end_) {
      if (begin == end) continue;
      Point p = terms_[begin].inst->origin + terms_[begin].offset;
      std::int64_t min_x = p.x, max_x = p.x, min_y = p.y, max_y = p.y;
      for (std::size_t t = begin + 1; t < end; ++t) {
        p = terms_[t].inst->origin + terms_[t].offset;
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
        min_y = std::min(min_y, p.y);
        max_y = std::max(max_y, p.y);
      }
      total += (max_x - min_x) + (max_y - min_y);
      begin = end;
    }
    return total;
  }

 private:
  struct Term {
    const PhysInstance* inst;
    Point offset;
  };
  std::vector<Term> terms_;
  std::vector<std::size_t> net_end_;  ///< one past each net's last term
};

/// What every swap loop needs: the non-fixed instances, their footprints
/// and the HPWL terms, all resolved once.
struct Swaps {
  std::vector<PhysInstance*> movable;
  std::vector<std::pair<std::int64_t, std::int64_t>> footprint;
  HpwlTerms hpwl;

  Swaps(PhysDesign& design, std::vector<PhysInstance*> m)
      : movable(std::move(m)), hpwl(design) {
    for (const PhysInstance* inst : movable) {
      const CellAbstract* cell = design.find_cell(inst->cell);
      assert(cell);
      footprint.emplace_back(cell->boundary.width(), cell->boundary.height());
    }
  }
  /// Only same-footprint cells swap, to stay legal.
  bool swappable(std::size_t i, std::size_t j) const {
    return i != j && footprint[i] == footprint[j];
  }
  void swap(std::size_t i, std::size_t j) {
    std::swap(movable[i]->origin, movable[j]->origin);
  }
  /// `iterations` random pair draws, keeping a swap only when it shortens
  /// the total; `current` tracks the total. Returns the swaps kept.
  int greedy(base::Rng& rng, int iterations, std::int64_t& current) {
    int accepted = 0;
    for (int iter = 0; iter < iterations; ++iter) {
      std::size_t i = rng.index(movable.size());
      std::size_t j = rng.index(movable.size());
      if (!swappable(i, j)) continue;
      swap(i, j);
      std::int64_t next = hpwl.total();
      if (next < current) {
        current = next;
        ++accepted;
      } else {
        swap(i, j);
      }
    }
    return accepted;
  }
};

std::vector<PhysInstance*> movable_instances(PhysDesign& design) {
  std::vector<PhysInstance*> movable;
  for (PhysInstance& inst : design.instances)
    if (!inst.fixed) movable.push_back(&inst);
  return movable;
}

}  // namespace

std::int64_t total_hpwl(const PhysDesign& design) {
  return HpwlTerms(design).total();
}

PlaceResult place(PhysDesign& design, const PlaceOptions& opt) {
  PlaceResult result;
  base::Rng rng(opt.seed);
  const Rect& die = design.floorplan.die;

  // Row packing, keepout-aware.
  std::int64_t x = die.lo().x + 1;
  std::int64_t y = die.lo().y + 3;  // bottom margin: clock/escape corridor
  std::vector<PhysInstance*> movable = movable_instances(design);

  auto overlaps_keepout = [&design](const Rect& r) {
    for (const Keepout& ko : design.floorplan.keepouts)
      if (ko.rect.overlaps(r)) return true;
    return false;
  };

  for (PhysInstance* inst : movable) {
    const CellAbstract* cell = design.find_cell(inst->cell);
    assert(cell);
    if (!cell->legal_orients.empty() &&
        std::find(cell->legal_orients.begin(), cell->legal_orients.end(),
                  inst->orient) == cell->legal_orients.end())
      inst->orient = cell->legal_orients.front();
    std::int64_t w = cell->boundary.width();
    while (true) {
      if (x + w + 1 > die.hi().x) {
        x = die.lo().x + 1;
        y += opt.row_height;
      }
      if (y + cell->boundary.height() > die.hi().y) break;  // die overflow
      Rect placed = Rect::from_xywh(x, y, w, cell->boundary.height());
      if (!overlaps_keepout(placed.inflated(1))) break;
      x += w + 2;
    }
    inst->origin = {x, y};
    x += w + 6;  // routing gap between neighbors
  }

  // Orientations are final from here on; only origins move.
  Swaps swaps(design, std::move(movable));
  result.hpwl_initial = swaps.hpwl.total();

  // Pairwise swap improvement.
  std::int64_t current = result.hpwl_initial;
  if (swaps.movable.size() >= 2)
    result.swaps_accepted = swaps.greedy(rng, opt.swap_iterations, current);
  result.hpwl_final = current;
  return result;
}

PlaceResult place_annealed(PhysDesign& design, std::uint64_t seed) {
  constexpr int kMovesPerTemperature = 600;
  constexpr double kStartTemperature = 20.0;
  constexpr double kCooling = 0.9;
  constexpr double kStopTemperature = 0.3;
  PlaceResult result;
  base::Rng rng(seed);
  std::vector<PhysInstance*> movable = movable_instances(design);
  if (movable.size() < 2) {
    result.hpwl_initial = result.hpwl_final = total_hpwl(design);
    return result;
  }
  Swaps swaps(design, std::move(movable));
  const std::size_t count = swaps.movable.size();
  std::int64_t current = swaps.hpwl.total();
  result.hpwl_initial = current;

  // Track the best placement seen; annealing may end uphill.
  std::int64_t best = current;
  std::vector<Point> best_origins;
  best_origins.reserve(count);
  for (const PhysInstance* inst : swaps.movable)
    best_origins.push_back(inst->origin);

  for (double temperature = kStartTemperature; temperature > kStopTemperature;
       temperature *= kCooling) {
    for (int m = 0; m < kMovesPerTemperature; ++m) {
      std::size_t i = rng.index(count);
      std::size_t j = rng.index(count);
      if (!swaps.swappable(i, j)) continue;
      swaps.swap(i, j);
      std::int64_t next = swaps.hpwl.total();
      double delta = double(next - current);
      if (delta <= 0 ||
          rng.uniform01() < std::exp(-delta / temperature)) {
        current = next;
        ++result.swaps_accepted;
        if (current < best) {
          best = current;
          for (std::size_t k = 0; k < count; ++k)
            best_origins[k] = swaps.movable[k]->origin;
        }
      } else {
        swaps.swap(i, j);
      }
    }
  }

  // Restore the best placement and quench greedily from there.
  for (std::size_t k = 0; k < count; ++k)
    swaps.movable[k]->origin = best_origins[k];
  current = best;
  result.swaps_accepted +=
      swaps.greedy(rng, kMovesPerTemperature * 4, current);
  result.hpwl_final = current;
  return result;
}

}  // namespace interop::pnr
