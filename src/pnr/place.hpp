#pragma once
// A small row-based placer: deterministic row packing followed by
// swap-improvement on half-perimeter wirelength. Enough to give the router
// realistic pin spreads and to exercise legal-orientation constraints.

#include <cstdint>

#include "pnr/design.hpp"

namespace interop::pnr {

struct PlaceOptions {
  std::uint64_t seed = 1;
  int swap_iterations = 2000;
  std::int64_t row_height = 8;
};

struct PlaceResult {
  std::int64_t hpwl_initial = 0;
  std::int64_t hpwl_final = 0;
  int swaps_accepted = 0;
};

/// Sum of half-perimeter bounding boxes over all nets.
std::int64_t total_hpwl(const PhysDesign& design);

/// Place all non-fixed instances into rows inside the die, then improve by
/// pairwise swaps. Instances keep Orient::R0 unless their cell forbids it.
PlaceResult place(PhysDesign& design, const PlaceOptions& opt);

/// Simulated-annealing refinement on top of an existing legal placement:
/// same-footprint swaps, accepting uphill moves with probability
/// exp(-delta/T) on a fixed schedule (600 moves per temperature, T from 20
/// cooling by 0.9 down to 0.3), then a greedy quench from the best
/// placement seen. Strictly a refinement — call place() first.
PlaceResult place_annealed(PhysDesign& design, std::uint64_t seed);

}  // namespace interop::pnr
