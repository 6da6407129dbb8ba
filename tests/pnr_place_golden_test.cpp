// Golden tests for the row placer and its annealing refinement.
//
// The swap loops accept or reject each move on a sum of integer bounding
// boxes, so any change to how that sum is computed must leave every accept
// decision, and therefore every placement, exactly as it was. The goldens
// below pin, for place() and place_annealed() on the §4 workload generator
// (default shape, and the tapeout shape: 64 instances, 24 nets, die 170,
// 14-track rows), the result counters, total_hpwl() of the final placement
// and a digest of every instance's origin and orientation.

#include "pnr/place.hpp"

#include <gtest/gtest.h>

#include <string>

#include "pnr/generator.hpp"

namespace interop::pnr {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Order-sensitive digest of every instance's name, origin and orient.
std::uint64_t placement_hash(const PhysDesign& d) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const PhysInstance& inst : d.instances) {
    h = fnv1a(h, inst.name.size());
    for (char c : inst.name) h = fnv1a(h, std::uint64_t(std::uint8_t(c)));
    h = fnv1a(h, std::uint64_t(inst.origin.x));
    h = fnv1a(h, std::uint64_t(inst.origin.y));
    h = fnv1a(h, std::uint64_t(inst.orient));
  }
  return h;
}

/// A generated design and the row height it is placed on.
struct Shape {
  PhysDesign design;
  std::int64_t row_height;
};

Shape make_shape(bool tapeout, std::uint64_t seed) {
  PnrGenOptions gen;
  gen.seed = seed;
  PlaceOptions popt;
  if (tapeout) {
    gen.instances = 64;
    gen.nets = 24;
    gen.die_w = gen.die_h = 170;
    popt.row_height = 14;
  }
  return {make_pnr_workload(gen), popt.row_height};
}

struct Golden {
  bool tapeout;
  std::uint64_t seed;
  std::int64_t hpwl_initial;
  std::int64_t hpwl_final;
  int swaps_accepted;
  std::int64_t total;
  std::uint64_t hash;
};

void expect_golden(const Golden& g, const PlaceResult& r,
                   const PhysDesign& d, const char* what) {
  const std::string where = std::string(what) +
                            (g.tapeout ? " tapeout" : " default") +
                            " seed " + std::to_string(g.seed);
  EXPECT_EQ(r.hpwl_initial, g.hpwl_initial) << where;
  EXPECT_EQ(r.hpwl_final, g.hpwl_final) << where;
  EXPECT_EQ(r.swaps_accepted, g.swaps_accepted) << where;
  EXPECT_EQ(total_hpwl(d), g.total) << where;
  EXPECT_EQ(placement_hash(d), g.hash) << where;
}

constexpr Golden kPlaceGoldens[] = {
    {false, 1, 1767, 985, 14, 985, 0xf0956b88c818665bULL},
    {false, 2, 1207, 931, 17, 931, 0xe4be40c71298c12dULL},
    {false, 3, 1461, 867, 29, 867, 0xb5c6b7d0cf5c5553ULL},
    {false, 4, 1489, 693, 28, 693, 0x6936ae8d54be5e37ULL},
    {false, 5, 1496, 977, 13, 977, 0xc25064f25437db61ULL},
    {true, 1, 2902, 1078, 69, 1078, 0x6c8e96fc601ceab7ULL},
    {true, 2, 2887, 1217, 57, 1217, 0xbb8c323c9928f313ULL},
    {true, 3, 2937, 1132, 72, 1132, 0x6daba688455d5e13ULL},
    {true, 4, 2961, 1254, 59, 1254, 0xdebe5ee1e8cebd67ULL},
    {true, 5, 2770, 1222, 61, 1222, 0xa1e6ec267e79d337ULL},
};

constexpr Golden kAnnealGoldens[] = {
    {false, 1, 985, 778, 309, 778, 0xee92ec1dee8c1e5bULL},
    {false, 2, 931, 854, 493, 854, 0xc54bf1a0e74a4aedULL},
    {false, 3, 867, 799, 811, 799, 0xe8c799cbbb74b4d3ULL},
    {false, 4, 693, 693, 407, 693, 0x6936ae8d54be5e37ULL},
    {false, 5, 977, 900, 442, 900, 0xd85e49a5ed67a161ULL},
    {true, 1, 1078, 888, 1606, 888, 0x90eb1c297a6315f7ULL},
    {true, 2, 1217, 1079, 965, 1079, 0x6f75bf42c59e7e93ULL},
    {true, 3, 1132, 1040, 1411, 1040, 0x24fd9425dabc6a93ULL},
    {true, 4, 1254, 1041, 953, 1041, 0xb000accc6b1ea5e7ULL},
    {true, 5, 1222, 984, 1478, 984, 0x0af269dd6047f037ULL},
};

TEST(PlaceGolden, RowPlacementMatchesCapturedPlacements) {
  for (const Golden& g : kPlaceGoldens) {
    Shape s = make_shape(g.tapeout, g.seed);
    PlaceOptions popt;
    popt.seed = g.seed;
    popt.row_height = s.row_height;
    PlaceResult r = place(s.design, popt);
    expect_golden(g, r, s.design, "place");
  }
}

TEST(PlaceGolden, AnnealingMatchesCapturedPlacements) {
  for (const Golden& g : kAnnealGoldens) {
    Shape s = make_shape(g.tapeout, g.seed);
    PlaceOptions popt;
    popt.seed = g.seed;
    popt.row_height = s.row_height;
    place(s.design, popt);
    PlaceResult r = place_annealed(s.design, g.seed);
    expect_golden(g, r, s.design, "place_annealed");
  }
}

}  // namespace
}  // namespace interop::pnr
