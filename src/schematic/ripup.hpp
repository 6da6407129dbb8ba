#pragma once
// Component replacement with minimal net rip-up — Figure 1 of the paper.
//
// Replacing a Viewlogic primitive with a Cadence library component means the
// symbol body and pin positions change. The paper's requirement: rip up
// *specific* components "along with the segments of the nets connected to
// the pins of those components", reroute those segments to the replacement
// pins, minimize the number of ripped segments, and keep the result
// graphically similar to the original.

#include <cstdint>
#include <map>
#include <string>

#include "base/diagnostics.hpp"
#include "schematic/mapping.hpp"
#include "schematic/model.hpp"
#include "schematic/sheet_index.hpp"

namespace interop::sch {

/// How to choose which wires to rip when replacing a component.
enum class RipupPolicy {
  /// Rip only segments with an endpoint on a replaced pin (paper approach).
  Minimal,
  /// Rip every segment of every net touching the instance (naive baseline).
  FullNet,
};

struct RipupStats {
  std::size_t instances_replaced = 0;
  std::size_t segments_ripped = 0;
  std::size_t segments_rerouted = 0;
  /// What FullNet would have ripped, for the same replacements (always
  /// filled, regardless of policy, so the two can be compared in one run).
  std::size_t fullnet_would_rip = 0;
  /// Total added wire length during reroute, in grid units.
  std::int64_t reroute_length = 0;
  /// FullNet rebuilds route every hop through its own channel lane so that
  /// rebuilt nets cannot short each other; this allocates the lanes.
  std::int64_t next_rebuild_lane = -1001;
};

/// Replace instance `inst_name` on `sheet` according to `entry`, where the
/// instance currently uses `from_def` and becomes `to_def`. Pins are matched
/// through entry.pin_map; a source pin whose mapped name is missing on the
/// target symbol is reported as an error and its wires are left dangling.
///
/// Returns false when the instance cannot be found.
bool replace_component(Sheet& sheet, const std::string& inst_name,
                       const SymbolMapEntry& entry, const SymbolDef& from_def,
                       const SymbolDef& to_def, RipupPolicy policy,
                       RipupStats& stats, base::DiagnosticEngine& diags);

/// The same replacement for sheet.instances[instance], for a run of
/// replacements on one sheet: wire and junction edits go to `index` (built
/// from `sheet`), and the caller writes them back with index.store(sheet)
/// after the last one.
void replace_component(Sheet& sheet, SheetIndex& index, std::size_t instance,
                       const SymbolMapEntry& entry, const SymbolDef& from_def,
                       const SymbolDef& to_def, RipupPolicy policy,
                       RipupStats& stats, base::DiagnosticEngine& diags);

/// Graphical similarity between a sheet before and after an edit: the
/// fraction of original wire segments still present, weighted with the
/// fraction of instances whose placement is unchanged. 1.0 = identical.
double graphical_similarity(const Sheet& before, const Sheet& after);

}  // namespace interop::sch
