#pragma once
// Connectivity extraction: derive a netlist from sheet geometry under a
// dialect's rules. This is how schematic tools really work, and it is why
// migrating drawings between tools can silently change the circuit — the
// same picture means different connectivity under different conventions.
//
// Rules implemented (per dialect flags):
//  - wire segments connect where endpoints coincide, or where an endpoint
//    lands on another segment's interior AND a junction dot is present;
//  - instance pins connect to any wire passing through the pin position;
//  - labels name the connected wire group they sit on; bus-range labels fan
//    the group out into per-bit nets;
//  - same-named groups on different pages join implicitly (Viewlogic) or
//    only through off-page connector instances (Composer);
//  - global-net symbols and global-suffix names join design-wide;
//  - hierarchy ports come from HierPort instances (Composer) or from labels
//    matching the cell's symbol pins (Viewlogic).
//
// Representation: extraction fills a NetTable. Instance, pin and net names
// are dense ids in a NamePool, and each net holds a sorted vector of
// (instance id, pin id) pairs. Tables that share a pool compare by id, which
// is how verify_migration checks a migration. The string-keyed Netlist is a
// view built from a table, for the Netlist endpoint body and for callers
// that want names; it is not used on the verify path.

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/diagnostics.hpp"
#include "schematic/busref.hpp"
#include "schematic/dialect.hpp"
#include "schematic/model.hpp"

namespace interop::sch {

/// One (instance, pin) attachment.
struct NetConnection {
  std::string instance;
  std::string pin;

  friend bool operator==(const NetConnection&, const NetConnection&) = default;
  friend auto operator<=>(const NetConnection&, const NetConnection&) = default;
};

/// An extracted net (one canonical bit).
struct ExtractedNet {
  std::string canonical;            ///< canonical bit name ("A[3]", "clk")
  bool named = false;               ///< false for auto-named dangling groups
  bool global = false;
  bool is_port = false;
  PinDir port_dir = PinDir::Inout;
  std::set<NetConnection> connections;
};

/// Extraction result for one cell.
struct Netlist {
  std::string cell;
  /// Keyed by canonical name (auto names look like "$anon17").
  std::map<std::string, ExtractedNet> nets;

  /// Connection signature used to match anonymous nets between tools:
  /// sorted "inst.pin" list joined by '|'.
  static std::string signature(const ExtractedNet& net);
};

/// Dense ids for the names one comparison deals in: instance, pin and net
/// names share one id space. Interning never moves a name, so str()
/// references stay valid.
class NamePool {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = ~Id{0};

  /// The id of `name`, added when new.
  Id intern(std::string_view name);
  const std::string& str(Id id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, Id> ids_;  ///< views into names_
};

/// One (instance, pin) attachment as name ids: instance in the high word, so
/// sorted pin vectors group by instance.
using PinRef = std::uint64_t;
inline PinRef pin_ref(NamePool::Id instance, NamePool::Id pin) {
  return (PinRef{instance} << 32) | pin;
}
inline NamePool::Id pin_instance(PinRef p) { return NamePool::Id(p >> 32); }
inline NamePool::Id pin_name(PinRef p) { return NamePool::Id(p); }

/// Extraction result for one cell, over a NamePool.
struct NetTable {
  struct Net {
    NamePool::Id name = NamePool::kNone;  ///< canonical name ("$anon17")
    bool named = false;
    bool global = false;
    bool is_port = false;
    PinDir port_dir = PinDir::Inout;
    std::uint32_t pins_begin = 0;  ///< the net's run of `pins`
    std::uint32_t pins_end = 0;
  };

  std::string cell;
  std::vector<Net> nets;  ///< each name at most once, in creation order
  /// Every net's pins, one sorted run without duplicates per net.
  std::vector<PinRef> pins;
  /// Net index by name id; kNone (or out of range) when not a net here.
  std::vector<NamePool::Id> net_of;
  /// By instance name id: the symbol of the last instance with that name
  /// (points into the extracted Design); null for other ids.
  std::vector<const SymbolKey*> instance_symbol;

  const Net* find(NamePool::Id name) const {
    return name < net_of.size() && net_of[name] != NamePool::kNone
               ? &nets[net_of[name]]
               : nullptr;
  }
  /// The net called `name`, created (unnamed, no pins) when missing.
  Net& net(NamePool::Id name);
  std::span<const PinRef> pins_of(const Net& net) const {
    return {pins.data() + net.pins_begin, pins.data() + net.pins_end};
  }
  /// Make the pins appended from index `begin` on `net`'s run: sorted, and
  /// without duplicates.
  void close_run(Net& net, std::size_t begin);
};

/// Extract the net table of `sch` within `design` under `dialect` rules,
/// naming through `pool`. Dangling pins and floating labeled wires are
/// reported through `diags`.
NetTable extract_net_table(const Design& design, const Schematic& sch,
                           const Dialect& dialect, NamePool& pool,
                           base::DiagnosticEngine& diags);

/// Extract the netlist of `sch` within `design` under `dialect` rules: the
/// view of extract_net_table's result.
Netlist extract_netlist(const Design& design, const Schematic& sch,
                        const Dialect& dialect,
                        base::DiagnosticEngine& diags);

/// A single difference found by compare_netlists.
struct NetlistDiff {
  enum class Kind {
    MissingNet,        ///< net present in golden, absent in subject
    ExtraNet,          ///< net present in subject only
    ConnectionChange,  ///< same net, different pin set
    PortChange,        ///< port-ness or direction differs
    GlobalChange,      ///< global-ness differs
  };
  Kind kind;
  std::string net;
  std::string detail;
};

std::string to_string(NetlistDiff::Kind k);

/// Independent verification (the Exar requirement): compare two net tables
/// over one pool. Named nets match by name; anonymous nets match by pin set
/// (among equal ones, the subject net with the greatest name). Golden-side
/// diffs come first, in golden name order, then extra subject nets in
/// subject name order. Details name pins by their "inst.pin" signature.
/// Returns an empty vector when electrically equal.
std::vector<NetlistDiff> compare_netlists(const NetTable& golden,
                                          const NetTable& subject,
                                          const NamePool& pool);

/// The same comparison on two views: both are interned into one pool, keyed
/// by their map keys.
std::vector<NetlistDiff> compare_netlists(const Netlist& golden,
                                          const Netlist& subject);

}  // namespace interop::sch
