#pragma once
// Migration mapping rules: the tables §2 says Exar had to create.
//
//  - symbol replacement maps: lib/name/view mapping, origin offsets,
//    rotation codes, pin-name maps;
//  - standard property rules: add / delete / rename / change of names,
//    values and text labels;
//  - non-standard property rules: a/L callbacks attached to selected
//    objects, reformatting one property into several;
//  - global mapping: labels/names to target-library global instances.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "al/interp.hpp"
#include "base/diagnostics.hpp"
#include "schematic/model.hpp"

namespace interop::sch {

/// One symbol replacement entry.
struct SymbolMapEntry {
  SymbolKey from;
  SymbolKey to;
  Point origin_offset;          ///< added to placement, in TARGET grid units
  base::Orient rotation = base::Orient::R0;  ///< composed onto placement
  /// source pin name -> target pin name; unlisted pins keep their name.
  std::map<std::string, std::string> pin_map;
};

/// The symbol replacement table.
class SymbolMap {
 public:
  void add(SymbolMapEntry entry);
  const SymbolMapEntry* find(const SymbolKey& from) const;
  std::size_t size() const { return entries_.size(); }

  /// Target pin name for `from_pin` under `entry`.
  static std::string map_pin(const SymbolMapEntry& entry,
                             const std::string& from_pin);

 private:
  std::map<SymbolKey, SymbolMapEntry> entries_;
};

/// A standard property rule, applied in order.
struct PropertyRule {
  enum class Kind { Add, Delete, Rename, ChangeValue };
  Kind kind = Kind::Add;
  /// Restrict to instances of this symbol cell; empty = all objects.
  std::string cell_filter;
  std::string name;              ///< property to add/delete/rename/change
  std::string new_name;          ///< Rename target
  base::PropertyValue value;     ///< Add / ChangeValue new value
  /// ChangeValue only fires when the current text equals this (empty = always).
  std::string match_text;
};

/// A non-standard rule: an a/L callback run on matching objects. The callback
/// is a lambda of one argument (the object handle) and uses the prop-*
/// builtins registered by CallbackHost.
struct CallbackRule {
  std::string cell_filter;  ///< empty = all instances
  std::string source;       ///< a/L source text defining a one-arg lambda
};

/// Rule set for properties.
struct PropertyRuleSet {
  std::vector<PropertyRule> rules;
  std::vector<CallbackRule> callbacks;
};

/// Global-net mapping: a source global name to the target library's global
/// symbol, with placement adjustment — §2's "Globals" paragraph.
struct GlobalMapEntry {
  std::string from_net;     ///< e.g. "VDD"
  SymbolKey to_symbol;      ///< target global symbol (role GlobalNet)
  Point origin_offset;
  base::Orient rotation = base::Orient::R0;
};

class GlobalMap {
 public:
  void add(GlobalMapEntry entry);
  const GlobalMapEntry* find(const std::string& from_net) const;
  std::size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, GlobalMapEntry> entries_;
};

/// Applies PropertyRuleSet to a PropertySet + attached text labels.
/// Counts per-kind applications for the migration report.
struct PropertyApplyStats {
  std::size_t added = 0;
  std::size_t deleted = 0;
  std::size_t renamed = 0;
  std::size_t changed = 0;
  std::size_t callbacks_run = 0;
};

void apply_property_rules(const PropertyRuleSet& rules,
                          const std::string& cell, PropertySet& props,
                          PropertyApplyStats& stats,
                          base::DiagnosticEngine& diags);

/// Host bridge exposing PropertySet objects to a/L callbacks as integer
/// handles, with prop-get / prop-set! / prop-delete! / prop-has? builtins.
class CallbackHost {
 public:
  CallbackHost();

  /// Run `rule` against `props` (object of cell `cell`). Returns false and
  /// reports a diagnostic when the callback throws.
  bool run(const CallbackRule& rule, const std::string& cell,
           PropertySet& props, base::DiagnosticEngine& diags);

  al::Interpreter& interpreter() { return interp_; }

 private:
  al::Interpreter interp_;
  /// The evaluated callback closure per source text, so a rule's source
  /// is compiled AND evaluated once, then the same closure is replayed
  /// across every migrated object. Production callback sources are single
  /// lambda expressions, so skipping the re-evaluation is unobservable.
  std::map<std::string, al::Value> compiled_;
  PropertySet* current_ = nullptr;  ///< object behind handle 0 during run()
};

}  // namespace interop::sch
