#include "schematic/mapping.hpp"

#include "al/reader.hpp"

namespace interop::sch {

void SymbolMap::add(SymbolMapEntry entry) {
  entries_[entry.from] = std::move(entry);
}

const SymbolMapEntry* SymbolMap::find(const SymbolKey& from) const {
  auto it = entries_.find(from);
  return it == entries_.end() ? nullptr : &it->second;
}

std::string SymbolMap::map_pin(const SymbolMapEntry& entry,
                               const std::string& from_pin) {
  auto it = entry.pin_map.find(from_pin);
  return it == entry.pin_map.end() ? from_pin : it->second;
}

void GlobalMap::add(GlobalMapEntry entry) {
  entries_[entry.from_net] = std::move(entry);
}

const GlobalMapEntry* GlobalMap::find(const std::string& from_net) const {
  auto it = entries_.find(from_net);
  return it == entries_.end() ? nullptr : &it->second;
}

void apply_property_rules(const PropertyRuleSet& rules,
                          const std::string& cell, PropertySet& props,
                          PropertyApplyStats& stats,
                          base::DiagnosticEngine& diags) {
  for (const PropertyRule& rule : rules.rules) {
    if (!rule.cell_filter.empty() && rule.cell_filter != cell) continue;
    switch (rule.kind) {
      case PropertyRule::Kind::Add:
        if (!props.has(rule.name)) {
          props.set(rule.name, rule.value);
          ++stats.added;
        }
        break;
      case PropertyRule::Kind::Delete:
        if (props.erase(rule.name)) ++stats.deleted;
        break;
      case PropertyRule::Kind::Rename:
        if (props.has(rule.name)) {
          if (props.rename(rule.name, rule.new_name)) {
            ++stats.renamed;
          } else {
            diags.warn("prop-rename-clash",
                       "cannot rename property '" + rule.name + "' to '" +
                           rule.new_name + "': target exists",
                       {"sch.props", cell});
          }
        }
        break;
      case PropertyRule::Kind::ChangeValue:
        if (props.has(rule.name)) {
          if (rule.match_text.empty() ||
              props.get_text(rule.name) == rule.match_text) {
            props.set(rule.name, rule.value);
            ++stats.changed;
          }
        }
        break;
    }
  }
}

CallbackHost::CallbackHost() {
  // Handle-based property access: callbacks receive an object handle; only
  // handle 0 (the object currently being migrated) is valid.
  auto check = [this](std::vector<al::Value>& args, std::size_t n,
                      const char* name) -> PropertySet& {
    if (args.size() != n)
      throw al::AlError(std::string(name) + ": wrong arity");
    if (!args[0].is_int() || args[0].as_int() != 0 || current_ == nullptr)
      throw al::AlError(std::string(name) + ": invalid object handle");
    return *current_;
  };

  interp_.register_builtin(
      "prop-get", [this, check](std::vector<al::Value>& args) {
        PropertySet& ps = check(args, 2, "prop-get");
        if (!args[1].is_string())
          throw al::AlError("prop-get: property name must be a string");
        auto v = ps.get(args[1].as_string());
        if (!v) return al::Value::nil();
        return al::Value(v->text());
      });
  interp_.register_builtin(
      "prop-set!", [this, check](std::vector<al::Value>& args) {
        PropertySet& ps = check(args, 3, "prop-set!");
        if (!args[1].is_string())
          throw al::AlError("prop-set!: property name must be a string");
        ps.set(args[1].as_string(), base::PropertyValue(args[2].display()));
        return al::Value::nil();
      });
  interp_.register_builtin(
      "prop-delete!", [this, check](std::vector<al::Value>& args) {
        PropertySet& ps = check(args, 2, "prop-delete!");
        if (!args[1].is_string())
          throw al::AlError("prop-delete!: property name must be a string");
        return al::Value(ps.erase(args[1].as_string()));
      });
  interp_.register_builtin(
      "prop-has?", [this, check](std::vector<al::Value>& args) {
        PropertySet& ps = check(args, 2, "prop-has?");
        if (!args[1].is_string())
          throw al::AlError("prop-has?: property name must be a string");
        return al::Value(ps.has(args[1].as_string()));
      });
  interp_.register_builtin(
      "prop-names", [this, check](std::vector<al::Value>& args) {
        PropertySet& ps = check(args, 1, "prop-names");
        al::Value::List names;
        for (const auto& [name, value] : ps) names.emplace_back(name);
        return al::Value(std::move(names));
      });
  interp_.set_step_limit(100000);
}

bool CallbackHost::run(const CallbackRule& rule, const std::string& cell,
                       PropertySet& props, base::DiagnosticEngine& diags) {
  if (!rule.cell_filter.empty() && rule.cell_filter != cell) return true;
  current_ = &props;
  bool ok = true;
  try {
    al::Value fn;
    auto it = compiled_.find(rule.source);
    if (it != compiled_.end()) {
      fn = it->second;
    } else {
      fn = interp_.eval_source(rule.source);
      if (compiled_.size() >= al::Interpreter::kCompileCacheMax)
        compiled_.clear();
      compiled_.emplace(rule.source, fn);
    }
    if (!fn.is_callable())
      throw al::AlError("callback source did not evaluate to a function");
    interp_.call(fn, {al::Value(std::int64_t(0))});
  } catch (const al::AlError& e) {
    diags.error("callback-failed",
                std::string("a/L callback failed: ") + e.what(),
                {"sch.callback", cell});
    ok = false;
  }
  current_ = nullptr;
  return ok;
}

}  // namespace interop::sch
