#include "schematic/migrate.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>

#include "base/strings.hpp"

namespace interop::sch {

namespace {

// ---------------------------------------------------------------- scaling

struct Scaler {
  const base::Grid& from;
  const base::Grid& to;
  ScalePolicy policy;
  MigrationReport& report;

  std::int64_t coord(std::int64_t v) {
    if (policy == ScalePolicy::PreserveGridUnits) return v;
    ++report.points_rescaled;
    if (auto exact = base::rescale_exact(v, from, to)) return *exact;
    ++report.points_snapped;
    return base::rescale_snapped(v, from, to);
  }

  Point point(const Point& p) { return {coord(p.x), coord(p.y)}; }
  Segment segment(const Segment& s) { return {point(s.a), point(s.b)}; }
  Rect rect(const Rect& r) { return Rect(point(r.lo()), point(r.hi())); }
  Transform transform(const Transform& t) {
    return Transform(t.orient(), point(t.offset()));
  }
};

// Baseline offset in grid units for text of `height` under `font`.
std::int64_t baseline_units(const FontMetrics& font, std::int64_t height) {
  return (font.baseline_offset_centi * height + 50) / 100;
}

// -------------------------------------------------------- attach helper

/// Make `at` a legal pin-connection point on the indexed sheet: if it is
/// interior to a wire (not an endpoint), drop a junction dot there.
void ensure_connectable(SheetIndex& index, const Point& at) {
  if (!index.has_endpoint(at) && index.on_wire(at) && !index.has_junction(at))
    index.add_junction(at);
}

}  // namespace

MigrationResult migrate_design(const Design& src,
                               const MigrationConfig& config,
                               base::DiagnosticEngine& diags) {
  MigrationResult result{Design(config.target.grid), {}};
  Design& out = result.design;
  MigrationReport& report = result.report;

  Scaler scaler{src.grid(), config.target.grid, config.scale_policy, report};

  // ---- target library symbols ----
  for (const SymbolDef& def : config.target_symbols) out.add_symbol(def);

  // ---- source symbols that are not being replaced come along, rescaled ----
  for (const auto& [key, def] : src.symbols()) {
    if (config.symbol_map.find(key)) continue;  // replaced; target copy exists
    if (out.find_symbol(key)) continue;
    SymbolDef copy = def;
    copy.grid = config.target.grid;
    copy.body = scaler.rect(def.body);
    for (SymbolPin& pin : copy.pins) pin.pos = scaler.point(pin.pos);
    out.add_symbol(std::move(copy));
  }

  CallbackHost callbacks;

  for (const auto& [cell, sch_src] : src.schematics()) {
    Schematic sch;
    sch.cell = cell;
    sch.props = sch_src.props;

    // Step 3 on schematic-level properties.
    apply_property_rules(config.property_rules, cell, sch.props, report.props,
                         diags);

    // Known buses for condensed-ref parsing (source dialect, whole cell).
    std::vector<std::string> known_buses;
    for (const Sheet& sheet : sch_src.sheets)
      for (const NetLabel& label : sheet.labels) {
        NetRef ref = parse_net_ref(label.text, config.source);
        if (ref.range) known_buses.push_back(ref.base);
      }
    std::sort(known_buses.begin(), known_buses.end());
    known_buses.erase(std::unique(known_buses.begin(), known_buses.end()),
                      known_buses.end());

    auto translate_text = [&](const std::string& text) {
      NetRef ref = parse_net_ref(text, config.source, known_buses);
      NetRef tref =
          translate_net_ref(ref, config.source, config.target, diags);
      return format_net_ref(tref, config.target);
    };

    // Canonical label name -> pages it appears on (for off-page connectors).
    std::map<std::string, std::set<int>> label_pages;
    // Geometry index per sheet, parallel to sch.sheets.
    std::vector<SheetIndex> indexes;

    for (const Sheet& sheet_src : sch_src.sheets) {
      ++report.sheets;
      Sheet sheet;
      sheet.number = sheet_src.number;
      sheet.frame = scaler.rect(sheet_src.frame);

      // ---- step 1: scale geometry while copying ----
      for (const Segment& w : sheet_src.wires)
        sheet.wires.push_back(scaler.segment(w));
      for (const Point& j : sheet_src.junctions)
        sheet.junctions.push_back(scaler.point(j));
      for (const Instance& inst_src : sheet_src.instances) {
        Instance inst = inst_src;
        inst.placement = scaler.transform(inst_src.placement);
        for (TextLabel& t : inst.attached_text) t.origin = scaler.point(t.origin);
        sheet.instances.push_back(std::move(inst));
      }
      for (const NetLabel& l : sheet_src.labels) {
        NetLabel label = l;
        label.at = scaler.point(l.at);
        label.visual.origin = scaler.point(l.visual.origin);
        sheet.labels.push_back(std::move(label));
      }
      for (const TextLabel& t : sheet_src.notes) {
        TextLabel note = t;
        note.origin = scaler.point(t.origin);
        sheet.notes.push_back(std::move(note));
      }

      // ---- step 2: instance property mapping + a/L callbacks ----
      for (Instance& inst : sheet.instances) {
        apply_property_rules(config.property_rules, inst.symbol.cell,
                             inst.props, report.props, diags);
        for (const CallbackRule& rule : config.property_rules.callbacks) {
          if (callbacks.run(rule, inst.symbol.cell, inst.props, diags))
            ++report.props.callbacks_run;
        }
      }

      // ---- step 3: symbol replacement with rip-up / reroute ----
      // Wire edits accumulate in the sheet's index and are stored back
      // once, after the connector steps below.
      SheetIndex& index = indexes.emplace_back(sheet);
      std::unordered_map<std::string, std::size_t> first_named;
      for (std::size_t i = 0; i < sheet.instances.size(); ++i)
        first_named.try_emplace(sheet.instances[i].name, i);
      std::vector<std::pair<std::string, const SymbolMapEntry*>> replacements;
      for (const Instance& inst : sheet.instances)
        if (const SymbolMapEntry* entry = config.symbol_map.find(inst.symbol))
          replacements.emplace_back(inst.name, entry);
      for (const auto& [name, entry] : replacements) {
        const SymbolDef* to_def = out.find_symbol(entry->to);
        const SymbolDef* from_def = src.find_symbol(entry->from);
        if (!to_def || !from_def) {
          diags.error("replacement-symbol-missing",
                      "target library lacks symbol " + entry->to.str(),
                      {"sch.replace", name});
          continue;
        }
        // Pin positions must be located on the already-rescaled sheet
        // (scaling is the identity when grid units are preserved).
        SymbolDef from_scaled;
        if (config.scale_policy != ScalePolicy::PreserveGridUnits) {
          from_scaled = *from_def;
          for (SymbolPin& pin : from_scaled.pins)
            pin.pos = scaler.point(pin.pos);
          from_def = &from_scaled;
        }
        replace_component(sheet, index, first_named.at(name), *entry,
                          *from_def, *to_def, config.ripup_policy,
                          report.ripup, diags);
      }

      // ---- step 4: bus syntax translation on labels ----
      for (NetLabel& label : sheet.labels) {
        std::string translated = translate_text(label.text);
        if (translated != label.text) ++report.labels_translated;
        label.text = translated;
        label.visual.text = translated;
      }

      // ---- step 7 (part a): global symbol replacement ----
      for (Instance& inst : sheet.instances) {
        const SymbolDef* def = src.find_symbol(inst.symbol)
                                   ? src.find_symbol(inst.symbol)
                                   : out.find_symbol(inst.symbol);
        if (!def || def->role != SymbolRole::GlobalNet) continue;
        std::string net = def->default_props.get_text("global_net",
                                                      def->key.cell);
        const GlobalMapEntry* gm = config.global_map.find(net);
        if (!gm) {
          diags.warn("global-unmapped",
                     "no global mapping for net '" + net + "'",
                     {"sch.globals", inst.name});
          continue;
        }
        inst.symbol = gm->to_symbol;
        inst.placement = Transform(gm->rotation, gm->origin_offset) *
                         inst.placement;
        ++report.globals_replaced;
      }

      // Record label pages for step 6 (post-translation names).
      for (const NetLabel& label : sheet.labels) {
        NetRef ref = parse_net_ref(label.text, config.target);
        for (const std::string& bit : canonical_bits(ref))
          label_pages[bit].insert(sheet.number);
        // Track by base name too so bus labels of differing ranges join.
        label_pages[ref.base].insert(sheet.number);
      }

      sch.sheets.push_back(std::move(sheet));
    }

    // Place a connector so that its (single) pin lands exactly on `at`.
    auto connector_placement = [&out, &diags](const SymbolKey& key,
                                              const Point& at) {
      Point pin_local{0, 0};
      if (const SymbolDef* def = out.find_symbol(key)) {
        if (!def->pins.empty()) pin_local = def->pins.front().pos;
      } else {
        diags.error("connector-symbol-missing",
                    "target library lacks connector symbol " + key.str(),
                    {"sch.connect", key.str()});
      }
      return Transform(base::Orient::R0, at - pin_local);
    };

    // ---- step 5: hierarchy connectors ----
    if (config.target.requires_hier_connectors) {
      const SymbolDef* cell_symbol = nullptr;
      for (const auto& [key, def] : src.symbols())
        if (key.cell == cell && def.role == SymbolRole::Component)
          cell_symbol = &def;
      if (cell_symbol) {
        for (const SymbolPin& pin : cell_symbol->pins) {
          std::string want = translate_text(pin.name);
          bool placed = false;
          for (std::size_t si = 0; si < sch.sheets.size(); ++si) {
            Sheet& sheet = sch.sheets[si];
            for (const NetLabel& label : sheet.labels) {
              if (label.text != want) continue;
              SymbolKey key = pin.dir == PinDir::Input    ? config.hier_in
                              : pin.dir == PinDir::Output ? config.hier_out
                                                          : config.hier_inout;
              Instance conn;
              conn.name = "PORT_" + want;
              conn.symbol = key;
              conn.placement = connector_placement(key, label.at);
              conn.props.set("port", want);
              conn.props.set("dir", to_string(pin.dir));
              ensure_connectable(indexes[si], label.at);
              sheet.instances.push_back(std::move(conn));
              ++report.hier_connectors_added;
              placed = true;
              break;
            }
            if (placed) break;
          }
          if (!placed)
            diags.warn("hier-port-unlabeled",
                       "cell " + cell + ": no labeled net found for port '" +
                           pin.name + "'; hierarchy connector not added",
                       {"sch.hier", cell});
        }
      }
    }

    // ---- step 6: off-page connectors ----
    if (config.target.requires_offpage_connectors) {
      for (const auto& [name, pages] : label_pages) {
        if (pages.size() < 2) continue;
        if (base::ends_with(name, config.target.global_suffix) &&
            !config.target.global_suffix.empty())
          continue;  // globals connect by themselves
        for (std::size_t si = 0; si < sch.sheets.size(); ++si) {
          Sheet& sheet = sch.sheets[si];
          if (!pages.count(sheet.number)) continue;
          // Find the label with this name on this page.
          for (const NetLabel& label : sheet.labels) {
            NetRef ref = parse_net_ref(label.text, config.target);
            bool match = ref.base == name;
            if (!match) {
              for (const std::string& bit : canonical_bits(ref))
                if (bit == name) match = true;
            }
            if (!match) continue;
            Instance conn;
            conn.name = "OFFPAGE_" + name + "_p" +
                        std::to_string(sheet.number);
            conn.symbol = config.offpage;
            conn.placement = connector_placement(config.offpage, label.at);
            conn.props.set("net", label.text);
            ensure_connectable(indexes[si], label.at);
            sheet.instances.push_back(std::move(conn));
            ++report.offpage_connectors_added;
            break;
          }
        }
      }
    }

    for (std::size_t si = 0; si < sch.sheets.size(); ++si)
      indexes[si].store(sch.sheets[si]);

    // ---- step 8: cosmetics (fonts / baseline offsets) ----
    auto fix_text = [&](TextLabel& t) {
      std::int64_t src_bo = baseline_units(config.source.font, t.height);
      std::int64_t dst_bo = baseline_units(config.target.font, t.height);
      if (t.baseline_offset != dst_bo || src_bo != dst_bo) {
        // Preserve the visual baseline: baseline = origin.y - offset.
        t.origin.y = t.origin.y - t.baseline_offset + dst_bo;
        t.baseline_offset = dst_bo;
        ++report.texts_adjusted;
      }
    };
    for (Sheet& sheet : sch.sheets) {
      for (NetLabel& label : sheet.labels) fix_text(label.visual);
      for (TextLabel& note : sheet.notes) fix_text(note);
      for (Instance& inst : sheet.instances)
        for (TextLabel& t : inst.attached_text) fix_text(t);
    }

    out.add_schematic(std::move(sch));
  }

  return result;
}

GoldenNetlists extract_golden(const Design& src,
                              const MigrationConfig& config) {
  // Rewrite a golden canonical name the way translation would have.
  auto normalize_name = [&config](const std::string& name) {
    std::string out;
    bool in_bits = false;
    for (char c : name) {
      if (c == '[') in_bits = true;
      if (c == ']') in_bits = false;
      if (in_bits || c == ']' || config.target.legal_name_char(c))
        out += c;
      else
        out += '_';
    }
    return out;
  };

  GoldenNetlists out;
  out.cells.reserve(src.schematics().size());
  for (const auto& [cell, sch_src] : src.schematics()) {
    GoldenNetlists::Cell& g = out.cells.emplace_back();
    g.name = cell;
    NamePool& pool = g.pool;
    NetTable golden =
        extract_net_table(src, sch_src, config.source, pool, g.diags);

    // Map golden pin names through the symbol map, once per (entry, pin).
    // The last instance of a name decides its symbol.
    struct EntryPins {
      const SymbolMapEntry* entry = nullptr;  ///< null: pins keep names
      std::unordered_map<NamePool::Id, NamePool::Id> pins;  ///< from -> to
    };
    std::unordered_map<const SymbolKey*, EntryPins> by_symbol;
    std::vector<EntryPins*> by_instance(pool.size(), nullptr);
    auto map_pin = [&](PinRef p) {
      const NamePool::Id inst = pin_instance(p);
      EntryPins*& ep = by_instance[inst];
      if (!ep) {
        const SymbolKey* key = golden.instance_symbol[inst];
        auto [it, fresh] = by_symbol.try_emplace(key);
        if (fresh) it->second.entry = config.symbol_map.find(*key);
        ep = &it->second;
      }
      if (!ep->entry) return p;
      auto [it, fresh] = ep->pins.try_emplace(pin_name(p));
      if (fresh)
        it->second = pool.intern(
            SymbolMap::map_pin(*ep->entry, pool.str(pin_name(p))));
      return pin_ref(inst, it->second);
    };

    // The golden table under target names. Normalization may collide two
    // names (itself a finding): their pins merge, and the flags come from
    // the net whose original name sorts first.
    NetTable& mapped = g.golden;
    mapped.cell = golden.cell;
    std::vector<NamePool::Id> flags_from;  ///< by mapped net: original name
    std::vector<std::uint32_t> mapped_of;  ///< by golden net
    mapped_of.reserve(golden.nets.size());
    for (const NetTable::Net& net : golden.nets) {
      const std::string& name = pool.str(net.name);
      const std::string normalized = normalize_name(name);
      const NamePool::Id key =
          normalized == name ? net.name : pool.intern(normalized);
      const bool fresh = !mapped.find(key);
      NetTable::Net& slot = mapped.net(key);
      if (fresh) flags_from.push_back(net.name);
      NamePool::Id& from = flags_from[mapped.net_of[key]];
      if (fresh || name < pool.str(from)) {
        from = net.name;
        slot.named = net.named;
        slot.global = net.global;
        slot.is_port = net.is_port;
        slot.port_dir = net.port_dir;
      }
      mapped_of.push_back(mapped.net_of[key]);
    }
    // Pins, mapped net after mapped net (golden nets in creation order).
    std::vector<std::uint32_t> sources(golden.nets.size());
    std::iota(sources.begin(), sources.end(), 0u);
    std::stable_sort(sources.begin(), sources.end(),
                     [&mapped_of](std::uint32_t a, std::uint32_t b) {
                       return mapped_of[a] < mapped_of[b];
                     });
    mapped.pins.reserve(golden.pins.size());
    for (std::size_t k = 0; k < sources.size();) {
      const std::uint32_t m = mapped_of[sources[k]];
      const std::size_t begin = mapped.pins.size();
      for (; k < sources.size() && mapped_of[sources[k]] == m; ++k)
        for (PinRef p : golden.pins_of(golden.nets[sources[k]]))
          mapped.pins.push_back(map_pin(p));
      mapped.close_run(mapped.nets[m], begin);
    }
  }
  return out;
}

std::vector<NetlistDiff> check_migration(GoldenNetlists& golden,
                                         const Design& migrated,
                                         const MigrationConfig& config,
                                         base::DiagnosticEngine& diags) {
  std::vector<NetlistDiff> all;
  for (GoldenNetlists::Cell& cell : golden.cells) {
    const Schematic* sch_dst = migrated.find_schematic(cell.name);
    if (!sch_dst) {
      all.push_back({NetlistDiff::Kind::MissingNet, cell.name,
                     "whole cell missing from migrated design"});
      continue;
    }
    for (const base::Diagnostic& d : cell.diags.all())
      diags.report(d.severity, d.code, d.message, d.location);
    NetTable subject =
        extract_net_table(migrated, *sch_dst, config.target, cell.pool, diags);
    std::vector<NetlistDiff> diffs =
        compare_netlists(cell.golden, subject, cell.pool);
    for (NetlistDiff& d : diffs) d.net = cell.name + "/" + d.net;
    all.insert(all.end(), diffs.begin(), diffs.end());
  }
  return all;
}

std::vector<NetlistDiff> verify_migration(const Design& src,
                                          const Design& migrated,
                                          const MigrationConfig& config,
                                          base::DiagnosticEngine& diags) {
  GoldenNetlists golden = extract_golden(src, config);
  return check_migration(golden, migrated, config, diags);
}

}  // namespace interop::sch
