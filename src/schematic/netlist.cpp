#include "schematic/netlist.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "base/strings.hpp"
#include "schematic/sheet_index.hpp"

namespace interop::sch {

namespace {

/// Union-find over dense ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// Everything we learn about one connected wire group on one sheet.
struct WireGroup {
  std::set<NetConnection> connections;
  std::vector<NetRef> label_refs;          ///< labels, parsed
  std::vector<std::string> offpage_names;   ///< from off-page connectors
  std::vector<std::string> global_names;    ///< from global-net symbols
  std::vector<std::pair<std::string, PinDir>> ports;  ///< hier connectors
  Point anchor{0, 0};  ///< smallest point, for deterministic anon naming
  bool has_anchor = false;

  void note_point(const Point& p) {
    if (!has_anchor || p < anchor) {
      anchor = p;
      has_anchor = true;
    }
  }
};

PinDir dir_from_text(const std::string& s) {
  if (s == "input") return PinDir::Input;
  if (s == "output") return PinDir::Output;
  return PinDir::Inout;
}

}  // namespace

std::string Netlist::signature(const ExtractedNet& net) {
  if (net.connections.size() == 1) {
    const NetConnection& c = *net.connections.begin();
    return c.instance + "." + c.pin;
  }
  std::vector<std::string> parts;
  parts.reserve(net.connections.size());
  for (const NetConnection& c : net.connections)
    parts.push_back(c.instance + "." + c.pin);
  std::sort(parts.begin(), parts.end());
  return base::join(parts, "|");
}

Netlist extract_netlist(const Design& design, const Schematic& sch,
                        const Dialect& dialect,
                        base::DiagnosticEngine& diags) {
  Netlist out;
  out.cell = sch.cell;

  // The cell's own symbol (for Viewlogic-style implicit ports).
  const SymbolDef* cell_symbol = nullptr;
  for (const auto& [key, def] : design.symbols())
    if (key.cell == sch.cell && def.role == SymbolRole::Component)
      cell_symbol = &def;

  // Pass 1 over all sheets: find explicit bus ranges so condensed refs
  // ("A0") can be recognized on pass 2.
  std::vector<std::string> known_buses;
  for (const Sheet& sheet : sch.sheets) {
    for (const NetLabel& label : sheet.labels) {
      NetRef ref = parse_net_ref(label.text, dialect);
      if (ref.range) known_buses.push_back(ref.base);
    }
  }
  std::sort(known_buses.begin(), known_buses.end());
  known_buses.erase(std::unique(known_buses.begin(), known_buses.end()),
                    known_buses.end());

  // Per-sheet wire groups.
  struct SheetGroups {
    int page;
    std::vector<WireGroup> groups;
  };
  std::vector<SheetGroups> all_groups;

  for (const Sheet& sheet : sch.sheets) {
    const SheetIndex index(sheet);
    // Union-find nodes: every distinct point that takes part in
    // connectivity, numbered wire ends first (as the index numbers them),
    // then junctions, pins and label anchors.
    PointIds nodes = index.endpoints();
    std::vector<std::size_t> wire_a, wire_b;  ///< node of each wire end
    wire_a.reserve(sheet.wires.size());
    wire_b.reserve(sheet.wires.size());
    for (SheetIndex::Id i = 0; i < sheet.wires.size(); ++i) {
      wire_a.push_back(index.end_id(i, false));
      wire_b.push_back(index.end_id(i, true));
    }
    for (const Point& j : sheet.junctions) nodes.id_of(j);
    const std::string page_obj = "page" + std::to_string(sheet.number);

    // Extra nodes for instance pins and labels are appended after wiring
    // nodes; remember the mapping.
    struct PinSite {
      std::size_t node;
      const Instance* inst;
      const SymbolDef* def;
      const SymbolPin* pin;
      Point pos;
    };
    std::vector<PinSite> pin_sites;

    for (const Instance& inst : sheet.instances) {
      const SymbolDef* def = design.find_symbol(inst.symbol);
      if (!def) {
        diags.error("unknown-symbol",
                    "instance " + inst.name + " references missing symbol " +
                        inst.symbol.str(),
                    {"sch.extract", page_obj + "/" + inst.name});
        continue;
      }
      for (const SymbolPin& pin : def->pins) {
        Point pos = inst.placement.apply(pin.pos);
        pin_sites.push_back({nodes.id_of(pos), &inst, def, &pin, pos});
      }
    }

    struct LabelSite {
      std::size_t node;
      const NetLabel* label;
    };
    std::vector<LabelSite> label_sites;
    for (const NetLabel& label : sheet.labels)
      label_sites.push_back({nodes.id_of(label.at), &label});

    // Union wires.
    UnionFind uf(nodes.size());
    for (std::size_t i = 0; i < sheet.wires.size(); ++i)
      uf.unite(wire_a[i], wire_b[i]);

    // Junction dots connect interior crossings/tees.
    for (const Point& j : sheet.junctions) {
      std::size_t jid = nodes.id_of(j);
      for (SheetIndex::Id si : index.containing(j)) uf.unite(jid, wire_a[si]);
    }

    // Pins: connect when the pin sits on a wire endpoint, or on a wire
    // interior that carries a junction dot. Coincident pins connect by
    // abutment because they share the node id.
    auto pin_diag = [&](base::Severity severity, const char* code,
                        const PinSite& site, std::string_view what) {
      const std::string& inst = site.inst->name;
      std::string message;
      message.reserve(5 + inst.size() + site.pin->name.size() + what.size());
      message.append("pin ").append(inst).append(".").append(site.pin->name)
          .append(what);
      std::string object;
      object.reserve(page_obj.size() + 1 + inst.size());
      object.append(page_obj).append("/").append(inst);
      diags.report(severity, code, std::move(message),
                   {"sch.extract", std::move(object)});
    };
    std::vector<std::size_t> pins_at_node(nodes.size(), 0);
    for (const PinSite& site : pin_sites) ++pins_at_node[site.node];
    for (const PinSite& site : pin_sites) {
      bool wired = false;
      if (index.has_endpoint(site.pos)) {
        wired = true;  // endpoint: id_of already unified via segment union
      } else if (index.on_wire(site.pos)) {
        if (index.has_junction(site.pos)) {
          wired = true;
        } else {
          pin_diag(base::Severity::Warning, "pin-crosses-wire", site,
                   " lies on a wire interior without a junction; "
                   "not connected");
        }
      }
      // Dangling pin: forms (or joins) a node only with coincident pins.
      if (!wired && pins_at_node[site.node] == 1)
        pin_diag(base::Severity::Note, "dangling-pin", site, " is unconnected");
    }

    // Labels must land on a wire; one on several joins the lowest-index.
    for (const LabelSite& site : label_sites) {
      std::vector<SheetIndex::Id> segs = index.containing(site.label->at);
      if (segs.empty()) {
        diags.warn("floating-label",
                   "label '" + site.label->text + "' is not on any wire",
                   {"sch.extract", page_obj});
      } else {
        uf.unite(site.node, wire_a[segs.front()]);
      }
    }

    // Gather groups, numbered in ascending root order.
    std::vector<std::size_t> group_of(nodes.size(), 0);
    for (std::size_t w : wire_a) group_of[uf.find(w)] = 1;
    for (const PinSite& site : pin_sites) group_of[uf.find(site.node)] = 1;
    for (const LabelSite& site : label_sites) group_of[uf.find(site.node)] = 1;
    std::size_t group_count = 0;
    for (std::size_t& g : group_of) g = g ? group_count++ : 0;
    std::vector<WireGroup> groups(group_count);
    auto group = [&](std::size_t node) -> WireGroup& {
      return groups[group_of[uf.find(node)]];
    };
    for (std::size_t i = 0; i < sheet.wires.size(); ++i) {
      const Segment& w = sheet.wires[i];
      WireGroup& g = group(wire_a[i]);
      g.note_point(w.a);
      g.note_point(w.b);
    }
    for (const PinSite& site : pin_sites) {
      WireGroup& g = group(site.node);
      g.note_point(site.pos);
      const Instance& inst = *site.inst;
      const SymbolDef* def = site.def;
      switch (def->role) {
        case SymbolRole::Component:
          g.connections.insert({inst.name, site.pin->name});
          break;
        case SymbolRole::HierPort:
          g.ports.emplace_back(
              inst.props.get_text("port", inst.name),
              dir_from_text(inst.props.get_text("dir", "inout")));
          break;
        case SymbolRole::OffPage:
          g.offpage_names.push_back(inst.props.get_text("net", inst.name));
          break;
        case SymbolRole::GlobalNet:
          g.global_names.push_back(
              def->default_props.get_text("global_net", def->key.cell));
          break;
      }
    }
    for (const LabelSite& site : label_sites)
      group(site.node).label_refs.push_back(
          parse_net_ref(site.label->text, dialect, known_buses));

    // Deterministic order (sorting a permutation moves no group around
    // but places them exactly as sorting the groups themselves would).
    std::vector<std::size_t> order(groups.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&groups](std::size_t a, std::size_t b) {
                return groups[a].anchor < groups[b].anchor;
              });
    SheetGroups sg;
    sg.page = sheet.number;
    sg.groups.reserve(groups.size());
    for (std::size_t i : order) sg.groups.push_back(std::move(groups[i]));
    all_groups.push_back(std::move(sg));
  }

  // ---- Resolve group names to canonical nets ----
  //
  // Scoping rule: within one page, same names always join (true in both
  // tools). Across pages, a name joins design-wide when (a) it is global,
  // (b) the dialect joins same names across pages implicitly, or (c) the
  // group carries an off-page connector. A name that appears on several
  // pages *without* those becomes page-scoped ("name@p2") — two same-named
  // labels on different Composer pages are different nets.
  //
  // Pre-pass: which pages does each canonical label name appear on?
  std::map<std::string, std::set<int>> name_pages;
  if (!dialect.implicit_offpage_by_name) {
    for (const SheetGroups& sg : all_groups) {
      for (const WireGroup& g : sg.groups) {
        for (const NetRef& ref : g.label_refs)
          for (const std::string& bit : canonical_bits(ref))
            name_pages[bit].insert(sg.page);
        for (const std::string& on : g.offpage_names) {
          NetRef ref = parse_net_ref(on, dialect, known_buses);
          for (const std::string& bit : canonical_bits(ref))
            name_pages[bit].insert(sg.page);
        }
      }
    }
  }

  // Viewlogic-style implicit ports: the canonical bits of the cell symbol's
  // pins, in pin order.
  std::vector<std::pair<std::string, PinDir>> implicit_port_bits;
  if (!dialect.requires_hier_connectors && cell_symbol)
    for (const SymbolPin& pin : cell_symbol->pins)
      for (std::string& bit :
           canonical_bits(parse_net_ref(pin.name, dialect, known_buses)))
        implicit_port_bits.emplace_back(std::move(bit), pin.dir);

  int anon_counter = 0;
  // `last_use`: the group's connections are not needed afterwards, so a
  // fresh net may take them over instead of copying.
  auto add_connections = [&out](const std::string& canon, bool named,
                                bool global, WireGroup& g, bool last_use) {
    ExtractedNet& net = out.nets[canon];
    net.canonical = canon;
    net.named = net.named || named;
    net.global = net.global || global;
    if (last_use && net.connections.empty())
      net.connections = std::move(g.connections);
    else
      net.connections.insert(g.connections.begin(), g.connections.end());
  };

  for (SheetGroups& sg : all_groups) {
    for (WireGroup& g : sg.groups) {
      std::vector<std::pair<std::string, bool>> names;  // canonical, global

      for (NetRef& cleaned : g.label_refs) {
        bool global = false;
        if (!dialect.global_suffix.empty() &&
            base::ends_with(cleaned.base, dialect.global_suffix)) {
          global = true;
          cleaned.base = cleaned.base.substr(
              0, cleaned.base.size() - dialect.global_suffix.size());
        }
        for (const std::string& bit : canonical_bits(cleaned))
          names.emplace_back(bit, global);
      }
      for (const std::string& gn : g.global_names)
        names.emplace_back(gn, true);
      for (const std::string& on : g.offpage_names) {
        NetRef ref = parse_net_ref(on, dialect, known_buses);
        for (const std::string& bit : canonical_bits(ref))
          names.emplace_back(bit, false);
      }

      // An unlabeled wire with a hier connector takes the port's name.
      if (names.empty() && !g.ports.empty()) {
        for (const auto& [pname, pdir] : g.ports) {
          (void)pdir;
          NetRef pref = parse_net_ref(pname, dialect, known_buses);
          for (const std::string& bit : canonical_bits(pref))
            names.emplace_back(bit, false);
        }
      }

      if (names.empty()) {
        std::string anon = "$anon" + std::to_string(anon_counter++);
        add_connections(anon, false, false, g, true);
        continue;
      }

      std::vector<std::string> resolved;
      for (std::size_t n = 0; n < names.size(); ++n) {
        const auto& [canon, global] = names[n];
        bool design_wide = global || dialect.implicit_offpage_by_name ||
                           !g.offpage_names.empty();
        bool multipage = !design_wide && name_pages[canon].size() > 1;
        std::string scoped =
            multipage ? canon + "@p" + std::to_string(sg.page) : canon;
        add_connections(scoped, true, global, g, n + 1 == names.size());
        resolved.push_back(std::move(scoped));
      }

      // Port bindings: a hier connector marks the group's net as a port.
      for (const auto& [pname, pdir] : g.ports) {
        (void)pname;  // ports name their net; the group's name binds it
        ExtractedNet& net = out.nets[resolved.front()];
        net.canonical = resolved.front();
        net.named = true;
        net.is_port = true;
        net.port_dir = pdir;
      }
      if (g.ports.empty() && !dialect.requires_hier_connectors &&
          cell_symbol) {
        // Viewlogic-style implicit ports: a labeled net whose name matches
        // a pin of the cell's own symbol is a port.
        for (const auto& [canon, global] : names) {
          (void)global;
          for (const auto& [bit, dir] : implicit_port_bits) {
            if (bit != canon) continue;
            ExtractedNet& net = out.nets[canon];
            net.canonical = canon;
            net.named = true;
            net.is_port = true;
            net.port_dir = dir;
          }
        }
      }
    }
  }

  // Hier ports in connector-requiring dialects bind by connector name even
  // when the wire group had its own label; make sure the port flag lands on
  // the right canonical net (connector name may BE the net name).
  return out;
}

std::string to_string(NetlistDiff::Kind k) {
  switch (k) {
    case NetlistDiff::Kind::MissingNet: return "missing-net";
    case NetlistDiff::Kind::ExtraNet: return "extra-net";
    case NetlistDiff::Kind::ConnectionChange: return "connection-change";
    case NetlistDiff::Kind::PortChange: return "port-change";
    case NetlistDiff::Kind::GlobalChange: return "global-change";
  }
  return "?";
}

std::vector<NetlistDiff> compare_netlists(const Netlist& golden,
                                          const Netlist& subject) {
  std::vector<NetlistDiff> diffs;

  // Anonymous nets match by connection signature.
  std::unordered_map<std::string, const ExtractedNet*> subject_anon;
  for (const auto& [name, net] : subject.nets)
    if (!net.named) subject_anon[Netlist::signature(net)] = &net;

  std::unordered_set<std::string> matched_subject;

  for (const auto& [name, gnet] : golden.nets) {
    const ExtractedNet* snet = nullptr;
    if (gnet.named) {
      auto it = subject.nets.find(name);
      if (it != subject.nets.end()) snet = &it->second;
    } else {
      auto it = subject_anon.find(Netlist::signature(gnet));
      if (it != subject_anon.end()) snet = it->second;
    }
    if (!snet) {
      // Single-connection anonymous nets (dangling pins) are noise; still
      // report named ones and multi-pin anonymous ones.
      if (gnet.named || gnet.connections.size() > 1)
        diffs.push_back({NetlistDiff::Kind::MissingNet, name,
                         "connections: " + Netlist::signature(gnet)});
      continue;
    }
    matched_subject.insert(snet->canonical);
    if (gnet.connections != snet->connections) {
      diffs.push_back({NetlistDiff::Kind::ConnectionChange, name,
                       "golden{" + Netlist::signature(gnet) + "} subject{" +
                           Netlist::signature(*snet) + "}"});
    }
    if (gnet.is_port != snet->is_port ||
        (gnet.is_port && gnet.port_dir != snet->port_dir)) {
      diffs.push_back({NetlistDiff::Kind::PortChange, name,
                       "golden port=" + std::to_string(gnet.is_port) +
                           " subject port=" + std::to_string(snet->is_port)});
    }
    if (gnet.global != snet->global) {
      diffs.push_back({NetlistDiff::Kind::GlobalChange, name,
                       "golden global=" + std::to_string(gnet.global) +
                           " subject global=" +
                           std::to_string(snet->global)});
    }
  }

  for (const auto& [name, snet] : subject.nets) {
    if (matched_subject.count(name)) continue;
    bool matched_named = snet.named && golden.nets.count(name);
    if (matched_named) continue;  // handled above
    if (snet.named || snet.connections.size() > 1)
      diffs.push_back({NetlistDiff::Kind::ExtraNet, name,
                       "connections: " + Netlist::signature(snet)});
  }
  return diffs;
}

}  // namespace interop::sch
