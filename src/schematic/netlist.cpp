#include "schematic/netlist.hpp"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <string_view>
#include <unordered_map>

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

PinDir dir_from_text(const std::string& s) {
  if (s == "input") return PinDir::Input;
  if (s == "output") return PinDir::Output;
  return PinDir::Inout;
}

/// Sort `pins` from `begin` on and drop duplicates there.
void sort_unique_tail(std::vector<PinRef>& pins, std::size_t begin) {
  auto first = pins.begin() + std::ptrdiff_t(begin);
  std::sort(first, pins.end());
  pins.erase(std::unique(first, pins.end()), pins.end());
}

/// Items 0..n-1 bucketed by key (each below `keys`), every bucket in item
/// order: bucket k is items[first[k]] up to items[first[k + 1]].
struct Buckets {
  std::vector<std::size_t> first, items;

  Buckets(const std::vector<std::size_t>& key_of, std::size_t keys)
      : first(keys + 1, 0), items(key_of.size()) {
    for (std::size_t k : key_of) ++first[k + 1];
    for (std::size_t k = 0; k < keys; ++k) first[k + 1] += first[k];
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (std::size_t i = 0; i < key_of.size(); ++i)
      items[next[key_of[i]]++] = i;
  }
};

/// Call `f` with the id of each canonical bit of `ref` (canonical_bits
/// order). A plain scalar is its own base name and skips the bit strings.
template <class F>
void for_each_bit(const NetRef& ref, NamePool& pool, F&& f) {
  if (ref.is_scalar() && ref.postfix.empty()) {
    f(pool.intern(ref.base));
    return;
  }
  for (const std::string& bit : canonical_bits(ref)) f(pool.intern(bit));
}

/// The connection signature of a pin set: `part(pin)` is the pin's
/// "inst.pin", and the parts are sorted and joined by '|'.
template <class Pins, class Part>
std::string signature_of(const Pins& pins, Part&& part) {
  std::vector<std::string> parts;
  parts.reserve(pins.size());
  for (const auto& p : pins) parts.push_back(part(p));
  std::sort(parts.begin(), parts.end());
  return base::join(parts, "|");
}

std::string signature(std::span<const PinRef> pins, const NamePool& pool) {
  return signature_of(pins, [&pool](PinRef p) {
    return pool.str(pin_instance(p)) + "." + pool.str(pin_name(p));
  });
}

}  // namespace

// ---------------------------------------------------------------- NamePool

NamePool::Id NamePool::intern(std::string_view name) {
  if (auto it = ids_.find(name); it != ids_.end()) return it->second;
  const Id id = Id(names_.size());
  ids_.emplace(names_.emplace_back(name), id);
  return id;
}

// ---------------------------------------------------------------- NetTable

NetTable::Net& NetTable::net(NamePool::Id name) {
  if (name >= net_of.size()) net_of.resize(name + 1, NamePool::kNone);
  if (net_of[name] == NamePool::kNone) {
    net_of[name] = NamePool::Id(nets.size());
    nets.emplace_back().name = name;
  }
  return nets[net_of[name]];
}

void NetTable::close_run(Net& net, std::size_t begin) {
  sort_unique_tail(pins, begin);
  net.pins_begin = std::uint32_t(begin);
  net.pins_end = std::uint32_t(pins.size());
}

std::string Netlist::signature(const ExtractedNet& net) {
  return signature_of(net.connections, [](const NetConnection& c) {
    return c.instance + "." + c.pin;
  });
}

NetTable extract_net_table(const Design& design, const Schematic& sch,
                           const Dialect& dialect, NamePool& pool,
                           base::DiagnosticEngine& diags) {
  NetTable out;
  out.cell = sch.cell;

  // The cell's own symbol (for Viewlogic-style implicit ports).
  const SymbolDef* cell_symbol = nullptr;
  for (const auto& [key, def] : design.symbols())
    if (key.cell == sch.cell && def.role == SymbolRole::Component)
      cell_symbol = &def;

  // Pass 1 over all sheets: find explicit bus ranges so condensed refs
  // ("A0") can be recognized on pass 2. Only a label with an opening
  // bracket can carry a range.
  std::vector<std::string> known_buses;
  for (const Sheet& sheet : sch.sheets) {
    for (const NetLabel& label : sheet.labels) {
      if (label.text.find(dialect.bus_open) == std::string::npos) continue;
      NetRef ref = parse_net_ref(label.text, dialect);
      if (ref.range) known_buses.push_back(ref.base);
    }
  }
  std::sort(known_buses.begin(), known_buses.end());
  known_buses.erase(std::unique(known_buses.begin(), known_buses.end()),
                    known_buses.end());

  // Pin name ids of each symbol instantiated so far.
  std::unordered_map<const SymbolDef*, std::vector<NamePool::Id>> symbol_pins;
  auto pin_ids = [&](const SymbolDef& def) -> const std::vector<NamePool::Id>& {
    auto [it, fresh] = symbol_pins.try_emplace(&def);
    if (fresh)
      for (const SymbolPin& pin : def.pins)
        it->second.push_back(pool.intern(pin.name));
    return it->second;
  };

  // Every connected wire group of every sheet, in naming order (by sheet,
  // then by smallest point). A group's pins are a sorted run of
  // `group_pins`, and its names, (canonical id, global) in the order the
  // group lists them, a run of `names`.
  struct Group {
    int page;
    std::size_t pins_begin, pins_end;
    std::size_t names_begin, names_end;
    bool offpage = false;  ///< carries an off-page connector
    bool port = false;     ///< carries a hier connector; `port_dir` the last
    PinDir port_dir = PinDir::Inout;
  };
  std::vector<Group> groups;
  std::vector<PinRef> group_pins;
  std::vector<std::pair<NamePool::Id, bool>> names;

  // Pages each label (before its global suffix is stripped) and each
  // off-page name appears on, for Composer-style page scoping.
  struct Pages {
    int first = 0;
    bool seen = false;
    bool multi = false;
  };
  std::vector<Pages> name_pages;
  const bool track_pages = !dialect.implicit_offpage_by_name;
  auto note_page = [&](NamePool::Id id, int page) {
    if (!track_pages) return;
    if (id >= name_pages.size()) name_pages.resize(id + 1);
    Pages& p = name_pages[id];
    if (!p.seen) {
      p.seen = true;
      p.first = page;
    } else if (p.first != page) {
      p.multi = true;
    }
  };

  for (const Sheet& sheet : sch.sheets) {
    const SheetIndex index(sheet);
    // Union-find nodes: every distinct point that takes part in
    // connectivity, numbered wire ends first (as the index numbers them),
    // then junctions, pins and label anchors.
    PointIds nodes = index.endpoints();
    const std::size_t end_nodes = nodes.size();
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
      PinRef ref;
    };
    std::vector<PinSite> pin_sites;
    pin_sites.reserve(4 * sheet.instances.size());

    for (const Instance& inst : sheet.instances) {
      const SymbolDef* def = design.find_symbol(inst.symbol);
      const NamePool::Id inst_id = pool.intern(inst.name);
      if (inst_id >= out.instance_symbol.size())
        out.instance_symbol.resize(inst_id + 1, nullptr);
      out.instance_symbol[inst_id] = def ? &def->key : &inst.symbol;
      if (!def) {
        diags.error("unknown-symbol",
                    "instance " + inst.name + " references missing symbol " +
                        inst.symbol.str(),
                    {"sch.extract", page_obj + "/" + inst.name});
        continue;
      }
      const std::vector<NamePool::Id>& pins = pin_ids(*def);
      for (std::size_t p = 0; p < def->pins.size(); ++p) {
        const SymbolPin& pin = def->pins[p];
        Point pos = inst.placement.apply(pin.pos);
        pin_sites.push_back({nodes.id_of(pos), &inst, def, &pin, pos,
                             pin_ref(inst_id, pins[p])});
      }
    }

    std::vector<std::size_t> label_nodes;
    label_nodes.reserve(sheet.labels.size());
    for (const NetLabel& label : sheet.labels)
      label_nodes.push_back(nodes.id_of(label.at));

    // Union wires.
    UnionFind uf(nodes.size());
    for (std::size_t i = 0; i < sheet.wires.size(); ++i)
      uf.unite(wire_a[i], wire_b[i]);

    // Junction dots connect interior crossings/tees.
    for (const Point& j : sheet.junctions) {
      std::size_t jid = nodes.id_of(j);
      for (SheetIndex::Id si : index.containing(j)) uf.unite(jid, wire_a[si]);
    }

    // Pins: connect when the pin sits on a wire endpoint (its node is then
    // a wire-end node), or on a wire interior that carries a junction dot.
    // Coincident pins connect by abutment because they share the node id.
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
      if (site.node < end_nodes) {
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
    for (std::size_t l = 0; l < sheet.labels.size(); ++l) {
      const NetLabel& label = sheet.labels[l];
      std::vector<SheetIndex::Id> segs = index.containing(label.at);
      if (segs.empty()) {
        diags.warn("floating-label",
                   "label '" + label.text + "' is not on any wire",
                   {"sch.extract", page_obj});
      } else {
        uf.unite(label_nodes[l], wire_a[segs.front()]);
      }
    }

    // Gather groups, numbered in ascending root order, each with its
    // smallest point (for deterministic anon naming; {0, 0} for a group
    // with no wire and no pin).
    std::vector<std::size_t> group_of(nodes.size(), 0);
    for (std::size_t w : wire_a) group_of[uf.find(w)] = 1;
    for (const PinSite& site : pin_sites) group_of[uf.find(site.node)] = 1;
    for (std::size_t node : label_nodes) group_of[uf.find(node)] = 1;
    std::size_t group_count = 0;
    for (std::size_t& g : group_of) g = g ? group_count++ : 0;
    auto group = [&](std::size_t node) { return group_of[uf.find(node)]; };
    std::vector<Point> anchor(group_count, Point{0, 0});
    std::vector<char> has_anchor(group_count, 0);
    auto note_point = [&](std::size_t g, const Point& p) {
      if (!has_anchor[g] || p < anchor[g]) {
        anchor[g] = p;
        has_anchor[g] = 1;
      }
    };
    for (std::size_t i = 0; i < sheet.wires.size(); ++i) {
      const Segment& w = sheet.wires[i];
      std::size_t g = group(wire_a[i]);
      note_point(g, w.a);
      note_point(g, w.b);
    }
    std::vector<std::size_t> site_group(pin_sites.size());
    for (std::size_t k = 0; k < pin_sites.size(); ++k) {
      site_group[k] = group(pin_sites[k].node);
      note_point(site_group[k], pin_sites[k].pos);
    }

    // Naming order: by smallest point. (Comparing points only, this sort
    // places tied groups exactly as sorting the groups themselves would.)
    std::vector<std::pair<Point, std::size_t>> order(group_count);
    for (std::size_t g = 0; g < group_count; ++g) order[g] = {anchor[g], g};
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      return a.first.x != b.first.x ? a.first.x < b.first.x
                                    : a.first.y < b.first.y;
    });
    std::vector<std::size_t> rank(group_count);
    for (std::size_t r = 0; r < group_count; ++r) rank[order[r].second] = r;

    // Pin sites and labels by group rank, each group's in sheet order.
    std::vector<std::size_t> site_rank(pin_sites.size());
    for (std::size_t k = 0; k < pin_sites.size(); ++k)
      site_rank[k] = rank[site_group[k]];
    std::vector<std::size_t> label_rank(sheet.labels.size());
    for (std::size_t l = 0; l < sheet.labels.size(); ++l)
      label_rank[l] = rank[group(label_nodes[l])];
    const Buckets sites(site_rank, group_count);
    const Buckets labels(label_rank, group_count);

    for (std::size_t r = 0; r < group_count; ++r) {
      Group& grp = groups.emplace_back();
      grp.page = sheet.number;
      grp.pins_begin = group_pins.size();
      for (std::size_t k = sites.first[r]; k < sites.first[r + 1]; ++k)
        if (pin_sites[sites.items[k]].def->role == SymbolRole::Component)
          group_pins.push_back(pin_sites[sites.items[k]].ref);
      sort_unique_tail(group_pins, grp.pins_begin);
      grp.pins_end = group_pins.size();

      grp.names_begin = names.size();
      for (std::size_t k = labels.first[r]; k < labels.first[r + 1]; ++k) {
        NetRef ref = parse_net_ref(sheet.labels[labels.items[k]].text,
                                   dialect, known_buses);
        bool global = false;
        if (!dialect.global_suffix.empty() &&
            base::ends_with(ref.base, dialect.global_suffix)) {
          global = true;
          for_each_bit(ref, pool,
                       [&](NamePool::Id id) { note_page(id, grp.page); });
          ref.base.resize(ref.base.size() - dialect.global_suffix.size());
        }
        for_each_bit(ref, pool, [&](NamePool::Id id) {
          if (!global) note_page(id, grp.page);
          names.emplace_back(id, global);
        });
      }
      // Connector names, by kind: globals, then off-page names; an
      // unlabeled wire with a hier connector takes the port's name.
      for (SymbolRole role : {SymbolRole::GlobalNet, SymbolRole::OffPage,
                              SymbolRole::HierPort}) {
        for (std::size_t k = sites.first[r]; k < sites.first[r + 1]; ++k) {
          const PinSite& site = pin_sites[sites.items[k]];
          if (site.def->role != role) continue;
          const Instance& inst = *site.inst;
          if (role == SymbolRole::GlobalNet) {
            names.emplace_back(
                pool.intern(site.def->default_props.get_text(
                    "global_net", site.def->key.cell)),
                true);
          } else if (role == SymbolRole::OffPage) {
            grp.offpage = true;
            NetRef ref = parse_net_ref(inst.props.get_text("net", inst.name),
                                       dialect, known_buses);
            for_each_bit(ref, pool, [&](NamePool::Id id) {
              note_page(id, grp.page);
              names.emplace_back(id, false);
            });
          } else {
            grp.port = true;
            grp.port_dir = dir_from_text(inst.props.get_text("dir", "inout"));
          }
        }
      }
      grp.names_end = names.size();
      if (grp.names_end == grp.names_begin) {
        for (std::size_t k = sites.first[r]; k < sites.first[r + 1]; ++k) {
          const PinSite& site = pin_sites[sites.items[k]];
          if (site.def->role != SymbolRole::HierPort) continue;
          NetRef ref = parse_net_ref(
              site.inst->props.get_text("port", site.inst->name), dialect,
              known_buses);
          for_each_bit(ref, pool,
                       [&](NamePool::Id id) { names.emplace_back(id, false); });
        }
        grp.names_end = names.size();
      }
    }
  }

  // ---- Resolve group names to canonical nets ----
  //
  // Scoping rule: within one page, same names always join (true in both
  // tools). Across pages, a name joins design-wide when (a) it is global,
  // (b) the dialect joins same names across pages implicitly, or (c) the
  // group carries an off-page connector. A name that appears on several
  // pages *without* those becomes page-scoped ("name@p2") — two same-named
  // labels on different Composer pages are different nets.
  auto multipage = [&](NamePool::Id id) {
    return id < name_pages.size() && name_pages[id].multi;
  };

  // Viewlogic-style implicit ports: the canonical bits of the cell symbol's
  // pins, in pin order.
  std::vector<std::pair<NamePool::Id, PinDir>> implicit_port_bits;
  if (!dialect.requires_hier_connectors && cell_symbol)
    for (const SymbolPin& pin : cell_symbol->pins)
      for_each_bit(parse_net_ref(pin.name, dialect, known_buses), pool,
                   [&](NamePool::Id id) {
                     implicit_port_bits.emplace_back(id, pin.dir);
                   });

  int anon_counter = 0;
  // Per join of a group's pins into a net: the net and the group.
  std::vector<std::size_t> join_net, join_group;
  join_net.reserve(groups.size());
  join_group.reserve(groups.size());
  auto add_pins = [&](NamePool::Id name, bool named, bool global,
                      const Group& grp) {
    NetTable::Net& net = out.net(name);
    net.named = net.named || named;
    net.global = net.global || global;
    join_net.push_back(std::size_t(&net - out.nets.data()));
    join_group.push_back(std::size_t(&grp - groups.data()));
  };

  for (const Group& grp : groups) {
    if (grp.names_begin == grp.names_end) {
      char anon[32] = "$anon";
      char* end =
          std::to_chars(anon + 5, anon + sizeof anon, anon_counter++).ptr;
      add_pins(pool.intern(std::string_view(anon, std::size_t(end - anon))),
               false, false, grp);
      continue;
    }

    NamePool::Id resolved_front = NamePool::kNone;
    for (std::size_t n = grp.names_begin; n < grp.names_end; ++n) {
      const auto [canon, global] = names[n];
      bool design_wide =
          global || dialect.implicit_offpage_by_name || grp.offpage;
      NamePool::Id scoped = canon;
      if (!design_wide && multipage(canon))
        scoped =
            pool.intern(pool.str(canon) + "@p" + std::to_string(grp.page));
      add_pins(scoped, true, global, grp);
      if (n == grp.names_begin) resolved_front = scoped;
    }

    // Port bindings: a hier connector marks the group's net as a port.
    if (grp.port) {
      NetTable::Net& net = out.net(resolved_front);
      net.named = true;
      net.is_port = true;
      net.port_dir = grp.port_dir;
    } else if (!dialect.requires_hier_connectors && cell_symbol) {
      // Viewlogic-style implicit ports: a labeled net whose name matches
      // a pin of the cell's own symbol is a port.
      for (std::size_t n = grp.names_begin; n < grp.names_end; ++n) {
        for (const auto& [bit, dir] : implicit_port_bits) {
          if (bit != names[n].first) continue;
          NetTable::Net& net = out.net(bit);
          net.named = true;
          net.is_port = true;
          net.port_dir = dir;
        }
      }
    }
  }

  // Each net's pins: the union of its groups' runs, net after net.
  const Buckets joins(join_net, out.nets.size());
  out.pins.reserve(group_pins.size());
  for (std::size_t i = 0; i < out.nets.size(); ++i) {
    const std::size_t begin = out.pins.size();
    for (std::size_t k = joins.first[i]; k < joins.first[i + 1]; ++k) {
      const Group& grp = groups[join_group[joins.items[k]]];
      out.pins.insert(out.pins.end(),
                      group_pins.begin() + std::ptrdiff_t(grp.pins_begin),
                      group_pins.begin() + std::ptrdiff_t(grp.pins_end));
    }
    out.close_run(out.nets[i], begin);
  }

  out.net_of.resize(pool.size(), NamePool::kNone);
  out.instance_symbol.resize(pool.size(), nullptr);
  return out;
}

namespace {

/// The string-keyed view of `table`.
Netlist netlist_view(const NetTable& table, const NamePool& pool) {
  std::vector<std::pair<const std::string*, const NetTable::Net*>> by_name;
  by_name.reserve(table.nets.size());
  for (const NetTable::Net& net : table.nets)
    by_name.emplace_back(&pool.str(net.name), &net);
  std::sort(by_name.begin(), by_name.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  Netlist out;
  out.cell = table.cell;
  for (const auto& [name_ptr, net] : by_name) {
    const std::string& name = *name_ptr;
    ExtractedNet& view = out.nets.emplace_hint(out.nets.end(), name,
                                               ExtractedNet{})->second;
    view.canonical = name;
    view.named = net->named;
    view.global = net->global;
    view.is_port = net->is_port;
    view.port_dir = net->port_dir;
    for (PinRef p : table.pins_of(*net))
      view.connections.insert(
          {pool.str(pin_instance(p)), pool.str(pin_name(p))});
  }
  return out;
}

}  // namespace

Netlist extract_netlist(const Design& design, const Schematic& sch,
                        const Dialect& dialect,
                        base::DiagnosticEngine& diags) {
  NamePool pool;
  return netlist_view(extract_net_table(design, sch, dialect, pool, diags),
                      pool);
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

std::vector<NetlistDiff> compare_netlists(const NetTable& golden,
                                          const NetTable& subject,
                                          const NamePool& pool) {
  // Anonymous subject nets by a hash of their pin set.
  auto pins_hash = [](std::span<const PinRef> pins) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (PinRef p : pins) h = (h ^ p) * 0x100000001b3ULL;
    return h;
  };
  auto same_pins = [&](const NetTable::Net& g, const NetTable::Net& s) {
    return std::ranges::equal(golden.pins_of(g), subject.pins_of(s));
  };
  std::vector<std::pair<std::uint64_t, std::uint32_t>> subject_anon;
  for (std::uint32_t i = 0; i < subject.nets.size(); ++i)
    if (!subject.nets[i].named)
      subject_anon.emplace_back(pins_hash(subject.pins_of(subject.nets[i])),
                                i);
  std::sort(subject_anon.begin(), subject_anon.end());
  auto match_anon = [&](const NetTable::Net& g) -> const NetTable::Net* {
    const std::uint64_t h = pins_hash(golden.pins_of(g));
    const NetTable::Net* best = nullptr;
    for (auto it = std::lower_bound(subject_anon.begin(), subject_anon.end(),
                                    std::pair{h, std::uint32_t{0}});
         it != subject_anon.end() && it->first == h; ++it) {
      const NetTable::Net& s = subject.nets[it->second];
      if (same_pins(g, s) &&
          (!best || pool.str(s.name) > pool.str(best->name)))
        best = &s;
    }
    return best;
  };

  // Diffs with their place in the report: golden nets by name, then extra
  // subject nets by name.
  struct Found {
    bool extra;
    NamePool::Id net;
    NetlistDiff::Kind kind;
    std::string detail;
  };
  std::vector<Found> found;
  std::vector<bool> matched(subject.nets.size(), false);

  for (const NetTable::Net& gnet : golden.nets) {
    const NetTable::Net* snet =
        gnet.named ? subject.find(gnet.name) : match_anon(gnet);
    if (!snet) {
      // Single-connection anonymous nets (dangling pins) are noise; still
      // report named ones and multi-pin anonymous ones.
      if (gnet.named || gnet.pins_end - gnet.pins_begin > 1)
        found.push_back({false, gnet.name, NetlistDiff::Kind::MissingNet,
                         "connections: " +
                             signature(golden.pins_of(gnet), pool)});
      continue;
    }
    matched[std::size_t(snet - subject.nets.data())] = true;
    if (!same_pins(gnet, *snet)) {
      found.push_back({false, gnet.name, NetlistDiff::Kind::ConnectionChange,
                       "golden{" + signature(golden.pins_of(gnet), pool) +
                           "} subject{" +
                           signature(subject.pins_of(*snet), pool) + "}"});
    }
    if (gnet.is_port != snet->is_port) {
      found.push_back({false, gnet.name, NetlistDiff::Kind::PortChange,
                       "golden port=" + std::to_string(gnet.is_port) +
                           " subject port=" + std::to_string(snet->is_port)});
    } else if (gnet.is_port && gnet.port_dir != snet->port_dir) {
      found.push_back({false, gnet.name, NetlistDiff::Kind::PortChange,
                       "golden port=1 dir=" + to_string(gnet.port_dir) +
                           " subject port=1 dir=" +
                           to_string(snet->port_dir)});
    }
    if (gnet.global != snet->global) {
      found.push_back({false, gnet.name, NetlistDiff::Kind::GlobalChange,
                       "golden global=" + std::to_string(gnet.global) +
                           " subject global=" +
                           std::to_string(snet->global)});
    }
  }

  for (std::size_t i = 0; i < subject.nets.size(); ++i) {
    const NetTable::Net& snet = subject.nets[i];
    if (matched[i]) continue;
    if (snet.named && golden.find(snet.name)) continue;  // handled above
    if (snet.named || snet.pins_end - snet.pins_begin > 1)
      found.push_back({true, snet.name, NetlistDiff::Kind::ExtraNet,
                       "connections: " +
                           signature(subject.pins_of(snet), pool)});
  }

  std::stable_sort(found.begin(), found.end(),
                   [&pool](const Found& a, const Found& b) {
                     if (a.extra != b.extra) return b.extra;
                     return pool.str(a.net) < pool.str(b.net);
                   });
  std::vector<NetlistDiff> diffs;
  diffs.reserve(found.size());
  for (Found& f : found)
    diffs.push_back({f.kind, pool.str(f.net), std::move(f.detail)});
  return diffs;
}

std::vector<NetlistDiff> compare_netlists(const Netlist& golden,
                                          const Netlist& subject) {
  NamePool pool;
  auto intern = [&pool](const Netlist& view) {
    NetTable table;
    table.cell = view.cell;
    for (const auto& [name, net] : view.nets) {
      NetTable::Net& t = table.net(pool.intern(name));
      t.named = net.named;
      t.global = net.global;
      t.is_port = net.is_port;
      t.port_dir = net.port_dir;
      const std::size_t begin = table.pins.size();
      for (const NetConnection& c : net.connections)
        table.pins.push_back(
            pin_ref(pool.intern(c.instance), pool.intern(c.pin)));
      table.close_run(t, begin);
    }
    return table;
  };
  NetTable g = intern(golden);
  NetTable s = intern(subject);
  return compare_netlists(g, s, pool);
}

}  // namespace interop::sch
