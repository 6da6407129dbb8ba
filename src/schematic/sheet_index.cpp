#include "schematic/sheet_index.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

namespace interop::sch {

namespace {

constexpr auto by_lo = [](std::int64_t c, const auto& span) {
  return c < span.lo;
};

std::size_t hash(const Point& p) {
  std::uint64_t h = std::uint64_t(p.x) * 0x9e3779b97f4a7c15ULL;
  h ^= std::uint64_t(p.y) + 0x7f4a7c159e3779b9ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return std::size_t(h ^ (h >> 31));
}

}  // namespace

// -------------------------------------------------------------- PointIds

PointIds::PointIds(std::size_t expected) {
  std::size_t capacity = 16;
  while (capacity < 2 * expected) capacity *= 2;
  table_.assign(capacity, 0);
  mask_ = capacity - 1;
  points_.reserve(expected);
}

std::size_t PointIds::slot(const Point& p) const {
  std::size_t i = hash(p) & mask_;
  while (table_[i] != 0 && points_[table_[i] - 1] != p) i = (i + 1) & mask_;
  return i;
}

std::size_t PointIds::id_of(const Point& p) {
  std::size_t i = slot(p);
  if (table_[i] != 0) return table_[i] - 1;
  points_.push_back(p);
  table_[i] = points_.size();
  if (2 * points_.size() > table_.size()) grow();
  return points_.size() - 1;
}

std::size_t PointIds::find(const Point& p) const {
  std::size_t i = slot(p);
  return table_[i] == 0 ? kNone : table_[i] - 1;
}

void PointIds::grow() {
  table_.assign(2 * table_.size(), 0);
  mask_ = table_.size() - 1;
  for (std::size_t id = 0; id < points_.size(); ++id)
    table_[slot(points_[id])] = id + 1;
}

// ------------------------------------------------------------------ Line

void SheetIndex::Line::insert(const Span& span) {
  recent.push_back(span);
  if (recent.size() > 16) merge();
}

void SheetIndex::Line::merge() {
  auto by_lo_id = [](const Span& a, const Span& b) {
    return a.lo != b.lo ? a.lo < b.lo : a.id < b.id;
  };
  std::sort(recent.begin(), recent.end(), by_lo_id);
  if (sorted.empty()) {
    sorted.swap(recent);
  } else {
    std::vector<Span> all(sorted.size() + recent.size());
    std::merge(sorted.begin(), sorted.end(), recent.begin(), recent.end(),
               all.begin(), by_lo_id);
    sorted = std::move(all);
    recent.clear();
  }
  std::int64_t reach = std::numeric_limits<std::int64_t>::min();
  for (Span& span : sorted) span.reach = reach = std::max(reach, span.hi);
}

template <class F>
void SheetIndex::Line::stab(std::int64_t c, F&& f) const {
  auto end = std::upper_bound(sorted.begin(), sorted.end(), c, by_lo);
  for (auto it = end; it != sorted.begin();) {
    --it;
    if (it->reach < c) break;
    if (it->hi >= c) f(it->id);
  }
  for (const Span& span : recent)
    if (span.lo <= c && c <= span.hi) f(span.id);
}

// ------------------------------------------------------------- PointGrid

std::vector<std::int64_t>& SheetIndex::PointGrid::line(int axis,
                                                      std::int64_t key) {
  std::size_t id = line_ids.id_of({axis, key});
  if (id == lines.size()) lines.emplace_back();
  return lines[id];
}

const std::vector<std::int64_t>* SheetIndex::PointGrid::find(
    int axis, std::int64_t key) const {
  std::size_t id = line_ids.find({axis, key});
  return id == PointIds::kNone ? nullptr : &lines[id];
}

void SheetIndex::PointGrid::append(const Point& p) {
  line(0, p.y).push_back(p.x);
  line(1, p.x).push_back(p.y);
}

void SheetIndex::PointGrid::sort() {
  for (std::vector<std::int64_t>& cs : lines) std::sort(cs.begin(), cs.end());
}

void SheetIndex::PointGrid::insert(const Point& p) {
  for (auto [axis, key, c] :
       {std::tuple{0, p.y, p.x}, std::tuple{1, p.x, p.y}}) {
    std::vector<std::int64_t>& cs = line(axis, key);
    cs.insert(std::upper_bound(cs.begin(), cs.end(), c), c);
  }
}

bool SheetIndex::PointGrid::contains(const Point& p) const {
  const std::vector<std::int64_t>* row = find(0, p.y);
  return row && std::binary_search(row->begin(), row->end(), p.x);
}

template <class F>
void SheetIndex::PointGrid::for_each_on(const Segment& s, F&& f) const {
  const bool horizontal = s.horizontal();
  if (!horizontal && !s.vertical()) return;
  const std::int64_t key = horizontal ? s.a.y : s.a.x;
  const std::int64_t lo = horizontal ? std::min(s.a.x, s.b.x)
                                     : std::min(s.a.y, s.b.y);
  const std::int64_t hi = horizontal ? std::max(s.a.x, s.b.x)
                                     : std::max(s.a.y, s.b.y);
  const std::vector<std::int64_t>* cs = find(horizontal ? 0 : 1, key);
  if (!cs) return;
  for (auto c = std::lower_bound(cs->begin(), cs->end(), lo);
       c != cs->end() && *c <= hi; ++c)
    f(horizontal ? Point{*c, key} : Point{key, *c});
}

// ------------------------------------------------------------ SheetIndex

SheetIndex::SheetIndex(const Sheet& sheet)
    : segs_(sheet.wires),
      live_(sheet.wires.size(), 1),
      junction_list_(sheet.junctions),
      node_ids_(2 * sheet.wires.size()),
      end_node_(2 * sheet.wires.size(), kNone),
      end_next_(2 * sheet.wires.size(), kNone),
      line_ids_(sheet.wires.size()),
      seg_mark_(sheet.wires.size(), 0) {
  // Bulk build: append everything, then sort each line once.
  lines_.reserve(segs_.size());
  for (Id id = 0; id < segs_.size(); ++id) {
    link(id);
    Line::Span span{};
    if (Line* line = line_for(id, span)) line->recent.push_back(span);
  }
  for (Line& line : lines_) line.merge();
  for (const Point& j : sheet.junctions) junctions_.append(j);
  junctions_.sort();
  label_points_.reserve(sheet.labels.size());
  for (const NetLabel& l : sheet.labels) label_points_.push_back(l.at);
}

const SheetIndex::Line* SheetIndex::find_line(int axis,
                                              std::int64_t key) const {
  std::size_t id = line_ids_.find({axis, key});
  return id == PointIds::kNone ? nullptr : &lines_[id];
}

void SheetIndex::link(Id id) {
  const Segment& s = segs_[id];
  for (std::size_t end = 0; end < 2; ++end) {
    if (end == 1 && s.b == s.a) break;
    std::size_t slot = 2 * id + end;
    std::size_t n = node_ids_.id_of(end == 0 ? s.a : s.b);
    if (n == nodes_.size()) nodes_.emplace_back();
    end_node_[slot] = n;
    if (nodes_[n].tail == kNone) nodes_[n].head = slot;
    else end_next_[nodes_[n].tail] = slot;
    nodes_[n].tail = slot;
  }
}

SheetIndex::Line* SheetIndex::line_for(Id id, Line::Span& span) {
  const Segment& s = segs_[id];
  const bool horizontal = s.horizontal();
  if (!horizontal && !s.vertical()) return nullptr;
  const std::int64_t a = horizontal ? s.a.x : s.a.y;
  const std::int64_t b = horizontal ? s.b.x : s.b.y;
  span = {std::min(a, b), std::max(a, b), id, 0};
  std::size_t line =
      line_ids_.id_of(horizontal ? Point{0, s.a.y} : Point{1, s.a.x});
  if (line == lines_.size()) lines_.emplace_back();
  return &lines_[line];
}

template <class F>
void SheetIndex::for_each_ending(std::size_t node, F&& f) const {
  for (std::size_t slot = nodes_[node].head; slot != kNone;
       slot = end_next_[slot])
    if (live_[slot / 2]) f(slot / 2);
}

template <class F>
void SheetIndex::for_each_containing(const Point& p, F&& f) const {
  auto live = [this, &f](Id id) {
    if (live_[id]) f(id);
  };
  if (const Line* row = find_line(0, p.y)) row->stab(p.x, live);
  if (const Line* col = find_line(1, p.x)) col->stab(p.y, live);
}

std::vector<SheetIndex::Id> SheetIndex::ending_at(const Point& p) const {
  std::vector<Id> out;
  if (std::size_t n = node_ids_.find(p); n != PointIds::kNone)
    for_each_ending(n, [&out](Id id) { out.push_back(id); });
  return out;
}

bool SheetIndex::has_endpoint(const Point& p) const {
  bool found = false;
  if (std::size_t n = node_ids_.find(p); n != PointIds::kNone)
    for_each_ending(n, [&found](Id) { found = true; });
  return found;
}

std::vector<SheetIndex::Id> SheetIndex::containing(const Point& p) const {
  std::vector<Id> out;
  for_each_containing(p, [&out](Id id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

bool SheetIndex::on_wire(const Point& p) const {
  bool found = false;
  for_each_containing(p, [&found](Id) { found = true; });
  return found;
}

bool SheetIndex::has_junction(const Point& p) const {
  return junctions_.contains(p);
}

std::vector<Point> SheetIndex::labels_on(Id id) {
  if (!labels_) {
    labels_.emplace();
    for (const Point& p : label_points_) labels_->append(p);
    labels_->sort();
  }
  std::vector<Point> out;
  labels_->for_each_on(segs_[id], [&out](const Point& p) { out.push_back(p); });
  return out;
}

std::vector<SheetIndex::Id> SheetIndex::net_of(const std::vector<Id>& seeds) {
  const std::uint64_t epoch = ++epoch_;
  std::vector<Id> out;
  std::vector<Id> work;
  auto visit = [&](Id id) {
    if (seg_mark_[id] == epoch) return;
    seg_mark_[id] = epoch;
    out.push_back(id);
    work.push_back(id);
  };
  for (Id id : seeds) visit(id);
  while (!work.empty()) {
    const Id cur = work.back();
    work.pop_back();
    for (std::size_t slot : {2 * cur, 2 * cur + 1}) {
      std::size_t n = end_node_[slot];
      if (n == kNone || nodes_[n].mark == epoch) continue;
      nodes_[n].mark = epoch;
      for_each_ending(n, visit);
    }
    junctions_.for_each_on(segs_[cur], [&](const Point& j) {
      for_each_containing(j, visit);
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

void SheetIndex::remove(Id id) { live_[id] = 0; }

SheetIndex::Id SheetIndex::add(const Segment& seg) {
  const Id id = segs_.size();
  segs_.push_back(seg);
  live_.push_back(1);
  end_node_.resize(end_node_.size() + 2, kNone);
  end_next_.resize(end_next_.size() + 2, kNone);
  seg_mark_.push_back(0);
  link(id);
  Line::Span span{};
  if (Line* line = line_for(id, span)) line->insert(span);
  return id;
}

void SheetIndex::add_junction(const Point& p) {
  junction_list_.push_back(p);
  junctions_.insert(p);
}

void SheetIndex::store(Sheet& sheet) const {
  sheet.wires.clear();
  for (Id id = 0; id < segs_.size(); ++id)
    if (live_[id]) sheet.wires.push_back(segs_[id]);
  sheet.junctions = junction_list_;
}

}  // namespace interop::sch
