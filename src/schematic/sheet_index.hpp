#pragma once
// The sheet-geometry index: the one place that answers "which wires touch
// this point" for a sheet. Netlist extraction, rip-up / reroute and
// connector placement all query it, so connectivity is derived from wires
// and junction dots by a single set of rules (see netlist.hpp):
//
//  - an endpoint hash: point -> segments having it as an endpoint;
//  - per-row and per-column sorted intervals: segments containing a point
//    anywhere (endpoint or interior), exactly as Segment::contains decides —
//    zero-length segments hold their one point, non-axis-parallel segments
//    hold none (their endpoints still match the endpoint hash);
//  - per-row and per-column sorted junction dots and label anchors.
//
// Segment ids are positions in the sheet's wire list at construction, then
// increase with every add(). Rip-up edits the index in place: remove()
// tombstones a segment, add() appends one, and store() writes the surviving
// wires (original order, then additions in order) and the junction list
// back to the sheet once, at the end.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "schematic/model.hpp"

namespace interop::sch {

/// Dense ids for distinct points, handed out in first-seen order. An
/// open-addressing hash table: no allocation per point.
class PointIds {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  explicit PointIds(std::size_t expected = 0);

  /// Id of `p`, assigning the next one when `p` is new.
  std::size_t id_of(const Point& p);
  /// Id of `p`, or kNone.
  std::size_t find(const Point& p) const;
  std::size_t size() const { return points_.size(); }

 private:
  std::size_t slot(const Point& p) const;
  void grow();

  std::vector<Point> points_;       ///< by id
  std::vector<std::size_t> table_;  ///< id + 1 per slot, 0 when empty
  std::size_t mask_ = 0;
};

class SheetIndex {
 public:
  using Id = std::size_t;

  explicit SheetIndex(const Sheet& sheet);

  /// Number of ids handed out (live and removed).
  std::size_t size() const { return segs_.size(); }
  const Segment& segment(Id id) const { return segs_[id]; }

  /// Every wire endpoint position ever indexed, numbered in first-seen
  /// order over the wires' (a, b) ends.
  const PointIds& endpoints() const { return node_ids_; }
  /// The endpoints() id of end `a` or `b` of segment `id`.
  std::size_t end_id(Id id, bool b) const {
    return end_node_[2 * id + (b && end_node_[2 * id + 1] != kNone)];
  }

  /// Live segments having `p` as an endpoint, ascending.
  std::vector<Id> ending_at(const Point& p) const;
  bool has_endpoint(const Point& p) const;
  /// Live segments containing `p` (endpoint or interior), ascending.
  std::vector<Id> containing(const Point& p) const;
  bool on_wire(const Point& p) const;
  bool has_junction(const Point& p) const;
  /// Label anchors (NetLabel::at) lying on live segment `id`, by position.
  /// (Their grid is built on the first call.)
  std::vector<Point> labels_on(Id id);

  /// Every live segment connected to `seeds` (which must be live): two
  /// segments join when they share an endpoint, or when both contain the
  /// same junction dot. A tee without a dot does not join. Ascending ids.
  /// Cost follows the size of the nets reached, not of the sheet.
  std::vector<Id> net_of(const std::vector<Id>& seeds);

  void remove(Id id);
  Id add(const Segment& seg);
  void add_junction(const Point& p);

  /// Write the live wires and the junction list back into `sheet`.
  void store(Sheet& sheet) const;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// Intervals on one row (horizontal segments, keyed by y) or column
  /// (vertical segments, keyed by x). `sorted` is ordered by (lo, id), and
  /// each entry's `reach` is the largest `hi` up to it, which bounds a
  /// stabbing scan. Spans added later wait in the short `recent` list
  /// until it fills up and is merged in.
  struct Line {
    struct Span {
      std::int64_t lo;
      std::int64_t hi;
      Id id;
      std::int64_t reach;
    };
    std::vector<Span> sorted;
    std::vector<Span> recent;

    void insert(const Span& span);
    /// Merge `recent` into `sorted` and recompute the reaches.
    void merge();
    template <class F>
    void stab(std::int64_t c, F&& f) const;
  };
  /// Points grouped by row and by column, each coordinate list sorted.
  struct PointGrid {
    PointIds line_ids;  ///< {0, y} names row y, {1, x} column x
    std::vector<std::vector<std::int64_t>> lines;

    std::vector<std::int64_t>& line(int axis, std::int64_t key);
    const std::vector<std::int64_t>* find(int axis, std::int64_t key) const;
    void append(const Point& p);  ///< bulk build; sort() afterwards
    void sort();
    void insert(const Point& p);  ///< keeps the lists sorted
    bool contains(const Point& p) const;
    /// Points lying on axis-parallel `s`, in row / column order.
    template <class F>
    void for_each_on(const Segment& s, F&& f) const;
  };
  /// One endpoint position: the chain of segment ends located there.
  struct Node {
    std::size_t head = kNone;
    std::size_t tail = kNone;
    std::uint64_t mark = 0;
  };

  const Line* find_line(int axis, std::int64_t key) const;
  /// Append segment `id`'s ends to their endpoint chains.
  void link(Id id);
  /// The row or column holding segment `id` (filling in its span), or
  /// nullptr for a segment that is not axis-parallel.
  Line* line_for(Id id, Line::Span& span);
  template <class F>
  void for_each_ending(std::size_t node, F&& f) const;
  template <class F>
  void for_each_containing(const Point& p, F&& f) const;

  std::vector<Segment> segs_;
  std::vector<char> live_;
  std::vector<Point> junction_list_;

  PointIds node_ids_;
  std::vector<Node> nodes_;
  /// End slot 2*id (end a) / 2*id+1 (end b): its node and the next slot of
  /// the same node. A zero-length segment occupies only its `a` slot.
  std::vector<std::size_t> end_node_;
  std::vector<std::size_t> end_next_;

  PointIds line_ids_;  ///< {0, y} names row y, {1, x} column x
  std::vector<Line> lines_;
  PointGrid junctions_;
  std::vector<Point> label_points_;
  std::optional<PointGrid> labels_;

  /// net_of scratch: a segment or node is visited when its mark == epoch_.
  std::vector<std::uint64_t> seg_mark_;
  std::uint64_t epoch_ = 0;
};

}  // namespace interop::sch
