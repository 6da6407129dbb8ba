#include "schematic/textio.hpp"

#include <charconv>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "al/reader.hpp"

namespace interop::sch {

// ----------------------------------------------------------------- writer

namespace {

/// A string written between double quotes, with '"' and '\' escaped.
struct Quoted {
  const std::string& text;
};

/// Sinks for the two passes of write_design: one counts the bytes, the
/// other appends them into a string reserved at that size.
struct Measure {
  std::size_t size = 0;
  void put(std::string_view s) { size += s.size(); }
};

struct Append {
  std::string& out;
  void put(std::string_view s) { out.append(s); }
};

// Every number goes through std::to_chars, which no locale affects.
template <class Out>
void part(Out& o, std::string_view s) {
  o.put(s);
}
template <class Out>
void part(Out& o, char c) {
  o.put(std::string_view(&c, 1));
}
template <class Out>
void part(Out& o, std::int64_t v) {
  char buf[24];
  o.put({buf, std::size_t(std::to_chars(buf, buf + sizeof buf, v).ptr - buf)});
}
template <class Out>
void part(Out& o, int v) {
  part(o, std::int64_t(v));
}
/// Six significant digits, shortest of fixed and scientific: what an
/// ostream prints by default.
template <class Out>
void part(Out& o, double v) {
  char buf[32];
  auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  o.put({buf, std::size_t(r.ptr - buf)});
}
template <class Out>
void part(Out& o, Quoted q) {
  o.put("\"");
  std::string_view rest = q.text;
  std::size_t i = rest.find_first_of("\"\\");
  while (i != rest.npos) {
    o.put(rest.substr(0, i));
    o.put("\\");
    o.put(rest.substr(i, 1));
    rest.remove_prefix(i + 1);
    i = rest.find_first_of("\"\\");
  }
  o.put(rest);
  o.put("\"");
}

// The measuring pass counts integers and quoted strings without
// formatting them.
void part(Measure& o, std::int64_t v) {
  std::uint64_t u = v < 0 ? 0 - std::uint64_t(v) : std::uint64_t(v);
  std::size_t digits = 1;
  while (u >= 10) {
    u /= 10;
    ++digits;
  }
  o.size += digits + (v < 0 ? 1 : 0);
}
void part(Measure& o, Quoted q) {
  o.size += q.text.size() + 2;
  for (char c : q.text) o.size += c == '"' || c == '\\' ? 1 : 0;
}

template <class Out, class... Parts>
void emit(Out& o, const Parts&... parts) {
  (part(o, parts), ...);
}

template <class Out>
void emit_props(Out& o, const base::PropertySet& props,
                std::string_view indent) {
  for (const auto& [name, value] : props) {
    emit(o, indent, "(prop ", Quoted{name}, ' ');
    if (value.is_int())
      emit(o, "int ", value.as_int());
    else if (value.is_double())
      emit(o, "dbl ", value.as_double());
    else if (value.is_bool())
      emit(o, "bool ", value.as_bool() ? '1' : '0');
    else
      emit(o, "str ", Quoted{value.text()});
    emit(o, ")\n");
  }
}

template <class Out>
void emit_text(Out& o, const char* tag, const TextLabel& t,
               std::string_view indent) {
  emit(o, indent, '(', tag, ' ', Quoted{t.text}, ' ', t.origin.x, ' ',
       t.origin.y, ' ', t.height, ' ', t.baseline_offset, ' ',
       base::to_string(t.orient), ")\n");
}

const char* role_name(SymbolRole r) {
  switch (r) {
    case SymbolRole::Component: return "component";
    case SymbolRole::HierPort: return "hier-port";
    case SymbolRole::OffPage: return "off-page";
    case SymbolRole::GlobalNet: return "global-net";
  }
  return "component";
}

const char* dir_name(PinDir d) {
  switch (d) {
    case PinDir::Input: return "input";
    case PinDir::Output: return "output";
    case PinDir::Inout: return "inout";
  }
  return "inout";
}

template <class Out>
void emit_design(Out& o, const Design& design) {
  emit(o, "(design\n", "  (grid ", design.grid().pitch().num(), ' ',
       design.grid().pitch().den(), ")\n");

  for (const auto& [key, def] : design.symbols()) {
    emit(o, "  (symbol (key ", Quoted{key.lib}, ' ', Quoted{key.cell}, ' ',
         Quoted{key.view}, ")\n");
    emit(o, "    (role ", role_name(def.role), ")\n");
    emit(o, "    (body ", def.body.lo().x, ' ', def.body.lo().y, ' ',
         def.body.hi().x, ' ', def.body.hi().y, ")\n");
    emit(o, "    (grid ", def.grid.pitch().num(), ' ', def.grid.pitch().den(),
         ")\n");
    for (const SymbolPin& pin : def.pins)
      emit(o, "    (pin ", Quoted{pin.name}, ' ', pin.pos.x, ' ', pin.pos.y,
           ' ', dir_name(pin.dir), ")\n");
    emit_props(o, def.default_props, "    ");
    emit(o, "  )\n");
  }

  for (const auto& [cell, sch] : design.schematics()) {
    emit(o, "  (schematic ", Quoted{cell}, "\n");
    emit_props(o, sch.props, "    ");
    for (const Sheet& sheet : sch.sheets) {
      emit(o, "    (sheet ", sheet.number, "\n");
      emit(o, "      (frame ", sheet.frame.lo().x, ' ', sheet.frame.lo().y,
           ' ', sheet.frame.hi().x, ' ', sheet.frame.hi().y, ")\n");
      for (const Instance& inst : sheet.instances) {
        emit(o, "      (instance ", Quoted{inst.name}, " (key ",
             Quoted{inst.symbol.lib}, ' ', Quoted{inst.symbol.cell}, ' ',
             Quoted{inst.symbol.view}, ") (place ",
             base::to_string(inst.placement.orient()), ' ',
             inst.placement.offset().x, ' ', inst.placement.offset().y,
             ")\n");
        emit_props(o, inst.props, "        ");
        for (const TextLabel& t : inst.attached_text)
          emit_text(o, "text", t, "        ");
        emit(o, "      )\n");
      }
      for (const Segment& w : sheet.wires)
        emit(o, "      (wire ", w.a.x, ' ', w.a.y, ' ', w.b.x, ' ', w.b.y,
             ")\n");
      for (const Point& j : sheet.junctions)
        emit(o, "      (junction ", j.x, ' ', j.y, ")\n");
      for (const NetLabel& l : sheet.labels) {
        emit(o, "      (label ", Quoted{l.text}, ' ', l.at.x, ' ', l.at.y,
             "\n");
        emit_text(o, "visual", l.visual, "        ");
        emit(o, "      )\n");
      }
      for (const TextLabel& t : sheet.notes) emit_text(o, "note", t, "      ");
      emit(o, "    )\n");
    }
    emit(o, "  )\n");
  }
  emit(o, ")\n");
}

}  // namespace

std::string write_design(const Design& design) {
  Measure measure;
  emit_design(measure, design);
  std::string out;
  out.reserve(measure.size);
  Append append{out};
  emit_design(append, design);
  return out;
}

// ----------------------------------------------------------------- reader

namespace {

using al::Token;
using al::TokenKind;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("schematic read: " + what);
}

/// One tagged list — '(' then a symbol — read element by element straight
/// off the lexer. Whatever a reader leaves of an element, nested lists
/// included, is skipped by depth on the next call, without recursion.
class Fields {
 public:
  /// `first` is the list's first token. A quote counts as a list tagged
  /// "quote" ('x reads as (quote x)); no reader reads its contents, since
  /// every context ignores or rejects that tag.
  Fields(al::Lexer& lex, const Token& first) : lex_(lex) {
    if (first.kind == TokenKind::Quote) {
      tag_ = "quote";
    } else {
      if (first.kind != TokenKind::Open) fail("expected a tagged list");
      Token head = lex.next();
      if (head.kind != TokenKind::Symbol) fail("expected a tagged list");
      tag_ = head.text;  // a view of the source text, which outlives us
    }
    inner_ = lex.depth();
  }

  std::string_view tag() const { return tag_; }

  /// The first token of the next element; nullptr once the list is over.
  const Token* next() {
    if (done_) return nullptr;
    while (lex_.depth() > inner_) lex_.next();
    cur_ = lex_.next();
    if (cur_.kind == TokenKind::Close) done_ = true;
    return done_ ? nullptr : &cur_;
  }

  /// The next element as a tagged list of its own.
  Fields open(const Token& first) { return Fields(lex_, first); }

  std::int64_t num() {
    const Token* t = next();
    if (!t || t->kind != TokenKind::Int) fail("expected integer field");
    return t->i;
  }
  std::string str() { return std::string(text(TokenKind::String, "string")); }
  std::string sym() { return std::string(text(TokenKind::Symbol, "symbol")); }

 private:
  std::string_view text(TokenKind kind, const char* what) {
    const Token* t = next();
    if (!t || t->kind != kind)
      fail(std::string("expected ") + what + " field");
    return t->text;
  }

  al::Lexer& lex_;
  std::string_view tag_;
  std::size_t inner_ = 0;  ///< lexer depth inside this list
  Token cur_;
  bool done_ = false;
};

void warn_unknown(base::DiagnosticEngine& diags, const char* where,
                  const Fields& field, std::string object) {
  diags.warn("unknown-field",
             std::string(where) + " field '" + std::string(field.tag()) +
                 "' ignored",
             {"sch.textio", std::move(object)});
}

Point read_point(Fields& f) {
  Point p;
  p.x = f.num();
  p.y = f.num();
  return p;
}

Rect read_rect(Fields& f) {
  Point a = read_point(f);
  return Rect(a, read_point(f));
}

base::Grid read_grid(Fields& f) {
  std::int64_t num = f.num();
  return base::Grid(base::Rational(num, f.num()));
}

SymbolKey read_key(Fields& f) {
  SymbolKey key;
  key.lib = f.str();
  key.cell = f.str();
  key.view = f.str();
  return key;
}

Orient read_orient(Fields& f, const char* where) {
  std::optional<Orient> o = base::orient_from_string(f.sym());
  if (!o) fail(std::string("bad orient in ") + where);
  return *o;
}

TextLabel read_text(Fields& f) {
  TextLabel t;
  t.text = f.str();
  t.origin = read_point(f);
  t.height = f.num();
  t.baseline_offset = f.num();
  t.orient = read_orient(f, "text");
  return t;
}

/// (prop NAME TYPE VALUE). The value is checked before the name, the
/// order the format's errors have always been reported in.
void read_prop(Fields& f, base::PropertySet& props) {
  const Token* t = f.next();
  std::optional<std::string> name;
  if (t && t->kind == TokenKind::String) name.emplace(t->text);

  const std::string type = f.sym();
  base::PropertyValue value;
  if (type == "int") {
    value = base::PropertyValue(f.num());
  } else if (type == "bool") {
    value = base::PropertyValue(f.num() != 0);
  } else if (type == "dbl") {
    const Token* v = f.next();
    if (v && v->kind == TokenKind::Int)
      value = base::PropertyValue(double(v->i));
    else if (v && v->kind == TokenKind::Double)
      value = base::PropertyValue(v->d);
    else
      fail("expected numeric dbl field");
  } else {
    value = base::PropertyValue(f.str());
  }
  if (!name) fail("expected string field");
  props.set(*name, std::move(value));
}

PinDir read_dir(const std::string& s) {
  if (s == "input") return PinDir::Input;
  if (s == "output") return PinDir::Output;
  return PinDir::Inout;
}

SymbolRole read_role(const std::string& s) {
  if (s == "hier-port") return SymbolRole::HierPort;
  if (s == "off-page") return SymbolRole::OffPage;
  if (s == "global-net") return SymbolRole::GlobalNet;
  return SymbolRole::Component;
}

SymbolDef read_symbol(Fields& f, base::DiagnosticEngine& diags) {
  SymbolDef def;
  while (const Token* t = f.next()) {
    Fields field = f.open(*t);
    const std::string_view tag = field.tag();
    if (tag == "key") {
      def.key = read_key(field);
    } else if (tag == "role") {
      def.role = read_role(field.sym());
    } else if (tag == "body") {
      def.body = read_rect(field);
    } else if (tag == "grid") {
      def.grid = read_grid(field);
    } else if (tag == "pin") {
      SymbolPin pin;
      pin.name = field.str();
      pin.pos = read_point(field);
      pin.dir = read_dir(field.sym());
      def.pins.push_back(std::move(pin));
    } else if (tag == "prop") {
      read_prop(field, def.default_props);
    } else {
      warn_unknown(diags, "symbol", field, def.key.str());
    }
  }
  return def;
}

Instance read_instance(Fields& f, base::DiagnosticEngine& diags) {
  Instance inst;
  inst.name = f.str();
  while (const Token* t = f.next()) {
    Fields field = f.open(*t);
    const std::string_view tag = field.tag();
    if (tag == "key") {
      inst.symbol = read_key(field);
    } else if (tag == "place") {
      Orient o = read_orient(field, "place");
      inst.placement = Transform(o, read_point(field));
    } else if (tag == "prop") {
      read_prop(field, inst.props);
    } else if (tag == "text") {
      inst.attached_text.push_back(read_text(field));
    } else {
      warn_unknown(diags, "instance", field, inst.name);
    }
  }
  return inst;
}

Sheet read_sheet(Fields& f, const std::string& cell,
                 base::DiagnosticEngine& diags) {
  Sheet sheet;
  sheet.number = int(f.num());
  while (const Token* t = f.next()) {
    Fields field = f.open(*t);
    const std::string_view tag = field.tag();
    if (tag == "instance") {
      sheet.instances.push_back(read_instance(field, diags));
    } else if (tag == "wire") {
      Point a = read_point(field);
      sheet.wires.push_back({a, read_point(field)});
    } else if (tag == "frame") {
      sheet.frame = read_rect(field);
    } else if (tag == "junction") {
      sheet.junctions.push_back(read_point(field));
    } else if (tag == "note") {
      sheet.notes.push_back(read_text(field));
    } else if (tag == "label") {
      NetLabel label;
      label.text = field.str();
      label.at = read_point(field);
      // Later fields must be tagged lists; only a visual is read.
      while (const Token* v = field.next()) {
        Fields visual = field.open(*v);
        if (visual.tag() == "visual") label.visual = read_text(visual);
      }
      sheet.labels.push_back(std::move(label));
    } else {
      warn_unknown(diags, "sheet", field, cell);
    }
  }
  return sheet;
}

Schematic read_schematic(Fields& f, base::DiagnosticEngine& diags) {
  Schematic sch;
  sch.cell = f.str();
  while (const Token* t = f.next()) {
    Fields field = f.open(*t);
    if (field.tag() == "prop")
      read_prop(field, sch.props);
    else if (field.tag() == "sheet")
      sch.sheets.push_back(read_sheet(field, sch.cell, diags));
    else
      warn_unknown(diags, "schematic", field, sch.cell);
  }
  return sch;
}

/// The first top-level form, which must be (design ...).
void read_top(al::Lexer& lex, const Token& first, Design& design,
              base::DiagnosticEngine& diags) {
  Fields top(lex, first);
  if (top.tag() != "design") fail("expected a single (design ...) form");
  while (const Token* t = top.next()) {
    Fields item = top.open(*t);
    if (item.tag() == "grid")
      design.set_grid(read_grid(item));
    else if (item.tag() == "symbol")
      design.add_symbol(read_symbol(item, diags));
    else if (item.tag() == "schematic")
      design.add_schematic(read_schematic(item, diags));
    else
      warn_unknown(diags, "design", item, "");
  }
}

}  // namespace

Design read_design(const std::string& text, base::DiagnosticEngine& diags) {
  // One pass over the tokens. The format's precedence still holds: a
  // syntax error (AlError) anywhere in the text beats a structure error
  // and suppresses unknown-field warnings, and a second top-level form
  // beats both. So a structure error is held while the rest of the text
  // is lexed, and warnings are held until the end.
  al::Lexer lex(text);
  Design design(base::Grid(base::Rational(1)));
  base::DiagnosticEngine held;
  std::exception_ptr failure;
  std::size_t forms = 0;
  for (Token t = lex.next(); t.kind != TokenKind::End; t = lex.next()) {
    if (forms++ == 0) {
      try {
        read_top(lex, t, design, held);
      } catch (const al::AlError&) {
        throw;
      } catch (...) {
        failure = std::current_exception();
      }
    }
    while (lex.depth() > 0) lex.next();
  }
  if (forms != 1) fail("expected a single (design ...) form");
  for (const base::Diagnostic& d : held.all())
    diags.report(d.severity, d.code, d.message, d.location);
  if (failure) std::rethrow_exception(failure);
  return design;
}

}  // namespace interop::sch
