#include "al/value.hpp"

#include "al/number.hpp"

namespace interop::al {

double Value::as_number() const {
  if (is_int()) return double(as_int());
  if (is_double()) return as_double();
  throw AlError("expected a number, got " + write());
}

namespace {

std::string quote_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Value::write() const {
  if (is_nil()) return "nil";
  if (is_bool()) return as_bool() ? "#t" : "#f";
  if (is_int()) return std::to_string(as_int());
  if (is_double()) return format_double(as_double());
  if (is_string()) return quote_string(as_string());
  if (is_symbol()) return as_symbol().name;
  if (is_builtin()) return "#<builtin>";
  if (is_vm_closure()) return "#<lambda>";
  std::string out = "(";
  const List& l = as_list();
  for (std::size_t i = 0; i < l.size(); ++i) {
    if (i) out += ' ';
    out += l[i].write();
  }
  out += ')';
  return out;
}

std::string Value::display() const {
  if (is_string()) return as_string();
  return write();
}

bool Value::equals(const Value& o) const {
  if (v_.index() != o.v_.index()) {
    // int/double cross-compare numerically
    if (is_number() && o.is_number()) return as_number() == o.as_number();
    return false;
  }
  if (is_nil()) return true;
  if (is_bool()) return as_bool() == o.as_bool();
  if (is_int()) return as_int() == o.as_int();
  if (is_double()) return as_double() == o.as_double();
  if (is_string()) return as_string() == o.as_string();
  if (is_symbol()) return as_symbol() == o.as_symbol();
  if (is_list()) {
    const List& a = as_list();
    const List& b = o.as_list();
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (!a[i].equals(b[i])) return false;
    return true;
  }
  return false;  // functions never compare equal
}

}  // namespace interop::al
