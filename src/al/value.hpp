#pragma once
// Values of the a/L extension language.
//
// a/L ("Access Language") is the paper's Lisp dialect: user-written callbacks
// that run during schematic migration and reformat non-standard properties so
// that "a high degree of automation with no manual post translation cleanup"
// is achieved. This is a small, strict, lexically-scoped Lisp.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace interop::al {

class Value;
class Environment;

/// Error raised by the reader or evaluator.
class AlError : public std::runtime_error {
 public:
  explicit AlError(const std::string& what) : std::runtime_error(what) {}
};

/// A native function exposed to a/L code.
using Builtin = std::function<Value(std::vector<Value>&)>;

/// A closure over compiled bytecode (see bytecode.hpp).
///
/// Its captured frame is held as a NON-OWNING handle: the defining
/// Interpreter's environment arena owns every frame, and its cycle
/// collector keeps a frame alive exactly as long as some reachable closure
/// still captures it. This breaks the Environment <-> closure shared_ptr
/// cycle that used to leak lambda-heavy programs at interpreter teardown.
struct VmClosure;

/// Interned symbol (distinct from string).
struct Symbol {
  std::string name;
  friend bool operator==(const Symbol&, const Symbol&) = default;
};

/// An a/L value. Lists are vectors (proper lists only; no dotted pairs).
class Value {
 public:
  using List = std::vector<Value>;

  Value() : v_(std::monostate{}) {}                         // nil
  Value(bool b) : v_(b) {}                                  // NOLINT
  Value(std::int64_t i) : v_(i) {}                          // NOLINT
  Value(int i) : v_(std::int64_t(i)) {}                     // NOLINT
  Value(double d) : v_(d) {}                                // NOLINT
  Value(std::string s) : v_(std::move(s)) {}                // NOLINT
  Value(const char* s) : v_(std::string(s)) {}              // NOLINT
  Value(Symbol s) : v_(std::move(s)) {}                     // NOLINT
  Value(List l) : v_(std::move(l)) {}                       // NOLINT
  Value(Builtin f) : v_(std::move(f)) {}                    // NOLINT
  Value(std::shared_ptr<VmClosure> c) : v_(std::move(c)) {} // NOLINT

  static Value nil() { return Value(); }
  static Value sym(std::string name) { return Value(Symbol{std::move(name)}); }

  bool is_nil() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_symbol() const { return std::holds_alternative<Symbol>(v_); }
  bool is_list() const { return std::holds_alternative<List>(v_); }
  bool is_builtin() const { return std::holds_alternative<Builtin>(v_); }
  bool is_vm_closure() const {
    return std::holds_alternative<std::shared_ptr<VmClosure>>(v_);
  }
  bool is_callable() const { return is_builtin() || is_vm_closure(); }

  bool as_bool() const { return std::get<bool>(v_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  /// Numeric value widened to double; throws AlError on non-numbers.
  double as_number() const;
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Symbol& as_symbol() const { return std::get<Symbol>(v_); }
  const List& as_list() const { return std::get<List>(v_); }
  List& as_list() { return std::get<List>(v_); }
  const Builtin& as_builtin() const { return std::get<Builtin>(v_); }
  const std::shared_ptr<VmClosure>& as_vm_closure() const {
    return std::get<std::shared_ptr<VmClosure>>(v_);
  }

  /// a/L truthiness: everything except nil and #f is true.
  bool truthy() const { return !is_nil() && !(is_bool() && !as_bool()); }

  /// Printed form (round-trips through the reader for data values).
  std::string write() const;
  /// Display form: strings without quotes; otherwise same as write().
  std::string display() const;

  /// Structural equality on data (functions compare by identity-never-equal).
  bool equals(const Value& o) const;

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string, Symbol,
               List, Builtin, std::shared_ptr<VmClosure>>
      v_;
};

}  // namespace interop::al
