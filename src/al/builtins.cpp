// Standard builtins of the a/L language: arithmetic, comparison, strings,
// lists, and type predicates. Property-access builtins are registered by the
// migration engine (sch/callbacks.cpp), not here, so the language core stays
// host-independent.

#include <algorithm>
#include <cmath>
#include <limits>

#include "al/interp.hpp"
#include "al/number.hpp"
#include "base/strings.hpp"

namespace interop::al {

namespace {

constexpr std::int64_t kIntMin = std::numeric_limits<std::int64_t>::min();

void expect_arity(const std::vector<Value>& args, std::size_t n,
                  const char* name) {
  if (args.size() != n)
    throw AlError(std::string(name) + ": expected " + std::to_string(n) +
                  " arguments, got " + std::to_string(args.size()));
}

void expect_min_arity(const std::vector<Value>& args, std::size_t n,
                      const char* name) {
  if (args.size() < n)
    throw AlError(std::string(name) + ": expected at least " +
                  std::to_string(n) + " arguments");
}

bool all_ints(const std::vector<Value>& args) {
  return std::all_of(args.begin(), args.end(),
                     [](const Value& v) { return v.is_int(); });
}

[[noreturn]] void overflow(const char* name) {
  throw AlError(std::string(name) + ": integer overflow");
}

/// Integer folds are checked: `fi` stores x op y and returns true when the
/// exact result does not fit in int64 (a/L integers never wrap).
Value numeric_fold(std::vector<Value>& args, const char* name,
                   bool (*fi)(std::int64_t, std::int64_t, std::int64_t*),
                   double (*fd)(double, double)) {
  expect_min_arity(args, 2, name);
  if (all_ints(args)) {
    std::int64_t acc = args[0].as_int();
    for (std::size_t i = 1; i < args.size(); ++i)
      if (fi(acc, args[i].as_int(), &acc)) overflow(name);
    return Value(acc);
  }
  double acc = args[0].as_number();
  for (std::size_t i = 1; i < args.size(); ++i)
    acc = fd(acc, args[i].as_number());
  return Value(acc);
}

Value compare_chain(std::vector<Value>& args, const char* name,
                    bool (*cmp)(double, double)) {
  expect_min_arity(args, 2, name);
  for (std::size_t i = 0; i + 1 < args.size(); ++i)
    if (!cmp(args[i].as_number(), args[i + 1].as_number()))
      return Value(false);
  return Value(true);
}

const std::string& str_arg(const std::vector<Value>& args, std::size_t i,
                           const char* name) {
  if (i >= args.size() || !args[i].is_string())
    throw AlError(std::string(name) + ": expected a string argument");
  return args[i].as_string();
}

}  // namespace

void install_builtins(Interpreter& interp) {
  // ---- arithmetic ----
  interp.register_builtin("+", [](std::vector<Value>& a) {
    if (a.empty()) return Value(std::int64_t(0));
    if (a.size() == 1) return a[0];
    return numeric_fold(
        a, "+",
        [](std::int64_t x, std::int64_t y, std::int64_t* r) {
          return __builtin_add_overflow(x, y, r);
        },
        [](double x, double y) { return x + y; });
  });
  interp.register_builtin("-", [](std::vector<Value>& a) {
    expect_min_arity(a, 1, "-");
    if (a.size() == 1 && a[0].is_int()) {
      if (a[0].as_int() == kIntMin) overflow("-");
      return Value(-a[0].as_int());
    }
    if (a.size() == 1) return Value(-a[0].as_number());
    return numeric_fold(
        a, "-",
        [](std::int64_t x, std::int64_t y, std::int64_t* r) {
          return __builtin_sub_overflow(x, y, r);
        },
        [](double x, double y) { return x - y; });
  });
  interp.register_builtin("*", [](std::vector<Value>& a) {
    if (a.empty()) return Value(std::int64_t(1));
    if (a.size() == 1) return a[0];
    return numeric_fold(
        a, "*",
        [](std::int64_t x, std::int64_t y, std::int64_t* r) {
          return __builtin_mul_overflow(x, y, r);
        },
        [](double x, double y) { return x * y; });
  });
  interp.register_builtin("/", [](std::vector<Value>& a) {
    expect_arity(a, 2, "/");
    double den = a[1].as_number();
    if (den == 0.0) throw AlError("/: division by zero");
    if (a[0].is_int() && a[1].is_int() && a[0].as_int() == kIntMin &&
        a[1].as_int() == -1)
      overflow("/");
    if (a[0].is_int() && a[1].is_int() &&
        a[0].as_int() % a[1].as_int() == 0)
      return Value(a[0].as_int() / a[1].as_int());
    return Value(a[0].as_number() / den);
  });
  interp.register_builtin("mod", [](std::vector<Value>& a) {
    expect_arity(a, 2, "mod");
    if (!a[0].is_int() || !a[1].is_int())
      throw AlError("mod: expects integers");
    if (a[1].as_int() == 0) throw AlError("mod: division by zero");
    if (a[0].as_int() == kIntMin && a[1].as_int() == -1) overflow("mod");
    return Value(a[0].as_int() % a[1].as_int());
  });
  interp.register_builtin("abs", [](std::vector<Value>& a) {
    expect_arity(a, 1, "abs");
    if (a[0].is_int()) {
      if (a[0].as_int() == kIntMin) overflow("abs");
      return Value(std::abs(a[0].as_int()));
    }
    return Value(std::fabs(a[0].as_number()));
  });
  interp.register_builtin("min", [](std::vector<Value>& a) {
    return numeric_fold(
        a, "min",
        [](std::int64_t x, std::int64_t y, std::int64_t* r) {
          *r = std::min(x, y);
          return false;
        },
        [](double x, double y) { return std::min(x, y); });
  });
  interp.register_builtin("max", [](std::vector<Value>& a) {
    return numeric_fold(
        a, "max",
        [](std::int64_t x, std::int64_t y, std::int64_t* r) {
          *r = std::max(x, y);
          return false;
        },
        [](double x, double y) { return std::max(x, y); });
  });
  interp.register_builtin("floor", [](std::vector<Value>& a) {
    expect_arity(a, 1, "floor");
    return Value(std::int64_t(std::floor(a[0].as_number())));
  });
  interp.register_builtin("round", [](std::vector<Value>& a) {
    expect_arity(a, 1, "round");
    return Value(std::int64_t(std::llround(a[0].as_number())));
  });

  // ---- comparison / equality ----
  interp.register_builtin("=", [](std::vector<Value>& a) {
    return compare_chain(a, "=", [](double x, double y) { return x == y; });
  });
  interp.register_builtin("<", [](std::vector<Value>& a) {
    return compare_chain(a, "<", [](double x, double y) { return x < y; });
  });
  interp.register_builtin(">", [](std::vector<Value>& a) {
    return compare_chain(a, ">", [](double x, double y) { return x > y; });
  });
  interp.register_builtin("<=", [](std::vector<Value>& a) {
    return compare_chain(a, "<=", [](double x, double y) { return x <= y; });
  });
  interp.register_builtin(">=", [](std::vector<Value>& a) {
    return compare_chain(a, ">=", [](double x, double y) { return x >= y; });
  });
  interp.register_builtin("equal?", [](std::vector<Value>& a) {
    expect_arity(a, 2, "equal?");
    return Value(a[0].equals(a[1]));
  });
  interp.register_builtin("not", [](std::vector<Value>& a) {
    expect_arity(a, 1, "not");
    return Value(!a[0].truthy());
  });

  // ---- type predicates ----
  interp.register_builtin("nil?", [](std::vector<Value>& a) {
    expect_arity(a, 1, "nil?");
    return Value(a[0].is_nil());
  });
  interp.register_builtin("number?", [](std::vector<Value>& a) {
    expect_arity(a, 1, "number?");
    return Value(a[0].is_number());
  });
  interp.register_builtin("string?", [](std::vector<Value>& a) {
    expect_arity(a, 1, "string?");
    return Value(a[0].is_string());
  });
  interp.register_builtin("list?", [](std::vector<Value>& a) {
    expect_arity(a, 1, "list?");
    return Value(a[0].is_list());
  });
  interp.register_builtin("symbol?", [](std::vector<Value>& a) {
    expect_arity(a, 1, "symbol?");
    return Value(a[0].is_symbol());
  });

  // ---- strings ----
  interp.register_builtin("string-append", [](std::vector<Value>& a) {
    std::string out;
    for (const Value& v : a) out += v.display();
    return Value(std::move(out));
  });
  interp.register_builtin("string-length", [](std::vector<Value>& a) {
    expect_arity(a, 1, "string-length");
    return Value(std::int64_t(str_arg(a, 0, "string-length").size()));
  });
  interp.register_builtin("substring", [](std::vector<Value>& a) {
    expect_arity(a, 3, "substring");
    const std::string& s = str_arg(a, 0, "substring");
    std::int64_t from = a[1].as_int();
    std::int64_t to = a[2].as_int();
    if (from < 0 || to < from || std::size_t(to) > s.size())
      throw AlError("substring: index out of range");
    return Value(s.substr(std::size_t(from), std::size_t(to - from)));
  });
  interp.register_builtin("string-upcase", [](std::vector<Value>& a) {
    expect_arity(a, 1, "string-upcase");
    return Value(base::to_upper(str_arg(a, 0, "string-upcase")));
  });
  interp.register_builtin("string-downcase", [](std::vector<Value>& a) {
    expect_arity(a, 1, "string-downcase");
    return Value(base::to_lower(str_arg(a, 0, "string-downcase")));
  });
  interp.register_builtin("string-split", [](std::vector<Value>& a) {
    expect_arity(a, 2, "string-split");
    const std::string& s = str_arg(a, 0, "string-split");
    const std::string& sep = str_arg(a, 1, "string-split");
    if (sep.size() != 1)
      throw AlError("string-split: separator must be one character");
    Value::List out;
    for (std::string& part : base::split(s, sep[0]))
      out.emplace_back(std::move(part));
    return Value(std::move(out));
  });
  interp.register_builtin("string-replace", [](std::vector<Value>& a) {
    expect_arity(a, 3, "string-replace");
    return Value(base::replace_all(str_arg(a, 0, "string-replace"),
                                   str_arg(a, 1, "string-replace"),
                                   str_arg(a, 2, "string-replace")));
  });
  interp.register_builtin("string-index", [](std::vector<Value>& a) {
    expect_arity(a, 2, "string-index");
    std::size_t pos =
        str_arg(a, 0, "string-index").find(str_arg(a, 1, "string-index"));
    if (pos == std::string::npos) return Value(false);
    return Value(std::int64_t(pos));
  });
  interp.register_builtin("string-prefix?", [](std::vector<Value>& a) {
    expect_arity(a, 2, "string-prefix?");
    return Value(base::starts_with(str_arg(a, 0, "string-prefix?"),
                                   str_arg(a, 1, "string-prefix?")));
  });
  interp.register_builtin("string-suffix?", [](std::vector<Value>& a) {
    expect_arity(a, 2, "string-suffix?");
    return Value(base::ends_with(str_arg(a, 0, "string-suffix?"),
                                 str_arg(a, 1, "string-suffix?")));
  });
  interp.register_builtin("string-trim", [](std::vector<Value>& a) {
    expect_arity(a, 1, "string-trim");
    return Value(base::trim(str_arg(a, 0, "string-trim")));
  });
  interp.register_builtin("string->number", [](std::vector<Value>& a) {
    expect_arity(a, 1, "string->number");
    const std::string& s = str_arg(a, 0, "string->number");
    // Same locale-independent, range-checked parse as the reader, so
    // (string->number (number->string x)) round-trips for every number.
    if (std::optional<std::int64_t> i = parse_int64(s)) return Value(*i);
    if (std::optional<double> d = parse_double(s)) return Value(*d);
    return Value(false);
  });
  interp.register_builtin("number->string", [](std::vector<Value>& a) {
    expect_arity(a, 1, "number->string");
    if (!a[0].is_number()) throw AlError("number->string: expects a number");
    return Value(a[0].display());
  });
  interp.register_builtin("symbol->string", [](std::vector<Value>& a) {
    expect_arity(a, 1, "symbol->string");
    if (!a[0].is_symbol()) throw AlError("symbol->string: expects a symbol");
    return Value(a[0].as_symbol().name);
  });

  // ---- lists ----
  interp.register_builtin("list", [](std::vector<Value>& a) {
    return Value(Value::List(a.begin(), a.end()));
  });
  interp.register_builtin("length", [](std::vector<Value>& a) {
    expect_arity(a, 1, "length");
    if (!a[0].is_list()) throw AlError("length: expects a list");
    return Value(std::int64_t(a[0].as_list().size()));
  });
  interp.register_builtin("first", [](std::vector<Value>& a) {
    expect_arity(a, 1, "first");
    if (!a[0].is_list() || a[0].as_list().empty())
      throw AlError("first: expects a non-empty list");
    return a[0].as_list().front();
  });
  interp.register_builtin("rest", [](std::vector<Value>& a) {
    expect_arity(a, 1, "rest");
    if (!a[0].is_list() || a[0].as_list().empty())
      throw AlError("rest: expects a non-empty list");
    const Value::List& l = a[0].as_list();
    return Value(Value::List(l.begin() + 1, l.end()));
  });
  interp.register_builtin("cons", [](std::vector<Value>& a) {
    expect_arity(a, 2, "cons");
    if (!a[1].is_list()) throw AlError("cons: second argument must be a list");
    Value::List out;
    out.reserve(a[1].as_list().size() + 1);
    out.push_back(a[0]);
    for (const Value& v : a[1].as_list()) out.push_back(v);
    return Value(std::move(out));
  });
  interp.register_builtin("append", [](std::vector<Value>& a) {
    Value::List out;
    for (const Value& v : a) {
      if (!v.is_list()) throw AlError("append: expects lists");
      for (const Value& item : v.as_list()) out.push_back(item);
    }
    return Value(std::move(out));
  });
  interp.register_builtin("nth", [](std::vector<Value>& a) {
    expect_arity(a, 2, "nth");
    if (!a[0].is_list() || !a[1].is_int())
      throw AlError("nth: expects (list index)");
    const Value::List& l = a[0].as_list();
    std::int64_t i = a[1].as_int();
    if (i < 0 || std::size_t(i) >= l.size())
      throw AlError("nth: index out of range");
    return l[std::size_t(i)];
  });
  interp.register_builtin("reverse", [](std::vector<Value>& a) {
    expect_arity(a, 1, "reverse");
    if (!a[0].is_list()) throw AlError("reverse: expects a list");
    Value::List out(a[0].as_list().rbegin(), a[0].as_list().rend());
    return Value(std::move(out));
  });
}

// map/filter need the interpreter for calling lambdas; installed separately
// by Interpreter's constructor via install_builtins would need a handle. We
// instead expose them through a second hook that captures the interpreter.
void install_higher_order(Interpreter& interp) {
  interp.register_builtin("map", [&interp](std::vector<Value>& a) {
    expect_arity(a, 2, "map");
    if (!a[0].is_callable() || !a[1].is_list())
      throw AlError("map: expects (fn list)");
    Value::List out;
    out.reserve(a[1].as_list().size());
    for (const Value& item : a[1].as_list())
      out.push_back(interp.call(a[0], {item}));
    return Value(std::move(out));
  });
  interp.register_builtin("filter", [&interp](std::vector<Value>& a) {
    expect_arity(a, 2, "filter");
    if (!a[0].is_callable() || !a[1].is_list())
      throw AlError("filter: expects (fn list)");
    Value::List out;
    for (const Value& item : a[1].as_list())
      if (interp.call(a[0], {item}).truthy()) out.push_back(item);
    return Value(std::move(out));
  });
  interp.register_builtin("foldl", [&interp](std::vector<Value>& a) {
    expect_arity(a, 3, "foldl");
    if (!a[0].is_callable() || !a[2].is_list())
      throw AlError("foldl: expects (fn init list)");
    Value acc = a[1];
    for (const Value& item : a[2].as_list())
      acc = interp.call(a[0], {acc, item});
    return acc;
  });
}

}  // namespace interop::al
