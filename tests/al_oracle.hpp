#pragma once
// The a/L reference oracle: a recursive tree-walking evaluator, kept beside
// the tests so that the product's one evaluator (compiler + VM) has an
// independent implementation to be compared with.
//
// The walker shares nothing with the VM but the reader and the builtins.
// Builtins are looked up in a host al::Interpreter's global frame, so map,
// filter and foldl reach oracle closures through the host's call(). The
// oracle owns its scope frames (its own Frame type and live counter), the
// special forms, the call protocol, the step and call-depth guards, and a
// mark/sweep collector over its frame arena.
//
// Oracle closures are al::Builtin values whose target is the oracle's own
// closure type. They capture their frame weakly, so the arena stays the
// only owner and the collector reclaims closure cycles, exactly as the VM
// does with VmClosure. oracle::write prints them as `#<lambda>`; builtins
// that print their arguments through Value::display (string-append,
// number->string) print an oracle closure as `#<builtin>`, where the VM
// prints `#<lambda>`.
//
// callback_replay() replays a migration's property step (rules, then a/L
// callbacks) per instance through the product's sch::CallbackHost and
// through the oracle with its own prop-* bridge.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "al/interp.hpp"
#include "al/value.hpp"
#include "schematic/mapping.hpp"
#include "schematic/model.hpp"

namespace interop::al::oracle {

/// A lexical scope frame owned by a Walker's arena.
struct Frame {
  explicit Frame(std::shared_ptr<Frame> parent);
  ~Frame();
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  /// Frames alive in the process (the oracle's analogue of
  /// al::Environment::live_count()).
  static std::int64_t live_count();

  std::unordered_map<std::string, Value> vars;
  std::shared_ptr<Frame> parent;
  bool marked = false;  ///< collector scratch
};

/// The tree-walking evaluator. Same defaults, guards and error messages as
/// al::Interpreter.
class Walker {
 public:
  /// `host` supplies the builtins and must outlive the walker.
  explicit Walker(Interpreter& host);
  /// Teardown frees every arena frame regardless of closure cycles.
  ~Walker();
  Walker(const Walker&) = delete;
  Walker& operator=(const Walker&) = delete;

  /// Read and evaluate every form in `source`; returns the last result.
  Value eval_source(const std::string& source);
  /// Call a callable value with arguments.
  Value call(const Value& fn, std::vector<Value> args);

  void set_step_limit(std::size_t steps) { step_limit_ = steps; }
  void set_max_call_depth(std::size_t depth) { max_call_depth_ = depth; }

  /// Reclaim frames kept alive only by unreachable closure cycles; 0 when
  /// called mid-evaluation. Runs automatically every 64 frame
  /// allocations, like the product's.
  std::size_t collect_garbage();
  /// Frames currently owned by the arena (includes the global frame).
  std::size_t arena_frames() const { return arena_.size(); }

  struct Closure;

 private:
  friend struct ClosureFn;

  Value eval(const Value& form, std::shared_ptr<Frame> env);
  Value eval_inner(const Value& form, std::shared_ptr<Frame> env);
  /// Run `clo`'s body in a fresh frame over `captured`.
  Value apply(const Closure& clo, std::shared_ptr<Frame> captured,
              std::vector<Value>& args);
  Value make_closure(std::vector<std::string> params, std::vector<Value> body,
                     const std::shared_ptr<Frame>& env);
  std::shared_ptr<Frame> new_frame(std::shared_ptr<Frame> parent);
  void maybe_collect();

  Value lookup(const std::string& name, const Frame& env) const;
  void assign(const std::string& name, Value v, Frame& env);

  Interpreter& host_;
  std::shared_ptr<Frame> global_;
  std::vector<std::shared_ptr<Frame>> arena_;
  /// Every closure ever created, weakly: the collector's root candidates.
  std::vector<std::weak_ptr<Closure>> closures_;
  std::size_t frames_since_gc_ = 0;
  static constexpr std::size_t kGcThreshold = 64;
  std::size_t step_limit_ = 0;
  std::size_t steps_used_ = 0;
  std::size_t max_call_depth_ = 512;
  std::size_t call_depth_ = 0;
  int depth_ = 0;
};

/// Value::write, with oracle closures printed as `#<lambda>`.
std::string write(const Value& v);

/// The prop-* handle bridge of sch::CallbackHost, written against the
/// oracle: same builtins, arity and handle checks, step limit and
/// diagnostic. Re-evaluates the rule source on every run.
class CallbackOracle {
 public:
  CallbackOracle();
  bool run(const sch::CallbackRule& rule, const std::string& cell,
           base::PropertySet& props, base::DiagnosticEngine& diags);

 private:
  Interpreter host_;
  Walker walker_{host_};
  base::PropertySet* current_ = nullptr;
};

/// Result of replaying step 2 of sch::migrate_design on every source
/// instance, in migration order.
struct CallbackReplay {
  /// Callback runs that succeeded in the product, counted as the
  /// migration report counts them.
  std::size_t callbacks_run = 0;
  /// Product "callback-failed" diagnostics.
  std::size_t callback_errors = 0;
  /// One line per instance whose properties, per-call results or
  /// diagnostics differ between the product and the oracle.
  std::vector<std::string> mismatches;
};

/// Apply `rules` (property rules, then each callback rule) to two copies
/// of every instance's properties in `source`: one through
/// sch::apply_property_rules + sch::CallbackHost, one through
/// sch::apply_property_rules + CallbackOracle, and compare them.
CallbackReplay callback_replay(const sch::Design& source,
                               const sch::PropertyRuleSet& rules);

}  // namespace interop::al::oracle
