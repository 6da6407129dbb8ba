#pragma once
// The a/L evaluator: lexically scoped, strict, with the special forms a
// migration-callback DSL needs (quote, if, cond, define, set!, lambda, let,
// begin, and, or, while).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "al/bytecode.hpp"
#include "al/value.hpp"

namespace interop::al {

class Vm;

/// A lexical scope frame. The Interpreter's environment arena owns every
/// frame it creates; closures capture frames through non-owning handles
/// (see VmClosure), so the strong ownership graph is acyclic: arena slot ->
/// frame -> parent frame. A mark/sweep pass over the arena reclaims frames
/// that only dead closures still reference (the classic `(define (f) (f))`
/// self-capture cycle).
class Environment : public std::enable_shared_from_this<Environment> {
 public:
  /// Standalone constructor for frames NOT owned by an interpreter arena.
  /// Closures defined in such a frame pin it strongly (VmClosure::pinned).
  static std::shared_ptr<Environment> make(
      std::shared_ptr<Environment> parent = nullptr) {
    return std::shared_ptr<Environment>(new Environment(std::move(parent)));
  }

  ~Environment() { live_.fetch_sub(1, std::memory_order_relaxed); }

  /// Number of Environment instances currently alive in the process
  /// (debug/regression instrument: lambda-heavy programs must keep this
  /// bounded, and it must return to its prior value at Interpreter
  /// teardown).
  static std::int64_t live_count() {
    return live_.load(std::memory_order_relaxed);
  }

  /// Define (or redefine) `name` in this frame.
  void define(const std::string& name, Value v);
  /// Assign to the nearest frame where `name` is defined; throws if unbound.
  void assign(const std::string& name, Value v);
  /// Look `name` up through the parent chain; throws if unbound.
  const Value& lookup(const std::string& name) const;
  bool bound(const std::string& name) const;

 private:
  friend class Interpreter;
  friend class Vm;

  explicit Environment(std::shared_ptr<Environment> parent)
      : parent_(std::move(parent)) {
    live_.fetch_add(1, std::memory_order_relaxed);
  }

  std::unordered_map<std::string, Value> vars_;
  std::shared_ptr<Environment> parent_;
  bool arena_owned_ = false;  ///< frame lives in an Interpreter's arena
  bool marked_ = false;       ///< collector scratch

  static std::atomic<std::int64_t> live_;
};

/// The interpreter. Construct, optionally register host builtins, then
/// eval forms or source strings.
class Interpreter {
 public:
  /// Creates the global environment pre-loaded with the standard builtins
  /// (arithmetic, comparison, string, list; see builtins.cpp).
  Interpreter();
  /// Teardown frees every arena frame regardless of closure cycles.
  ~Interpreter();

  // Builtins like map/filter capture `this`; pin the object.
  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  std::shared_ptr<Environment> global() { return global_; }

  /// Register a host function callable from a/L code.
  void register_builtin(const std::string& name, Builtin fn);

  /// Evaluate one form in the global environment. Forms compile to the
  /// VM (vm.hpp).
  Value eval(const Value& form);
  Value eval(const Value& form, const std::shared_ptr<Environment>& env);

  /// Read and evaluate every form in `source`; returns the last result.
  /// The compiled unit is cached per source string, so a migration
  /// callback re-run per object skips re-reading and re-compiling.
  Value eval_source(const std::string& source);

  /// Call a callable value with arguments.
  Value call(const Value& fn, std::vector<Value> args);

  /// Evaluation-step budget per eval_source/eval call tree; guards callbacks
  /// against runaway loops. 0 = unlimited.
  void set_step_limit(std::size_t steps) { step_limit_ = steps; }

  /// Maximum lambda-call nesting before an AlError (guards the host stack
  /// against runaway recursion). Default 512.
  void set_max_call_depth(std::size_t depth) { max_call_depth_ = depth; }

  // --- Environment arena -------------------------------------------------

  /// Reclaim arena frames kept alive only by unreachable closure cycles.
  /// Runs automatically between top-level evaluations once gc_threshold
  /// frames have been allocated; callable directly for tests. Returns the
  /// number of frames freed (0 when called mid-evaluation, where a
  /// collection would be unsafe).
  std::size_t collect_garbage();

  /// Frame allocations between automatic collections (default 64).
  void set_gc_threshold(std::size_t frames) { gc_threshold_ = frames; }

  /// Frames currently owned by the arena (includes the global frame).
  std::size_t arena_frames() const { return arena_.size(); }

  /// Bound on the compile cache: cleared wholesale past this many entries
  /// (callback workloads have a handful of distinct sources; anything
  /// larger is a misuse, not a working set).
  static constexpr std::size_t kCompileCacheMax = 256;

 private:
  friend class Vm;

  /// Run a compiled unit with eval()'s depth/step bookkeeping.
  Value run_compiled(const std::shared_ptr<const Proto>& proto,
                     const std::shared_ptr<Environment>& env);

  /// Allocate an arena-owned frame.
  std::shared_ptr<Environment> new_frame(std::shared_ptr<Environment> parent);
  /// collect_garbage() if idle at top level and past the allocation budget.
  void maybe_collect();

  std::shared_ptr<Environment> global_;
  /// Owns every interpreter-created frame. Slots are released by
  /// collect_garbage() (unreachable frames) and by the destructor.
  std::vector<std::shared_ptr<Environment>> arena_;
  /// Every closure ever created, weakly: the collector's root candidates.
  std::vector<std::weak_ptr<VmClosure>> vm_closures_;
  std::size_t frames_since_gc_ = 0;
  std::size_t gc_threshold_ = 64;

  /// Compiled units keyed by source text. A migration callback evaluated
  /// once per migrated object compiles once and replays thousands of
  /// times; this cache is where the VM's end-to-end callback speedup comes
  /// from. Bounded by kCompileCacheMax.
  std::unordered_map<std::string, std::shared_ptr<const Proto>>
      compile_cache_;

  std::size_t step_limit_ = 0;
  std::size_t steps_used_ = 0;
  std::size_t max_call_depth_ = 512;
  std::size_t call_depth_ = 0;
  int depth_ = 0;
};

}  // namespace interop::al
