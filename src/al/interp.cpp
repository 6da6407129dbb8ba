#include "al/interp.hpp"

#include <functional>

#include "al/compile.hpp"
#include "al/reader.hpp"
#include "al/vm.hpp"

namespace interop::al {

std::atomic<std::int64_t> Environment::live_{0};

void Environment::define(const std::string& name, Value v) {
  vars_[name] = std::move(v);
}

void Environment::assign(const std::string& name, Value v) {
  for (Environment* e = this; e; e = e->parent_.get()) {
    auto it = e->vars_.find(name);
    if (it != e->vars_.end()) {
      it->second = std::move(v);
      return;
    }
  }
  throw AlError("set!: unbound variable " + name);
}

const Value& Environment::lookup(const std::string& name) const {
  for (const Environment* e = this; e; e = e->parent_.get()) {
    auto it = e->vars_.find(name);
    if (it != e->vars_.end()) return it->second;
  }
  throw AlError("unbound variable " + name);
}

bool Environment::bound(const std::string& name) const {
  for (const Environment* e = this; e; e = e->parent_.get())
    if (e->vars_.count(name)) return true;
  return false;
}

// Defined in builtins.cpp.
void install_builtins(Interpreter& interp);
void install_higher_order(Interpreter& interp);

Interpreter::Interpreter() {
  global_ = new_frame(nullptr);
  install_builtins(*this);
  install_higher_order(*this);
}

Interpreter::~Interpreter() {
  // Teardown must free everything even mid-cycle: clearing every frame's
  // bindings drops all closure values, after which the strong ownership
  // graph (arena slot -> frame -> parent) unwinds by plain refcounting.
  for (const std::shared_ptr<Environment>& env : arena_) env->vars_.clear();
  arena_.clear();
  global_.reset();
}

std::shared_ptr<Environment> Interpreter::new_frame(
    std::shared_ptr<Environment> parent) {
  auto env = Environment::make(std::move(parent));
  env->arena_owned_ = true;
  arena_.push_back(env);
  ++frames_since_gc_;
  return env;
}

void Interpreter::maybe_collect() {
  if (depth_ == 0 && call_depth_ == 0 && frames_since_gc_ >= gc_threshold_)
    collect_garbage();
}

std::size_t Interpreter::collect_garbage() {
  // Mid-evaluation frames are rooted only by C++ locals the collector
  // cannot see; collecting there would free live scopes. Callers land here
  // between top-level forms, where the only roots are the global frame and
  // closures the host still holds.
  if (depth_ != 0 || call_depth_ != 0) return 0;
  frames_since_gc_ = 0;
  std::erase_if(vm_closures_,
                [](const std::weak_ptr<VmClosure>& w) { return w.expired(); });

  // Count the closure references stored inside arena frames (deep through
  // lists). Any shared_ptr beyond these — a host-held Value, a builtin
  // capture — is an external root.
  std::unordered_map<const VmClosure*, std::size_t> internal;
  std::function<void(const Value&)> count = [&](const Value& v) {
    if (v.is_vm_closure()) {
      ++internal[v.as_vm_closure().get()];
    } else if (v.is_list()) {
      for (const Value& item : v.as_list()) count(item);
    }
  };
  for (const std::shared_ptr<Environment>& env : arena_)
    for (const auto& [name, v] : env->vars_) count(v);

  // Mark frames reachable from the roots. Marking a frame marks its parent
  // chain; the closures it stores then keep their own captured chains.
  std::vector<Environment*> work;
  auto mark_chain = [&](Environment* e) {
    for (; e && !e->marked_; e = e->parent_.get()) {
      e->marked_ = true;
      work.push_back(e);
    }
  };
  mark_chain(global_.get());
  for (const std::weak_ptr<VmClosure>& w : vm_closures_) {
    std::shared_ptr<VmClosure> clo = w.lock();
    if (!clo) continue;
    // +1 for our temporary lock; more owners than stored copies means the
    // host (or a builtin capture) still holds this closure.
    auto it = internal.find(clo.get());
    std::size_t stored = it == internal.end() ? 0 : it->second;
    if (std::size_t(clo.use_count()) > stored + 1)
      if (std::shared_ptr<Environment> env = clo->captured())
        mark_chain(env.get());
  }
  std::function<void(const Value&)> mark_value = [&](const Value& v) {
    if (v.is_vm_closure()) {
      if (std::shared_ptr<Environment> env = v.as_vm_closure()->captured())
        mark_chain(env.get());
    } else if (v.is_list()) {
      for (const Value& item : v.as_list()) mark_value(item);
    }
  };
  for (std::size_t head = 0; head < work.size(); ++head)
    for (const auto& [name, v] : work[head]->vars_) mark_value(v);

  // Sweep: release unmarked slots (their bindings first, so closure cycles
  // among them cannot keep anything transitively alive).
  std::size_t freed = 0;
  std::vector<std::shared_ptr<Environment>> live;
  live.reserve(arena_.size());
  for (std::shared_ptr<Environment>& env : arena_) {
    if (env->marked_) {
      env->marked_ = false;
      live.push_back(std::move(env));
    } else {
      env->vars_.clear();
      ++freed;
    }
  }
  arena_ = std::move(live);
  return freed;
}

void Interpreter::register_builtin(const std::string& name, Builtin fn) {
  global_->define(name, Value(std::move(fn)));
}

Value Interpreter::eval(const Value& form) { return eval(form, global_); }

Value Interpreter::eval(const Value& form,
                        const std::shared_ptr<Environment>& env) {
  return run_compiled(compile_unit(*this, {form}, "<eval>"), env);
}

Value Interpreter::run_compiled(const std::shared_ptr<const Proto>& proto,
                                const std::shared_ptr<Environment>& env) {
  if (depth_ == 0) steps_used_ = 0;
  ++depth_;
  try {
    Value out = Vm::run(*this, proto, env);
    --depth_;
    maybe_collect();
    return out;
  } catch (...) {
    --depth_;
    maybe_collect();
    throw;
  }
}

Value Interpreter::eval_source(const std::string& source) {
  // Compile the whole unit once and cache it by source text.
  std::shared_ptr<const Proto> proto;
  auto it = compile_cache_.find(source);
  if (it != compile_cache_.end()) {
    proto = it->second;
  } else {
    proto = compile_unit(*this, read_all(source), "<unit>");
    if (compile_cache_.size() >= kCompileCacheMax) compile_cache_.clear();
    compile_cache_.emplace(source, proto);
  }
  return run_compiled(proto, global_);
}

Value Interpreter::call(const Value& fn, std::vector<Value> args) {
  if (fn.is_builtin()) return fn.as_builtin()(args);
  if (fn.is_vm_closure()) {
    // Host-driven calls start a fresh step budget at top level, like
    // eval() does (CallbackHost runs one call per migrated object and each
    // gets the full budget).
    if (depth_ == 0 && call_depth_ == 0) steps_used_ = 0;
    Value out = Vm::call_closure(*this, fn.as_vm_closure(), std::move(args));
    maybe_collect();
    return out;
  }
  throw AlError("not callable: " + fn.write());
}

}  // namespace interop::al
