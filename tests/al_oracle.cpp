#include "al_oracle.hpp"

#include <atomic>
#include <functional>
#include <sstream>

#include "al/reader.hpp"

namespace interop::al::oracle {

namespace {

std::atomic<std::int64_t> g_live_frames{0};

const std::string& symbol_name(const Value& v, const char* what) {
  if (!v.is_symbol()) throw AlError(std::string(what) + ": expected a symbol");
  return v.as_symbol().name;
}

}  // namespace

Frame::Frame(std::shared_ptr<Frame> p) : parent(std::move(p)) {
  g_live_frames.fetch_add(1, std::memory_order_relaxed);
}

Frame::~Frame() { g_live_frames.fetch_sub(1, std::memory_order_relaxed); }

std::int64_t Frame::live_count() {
  return g_live_frames.load(std::memory_order_relaxed);
}

/// A user-defined lambda: parameter names, body forms, captured frame.
/// The frame is held weakly; the owning walker's arena keeps it alive.
struct Walker::Closure {
  Walker* owner = nullptr;
  std::vector<std::string> params;
  std::vector<Value> body;  // evaluated in sequence; last form is the result
  std::weak_ptr<Frame> env;
};

/// The al::Builtin target that makes a Closure callable from the host.
/// Each copy of the Value holds one reference, so use_count() counts the
/// closure's holders the way a shared_ptr alternative in Value would.
struct ClosureFn {
  std::shared_ptr<Walker::Closure> clo;

  Value operator()(std::vector<Value>& args) const {
    std::shared_ptr<Frame> env = clo->env.lock();
    if (!env)  // the arena is gone, and the walker with it
      throw AlError("closure environment expired (defining interpreter "
                    "destroyed?)");
    return clo->owner->apply(*clo, std::move(env), args);
  }
};

namespace {

const Walker::Closure* closure_of(const Value& v) {
  if (!v.is_builtin()) return nullptr;
  const ClosureFn* fn = v.as_builtin().target<ClosureFn>();
  return fn ? fn->clo.get() : nullptr;
}

}  // namespace

std::string write(const Value& v) {
  if (closure_of(v)) return "#<lambda>";
  if (!v.is_list()) return v.write();
  std::string out = "(";
  const Value::List& l = v.as_list();
  for (std::size_t i = 0; i < l.size(); ++i) {
    if (i) out += ' ';
    out += write(l[i]);
  }
  out += ')';
  return out;
}

// ------------------------------------------------------------- walker

Walker::Walker(Interpreter& host) : host_(host) {
  global_ = new_frame(nullptr);
}

Walker::~Walker() {
  // Clearing every frame's bindings drops all closure values, after which
  // the ownership graph (arena slot -> frame -> parent) unwinds.
  for (const std::shared_ptr<Frame>& f : arena_) f->vars.clear();
  arena_.clear();
  global_.reset();
}

std::shared_ptr<Frame> Walker::new_frame(std::shared_ptr<Frame> parent) {
  auto f = std::make_shared<Frame>(std::move(parent));
  arena_.push_back(f);
  ++frames_since_gc_;
  return f;
}

Value Walker::make_closure(std::vector<std::string> params,
                           std::vector<Value> body,
                           const std::shared_ptr<Frame>& env) {
  auto clo = std::make_shared<Closure>();
  clo->owner = this;
  clo->params = std::move(params);
  clo->body = std::move(body);
  clo->env = env;
  closures_.push_back(clo);
  return Value(Builtin(ClosureFn{std::move(clo)}));
}

// Names the oracle's frames do not bind resolve in the host's global frame:
// the builtins, and whatever the host registered.
Value Walker::lookup(const std::string& name, const Frame& env) const {
  for (const Frame* f = &env; f; f = f->parent.get()) {
    auto it = f->vars.find(name);
    if (it != f->vars.end()) return it->second;
  }
  return host_.global()->lookup(name);
}

void Walker::assign(const std::string& name, Value v, Frame& env) {
  for (Frame* f = &env; f; f = f->parent.get()) {
    auto it = f->vars.find(name);
    if (it != f->vars.end()) {
      it->second = std::move(v);
      return;
    }
  }
  host_.global()->assign(name, std::move(v));
}

void Walker::maybe_collect() {
  if (depth_ == 0 && call_depth_ == 0 && frames_since_gc_ >= kGcThreshold)
    collect_garbage();
}

std::size_t Walker::collect_garbage() {
  if (depth_ != 0 || call_depth_ != 0) return 0;
  frames_since_gc_ = 0;
  std::erase_if(closures_,
                [](const std::weak_ptr<Closure>& w) { return w.expired(); });

  // Closure references stored inside arena frames (deep through lists);
  // any holder beyond these is an external root.
  std::unordered_map<const Closure*, std::size_t> internal;
  std::function<void(const Value&)> count = [&](const Value& v) {
    if (const Closure* c = closure_of(v)) {
      ++internal[c];
    } else if (v.is_list()) {
      for (const Value& item : v.as_list()) count(item);
    }
  };
  for (const std::shared_ptr<Frame>& f : arena_)
    for (const auto& [name, v] : f->vars) count(v);

  std::vector<Frame*> work;
  auto mark_chain = [&](Frame* f) {
    for (; f && !f->marked; f = f->parent.get()) {
      f->marked = true;
      work.push_back(f);
    }
  };
  mark_chain(global_.get());
  for (const std::weak_ptr<Closure>& w : closures_) {
    std::shared_ptr<Closure> clo = w.lock();
    if (!clo) continue;
    // +1 for our temporary lock.
    auto it = internal.find(clo.get());
    std::size_t stored = it == internal.end() ? 0 : it->second;
    if (std::size_t(clo.use_count()) > stored + 1)
      if (std::shared_ptr<Frame> f = clo->env.lock()) mark_chain(f.get());
  }
  std::function<void(const Value&)> mark_value = [&](const Value& v) {
    if (const Closure* c = closure_of(v)) {
      if (std::shared_ptr<Frame> f = c->env.lock()) mark_chain(f.get());
    } else if (v.is_list()) {
      for (const Value& item : v.as_list()) mark_value(item);
    }
  };
  for (std::size_t head = 0; head < work.size(); ++head)
    for (const auto& [name, v] : work[head]->vars) mark_value(v);

  std::size_t freed = 0;
  std::vector<std::shared_ptr<Frame>> live;
  live.reserve(arena_.size());
  for (std::shared_ptr<Frame>& f : arena_) {
    if (f->marked) {
      f->marked = false;
      live.push_back(std::move(f));
    } else {
      f->vars.clear();
      ++freed;
    }
  }
  arena_ = std::move(live);
  return freed;
}

Value Walker::eval(const Value& form, std::shared_ptr<Frame> env) {
  if (depth_ == 0) steps_used_ = 0;
  ++depth_;
  try {
    Value out = eval_inner(form, std::move(env));
    --depth_;
    maybe_collect();
    return out;
  } catch (...) {
    --depth_;
    maybe_collect();
    throw;
  }
}

Value Walker::eval_source(const std::string& source) {
  Value last;
  for (const Value& form : read_all(source)) last = eval(form, global_);
  return last;
}

Value Walker::call(const Value& fn, std::vector<Value> args) {
  if (!fn.is_callable()) throw AlError("not callable: " + write(fn));
  return host_.call(fn, std::move(args));
}

Value Walker::apply(const Closure& clo, std::shared_ptr<Frame> captured,
                    std::vector<Value>& args) {
  Value out;
  {
    if (++call_depth_ > max_call_depth_) {
      --call_depth_;
      throw AlError("maximum call depth exceeded (runaway recursion?)");
    }
    struct DepthGuard {
      std::size_t& depth;
      ~DepthGuard() { --depth; }
    } guard{call_depth_};
    if (args.size() != clo.params.size())
      throw AlError("lambda arity mismatch: expected " +
                    std::to_string(clo.params.size()) + ", got " +
                    std::to_string(args.size()));
    auto frame = new_frame(std::move(captured));
    for (std::size_t i = 0; i < args.size(); ++i)
      frame->vars[clo.params[i]] = std::move(args[i]);
    for (const Value& form : clo.body) out = eval(form, frame);
  }
  // Host code may drive callbacks through call() without ever returning
  // to eval()'s top level; collect here too once the call tree unwinds.
  maybe_collect();
  return out;
}

Value Walker::eval_inner(const Value& form, std::shared_ptr<Frame> env) {
  if (step_limit_ && ++steps_used_ > step_limit_)
    throw AlError("step limit exceeded");

  if (form.is_symbol()) return lookup(form.as_symbol().name, *env);
  if (!form.is_list()) return form;  // self-evaluating atom

  const Value::List& list = form.as_list();
  if (list.empty()) throw AlError("cannot evaluate empty list");

  if (list[0].is_symbol()) {
    const std::string& head = list[0].as_symbol().name;

    if (head == "quote") {
      if (list.size() != 2) throw AlError("quote takes one argument");
      return list[1];
    }
    if (head == "if") {
      if (list.size() != 3 && list.size() != 4)
        throw AlError("if takes 2 or 3 arguments");
      if (eval_inner(list[1], env).truthy()) return eval_inner(list[2], env);
      return list.size() == 4 ? eval_inner(list[3], env) : Value::nil();
    }
    if (head == "cond") {
      for (std::size_t i = 1; i < list.size(); ++i) {
        if (!list[i].is_list() || list[i].as_list().size() < 2)
          throw AlError("cond: malformed clause");
        const Value::List& clause = list[i].as_list();
        bool is_else =
            clause[0].is_symbol() && clause[0].as_symbol().name == "else";
        if (is_else || eval_inner(clause[0], env).truthy()) {
          Value out;
          for (std::size_t j = 1; j < clause.size(); ++j)
            out = eval_inner(clause[j], env);
          return out;
        }
      }
      return Value::nil();
    }
    if (head == "define") {
      if (list.size() < 3) throw AlError("define takes at least 2 arguments");
      // (define (f a b) body...) sugar
      if (list[1].is_list()) {
        const Value::List& sig = list[1].as_list();
        if (sig.empty()) throw AlError("define: empty signature");
        std::vector<std::string> params;
        for (std::size_t i = 1; i < sig.size(); ++i)
          params.push_back(symbol_name(sig[i], "define"));
        env->vars[symbol_name(sig[0], "define")] = make_closure(
            std::move(params), {list.begin() + 2, list.end()}, env);
        return Value::nil();
      }
      if (list.size() != 3) throw AlError("define takes 2 arguments");
      Value v = eval_inner(list[2], env);
      env->vars[symbol_name(list[1], "define")] = std::move(v);
      return Value::nil();
    }
    if (head == "set!") {
      if (list.size() != 3) throw AlError("set! takes 2 arguments");
      Value v = eval_inner(list[2], env);
      assign(symbol_name(list[1], "set!"), v, *env);
      return v;
    }
    if (head == "lambda") {
      if (list.size() < 3) throw AlError("lambda takes params and body");
      if (!list[1].is_list()) throw AlError("lambda: params must be a list");
      std::vector<std::string> params;
      for (const Value& p : list[1].as_list())
        params.push_back(symbol_name(p, "lambda"));
      return make_closure(std::move(params), {list.begin() + 2, list.end()},
                          env);
    }
    if (head == "let") {
      if (list.size() < 3 || !list[1].is_list())
        throw AlError("let: malformed");
      auto frame = new_frame(env);
      for (const Value& binding : list[1].as_list()) {
        if (!binding.is_list() || binding.as_list().size() != 2)
          throw AlError("let: malformed binding");
        const Value::List& b = binding.as_list();
        frame->vars[symbol_name(b[0], "let")] = eval_inner(b[1], env);
      }
      Value out;
      for (std::size_t i = 2; i < list.size(); ++i)
        out = eval_inner(list[i], frame);
      return out;
    }
    if (head == "begin") {
      Value out;
      for (std::size_t i = 1; i < list.size(); ++i)
        out = eval_inner(list[i], env);
      return out;
    }
    if (head == "and") {
      Value out(true);
      for (std::size_t i = 1; i < list.size(); ++i) {
        out = eval_inner(list[i], env);
        if (!out.truthy()) return out;
      }
      return out;
    }
    if (head == "or") {
      for (std::size_t i = 1; i < list.size(); ++i) {
        Value out = eval_inner(list[i], env);
        if (out.truthy()) return out;
      }
      return Value(false);
    }
    if (head == "while") {
      if (list.size() < 2) throw AlError("while takes a condition");
      Value out;
      while (eval_inner(list[1], env).truthy()) {
        if (step_limit_ && ++steps_used_ > step_limit_)
          throw AlError("step limit exceeded");
        for (std::size_t i = 2; i < list.size(); ++i)
          out = eval_inner(list[i], env);
      }
      return out;
    }
  }

  // Function application.
  Value fn = eval_inner(list[0], env);
  std::vector<Value> args;
  args.reserve(list.size() - 1);
  for (std::size_t i = 1; i < list.size(); ++i)
    args.push_back(eval_inner(list[i], env));
  return call(fn, std::move(args));
}

// ---------------------------------------------------- callback bridge

CallbackOracle::CallbackOracle() {
  auto check = [this](std::vector<Value>& args, std::size_t n,
                      const char* name) -> base::PropertySet& {
    if (args.size() != n) throw AlError(std::string(name) + ": wrong arity");
    if (!args[0].is_int() || args[0].as_int() != 0 || current_ == nullptr)
      throw AlError(std::string(name) + ": invalid object handle");
    return *current_;
  };
  auto name_arg = [](std::vector<Value>& args, const char* name) {
    if (!args[1].is_string())
      throw AlError(std::string(name) + ": property name must be a string");
    return args[1].as_string();
  };
  host_.register_builtin("prop-get", [=](std::vector<Value>& args) {
    base::PropertySet& ps = check(args, 2, "prop-get");
    auto v = ps.get(name_arg(args, "prop-get"));
    return v ? Value(v->text()) : Value::nil();
  });
  host_.register_builtin("prop-set!", [=](std::vector<Value>& args) {
    base::PropertySet& ps = check(args, 3, "prop-set!");
    const Value& v = args[2];
    ps.set(name_arg(args, "prop-set!"),
           base::PropertyValue(v.is_string() ? v.as_string() : write(v)));
    return Value::nil();
  });
  host_.register_builtin("prop-delete!", [=](std::vector<Value>& args) {
    base::PropertySet& ps = check(args, 2, "prop-delete!");
    return Value(ps.erase(name_arg(args, "prop-delete!")));
  });
  host_.register_builtin("prop-has?", [=](std::vector<Value>& args) {
    base::PropertySet& ps = check(args, 2, "prop-has?");
    return Value(ps.has(name_arg(args, "prop-has?")));
  });
  host_.register_builtin("prop-names", [=](std::vector<Value>& args) {
    base::PropertySet& ps = check(args, 1, "prop-names");
    Value::List names;
    for (const auto& [name, value] : ps) names.emplace_back(name);
    return Value(std::move(names));
  });
  walker_.set_step_limit(100000);
}

bool CallbackOracle::run(const sch::CallbackRule& rule,
                         const std::string& cell, base::PropertySet& props,
                         base::DiagnosticEngine& diags) {
  if (!rule.cell_filter.empty() && rule.cell_filter != cell) return true;
  current_ = &props;
  bool ok = true;
  try {
    Value fn = walker_.eval_source(rule.source);
    if (!fn.is_callable())
      throw AlError("callback source did not evaluate to a function");
    walker_.call(fn, {Value(std::int64_t(0))});
  } catch (const AlError& e) {
    diags.error("callback-failed",
                std::string("a/L callback failed: ") + e.what(),
                {"sch.callback", cell});
    ok = false;
  }
  current_ = nullptr;
  return ok;
}

// ------------------------------------------------------------- replay

namespace {

std::string describe(const base::PropertySet& props) {
  std::string out;
  for (const auto& [name, value] : props)
    out += name + "=" + value.text() + ";";
  return out;
}

std::string describe(const base::DiagnosticEngine& diags) {
  std::ostringstream os;
  diags.print(os);
  return os.str();
}

}  // namespace

CallbackReplay callback_replay(const sch::Design& source,
                               const sch::PropertyRuleSet& rules) {
  CallbackReplay out;
  sch::CallbackHost product;
  CallbackOracle oracle;
  sch::PropertyApplyStats stats;
  for (const auto& [cell, schematic] : source.schematics())
    for (const sch::Sheet& sheet : schematic.sheets)
      for (const sch::Instance& inst : sheet.instances) {
        const std::string& sym = inst.symbol.cell;
        base::PropertySet mine = inst.props, ref = inst.props;
        base::DiagnosticEngine mine_diags, ref_diags;
        sch::apply_property_rules(rules, sym, mine, stats, mine_diags);
        sch::apply_property_rules(rules, sym, ref, stats, ref_diags);
        std::string mine_calls, ref_calls;
        for (const sch::CallbackRule& rule : rules.callbacks) {
          bool ok = product.run(rule, sym, mine, mine_diags);
          if (ok) ++out.callbacks_run;
          mine_calls += ok ? '1' : '0';
          ref_calls += oracle.run(rule, sym, ref, ref_diags) ? '1' : '0';
        }
        out.callback_errors += mine_diags.count_code("callback-failed");
        if (mine == ref && mine_calls == ref_calls &&
            mine_diags.all() == ref_diags.all())
          continue;
        out.mismatches.push_back(
            cell + "/" + std::to_string(sheet.number) + "/" + inst.name +
            ": product {" + describe(mine) + "} calls " + mine_calls + " " +
            describe(mine_diags) + " | oracle {" + describe(ref) +
            "} calls " + ref_calls + " " + describe(ref_diags));
      }
  return out;
}

}  // namespace interop::al::oracle
