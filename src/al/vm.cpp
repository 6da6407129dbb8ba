#include "al/vm.hpp"

#include <iterator>

#include "al/interp.hpp"

namespace interop::al {

namespace {

/// One activation record. `stack_base` is where this frame's operands
/// begin on the shared value stack; on Return everything above it is
/// discarded and the result lands in the caller's operand region.
struct Frame {
  const Proto* proto;
  std::shared_ptr<const Proto> proto_ref;  ///< keeps `proto` alive
  std::shared_ptr<Environment> env;        ///< current (innermost) scope
  std::size_t ip = 0;
  std::size_t stack_base = 0;
  bool counts_call_depth = false;  ///< frame holds one call_depth_ ticket
  /// The closure being executed (keeps it alive for the name cache);
  /// null for unit frames.
  std::shared_ptr<VmClosure> closure;
  /// Set when `closure` is a slot-mode closure captured directly over the
  /// interpreter's global frame: LoadName may then go through the
  /// closure's per-name binding cache (a single stable map node) instead
  /// of walking the scope chain. Slot frames never DefineName, so no
  /// runtime binding can shadow a cached resolution.
  bool global_cache = false;
};

/// Recycled machine buffers. A machine is constructed per host->a/L call
/// (one per migrated object), so keeping the stack/frame/scratch capacity
/// warm in a small thread-local pool removes three heap allocations from
/// every call. Buffers are cleared before
/// being pooled — Value destructors run, so nothing lingers as a GC root
/// or pins an interpreter's environments past the call.
struct MachineBufs {
  std::vector<Value> stack;
  std::vector<Frame> frames;
  std::vector<Value> scratch;
};

std::vector<MachineBufs>& machine_buf_pool() {
  thread_local std::vector<MachineBufs> pool;
  return pool;
}

MachineBufs acquire_machine_bufs() {
  auto& pool = machine_buf_pool();
  if (pool.empty()) return {};
  MachineBufs b = std::move(pool.back());
  pool.pop_back();
  return b;
}

void release_machine_bufs(MachineBufs b) {
  b.stack.clear();
  b.frames.clear();
  b.scratch.clear();
  auto& pool = machine_buf_pool();
  if (pool.size() < 8) pool.push_back(std::move(b));
}

}  // namespace

class Vm::Machine {
 public:
  explicit Machine(Interpreter& interp) : interp_(interp) {
    MachineBufs b = acquire_machine_bufs();
    stack_ = std::move(b.stack);
    frames_ = std::move(b.frames);
    scratch_args_ = std::move(b.scratch);
  }

  ~Machine() {
    release_machine_bufs(
        {std::move(stack_), std::move(frames_), std::move(scratch_args_)});
  }

  Value run_unit(std::shared_ptr<const Proto> proto,
                 std::shared_ptr<Environment> env) {
    frames_.push_back(Frame{proto.get(), std::move(proto), std::move(env), 0,
                            0, false, nullptr, false});
    return protected_execute();
  }

  Value run_call(const std::shared_ptr<VmClosure>& fn,
                 std::vector<Value> args) {
    stack_.emplace_back(fn);
    for (Value& a : args) stack_.push_back(std::move(a));
    try {
      do_call(std::uint32_t(args.size()));
    } catch (...) {
      unwind_call_depth();
      throw;
    }
    return protected_execute();
  }

 private:
  Value protected_execute() {
    try {
      return execute();
    } catch (...) {
      unwind_call_depth();
      throw;
    }
  }

  /// An exception abandons every in-flight a/L frame at once; give back
  /// the call-depth tickets they hold (the walker's per-call RAII guard,
  /// amortized over the whole machine).
  void unwind_call_depth() {
    interp_.call_depth_ -= depth_added_;
    depth_added_ = 0;
  }

  Value execute() {
    while (true) {
      Frame& f = frames_.back();
      if (interp_.step_limit_ && ++interp_.steps_used_ > interp_.step_limit_)
        throw AlError("step limit exceeded");
      const Instr in = f.proto->code[f.ip++];
      switch (in.op) {
        case Op::Const:
          stack_.push_back(f.proto->consts[in.arg]);
          break;
        case Op::Nil:
          stack_.emplace_back();
          break;
        case Op::True:
          stack_.emplace_back(true);
          break;
        case Op::False:
          stack_.emplace_back(false);
          break;
        case Op::Pop:
          stack_.pop_back();
          break;
        case Op::LoadName: {
          if (f.global_cache) {
            std::vector<const Value*>& cache = f.closure->name_cache;
            if (cache.size() != f.proto->names.size())
              cache.assign(f.proto->names.size(), nullptr);
            if (const Value* hit = cache[in.arg]) {
              stack_.push_back(*hit);
              break;
            }
            auto it = f.env->vars_.find(f.proto->names[in.arg]);
            if (it != f.env->vars_.end()) {
              // unordered_map nodes are stable for the env's lifetime, and
              // a re-(define) replaces the value inside the same node, so
              // this pointer stays the binding.
              cache[in.arg] = &it->second;
              stack_.push_back(it->second);
              break;
            }
            throw AlError("unbound variable " + f.proto->names[in.arg]);
          }
          stack_.push_back(f.env->lookup(f.proto->names[in.arg]));
          break;
        }
        case Op::StoreName:  // set!: the value remains as the result
          f.env->assign(f.proto->names[in.arg], stack_.back());
          break;
        case Op::DefineName: {
          Value v = std::move(stack_.back());
          stack_.pop_back();
          f.env->define(f.proto->names[in.arg], std::move(v));
          break;
        }
        case Op::Closure: {
          auto clo = std::make_shared<VmClosure>();
          clo->proto = f.proto->protos[in.arg];
          if (f.env->arena_owned_)
            clo->env = f.env;  // non-owning: the arena keeps the frame alive
          else
            clo->pinned = f.env;  // caller-owned frame: pin it
          interp_.vm_closures_.push_back(clo);
          stack_.emplace_back(std::move(clo));
          break;
        }
        case Op::Jump:
          f.ip = in.arg;
          break;
        case Op::JumpIfFalse: {
          bool t = stack_.back().truthy();
          stack_.pop_back();
          if (!t) f.ip = in.arg;
          break;
        }
        case Op::JumpIfFalsePeek:
          if (!stack_.back().truthy()) f.ip = in.arg;
          break;
        case Op::JumpIfTruePeek:
          if (stack_.back().truthy()) f.ip = in.arg;
          break;
        case Op::Call:
          do_call(in.arg);
          break;
        case Op::Return: {
          Value result = std::move(stack_.back());
          Frame done = std::move(frames_.back());
          frames_.pop_back();
          stack_.resize(done.stack_base);
          if (done.counts_call_depth) {
            --interp_.call_depth_;
            --depth_added_;
          }
          if (frames_.empty()) return result;
          stack_.push_back(std::move(result));
          break;
        }
        case Op::PushScope:
          f.env = interp_.new_frame(f.env);
          break;
        case Op::PopScope:
          f.env = f.env->parent_;
          break;
        case Op::LoadSlot:
          stack_.push_back(stack_[f.stack_base + in.arg]);
          break;
        case Op::StoreSlot:  // set!/let binding: top of stack stays pushed
          stack_[f.stack_base + in.arg] = stack_.back();
          break;
      }
    }
  }

  void do_call(std::uint32_t argc) {
    std::size_t fn_at = stack_.size() - argc - 1;
    Value fn = std::move(stack_[fn_at]);
    if (fn.is_builtin()) {
      // One scratch vector per machine, reused across builtin calls to
      // skip the per-call allocation. Safe: a builtin that re-enters the
      // interpreter (map/filter calling closures) does so through a nested
      // machine with its own scratch, and this machine's execute loop is
      // parked until the builtin returns.
      scratch_args_.assign(std::make_move_iterator(stack_.begin() + fn_at + 1),
                           std::make_move_iterator(stack_.end()));
      stack_.resize(fn_at);
      Value out = fn.as_builtin()(scratch_args_);
      scratch_args_.clear();  // drop argument refs promptly (GC roots)
      stack_.push_back(std::move(out));
      return;
    }
    if (fn.is_vm_closure()) {
      const std::shared_ptr<VmClosure>& clo = fn.as_vm_closure();
      // Check order matches the walker's call(): depth, arity, expiry.
      if (++interp_.call_depth_ > interp_.max_call_depth_) {
        --interp_.call_depth_;
        throw AlError("maximum call depth exceeded (runaway recursion?)");
      }
      ++depth_added_;
      const Proto& proto = *clo->proto;
      if (argc != proto.params.size())
        throw AlError("lambda arity mismatch: expected " +
                      std::to_string(proto.params.size()) + ", got " +
                      std::to_string(argc));
      std::shared_ptr<Environment> captured = clo->captured();
      if (!captured)
        throw AlError("closure environment expired (defining interpreter "
                      "destroyed?)");
      if (proto.slots) {
        // Slot frame: no Environment per call. Arguments slide down over
        // the callee slot and become slots 0..argc-1; the remaining slots
        // (let bindings) are reserved as nil. Free names resolve through
        // the captured scope, optionally via the closure's global cache.
        bool cacheable = captured.get() == interp_.global_.get();
        for (std::size_t i = 0; i < argc; ++i)
          stack_[fn_at + i] = std::move(stack_[fn_at + 1 + i]);
        stack_.pop_back();
        stack_.resize(fn_at + proto.nslots);
        frames_.push_back(Frame{&proto, clo->proto, std::move(captured), 0,
                                fn_at, true, clo, cacheable});
        return;
      }
      std::shared_ptr<Environment> env = interp_.new_frame(std::move(captured));
      for (std::size_t i = 0; i < argc; ++i)
        env->define(proto.params[i], std::move(stack_[fn_at + 1 + i]));
      stack_.resize(fn_at);
      frames_.push_back(Frame{&proto, clo->proto, std::move(env), 0, fn_at,
                              true, nullptr, false});
      return;
    }
    throw AlError("not callable: " + fn.write());
  }

  Interpreter& interp_;
  std::vector<Value> stack_;
  std::vector<Frame> frames_;
  std::vector<Value> scratch_args_;
  std::size_t depth_added_ = 0;
};

Value Vm::run(Interpreter& interp, std::shared_ptr<const Proto> proto,
              std::shared_ptr<Environment> env) {
  Machine m(interp);
  return m.run_unit(std::move(proto), std::move(env));
}

Value Vm::call_closure(Interpreter& interp,
                       const std::shared_ptr<VmClosure>& fn,
                       std::vector<Value> args) {
  Machine m(interp);
  return m.run_call(fn, std::move(args));
}

}  // namespace interop::al
