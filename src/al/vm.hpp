#pragma once
// The a/L bytecode VM: a non-recursive dispatch loop over compiled Protos.
//
// Activation records are flat Frame structs in a std::vector with an
// explicit instruction pointer — an a/L call pushes a Frame, a return pops
// one, and the C++ stack never grows with a/L recursion. Variable scopes
// are the interpreter's ordinary arena-owned Environment frames, so closure
// capture, pinning, and the cycle collector work on them directly. The
// recursive reference evaluator the VM is checked against lives in the
// tests (tests/al_oracle.hpp).

#include <memory>
#include <vector>

#include "al/bytecode.hpp"

namespace interop::al {

class Interpreter;
class Environment;

class Vm {
 public:
  /// Execute a compiled unit with `env` as the root scope. Shares the
  /// owning interpreter's step budget, call-depth guard, and arena.
  static Value run(Interpreter& interp, std::shared_ptr<const Proto> proto,
                   std::shared_ptr<Environment> env);

  /// Invoke a VmClosure with arguments (the Interpreter::call path, also
  /// used by higher-order builtins like map/filter).
  static Value call_closure(Interpreter& interp,
                            const std::shared_ptr<VmClosure>& fn,
                            std::vector<Value> args);

 private:
  // The dispatch loop lives in a nested class so it shares Vm's friend
  // access to Interpreter/Environment internals (arena, depth counters).
  class Machine;
};

}  // namespace interop::al
