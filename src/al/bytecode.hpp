#pragma once
// Compiled form of a/L: flat opcode stream + constant pool + interned names.
//
// A compilation unit is a tree of Proto objects (one per lambda, plus one
// top-level proto for the unit's body). Each Proto owns its instruction
// stream, a deduplicated constant pool, its interned variable names, and
// the child protos of every (lambda ...) it contains. Protos are immutable
// after compilation and shared by reference from closures, so a compiled
// callback is reused across thousands of migrated objects without
// re-reading or re-walking the source.
//
// The VM (vm.cpp) executes this with flat heap-allocated frames and an
// explicit instruction pointer — no C++ recursion per a/L call — while
// variable scopes remain ordinary Environment frames in the interpreter's
// arena, where closures capture them and the cycle collector reclaims them.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "al/value.hpp"

namespace interop::al {

enum class Op : std::uint8_t {
  Const,        ///< push consts[arg]
  Nil,          ///< push nil
  True,         ///< push #t
  False,        ///< push #f
  Pop,          ///< drop the top of stack
  LoadName,     ///< push lookup(names[arg]) through the scope chain
  StoreName,    ///< set! names[arg] to top of stack (value stays pushed)
  DefineName,   ///< pop a value, define names[arg] in the current scope,
                ///< push nil (define's result)
  Closure,      ///< push a VmClosure over protos[arg] capturing the scope
  Jump,         ///< ip = arg
  JumpIfFalse,  ///< pop; if falsy, ip = arg
  JumpIfFalsePeek,  ///< if top of stack is falsy, ip = arg (no pop): and
  JumpIfTruePeek,   ///< if top of stack is truthy, ip = arg (no pop): or
  Call,         ///< pop arg args + the callee beneath them; invoke
  Return,       ///< pop the result, discard the frame, push into caller
  PushScope,    ///< enter a fresh child Environment (let)
  PopScope,     ///< leave the innermost let scope
  LoadSlot,     ///< push stack[frame_base + arg] (slot-compiled local)
  StoreSlot,    ///< stack[frame_base + arg] = top of stack (no pop)
};

/// One instruction. `arg` is a constant index, name index, proto index,
/// jump target, or argument count depending on the opcode.
struct Instr {
  Op op;
  std::uint32_t arg = 0;
};

/// A compiled function body (or the top-level body of a unit).
struct Proto {
  std::string name;  ///< debug label: "<unit>", lambda name, or "<lambda>"
  std::vector<std::string> params;
  /// Slot mode: a lambda whose body contains no nested (lambda ...) and no
  /// (define ...) keeps params and let-bindings as indexed slots at the
  /// bottom of its stack frame — no Environment is allocated per call, and
  /// locals are LoadSlot/StoreSlot instead of name lookups. Free names
  /// still resolve through the captured scope chain. The top-level unit
  /// proto and any lambda that can be captured from stay in environment
  /// mode, so closure semantics and the GC are untouched.
  bool slots = false;
  std::uint32_t nslots = 0;  ///< total slot count (params + let high-water)
  std::vector<Instr> code;
  /// Constant pool. Deduplicated with *strict* same-type equality only:
  /// Value::equals compares 1 and 1.0 equal across int/double, but those
  /// must stay distinct constants or (number->string 1) would print "1.0".
  std::vector<Value> consts;
  std::vector<std::string> names;  ///< interned variable names
  std::vector<std::shared_ptr<const Proto>> protos;  ///< child lambdas
};

/// A closure over a compiled Proto. The captured scope is a weak handle
/// into the defining interpreter's arena (the arena owns the frame; the
/// cycle collector keeps it while the closure is reachable). A frame the
/// caller constructed outside any arena (Interpreter::eval's `env`) is
/// pinned strongly instead; the interpreter itself never creates such
/// frames, so pinning cannot form a cycle it would miss.
struct VmClosure {
  std::shared_ptr<const Proto> proto;
  std::weak_ptr<Environment> env;  ///< arena-owned frame (the common case)
  std::shared_ptr<Environment> pinned;  ///< caller-owned frame, if any

  /// Per-name global-binding cache, filled lazily by the VM when this is a
  /// slot-mode closure captured directly over the interpreter's global
  /// frame (the compiled-callback case: one closure replayed across
  /// thousands of objects). Entries point at unordered_map nodes, which
  /// stay stable for the environment's lifetime — a re-(define) of a
  /// cached global replaces the value in the same node. Not synchronized:
  /// a closure is driven from one thread at a time, as everywhere else in
  /// the interpreter.
  mutable std::vector<const Value*> name_cache;

  std::shared_ptr<Environment> captured() const {
    return pinned ? pinned : env.lock();
  }
};

/// Human-readable listing of a proto and (recursively) its children.
/// Debug/doc aid; also exercised by tests as a smoke check on code shape.
std::string disassemble(const Proto& proto);

}  // namespace interop::al
