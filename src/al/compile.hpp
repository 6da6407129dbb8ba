#pragma once
// AST -> bytecode compiler for a/L (see bytecode.hpp for the format).
//
// Compilation is eager where the reference tree-walker (the test oracle in
// tests/al_oracle.hpp) is lazy: a malformed special form in dead code (an
// `(if #t 1 (quote))` else-branch the walker never reaches) raises its
// AlError at compile time instead of never. Error *messages* are identical
// to the walker's; only the timing of dead-code diagnostics differs. Live
// code behaves identically on both, which is what the AlDiff differential
// suite pins.

#include <memory>
#include <string>
#include <vector>

#include "al/bytecode.hpp"

namespace interop::al {

class Interpreter;

/// Compile a sequence of top-level forms into one unit. `unit_name` is a
/// debug label carried on the top-level proto. The interpreter is consulted
/// (read-only) for constant folding: calls to whitelisted pure global
/// builtins with literal arguments, where the unit itself never rebinds the
/// name, are evaluated at compile time into the constant pool.
std::shared_ptr<const Proto> compile_unit(Interpreter& interp,
                                          const std::vector<Value>& forms,
                                          std::string unit_name);

}  // namespace interop::al
