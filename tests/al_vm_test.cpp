// Bytecode-specific tests: properties of the compiler/VM that the
// differential suite cannot see because the tree-walking oracle has no
// equivalent (disassembly, constant folding, flat-frame recursion depth
// beyond the C++ stack, compile caching, closure expiry).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "al/compile.hpp"
#include "al/interp.hpp"
#include "al/reader.hpp"
#include "al/vm.hpp"
#include "al_oracle.hpp"

namespace interop::al {
namespace {

std::shared_ptr<const Proto> compile_src(Interpreter& interp,
                                         const std::string& src) {
  return compile_unit(interp, read_all(src), "<test>");
}

TEST(AlVm, DisassembleShowsConstantsAndNames) {
  Interpreter interp;
  auto proto = compile_src(interp, "(define x 7) (+ x 2)");
  std::string text = disassemble(*proto);
  EXPECT_NE(text.find("const"), std::string::npos) << text;
  EXPECT_NE(text.find("define x"), std::string::npos) << text;
  EXPECT_NE(text.find("load x"), std::string::npos) << text;
  EXPECT_NE(text.find("call"), std::string::npos) << text;
}

TEST(AlVm, ConstantFoldingCollapsesPureBuiltinCalls) {
  Interpreter interp;
  // All-literal args to a pure builtin fold at compile time: no Call op.
  auto folded = compile_src(interp, "(+ 1 2 3)");
  EXPECT_EQ(disassemble(*folded).find("call"), std::string::npos)
      << disassemble(*folded);
  EXPECT_EQ(Vm::run(interp, folded, interp.global()).as_int(), 6);

  // A shadowed name must NOT fold — the unit rebinds "+" before use.
  auto shadowed =
      compile_src(interp, "(define (go) (+ 1 2)) (define + -) (go)");
  EXPECT_NE(disassemble(*shadowed).find("call"), std::string::npos)
      << disassemble(*shadowed);

  // Non-literal args never fold.
  auto dynamic = compile_src(interp, "(define a 1) (+ a 2)");
  EXPECT_NE(disassemble(*dynamic).find("call"), std::string::npos);
}

TEST(AlVm, FoldFailureFallsBackToRuntimeError) {
  Interpreter interp;
  // (substring "ab" 5 9) is whitelisted + all literals, but throws when
  // folded; compilation must keep the runtime call, and the runtime error
  // must match the oracle's.
  try {
    interp.eval_source("(substring \"ab\" 5 9)");
    FAIL() << "expected AlError";
  } catch (const AlError& e) {
    Interpreter host;
    oracle::Walker walker(host);
    try {
      walker.eval_source("(substring \"ab\" 5 9)");
      FAIL() << "walker accepted it";
    } catch (const AlError& w) {
      EXPECT_STREQ(e.what(), w.what());
    }
  }
}

TEST(AlVm, DeepRecursionUsesFlatFramesNotTheCxxStack) {
  // 20000 activation records would overflow a native stack if each VM call
  // recursed in C++; the flat frame vector makes this just memory.
  Interpreter interp;
  interp.set_max_call_depth(25000);
  Value out = interp.eval_source(
      "(define (count n) (if (<= n 0) 0 (+ 1 (count (- n 1)))))"
      " (count 20000)");
  EXPECT_EQ(out.as_int(), 20000);
}

TEST(AlVm, ExpiredClosureEnvironmentErrors) {
  Value escaped;
  {
    Interpreter interp;
    escaped = interp.eval_source("(let ((n 5)) (lambda () n))");
    ASSERT_TRUE(escaped.is_vm_closure());
    // Still alive: callable while the defining interpreter exists.
    EXPECT_EQ(interp.call(escaped, {}).as_int(), 5);
  }
  Interpreter other;
  try {
    other.call(escaped, {});
    FAIL() << "expected expired-environment error";
  } catch (const AlError& e) {
    EXPECT_NE(std::string(e.what()).find("expired"), std::string::npos)
        << e.what();
  }
}

TEST(AlVm, CompileCacheReusesProtosAcrossEvals) {
  // CallbackHost::run re-evals the same source per migrated object; the
  // cache must return the same compiled unit while still re-executing it
  // (fresh defines each time), and must not leak state between runs.
  Interpreter interp;
  const std::string src = "(define n 1) (set! n (+ n 1)) n";
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(interp.eval_source(src).as_int(), 2) << "iteration " << i;
}

TEST(AlVm, StepLimitAppliesPerTopLevelEval) {
  Interpreter interp;
  interp.set_step_limit(200);
  EXPECT_THROW(interp.eval_source("(define i 0) (while (< i 100000)"
                                  " (set! i (+ i 1)))"),
               AlError);
  // Budget resets for the next top-level eval: small programs still run.
  EXPECT_EQ(interp.eval_source("(+ 1 1)").as_int(), 2);
}

TEST(AlVm, GcReclaimsVmClosureCycles) {
  Interpreter interp;
  interp.eval_source(
      "(define (spin k)"
      "  (if (> k 0)"
      "      (begin (let ((self nil)) (set! self (lambda () self)))"
      "             (spin (- k 1)))"
      "      nil))"
      " (spin 200)");
  interp.collect_garbage();
  // Each loop iteration made a cyclic frame<->closure pair; all must be
  // collectable once unreachable. Globals frame remains.
  EXPECT_LT(interp.arena_frames(), 10u);
}

}  // namespace
}  // namespace interop::al
