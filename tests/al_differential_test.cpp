// AlDiff — the differential golden suite pinning the bytecode VM to the
// tree-walking oracle (al_oracle.hpp). Every program runs on BOTH
// evaluators in fresh interpreters; results (written values), error
// messages, post-GC arena frame counts, and live-frame deltas must match
// exactly. The migration half replays the generator's a/L callback
// workload — the same scenarios the fuzz corpus drives — instance by
// instance through the product's CallbackHost and through the oracle's own
// prop-* bridge, and requires identical properties, per-call results and
// diagnostics, summing to the product migration's report.
//
// Suite names all start with AlDiff so CI's TSan/ASan label regex and the
// nightly sweep can select them wholesale.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "al/interp.hpp"
#include "al/number.hpp"
#include "al_oracle.hpp"
#include "base/diagnostics.hpp"
#include "fuzz/corpus.hpp"
#include "schematic/generator.hpp"
#include "schematic/migrate.hpp"

namespace interop {
namespace {

using al::AlError;
using al::Interpreter;
using al::Value;
using al::oracle::Walker;

// ------------------------------------------------------------- programs

struct Outcome {
  bool ok = true;
  std::string text;  ///< result written, or the error message
  std::size_t arena_after_gc = 0;
  std::int64_t live_delta = 0;  ///< frames leaked across teardown
};

/// Scope frames alive in the process: the VM's and the oracle's.
std::int64_t live_frames() {
  return al::Environment::live_count() + al::oracle::Frame::live_count();
}

Outcome run_program(bool on_oracle, const std::string& src,
                    std::size_t step_limit = 0) {
  std::int64_t live_before = live_frames();
  Outcome o;
  {
    Interpreter host;
    Walker walker(host);
    if (step_limit) {
      host.set_step_limit(step_limit);
      walker.set_step_limit(step_limit);
    }
    try {
      o.text = al::oracle::write(on_oracle ? walker.eval_source(src)
                                           : host.eval_source(src));
    } catch (const AlError& e) {
      o.ok = false;
      o.text = e.what();
    }
    if (on_oracle) {
      walker.collect_garbage();
      o.arena_after_gc = walker.arena_frames();
    } else {
      host.collect_garbage();
      o.arena_after_gc = host.arena_frames();
    }
  }
  o.live_delta = live_frames() - live_before;
  return o;
}

void expect_engines_agree(const std::string& src, std::size_t step_limit = 0) {
  Outcome oracle = run_program(true, src, step_limit);
  Outcome vm = run_program(false, src, step_limit);
  EXPECT_EQ(oracle.ok, vm.ok) << src;
  EXPECT_EQ(oracle.text, vm.text) << src;
  EXPECT_EQ(oracle.arena_after_gc, vm.arena_after_gc) << src;
  EXPECT_EQ(oracle.live_delta, vm.live_delta) << src;
  EXPECT_EQ(vm.live_delta, 0) << src << " leaked environments";
}

// Value-producing programs covering every special form, closure shape,
// and builtin family the tree-walker suite exercises — plus the corners
// where a compiler could plausibly diverge from an interpreter (scoping
// of let bindings, and/or result protocols, while results, shadowing,
// use-before-define, quote identity).
const char* const kValuePrograms[] = {
    "42",
    "2.5",
    "#t",
    "nil",
    "\"str\"",
    "(quote sym)",
    "(quote (1 2.0 \"x\" #f nil (nested)))",
    "(+ 1 2 3)",
    "(- 10 4 1)",
    "(* 2 3 4)",
    "(/ 10 2)",
    "(/ 1 2)",
    "(mod 7 3)",
    "(min 3 1 2)",
    "(max 3 1 2)",
    "(+ 1 0.5)",
    "(< 1 2 3)",
    "(< 1 3 2)",
    "(= 2 2)",
    "(equal? (list 1 2) (list 1 2))",
    "(not #f)",
    "(and)",
    "(and 1 2 3)",
    "(and 1 #f 3)",
    "(and nil 2)",
    "(or)",
    "(or #f 7)",
    "(or nil nil)",
    "(or (or #f #f) (and 1 2))",
    "(if (> 2 1) 10 20)",
    "(if #f 10)",
    "(cond ((= 1 2) 5) ((= 1 1) 6) (else 7))",
    "(cond ((= 1 2) 5) (else 7))",
    "(cond ((= 1 2) 5))",
    "(cond (#t 1 2 3))",
    "(begin)",
    "(begin 1 2 3)",
    "(let ((x 2) (y 3)) (* x y))",
    "(define x 1) (let ((x 2) (y x)) y)",      // bindings see OUTER scope
    "(let ((x 1) (x 2)) x)",                   // duplicate: last wins
    "(let ((x 1)) (let ((x 2)) x))",           // shadowing
    "(let ((x 1)) (define y 2) (+ x y))",      // define inside let scope
    "(define z 9) z",
    "(define z 9) (set! z 11) z",
    "(set! q 1)",                              // error text must match too
    "(define (adder n) (lambda (x) (+ x n)))"
    " (define add5 (adder 5)) (define add7 (adder 7))"
    " (list (add5 10) (add5 1) (add7 1))",
    "(define (fact n) (if (<= n 1) 1 (* n (fact (- n 1))))) (fact 10)",
    "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
    " (fib 15)",
    "(define i 0) (define acc 0)"
    " (while (< i 5) (set! acc (+ acc i)) (set! i (+ i 1))) acc",
    "(define i 0) (while (< i 3) (set! i (+ i 1)))",  // while result
    "(while #f 1)",                                   // zero iterations
    "(define (g) (h)) (define (h) 5) (g)",            // use-before-define
    "(lambda (x) x)",                                 // prints #<lambda>
    "(define f (lambda () 1)) (set! f (lambda () 2)) (f)",
    "(map (lambda (x) (* x x)) (list 1 2 3))",
    "(filter (lambda (x) (> x 1)) (list 0 1 2 3))",
    "(foldl + 0 (list 1 2 3 4))",
    "(foldl (lambda (a b) (cons b a)) nil (list 1 2))",
    "(string-append \"a\" \"b\" 3)",
    "(substring \"hello\" 1 3)",
    "(string-split \"r:4.7k:2p\" \":\")",
    "(string->number \"42\")",
    "(string->number \"2.5\")",
    "(string->number \"4.7k\")",
    "(string->number \"1e99999\")",     // out of range: #f on both engines
    "(number->string 7)",
    "(number->string 0.1)",
    "(number->string (/ 1 3))",
    "(length (list 1 2 3))",
    "(reverse (list 1 2 3))",
    "(append (list 1) (list 2 3))",
    // Closure cycles: the GC shape must match (arena counts after GC).
    "(define (selfie) selfie) (selfie)",
    "(define (mk) (lambda () mk)) ((mk))",
    "(define c nil)"
    " (let ((n 0)) (set! c (lambda () (set! n (+ n 1)) n)))"
    " (c) (c) (c)",
};

TEST(AlDiffValues, ProgramsAgreeAcrossEngines) {
  for (const char* src : kValuePrograms) expect_engines_agree(src);
}

// Programs whose ONLY failure is the listed one (a unit with two
// independent errors could legitimately report them in different order:
// the compiler sees the whole unit before the VM runs any of it).
const char* const kErrorPrograms[] = {
    "undefined-var",
    "(set! unbound 1)",
    "(define (f x) x) (f 1 2)",
    "(define (f x) x) (f)",
    "(1 2 3)",
    "()",
    "(quote)",
    "(quote a b)",
    "(if)",
    "(if 1 2 3 4)",
    "(cond (1))",
    "(cond 5)",
    "(define)",
    "(define 3 4)",
    "(define (3) 4)",
    "(define ())",
    "(lambda)",
    "(lambda x 1)",
    "(lambda (1) 1)",
    "(let)",
    "(let x 1)",
    "(let ((x)) 1)",
    "(let ((x 1)))",
    "(while)",
    "(define (f) (f)) (f)",                    // call depth
    "(nth (list 1) 5)",
    "(+ 1 \"a\")",
    "(substring \"ab\" 5 9)",
};

TEST(AlDiffErrors, ErrorMessagesAgreeAcrossEngines) {
  for (const char* src : kErrorPrograms) expect_engines_agree(src);
}

TEST(AlDiffErrors, StepLimitAgreesAcrossEngines) {
  // Both evaluators must hit the budget (exact step accounting differs —
  // the walker counts forms, the VM counts instructions — but the
  // observable error is the same).
  expect_engines_agree("(while #t 1)", /*step_limit=*/10000);
}

// number->string / string->number round-trip doubles bit-exactly, and both
// evaluators print the same shortest form.
TEST(AlDiffRoundTrip, DoubleFormattingRoundTrips) {
  const double cases[] = {0.1,    1.0 / 3.0, 1e-7,   12345.6789, 1e300,
                          5e-324, 2.5,       -0.0,   1e16,       0.3333333,
                          3.141592653589793, -271.828};
  for (double d : cases) {
    std::string printed = al::format_double(d);
    for (bool on_oracle : {true, false}) {
      Interpreter host;
      Walker walker(host);
      auto eval = [&](const std::string& src) {
        return on_oracle ? walker.eval_source(src) : host.eval_source(src);
      };
      Value back = eval("(string->number \"" + printed + "\")");
      ASSERT_TRUE(back.is_double()) << printed;
      EXPECT_EQ(back.as_double(), d) << printed;  // exact, not approximate
      EXPECT_EQ(eval("(number->string " + printed + ")").as_string(),
                printed);
    }
  }
}

// ------------------------------------------------------------ migration

/// Migrate the scenario with the product, then replay step 2 (property
/// rules, then callbacks) per source instance through the product's
/// CallbackHost and through the oracle. Every instance must agree, and the
/// product replay must sum to the migration's own report.
void expect_migrations_agree(const sch::GeneratorOptions& opt) {
  sch::Scenario scenario = sch::make_exar_scenario(opt);
  base::DiagnosticEngine diags;
  sch::MigrationResult result =
      sch::migrate_design(scenario.source, scenario.config, diags);
  al::oracle::CallbackReplay replay = al::oracle::callback_replay(
      scenario.source, scenario.config.property_rules);
  ASSERT_GT(replay.callbacks_run, 0u) << "scenario exercised no callbacks";
  EXPECT_EQ(replay.callbacks_run, result.report.props.callbacks_run)
      << "seed " << opt.seed;
  EXPECT_EQ(replay.callback_errors, diags.count_code("callback-failed"))
      << "seed " << opt.seed;
  for (const std::string& m : replay.mismatches)
    ADD_FAILURE() << "seed " << opt.seed << ": " << m;
}

TEST(AlDiffMigration, ExarScenarioMigrationsAgree) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sch::GeneratorOptions opt;
    opt.seed = seed;
    opt.analog_fraction = 0.5;  // plenty of callback-bearing components
    expect_migrations_agree(opt);
  }
}

// Replay the fuzz corpus' schematic callback specs through both
// evaluators: the same generator parameters the reproducers pin, compared
// instance by instance.
TEST(AlDiffMigration, CorpusCallbackSpecsAgree) {
#ifndef INTEROP_CORPUS_DIR
  GTEST_SKIP() << "corpus dir not configured";
#else
  std::size_t replayed = 0;
  for (const std::string& path : fuzz::list_reproducers(INTEROP_CORPUS_DIR)) {
    fuzz::Reproducer repro = fuzz::load_reproducer(path);
    if (!repro.spec.sch) continue;  // no schematic (thus no callback) leg
    sch::GeneratorOptions opt;
    opt.seed = repro.spec.seed;
    opt.sheets = repro.spec.sheets;
    opt.components_per_sheet = repro.spec.components_per_sheet;
    opt.nets_per_sheet = repro.spec.nets_per_sheet;
    opt.buses = repro.spec.buses;
    opt.bus_width = repro.spec.bus_width;
    opt.condensed_refs = repro.spec.condensed_refs;
    opt.postfix_nets = repro.spec.postfix_nets;
    opt.cross_page_nets = repro.spec.cross_page_nets;
    opt.global_taps = repro.spec.global_taps;
    opt.ports = repro.spec.ports;
    opt.analog_fraction = repro.spec.analog_pct / 100.0;
    expect_migrations_agree(opt);
    ++replayed;
  }
  EXPECT_GE(replayed, 1u) << "corpus had no schematic callback specs";
#endif
}

// Wide nightly sweep (ctest label: sweep): GOLDEN_SEED_RANGE=lo:hi widens
// the per-PR seed set; unset, the test skips so the default suite stays
// fast (mirrors the hdl_sim/pnr_route golden sweeps).
TEST(AlDiffSweep, MigrationsAgreeOverSeedRange) {
  const char* range = std::getenv("GOLDEN_SEED_RANGE");
  if (!range) GTEST_SKIP() << "GOLDEN_SEED_RANGE unset";
  std::uint64_t lo = 0, hi = 0;
  ASSERT_EQ(std::sscanf(range, "%llu:%llu",
                        reinterpret_cast<unsigned long long*>(&lo),
                        reinterpret_cast<unsigned long long*>(&hi)),
            2)
      << "GOLDEN_SEED_RANGE must be lo:hi, got " << range;
  for (std::uint64_t seed = lo; seed <= hi; ++seed) {
    sch::GeneratorOptions opt;
    opt.seed = seed;
    opt.analog_fraction = 0.5;
    expect_migrations_agree(opt);
  }
}

}  // namespace
}  // namespace interop
