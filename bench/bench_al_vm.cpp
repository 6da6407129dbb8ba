// a/L bench — prices migration-callback evaluation on the bytecode VM
// against the tree-walking oracle (tests/al_oracle.hpp) and prints one
// JSON object for the bench harness (BENCH_al_vm.json via
// bench/run_perf.sh). See EXPERIMENTS.md §V1.
//
// Scenarios:
//  - callback: the production shape. A callback host runs the rule on
//    every migrated object (that is what migrate_design does per
//    instance); the oracle re-reads and re-walks the rule source each
//    time, while sch::CallbackHost compiles it once and replays the
//    closure. This is the §V1 headline number, measured on a composite
//    rule-file callback (family dispatch + the T2 analog model split).
//  - migration: end-to-end migrate_design on the T2 exar scenario with a
//    high analog fraction, on the VM. Callbacks are one slice of a
//    migration, so this bounds what the VM buys at the pipeline level.
//  - dispatch: a recursive fib workload evaluated once per evaluator —
//    isolates raw eval/apply dispatch with no parse or cache effects.
//
// Self-checking: exits nonzero unless the oracle and the VM transform
// every object identically (the callback objects, and a per-instance
// replay of each migration's callback step), and the VM's callback
// throughput is at least 10x the oracle's.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "al_oracle.hpp"
#include "base/diagnostics.hpp"
#include "base/property.hpp"
#include "schematic/generator.hpp"
#include "schematic/mapping.hpp"
#include "schematic/migrate.hpp"

using namespace interop;

namespace {

std::uint64_t now_us() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

bool g_ok = true;

void require(bool cond, const std::string& what) {
  if (!cond) {
    std::cerr << "bench_al_vm: SELF-CHECK FAILED: " << what << "\n";
    g_ok = false;
  }
}

// A production-shaped composite migration rule: Exar's non-standard
// property work was one rule file handling every component family the
// mapping tables cover, dispatched per object on the refdes prefix. Any
// single object executes one branch, but the walker re-reads and re-walks
// the ENTIRE rule for every object — which is why compiled replay wins.
// The R branch is the standard T2 analog reformatting (split
// "model=<name>:<res>:<cap>" into three target properties); the C branch
// additionally normalizes unit suffixes through string->number /
// number->string.
const char* kCompositeRule = R"AL(
  ;; helpers shared by the family branches ---------------------------
  (define (unit-scale suf)
    (cond ((equal? suf "k") 1000.0)
          ((equal? suf "M") 1000000.0)
          ((equal? suf "m") 0.001)
          ((equal? suf "u") 0.000001)
          ((equal? suf "n") 0.000000001)
          ((equal? suf "p") 0.000000000001)
          (#t nil)))
  (define (expand-unit s)
    (let ((n (string-length s)))
      (if (< n 2)
          s
          (let ((sc (unit-scale (substring s (- n 1) n))))
            (if (nil? sc)
                s
                (let ((mag (string->number (substring s 0 (- n 1)))))
                  (if (number? mag)
                      (number->string (* mag sc))
                      s)))))))
  (define (split-model obj want extras)
    (if (prop-has? obj "model")
        (let ((parts (string-split (prop-get obj "model") ":")))
          (if (= (length parts) want)
              (begin
                (prop-set! obj "model" (nth parts 0))
                (if (>= want 2) (prop-set! obj (nth extras 0) (nth parts 1)) nil)
                (if (>= want 3) (prop-set! obj (nth extras 1) (nth parts 2)) nil))
              nil))
        nil))
  (define (relabel obj name prefix)
    (if (prop-has? obj name)
        (prop-set! obj name (string-append prefix (prop-get obj name)))
        nil))
  ;; the per-object dispatcher ---------------------------------------
  (lambda (obj)
    (let ((kind (if (prop-has? obj "refdes")
                    (substring (prop-get obj "refdes") 0 1)
                    "?")))
      (cond
        ;; resistors: the T2 three-way model split
        ((equal? kind "R") (split-model obj 3 (list "res" "cap")))
        ;; capacitors: two-way split, value suffix normalized to base units
        ((equal? kind "C")
         (begin
           (split-model obj 2 (list "value" ""))
           (if (prop-has? obj "value")
               (prop-set! obj "value" (expand-unit (prop-get obj "value")))
               nil)))
        ;; inductors: two-way split plus legacy Q-factor rename
        ((equal? kind "L")
         (begin
           (split-model obj 2 (list "value" ""))
           (if (prop-has? obj "QF")
               (begin (prop-set! obj "q" (prop-get obj "QF"))
                      (prop-delete! obj "QF"))
               nil)))
        ;; bipolars: beta default + vendor model prefix
        ((equal? kind "Q")
         (begin
           (if (prop-has? obj "beta") nil (prop-set! obj "beta" "100"))
           (relabel obj "model" "tgt_")))
        ;; MOS devices: W/L fallbacks from the legacy SIZE property
        ((equal? kind "M")
         (if (prop-has? obj "SIZE")
             (let ((wl (string-split (prop-get obj "SIZE") "x")))
               (if (= (length wl) 2)
                   (begin (prop-set! obj "w" (expand-unit (nth wl 0)))
                          (prop-set! obj "l" (expand-unit (nth wl 1)))
                          (prop-delete! obj "SIZE"))
                   nil))
             nil))
        ;; diodes: area default, vendor model prefix
        ((equal? kind "D")
         (begin
           (if (prop-has? obj "area") nil (prop-set! obj "area" "1"))
           (relabel obj "model" "tgt_")))
        ;; hierarchical blocks: strip the source-library path prefix
        ((equal? kind "X")
         (if (prop-has? obj "cell")
             (prop-set! obj "cell"
                        (string-replace (prop-get obj "cell") "srclib/" ""))
             nil))
        ;; annotation-only objects pass through untouched
        (#t nil))))
)AL";

base::PropertySet object_props(int i) {
  base::PropertySet props;
  if (i % 3 == 0) {
    // capacitor: two-part model, unit-suffixed value
    props.set("model", "cm" + std::to_string(i) + ":" +
                           std::to_string(1 + i % 9) + "p");
    props.set("refdes", "C" + std::to_string(i));
  } else {
    // resistor: the classic three-part analog model
    props.set("model", "cx" + std::to_string(i) + ":4.7k:" +
                           std::to_string(i % 9) + "p");
    props.set("refdes", "R" + std::to_string(i));
  }
  return props;
}

/// Run `iters` Host::run invocations (fresh object each time, the way
/// migrate_design drives it). Returns wall micros; appends the final
/// property text of every object to `out` for the oracle-vs-VM comparison.
template <class Host>
std::uint64_t run_callbacks(int iters, std::string& out) {
  Host host;
  sch::CallbackRule rule{"", kCompositeRule};
  base::DiagnosticEngine diags;
  std::vector<base::PropertySet> objects;
  objects.reserve(std::size_t(iters));
  for (int i = 0; i < iters; ++i) objects.push_back(object_props(i));

  std::uint64_t t0 = now_us();
  for (int i = 0; i < iters; ++i)
    require(host.run(rule, "vl_res", objects[std::size_t(i)], diags),
            "callback ran clean");
  std::uint64_t wall = now_us() - t0;

  require(!diags.has_errors(), "no callback diagnostics");
  for (const base::PropertySet& props : objects)
    for (const auto& [name, value] : props)
      out += name + "=" + value.text() + ";";
  return wall;
}

}  // namespace

int main() {
  std::ostringstream js;
  js << "{\n";

  // --------------------------------------------------------- callback
  {
    const int iters = 20'000;
    const int reps = 5;
    // Each side's time is its fastest of `reps` interleaved repetitions: a
    // single timing per side let load on a shared host swing the ratio
    // between 12x and 22x.
    std::uint64_t walker_us = UINT64_MAX, vm_us = UINT64_MAX;
    for (int rep = 0; rep < reps; ++rep) {
      std::string walker_out, vm_out;
      walker_us = std::min(walker_us, run_callbacks<al::oracle::CallbackOracle>(
                                          iters, walker_out));
      vm_us = std::min(vm_us, run_callbacks<sch::CallbackHost>(iters, vm_out));
      require(walker_out == vm_out,
              "oracle and VM transformed objects identically");
    }
    double walker_per_s = 1e6 * double(iters) / double(walker_us);
    double vm_per_s = 1e6 * double(iters) / double(vm_us);
    double speedup = vm_us ? double(walker_us) / double(vm_us) : 0;
    require(speedup >= 10.0, "bytecode callback throughput >= 10x walker");
    js << " \"callback\": {\"iters\": " << iters << ", \"reps\": " << reps
       << ", \"walker_per_s\": " << std::uint64_t(walker_per_s)
       << ", \"bytecode_per_s\": " << std::uint64_t(vm_per_s)
       << ", \"speedup_x\": " << speedup << "},\n";
  }

  // -------------------------------------------------------- migration
  {
    const int seeds = 4;
    std::uint64_t vm_us = 0;
    std::size_t callbacks = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      sch::GeneratorOptions opt;
      opt.seed = seed;
      opt.components_per_sheet = 48;
      opt.analog_fraction = 0.9;
      sch::Scenario scenario = sch::make_exar_scenario(opt);
      base::DiagnosticEngine diags;
      std::uint64_t t0 = now_us();
      sch::MigrationResult result =
          sch::migrate_design(scenario.source, scenario.config, diags);
      vm_us += now_us() - t0;
      callbacks += result.report.props.callbacks_run;
      al::oracle::CallbackReplay replay = al::oracle::callback_replay(
          scenario.source, scenario.config.property_rules);
      require(replay.mismatches.empty(),
              "oracle and VM agree on every migrated instance");
      require(replay.callbacks_run == result.report.props.callbacks_run,
              "replay ran the migration's callbacks");
    }
    require(callbacks > 0, "migration exercised callbacks");
    js << " \"migration\": {\"seeds\": " << seeds
       << ", \"callbacks_run\": " << callbacks
       << ", \"bytecode_us\": " << vm_us << "},\n";
  }

  // --------------------------------------------------------- dispatch
  {
    const char* fib =
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
        " (fib 21)";
    std::uint64_t us[2] = {0, 0};
    for (bool on_vm : {false, true}) {
      al::Interpreter host;
      al::oracle::Walker walker(host);
      std::uint64_t t0 = now_us();
      al::Value out = on_vm ? host.eval_source(fib) : walker.eval_source(fib);
      us[on_vm] = now_us() - t0;
      require(out.as_int() == 10946, "fib(21)");
    }
    js << " \"dispatch\": {\"workload\": \"fib21\", \"walker_us\": " << us[0]
       << ", \"bytecode_us\": " << us[1] << ", \"speedup_x\": "
       << (us[1] ? double(us[0]) / double(us[1]) : 0) << "},\n";
  }

  js << " \"self_check\": \"" << (g_ok ? "pass" : "FAIL") << "\"\n}\n";
  std::cout << js.str();
  return g_ok ? 0 : 1;
}
