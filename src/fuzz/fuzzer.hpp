#pragma once
// The coverage-guided differential fuzzer.
//
// Evaluation is organized in fixed-size *generations* to make parallelism
// invisible: the candidates of generation g are derived serially from the
// seed pool as it stood at the END of generation g-1 (candidate i mutates
// under Rng(mix(seed, g, i))), evaluated in parallel by a static partition
// over `jobs` WorkerPool jobs — run_pipeline is pure — and merged back
// SERIALLY in candidate-index order. Coverage decisions, seed-pool growth,
// reproducer naming and minimization therefore depend only on (seed,
// iterations, generation_size): `interop_fuzz --seed S --iters N` produces
// bit-identical bitmaps, seed pools and reproducers for ANY --jobs value.
// (A --time-budget-ms bound stops at a generation boundary, so wall-clock
// variation can change how MANY generations run — but never their content.)
//
// Coverage is the structural-feature bitmap of fuzz/feature.hpp; a
// candidate that sets any new bit joins the seed pool. Unexplained
// divergences are deduplicated by signature, shrunk by fuzz/minimize.hpp,
// and filed as reproducers via fuzz/corpus.hpp.

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/feature.hpp"
#include "fuzz/pipeline.hpp"
#include "fuzz/spec.hpp"

namespace interop::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 1;
  int iterations = 128;        ///< candidate evaluations (rounded up to
                               ///< whole generations)
  int generation_size = 16;
  int jobs = 1;                ///< parallel jobs (>=1); result-invariant
  std::int64_t time_budget_ms = 0;  ///< stop after this wall time (0 = off),
                                    ///< checked at generation boundaries
  /// Directory of existing reproducers to use as extra initial seeds, and
  /// where newly minimized reproducers are written. Empty = in-memory only.
  std::string corpus_dir;
  bool verbose = false;        ///< per-generation progress on stderr
};

struct FuzzStats {
  int generations = 0;
  int evaluated = 0;           ///< pipeline runs in the main loop (excludes
                               ///< minimization probes)
  int minimize_evaluations = 0;
  int designs = 0;
  int round_trips = 0;
  int seeds_kept = 0;          ///< candidates that grew coverage
  std::size_t coverage = 0;    ///< bits set in the global bitmap
  std::uint64_t bitmap_hash = 0;  ///< determinism fingerprint
  int divergences_explained = 0;
  int divergences_unexplained = 0;
  /// (evaluated, coverage) after each generation — the growth curve.
  std::vector<std::pair<int, std::size_t>> coverage_curve;
  /// One per distinct unexplained signature, already minimized.
  std::vector<Reproducer> reproducers;
  /// Paths written under corpus_dir (empty when corpus_dir is empty).
  std::vector<std::string> reproducer_paths;
  std::int64_t elapsed_ms = 0;
};

/// Run the fuzzer. Deterministic for fixed (seed, iterations,
/// generation_size, corpus_dir contents), independent of jobs.
FuzzStats fuzz(const FuzzOptions& options);

}  // namespace interop::fuzz
