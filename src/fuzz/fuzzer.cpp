#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <set>

#include "base/rng.hpp"
#include "fuzz/minimize.hpp"
#include "runtime/pool.hpp"

namespace interop::fuzz {

namespace {

/// Predicate calls one minimization of a new signature may spend.
constexpr int kMinimizeEvals = 300;

/// splitmix64-style combiner: one stream per (seed, generation, candidate).
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a;
  x ^= b + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
  x ^= c + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
  return x;
}

/// Filesystem-safe reproducer stem from an unexplained signature.
std::string repro_name(const std::string& signature, const FuzzSpec& spec) {
  std::string stem = "fuzz-";
  for (char c : signature)
    stem += (std::isalnum(static_cast<unsigned char>(c)) || c == '-') ? c
                                                                      : '_';
  // Suffix with the minimized spec's content hash so distinct minimal
  // specs for the same signature (from different fuzz runs) coexist.
  char buf[20];
  std::snprintf(buf, sizeof buf, "-%08llx",
                static_cast<unsigned long long>(feature_key(to_text(spec)) &
                                                0xffffffffULL));
  return stem + buf;
}

}  // namespace

FuzzStats fuzz(const FuzzOptions& options) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  auto elapsed_ms = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(clock::now() -
                                                                 t0)
        .count();
  };

  FuzzStats stats;
  FeatureBitmap global;
  std::vector<FuzzSpec> pool;
  std::set<std::string> known_signatures;

  // --- initial seed pool: the default spec under the run seed, one
  // single-domain spec per pipeline (so a domain-local mutation space is
  // reachable immediately), plus every existing corpus reproducer.
  {
    FuzzSpec base;
    base.seed = options.seed;
    pool.push_back(base);
    for (int domain = 0; domain < 3; ++domain) {
      FuzzSpec s = base;
      s.sch = domain == 0;
      s.hdl = domain == 1;
      s.pnr = domain == 2;
      pool.push_back(s);
    }
    if (!options.corpus_dir.empty()) {
      for (const std::string& path : list_reproducers(options.corpus_dir)) {
        try {
          Reproducer repro = load_reproducer(path);
          pool.push_back(repro.spec);
          // Known divergences must not be re-filed as new discoveries.
          if (repro.expect.rfind("unexplained:", 0) == 0)
            known_signatures.insert(repro.expect.substr(12));
        } catch (const std::exception& e) {
          std::cerr << "interop_fuzz: skipping corpus entry " << path << ": "
                    << e.what() << "\n";
        }
      }
    }
  }

  const int gen_size = std::max(1, options.generation_size);
  const int jobs = std::max(1, options.jobs);
  const int generations =
      std::max(1, (options.iterations + gen_size - 1) / gen_size);

  for (int gen = 0; gen < generations; ++gen) {
    if (options.time_budget_ms > 0 && gen > 0 &&
        elapsed_ms() >= options.time_budget_ms)
      break;

    // Candidate derivation is serial and depends only on the pool as of
    // the previous generation boundary.
    std::vector<FuzzSpec> candidates(static_cast<std::size_t>(gen_size));
    for (int i = 0; i < gen_size; ++i) {
      base::Rng rng(mix(options.seed, std::uint64_t(gen) + 1,
                        std::uint64_t(i) + 1));
      FuzzSpec spec = pool[rng.index(pool.size())];
      mutate(spec, rng);
      candidates[std::size_t(i)] = spec;
    }

    // Pure evaluation, statically partitioned by index; the caller is job 0.
    std::vector<PipelineResult> results(candidates.size());
    runtime::WorkerPool::shared().run(jobs, [&](int job) {
      for (std::size_t i = std::size_t(job); i < candidates.size();
           i += std::size_t(jobs))
        results[i] = run_pipeline(candidates[i]);
    });

    // Serial merge in candidate-index order: every global decision lives
    // here, so results are independent of evaluation interleaving.
    for (std::size_t i = 0; i < results.size(); ++i) {
      const PipelineResult& r = results[i];
      ++stats.evaluated;
      stats.designs += r.designs;
      stats.round_trips += r.round_trips;
      for (const Divergence& d : r.divergences)
        ++(d.explained ? stats.divergences_explained
                       : stats.divergences_unexplained);

      if (global.merge(r.bitmap) > 0) {
        pool.push_back(candidates[i]);
        ++stats.seeds_kept;
      }

      const std::string signature = r.signature();
      if (!signature.empty() && known_signatures.insert(signature).second) {
        MinimizeResult shrunk = minimize(
            candidates[i], signature_predicate(signature), kMinimizeEvals);
        stats.minimize_evaluations += shrunk.evaluations;

        Reproducer repro;
        repro.spec = shrunk.spec;
        PipelineResult minimal = run_pipeline(shrunk.spec);
        repro.expect = expectation_for(minimal);
        repro.name = repro_name(signature, shrunk.spec);
        repro.note = "Found by interop_fuzz (seed " +
                     std::to_string(options.seed) + ", generation " +
                     std::to_string(gen) + ").\nUnexplained divergence: " +
                     signature;
        for (const Divergence& d : minimal.divergences)
          if (!d.explained) repro.note += "\n  " + d.kind + ": " + d.detail;
        stats.reproducers.push_back(repro);
        if (!options.corpus_dir.empty())
          stats.reproducer_paths.push_back(
              save_reproducer(options.corpus_dir, repro));
      }
    }

    ++stats.generations;
    stats.coverage_curve.emplace_back(stats.evaluated, global.count());
    if (options.verbose) {
      std::cerr << "interop_fuzz: gen " << gen << "  evals " << stats.evaluated
                << "  coverage " << global.count() << "  pool " << pool.size()
                << "  unexplained " << stats.reproducers.size() << "\n";
    }
  }

  stats.coverage = global.count();
  stats.bitmap_hash = global.hash();
  stats.elapsed_ms = elapsed_ms();
  return stats;
}

}  // namespace interop::fuzz
