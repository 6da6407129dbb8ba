#pragma once
// Shared vocabulary of the interop benchmark: run options, the report each
// workload fills, and the timing and statistics helpers they share.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "schematic/migrate.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (store segments live here).
  std::string workdir;

  /// Length of one measured phase. A traced run measures twice (untraced,
  /// then traced) and splits its time between the two, so it takes about
  /// as long as an untraced run.
  double phase_seconds() const { return trace ? seconds / 2 : seconds; }
};

/// What one workload run produced. Metric maps are keyed by the names in
/// BENCHMARK.json; main.cpp prints them in that order with their units.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable lines printed to stderr and kept in the results file
  /// (the per-layer self-time table, the per-mode flow medians, ...).
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now().time_since_epoch())
                           .count());
}

inline double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return double(end_ns - start_ns) / 1e6;
}

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * double(v.size() - 1);
  std::size_t lo = std::size_t(rank);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - double(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50);
}

/// One measured request: when it completed and how long it took.
struct Sample {
  std::uint64_t end_ns = 0;
  double ms = 0;
};

/// Host speed. On a shared host the speed of the same code drifts by tens
/// of percent within seconds and over minutes, so every time the benchmark
/// reports is scaled to a reference speed: multiplied by
/// kReferenceProbeMs / (the probe kernel's time while it was measured).
/// The probe kernel is the benchmark's own fixed CPU work (random keys, a
/// hash table, a sort and lookups), so no change to the program under test
/// moves it. Its time is the CPU time of the thread running it, so the
/// program's own threads taking turns on a CPU with it do not count.
inline constexpr double kReferenceProbeMs = 2.5;

/// Runs the probe kernel back to back for `seconds` on the calling thread;
/// returns its median CPU time in ms.
double probe_host_ms(double seconds);
/// How long the probe runs before and after the set-ups.
inline constexpr double kProbeSeconds = 0.3;

/// Runs the probe kernel on a thread of its own while the load runs, once
/// every kPeriodMs (a few percent of one core), until stop().
class HostProbe {
 public:
  static constexpr int kPeriodMs = 40;
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;
  void stop();
  /// Mean kernel CPU time in ms over the runs that ended in [from, to)
  /// (over all runs when none did), leaving out the fastest and slowest
  /// tenth.
  double mean_ms(std::uint64_t from_ns, std::uint64_t to_ns) const;

 private:
  std::vector<Sample> runs_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A measured phase is cut into kSegments equal segments.
inline constexpr int kSegments = 10;

/// One segment: closed-loop clients (or the one calling thread) started
/// together at start_ns; each ran requests until the segment's deadline
/// and finished the one in flight.
struct Segment {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double probe_ms = kReferenceProbeMs;  ///< the host probe during it
  std::vector<std::vector<Sample>> clients;  ///< completed requests, by client

  /// Reference-speed time of one ms measured in this segment.
  double scale() const { return kReferenceProbeMs / probe_ms; }
  std::vector<double> latencies() const;
};

/// Sets each segment's probe_ms from `probe` (stopped).
void assign_probes(std::vector<Segment>& segments, const HostProbe& probe);

/// End-to-end figures of a measured phase, from its segments. Each segment
/// gets its own throughput (the sum over clients of completions over the
/// time from the segment's start to the client's last completion, which is
/// exact for a closed loop) and percentiles, all scaled to the reference
/// speed. Reported are the upper quartile of the throughputs and the lower
/// quartile of the percentiles: a burst of other work on a shared host only
/// ever slows a segment down, so it moves a few segments, not the result.
struct PhaseStats {
  double throughput_rps = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double probe_ms = 0;  ///< median of the phase's probes
  std::vector<double> latencies_ms;  ///< every sample, scaled
  std::string per_segment;           ///< each segment's figures, for the notes
};
PhaseStats summarize(const std::vector<Segment>& segments);

/// Runs f(0) .. f(n - 1) on up to four threads; rethrows the first
/// exception once every thread has ended. For generating inputs and their
/// reference results, which is not timed.
void parallel_for(int n, const std::function<void(int)>& f);

/// Derive an independent 64-bit stream seed from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

/// The migration configuration InteropService builds at construction:
/// viewlogic -> composer under the standard symbol, global and property
/// maps and the standard target library. Reference results are computed
/// under it so they match what the service returns.
interop::sch::MigrationConfig service_migration_config();

/// Each workload repeats its set-up at least kSetupReps times and for at
/// least kSetupSeconds; setup_s is the median.
inline constexpr std::size_t kSetupReps = 31;
inline constexpr double kSetupSeconds = 0.25;
inline bool more_setups(std::size_t done, std::uint64_t begin_ns) {
  return done < kSetupReps || now_ns() - begin_ns < kSetupSeconds * 1e9;
}
/// setup_s at reference speed from the set-up times (s) and the probe's
/// time around them; notes the raw figures.
double setup_seconds(const std::vector<double>& setups, double probe_ms,
                     Report& report);

/// Workload entry points. Each fills `report`; a correctness failure is
/// recorded with Report::fail and never throws.
void run_migrate_large(const Options& opt, Report& report);
void run_service_mix(const Options& opt, Report& report);
void run_tapeout_flow(const Options& opt, Report& report);

}  // namespace perfbench
