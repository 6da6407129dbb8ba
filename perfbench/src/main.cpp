// perfbench: the interop benchmark.
//
//   perfbench --workload migrate_large|service_mix|tapeout_flow --seed N
//             --seconds S --trace 0|1 --workdir DIR [--results DIR]
//             [--commit SHA]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 spends half its time on that untraced run and half on a run
// with the same seed and inputs and the benchmark's own spans around every
// call into a layer, and reports the per-layer metrics (the untraced half
// gives the tracing overhead). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A human-readable table goes to stderr, and the full result (metadata
// stamp, every metric, the notes) to --results as JSON.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the names).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_rps", "req/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"service.wire_encode_us", "us"},
    {"service.wire_decode_us", "us"},
    {"service.handle_us", "us"},
    {"service.queue_wait_us_p50", "us"},
    {"service.queue_wait_us_p90", "us"},
    {"service.rejected", "count"},
    {"schematic.read_design_ms", "ms"},
    {"schematic.migrate_design_ms", "ms"},
    {"schematic.verify_migration_ms", "ms"},
    {"schematic.write_design_ms", "ms"},
    {"schematic.extract_netlist_ms", "ms"},
    {"schematic.instances", "count"},
    {"schematic.design_kb", "KiB"},
    {"al.callbacks_run", "count"},
    {"runtime.run_ms", "ms"},
    {"runtime.executed", "count"},
    {"runtime.cache_hits", "count"},
    {"runtime.hit_ratio", "ratio"},
    {"runtime.cache_stores", "count"},
    {"runtime.cache_evictions", "count"},
    {"runtime.batches", "count"},
    {"runtime.steals", "count"},
    {"runtime.utilization", "ratio"},
    {"store.open_ms", "ms"},
    {"store.appends", "count"},
    {"store.appended_bytes", "bytes"},
    {"store.dedup_hits", "count"},
    {"hdl.parse_ms", "ms"},
    {"hdl.elaborate_ms", "ms"},
    {"hdl.synthesize_ms", "ms"},
    {"hdl.sim_ms", "ms"},
    {"hdl.gates", "count"},
    {"pnr.generate_ms", "ms"},
    {"pnr.place_ms", "ms"},
    {"pnr.export_ms", "ms"},
    {"pnr.route_ms", "ms"},
    {"pnr.check_ms", "ms"},
    {"pnr.wirelength", "count"},
    {"pnr.failed_nets", "count"},
    {"trace.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"latency_p99_ms", "ms"},
    {"flow_cold_ms", "ms"},
    {"flow_warm_ms", "ms"},
    {"flow_edit_ms", "ms"},
    {"failed_frac", "ratio"},
    {"host.probe_ms", "ms"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, double>& values,
                         const MetricDef* defs, std::size_t n) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    if (i) out += ", ";
    out += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
           number(values.at(defs[i].name)) + ", \"unit\": \"" + defs[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string utc_now() {
  std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Commit, build type, core count, compiler and date, stamped on every
/// result. `release` is false unless this is a Release build with NDEBUG.
std::string meta_json(const std::string& commit, bool* release) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  *release = ndebug && std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  return std::string("{\"commit\": \"") + json_escape(commit) +
         "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
         "\", \"ndebug\": " + (ndebug ? "true" : "false") +
         ", \"release\": " + (*release ? "true" : "false") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) +
         "\", \"date\": \"" + utc_now() + "\"}";
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "migrate_large|service_mix|tapeout_flow --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--results DIR] [--commit SHA]\n";
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  std::string results_dir, commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::stoull(v);
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") opt.trace = v != "0";
    else if (a == "--workdir") opt.workdir = v;
    else if (a == "--results") results_dir = v;
    else if (a == "--commit") commit = v;
    else return usage(("unknown argument " + a).c_str());
  }
  if (opt.workdir.empty()) return usage("--workdir is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  void (*workload)(const Options&, Report&) = nullptr;
  if (opt.workload == "migrate_large") workload = run_migrate_large;
  if (opt.workload == "service_mix") workload = run_service_mix;
  if (opt.workload == "tapeout_flow") workload = run_tapeout_flow;
  if (!workload)
    return usage(("unknown workload '" + opt.workload + "'").c_str());

  bool release = false;
  std::string meta = meta_json(commit, &release);
  std::cerr << "perfbench meta " << meta << "\n";
  if (!release)
    std::cerr << "WARNING: not a Release build with NDEBUG; these numbers "
                 "are not comparable with Release results\n";

  std::filesystem::create_directories(opt.workdir);
  Report report;
  workload(opt, report);
  report.end_to_end["peak_rss_mb"] = peak_rss_mib();
  report.per_layer["failed_frac"] =
      report.attempted ? double(report.failed) / double(report.attempted) : 1;
  // Per-layer metrics the untraced run also measured (the stderr table
  // shows them); layers a workload does not exercise read 0.
  std::set<std::string> measured;
  for (const auto& [name, v] : report.per_layer) measured.insert(name);
  for (const MetricDef& d : kPerLayer) report.per_layer.emplace(d.name, 0.0);
  for (const MetricDef& d : kEndToEnd)
    if (report.end_to_end.emplace(d.name, 0.0).second)
      report.fail(std::string("end-to-end metric not measured: ") + d.name);
  for (auto* m : {&report.end_to_end, &report.per_layer})
    for (auto& [name, v] : *m)
      if (!std::isfinite(v)) {
        report.fail("non-finite value for " + name);
        v = 0;
      }
  if (report.attempted == 0) report.fail("no requests were attempted");
  bool correct = report.failed == 0;

  // Human-readable summary on stderr.
  std::fprintf(stderr, "workload %s seed %llu seconds %g trace %d\n",
               opt.workload.c_str(), (unsigned long long)opt.seed,
               opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& n : report.notes)
    std::fprintf(stderr, "%s\n", n.c_str());
  for (const MetricDef& d : kEndToEnd)
    std::fprintf(stderr, "  %-32s %16.6g %s\n", d.name,
                 report.end_to_end.at(d.name), d.unit);
  for (const MetricDef& d : kPerLayer)
    if (opt.trace || measured.count(d.name))
      std::fprintf(stderr, "  %-32s %16.6g %s\n", d.name,
                   report.per_layer.at(d.name), d.unit);
  for (const std::string& e : report.errors)
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());

  std::string e2e =
      metrics_json(report.end_to_end, kEndToEnd, std::size(kEndToEnd));
  std::string layers =
      metrics_json(report.per_layer, kPerLayer, std::size(kPerLayer));
  if (!results_dir.empty()) {
    std::filesystem::create_directories(results_dir);
    std::ostringstream notes, errors;
    for (const std::string& n : report.notes)
      notes << (notes.tellp() > 0 ? ", " : "") << "\"" << json_escape(n)
            << "\"";
    for (const std::string& e : report.errors)
      errors << (errors.tellp() > 0 ? ", " : "") << "\"" << json_escape(e)
             << "\"";
    std::ofstream out(results_dir + "/" + opt.workload + "-seed" +
                      std::to_string(opt.seed) + "-trace" +
                      (opt.trace ? "1" : "0") + ".json");
    out << "{\"meta\": " << meta << ", \"workload\": \"" << opt.workload
        << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
        << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"correct\": "
        << (correct ? "true" : "false") << ", \"attempted\": "
        << report.attempted << ", \"failed\": " << report.failed
        << ", \"errors\": [" << errors.str() << "], \"end_to_end\": " << e2e
        << ", \"per_layer\": " << layers << ", \"notes\": [" << notes.str()
        << "]}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << (opt.trace ? layers : e2e) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
