#include "bench.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <exception>
#include <mutex>

#include "base/rng.hpp"
#include "schematic/dialect.hpp"
#include "schematic/generator.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  interop::base::Rng rng(seed * 0x100000001b3ull + stream);
  return rng.next();
}

namespace {

/// The probe kernel: random keys, an open-addressing hash table, a sort
/// and lookups, over about 0.6 MB of buffers allocated once, so repeated
/// runs leave the heap alone.
class ProbeKernel {
 public:
  ProbeKernel() : keys_(1 << 14), table_(1 << 16) {}

  /// One run. The result depends on every step, so the compiler cannot
  /// drop any of them.
  std::uint64_t run(std::uint64_t x) {
    const std::size_t mask = table_.size() - 1;
    std::fill(table_.begin(), table_.end(), 0);
    for (std::uint64_t& k : keys_) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      k = (x ^ (x >> 29)) | 1;
      std::size_t slot = (k * 0x9e3779b97f4a7c15ull) >> 48;
      while (table_[slot] != 0 && table_[slot] != k) slot = (slot + 1) & mask;
      table_[slot] = k;
    }
    std::sort(keys_.begin(), keys_.end());
    std::uint64_t acc = 0;
    for (std::uint64_t k : keys_) {
      std::size_t slot = ((k ^ 2) * 0x9e3779b97f4a7c15ull) >> 48;
      while (table_[slot] != 0) slot = (slot + 1) & mask;
      acc += slot;
      acc += std::size_t(std::lower_bound(keys_.begin(), keys_.end(),
                                          k ^ acc) - keys_.begin());
    }
    return acc;
  }

 private:
  std::vector<std::uint64_t> keys_, table_;
};

/// CPU time of the calling thread, in ns.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::uint64_t(ts.tv_sec) * 1000000000ull + std::uint64_t(ts.tv_nsec);
}

}  // namespace

double probe_host_ms(double seconds) {
  volatile std::uint64_t sink = 0;
  ProbeKernel kernel;
  std::vector<double> ms;
  std::uint64_t start = now_ns();
  do {
    std::uint64_t t0 = thread_cpu_ns();
    sink = sink + kernel.run(ms.size() + 1);
    ms.push_back(ms_between(t0, thread_cpu_ns()));
  } while (ms.size() < 5 || now_ns() - start < std::uint64_t(seconds * 1e9));
  return median(ms);
}

HostProbe::HostProbe()
    : thread_([this] {
        volatile std::uint64_t sink = 0;
        ProbeKernel kernel;
        runs_.reserve(1 << 12);
        // Visit every CPU the process may use in turn: the speed of a
        // shared host's CPUs differs, and the load runs on all of them.
        std::vector<int> cpus;
        cpu_set_t allowed;
        if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
          for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
        for (std::size_t i = 0; !stop_.load(); ++i) {
          if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[i % cpus.size()], &one);
            pthread_setaffinity_np(pthread_self(), sizeof one, &one);
          }
          std::uint64_t t0 = thread_cpu_ns();
          sink = sink + kernel.run(runs_.size() + 1);
          runs_.push_back({now_ns(), ms_between(t0, thread_cpu_ns())});
          std::this_thread::sleep_for(std::chrono::milliseconds(kPeriodMs));
        }
      }) {}

HostProbe::~HostProbe() { stop(); }

void HostProbe::stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

double HostProbe::mean_ms(std::uint64_t from_ns, std::uint64_t to_ns) const {
  std::vector<double> in, all;
  for (const Sample& s : runs_) {
    all.push_back(s.ms);
    if (s.end_ns >= from_ns && s.end_ns < to_ns) in.push_back(s.ms);
  }
  std::vector<double>& v = in.empty() ? all : in;
  std::sort(v.begin(), v.end());
  std::size_t cut = v.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return v.empty() ? kReferenceProbeMs : sum / double(v.size() - 2 * cut);
}

void assign_probes(std::vector<Segment>& segments, const HostProbe& probe) {
  for (Segment& seg : segments)
    seg.probe_ms = probe.mean_ms(seg.start_ns, seg.end_ns);
}

std::vector<double> Segment::latencies() const {
  std::vector<double> ms;
  for (const std::vector<Sample>& c : clients)
    for (const Sample& s : c) ms.push_back(s.ms * scale());
  return ms;
}

PhaseStats summarize(const std::vector<Segment>& segments) {
  PhaseStats out;
  std::vector<double> rps, p50, p90, probes;
  out.per_segment =
      "segments (probe ms; req/s, p50 ms, p90 ms at reference speed):";
  for (const Segment& seg : segments) {
    double rate = 0;
    for (const std::vector<Sample>& c : seg.clients)
      if (!c.empty() && c.back().end_ns > seg.start_ns)
        rate += double(c.size()) * 1e9 / double(c.back().end_ns - seg.start_ns);
    std::vector<double> ms = seg.latencies();
    rps.push_back(rate / seg.scale());
    p50.push_back(percentile(ms, 50));
    p90.push_back(percentile(ms, 90));
    probes.push_back(seg.probe_ms);
    out.latencies_ms.insert(out.latencies_ms.end(), ms.begin(), ms.end());
    char buf[96];
    std::snprintf(buf, sizeof buf, " [%.3f; %.4g %.4g %.4g]",
                  seg.probe_ms, rps.back(), p50.back(), p90.back());
    out.per_segment += buf;
  }
  out.throughput_rps = percentile(rps, 75);
  out.p50_ms = percentile(p50, 25);
  out.p90_ms = percentile(p90, 25);
  out.probe_ms = median(probes);
  return out;
}

double setup_seconds(const std::vector<double>& setups, double probe_ms,
                     Report& report) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "set-ups: %zu, raw median %.6g s, probe %.3f ms", setups.size(),
                median(setups), probe_ms);
  report.notes.push_back(buf);
  return median(setups) * kReferenceProbeMs / probe_ms;
}

void parallel_for(int n, const std::function<void(int)>& f) {
  std::atomic<int> next{0};
  std::mutex mu;
  std::exception_ptr error;  // guarded by mu
  auto work = [&] {
    for (int i = next++; i < n; i = next++) {
      try {
        f(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

interop::sch::MigrationConfig service_migration_config() {
  namespace sch = interop::sch;
  sch::MigrationConfig config;
  config.source = sch::viewlogic_dialect();
  config.target = sch::composer_dialect();
  config.symbol_map = sch::make_standard_symbol_map();
  config.global_map = sch::make_standard_global_map();
  config.property_rules = sch::make_standard_property_rules();
  config.target_symbols = sch::make_target_library();
  return config;
}

}  // namespace perfbench
