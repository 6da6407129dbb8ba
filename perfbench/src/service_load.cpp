// migrate_large and service_mix: closed-loop client threads against one
// InteropService in this process. Each client sends its next request as
// soon as the previous response arrives (no think time).
//
// Untraced run: clients go through LoopbackClient, the same wire round trip
// the daemon's connections take. Traced run: clients drive the wire codec
// themselves (encode_request / FrameReader / decode_request around
// InteropService::call, and the response leg back), so wire time is a span
// of its own. Queue wait and handler time come from the service's metrics.
// The schematic stage split comes from replaying each distinct design
// through the stage functions under the service's migration config; the
// replay must reproduce the service's response byte for byte.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "base/rng.hpp"
#include "bench.hpp"
#include "obs/metrics.hpp"
#include "runtime/hash.hpp"
#include "schematic/generator.hpp"
#include "schematic/netlist.hpp"
#include "schematic/textio.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

namespace sch = interop::sch;
namespace obs = interop::obs;
using interop::runtime::fnv1a;
using interop::service::FrameReader;
using interop::service::InteropService;
using interop::service::LoopbackClient;
using interop::service::MsgType;
using interop::service::Request;
using interop::service::Response;
using interop::service::ServiceOptions;
using interop::service::Status;

constexpr int kServiceWorkers = 2;
constexpr std::uint32_t kFlowWidth = 8;
/// FlowRun seeds come from this many lineages.
constexpr int kLineages = 128;

/// What differs between the two service workloads.
struct Config {
  int clients = 1;
  std::size_t cache_entries = 0;
  /// Request mix in percent (sums to 100).
  int ping_pct = 0;
  int flow_pct = 0;
  int netlist_pct = 0;
  int migrate_pct = 0;
  /// Designs pre-generated from the seed; clients go round robin over them.
  int designs = 4;
  sch::GeneratorOptions design_opt;
  /// Unmeasured requests per client before the measured phase.
  int warmup_per_client = 0;
};

/// One pre-generated design with the reference results the service's
/// responses are checked against.
struct DesignRef {
  std::string text;
  double instances = 0;
  double kb = 0;
  std::uint64_t migrated_digest = 0;
  double callbacks_run = 0;
  std::uint64_t netlist_digest = 0;
  bool reference_diffs = false;  ///< the reference migration had diffs
};

struct Inputs {
  Config cfg;
  sch::MigrationConfig migration;
  std::vector<DesignRef> designs;
  std::vector<std::uint64_t> lineage_seeds;
};

/// The Netlist endpoint's body format, rebuilt from extract_netlist.
std::string netlist_body(const sch::Netlist& netlist) {
  std::ostringstream body;
  for (const auto& [name, net] : netlist.nets)
    body << "net " << name << " pins=" << net.connections.size()
         << " port=" << (net.is_port ? 1 : 0)
         << " global=" << (net.global ? 1 : 0) << "\n";
  return body.str();
}

Inputs make_inputs(const Config& cfg, std::uint64_t seed, Report& report) {
  Inputs in;
  in.cfg = cfg;
  in.migration = service_migration_config();
  in.designs.resize(std::size_t(cfg.designs));
  parallel_for(cfg.designs, [&](int d) {
    sch::GeneratorOptions gen = cfg.design_opt;
    gen.seed = derive_seed(seed, 1 + std::uint64_t(d));
    sch::Scenario scenario = sch::make_exar_scenario(gen);
    DesignRef& ref = in.designs[std::size_t(d)];
    ref.text = sch::write_design(scenario.source);
    ref.instances = double(scenario.source.instance_count());
    ref.kb = double(ref.text.size()) / 1024.0;

    interop::base::DiagnosticEngine diags;
    sch::Design src = sch::read_design(ref.text, diags);
    if (cfg.migrate_pct > 0) {
      sch::MigrationResult r = sch::migrate_design(src, in.migration, diags);
      interop::base::DiagnosticEngine verify_diags;
      ref.reference_diffs =
          !sch::verify_migration(src, r.design, in.migration, verify_diags)
               .empty();
      ref.migrated_digest = fnv1a(sch::write_design(r.design));
      ref.callbacks_run = double(r.report.props.callbacks_run);
    }
    if (cfg.netlist_pct > 0) {
      const sch::Schematic* top = src.find_schematic("top");
      ref.netlist_digest = fnv1a(netlist_body(
          sch::extract_netlist(src, *top, in.migration.source, diags)));
    }
  });
  for (int d = 0; d < cfg.designs; ++d)
    if (in.designs[std::size_t(d)].reference_diffs)
      report.fail("reference migration of design " + std::to_string(d) +
                  " has netlist diffs");
  for (int i = 0; i < kLineages; ++i)
    in.lineage_seeds.push_back(derive_seed(seed, 1000 + std::uint64_t(i)));
  return in;
}

struct Pick {
  MsgType type = MsgType::Ping;
  int design = -1;   ///< Migrate/Netlist only
  int lineage = -1;  ///< FlowRun only
};

/// The next request of a client; `cursor` picks the design.
Pick next_pick(interop::base::Rng& rng, const Inputs& in, std::size_t cursor) {
  const Config& c = in.cfg;
  int roll = int(rng.uniform(0, 99));
  Pick p;
  if ((roll -= c.ping_pct) < 0) {
    p.type = MsgType::Ping;
  } else if ((roll -= c.flow_pct) < 0) {
    p.type = MsgType::FlowRun;
    p.lineage = int(rng.index(in.lineage_seeds.size()));
  } else {
    p.type = (roll -= c.netlist_pct) < 0 ? MsgType::Netlist : MsgType::Migrate;
    p.design = int(cursor % in.designs.size());
  }
  return p;
}

/// Empty when `resp` matches the reference for `p`, else why not.
std::string check_response(const Pick& p, const Response& resp,
                           const Inputs& in) {
  if (resp.status != Status::Ok)
    return to_string(p.type) + ": status " + to_string(resp.status) + ": " +
           resp.error;
  switch (p.type) {
    case MsgType::Ping:
      if (resp.body != "pong") return "Ping: body is not pong";
      break;
    case MsgType::Migrate: {
      const DesignRef& ref = in.designs[std::size_t(p.design)];
      if (resp.counter("diffs", 1) != 0) return "Migrate: diffs != 0";
      if (fnv1a(resp.body) != ref.migrated_digest)
        return "Migrate: migrated text differs from the reference";
      break;
    }
    case MsgType::Netlist:
      if (fnv1a(resp.body) != in.designs[std::size_t(p.design)].netlist_digest)
        return "Netlist: body differs from the reference";
      break;
    case MsgType::FlowRun: {
      std::uint64_t steps = std::uint64_t(kFlowWidth) + 2;
      if (resp.counter("executed") + resp.counter("cache_hits") != steps)
        return "FlowRun: executed + cache_hits != width + 2";
      if (resp.counter("failures", 1) != 0) return "FlowRun: failures != 0";
      break;
    }
    default:
      return "unexpected request type";
  }
  return {};
}

/// What one client saw in one phase.
struct ClientResult {
  std::vector<Sample> samples;  ///< measured, OK and correct requests
  std::vector<MsgType> sample_type;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures
  // Traced-phase tallies over measured requests.
  std::map<std::pair<MsgType, int>, std::uint64_t> by_kind;  ///< (type, design)
  std::map<std::pair<MsgType, int>, std::string> first_body;
  double flow_wall_us = 0;
  double flow_executed = 0;
  double flow_hits = 0;
};

struct PhaseResult {
  std::vector<ClientResult> clients;
  std::vector<Segment> segments;

  std::size_t measured() const {
    std::size_t n = 0;
    for (const ClientResult& c : clients) n += c.samples.size();
    return n;
  }
};

/// One request through the wire codec by hand, with a span per leg.
Response traced_call(InteropService& svc, const Request& req,
                     SpanRecorder* rec, std::uint64_t rid,
                     std::uint64_t root) {
  std::string frame, payload, error;
  Request decoded;
  bool framed = false;
  {
    ScopedSpan s(rec, rid, root, "service.wire_encode");
    frame = interop::service::encode_request(req);
  }
  {
    ScopedSpan s(rec, rid, root, "service.wire_decode");
    FrameReader reader;
    reader.feed(frame);
    framed = reader.next(&payload, &error) == FrameReader::Result::Frame &&
             interop::service::decode_request(payload, &decoded, &error);
  }
  Response resp;
  if (!framed) {
    resp.status = Status::Error;
    resp.error = "request framing: " + error;
    return resp;
  }
  Response served;
  {
    ScopedSpan s(rec, rid, root, "service.call");
    served = svc.call(std::move(decoded));
  }
  {
    ScopedSpan s(rec, rid, root, "service.wire_encode");
    frame = interop::service::encode_response(served);
  }
  {
    ScopedSpan s(rec, rid, root, "service.wire_decode");
    FrameReader reader;
    reader.feed(frame);
    framed = reader.next(&payload, &error) == FrameReader::Result::Frame &&
             interop::service::decode_response(payload, &resp, &error);
  }
  if (!framed) {
    resp = Response{};
    resp.status = Status::Error;
    resp.error = "response framing: " + error;
  }
  return resp;
}

/// Runs every client's warm-up, then `on_measure_start`, then the measured
/// closed loop for opt.phase_seconds() in kSegments segments, each started
/// by all clients together, with the host probed throughout. `rec` selects
/// the traced wire path.
PhaseResult run_phase(const Inputs& in, InteropService& svc,
                      const Options& opt, SpanRecorder* rec,
                      const std::function<void()>& on_measure_start) {
  const Config& cfg = in.cfg;
  PhaseResult phase;
  phase.clients.resize(std::size_t(cfg.clients));
  phase.segments.resize(kSegments);
  for (Segment& seg : phase.segments) seg.clients.resize(phase.clients.size());

  std::mutex mu;
  std::condition_variable cv;
  int warmed = 0;
  int released = -1;  ///< the segment clients may run; kSegments: stop
  int finished = 0;   ///< clients done with the released segment
  std::uint64_t deadline = 0;

  auto client = [&](int c) {
    ClientResult& res = phase.clients[std::size_t(c)];
    interop::base::Rng rng(derive_seed(opt.seed, 100 + std::uint64_t(c)));
    LoopbackClient loopback(svc);
    std::uint64_t seq = 0;
    // Designs go round robin, each client from its own offset, so every
    // segment sees the same mix of them.
    std::size_t cursor = std::size_t(c) * in.designs.size() /
                         std::size_t(cfg.clients);
    std::vector<Sample>* segment_samples = nullptr;

    // Per-client request templates: the design payloads are built once.
    std::vector<Request> migrate(in.designs.size()), netlist(in.designs.size());
    for (std::size_t d = 0; d < in.designs.size(); ++d) {
      migrate[d].type = MsgType::Migrate;
      migrate[d].design = in.designs[d].text;
      netlist[d].type = MsgType::Netlist;
      netlist[d].design = in.designs[d].text;
      netlist[d].cell = "top";
      netlist[d].dialect = "viewlogic";
    }
    Request ping, flow;
    ping.type = MsgType::Ping;
    flow.type = MsgType::FlowRun;
    flow.flow = "fanout";
    flow.width = kFlowWidth;
    flow.latency_us = 0;
    const std::string tenant = "tenant" + std::to_string(c);

    auto one = [&](bool measured) {
      Pick p = next_pick(rng, in, cursor++);
      Request* req = &ping;
      if (p.type == MsgType::Migrate) req = &migrate[std::size_t(p.design)];
      if (p.type == MsgType::Netlist) req = &netlist[std::size_t(p.design)];
      if (p.type == MsgType::FlowRun) {
        req = &flow;
        flow.seed = in.lineage_seeds[std::size_t(p.lineage)];
      }
      req->tenant = tenant;
      req->id = (std::uint64_t(c + 1) << 40) + ++seq;

      std::uint64_t t0 = now_ns();
      Response resp;
      if (rec) {
        ScopedSpan root(rec, req->id, 0, "request");
        resp = traced_call(svc, *req, rec, req->id, root.id());
      } else {
        resp = loopback.call(*req);
      }
      std::uint64_t t1 = now_ns();

      ++res.attempted;
      std::string why = check_response(p, resp, in);
      if (!why.empty()) {
        ++res.failed;
        if (res.errors.size() < 8) res.errors.push_back(why);
        return;
      }
      if (!measured) return;
      res.samples.push_back({t1, ms_between(t0, t1)});
      res.sample_type.push_back(p.type);
      segment_samples->push_back(res.samples.back());
      if (!rec) return;
      auto kind = std::make_pair(p.type, p.design);
      ++res.by_kind[kind];
      if ((p.type == MsgType::Migrate || p.type == MsgType::Netlist) &&
          !res.first_body.count(kind))
        res.first_body[kind] = resp.body;
      if (p.type == MsgType::FlowRun) {
        res.flow_wall_us += double(resp.counter("wall_us"));
        res.flow_executed += double(resp.counter("executed"));
        res.flow_hits += double(resp.counter("cache_hits"));
      }
    };

    for (int i = 0; i < cfg.warmup_per_client; ++i) one(false);
    std::unique_lock<std::mutex> lock(mu);
    ++warmed;
    cv.notify_all();
    for (int k = 0;; ++k) {
      cv.wait(lock, [&] { return released >= k; });
      if (released == kSegments) return;
      std::uint64_t until = deadline;
      segment_samples = &phase.segments[std::size_t(k)].clients[std::size_t(c)];
      lock.unlock();
      while (now_ns() < until) one(true);
      lock.lock();
      ++finished;
      cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < cfg.clients; ++c) threads.emplace_back(client, c);
  const std::uint64_t segment_ns =
      std::uint64_t(opt.phase_seconds() / kSegments * 1e9);
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return warmed == cfg.clients; });
  on_measure_start();
  HostProbe probe;
  for (int k = 0; k <= kSegments; ++k) {
    if (k < kSegments) {
      Segment& seg = phase.segments[std::size_t(k)];
      seg.start_ns = now_ns();
      deadline = seg.start_ns + segment_ns;
    }
    finished = 0;
    released = k;
    cv.notify_all();
    if (k == kSegments) break;
    cv.wait(lock, [&] { return finished == cfg.clients; });
    phase.segments[std::size_t(k)].end_ns = now_ns();
  }
  lock.unlock();
  for (std::thread& t : threads) t.join();
  probe.stop();
  assign_probes(phase.segments, probe);
  return phase;
}

/// Interpolated percentile of a log2-bucketed histogram.
double hist_percentile(const obs::MetricHistogram& h, double p) {
  double count = double(h.count());
  if (count <= 0) return 0;
  double target = p / 100.0 * count, cum = 0;
  for (int b = 0; b < obs::MetricHistogram::kBuckets; ++b) {
    double n = double(h.bucket(b));
    if (n > 0 && cum + n >= target) {
      double lo =
          b == 0 ? 0 : double(obs::MetricHistogram::bucket_upper(b - 1)) + 1;
      double hi = double(obs::MetricHistogram::bucket_upper(b));
      return lo + (hi - lo) * (target - cum) / n;
    }
    cum += n;
  }
  return 0;
}

/// Executor counters in the process-wide registry (deltas give per-phase
/// values).
struct RuntimeCounters {
  double batches = 0, steals = 0, busy_us = 0;
  static RuntimeCounters now() {
    obs::Metrics& g = obs::Metrics::global();
    RuntimeCounters r;
    r.batches = double(g.histogram("sched.batch_size").count());
    r.steals = double(g.counter("sched.steal").value());
    r.busy_us = double(g.histogram("runtime.step_us").sum() +
                       g.histogram("runtime.replay_us").sum());
    return r;
  }
};

/// Replays each distinct Migrate/Netlist design the traced phase served
/// through the stage functions, checks the output against the service's
/// response, and returns per-(type, design) median stage times in ms.
std::map<std::pair<MsgType, int>, std::map<std::string, double>>
replay_stages(const Inputs& in, const PhaseResult& traced, SpanRecorder* rec,
              Report& report) {
  std::map<std::pair<MsgType, int>, std::string> bodies;
  for (const ClientResult& c : traced.clients)
    for (const auto& [kind, body] : c.first_body) bodies.emplace(kind, body);

  constexpr int kReps = 3;
  std::map<std::pair<MsgType, int>, std::map<std::string, double>> stages;
  std::uint64_t rid = 1;
  for (const auto& [kind, body] : bodies) {
    const DesignRef& ref = in.designs[std::size_t(kind.second)];
    std::map<std::string, std::vector<double>> samples;
    for (int rep = 0; rep < kReps; ++rep, ++rid) {
      interop::base::DiagnosticEngine diags;
      ScopedSpan root(rec, rid, 0, "replay");
      ScopedSpan rd(rec, rid, root.id(), "schematic.read_design");
      sch::Design src = sch::read_design(ref.text, diags);
      samples["read_design"].push_back(double(rd.end()) / 1e6);
      std::string out;
      if (kind.first == MsgType::Migrate) {
        ScopedSpan mig(rec, rid, root.id(), "schematic.migrate_design");
        sch::MigrationResult r = sch::migrate_design(src, in.migration, diags);
        samples["migrate_design"].push_back(double(mig.end()) / 1e6);
        ScopedSpan ver(rec, rid, root.id(), "schematic.verify_migration");
        interop::base::DiagnosticEngine verify_diags;
        sch::verify_migration(src, r.design, in.migration, verify_diags);
        samples["verify_migration"].push_back(double(ver.end()) / 1e6);
        ScopedSpan wr(rec, rid, root.id(), "schematic.write_design");
        out = sch::write_design(r.design);
        samples["write_design"].push_back(double(wr.end()) / 1e6);
      } else {
        ScopedSpan ex(rec, rid, root.id(), "schematic.extract_netlist");
        out = netlist_body(sch::extract_netlist(
            src, *src.find_schematic("top"), in.migration.source, diags));
        samples["extract_netlist"].push_back(double(ex.end()) / 1e6);
      }
      if (out != body)
        report.fail(to_string(kind.first) + " replay of design " +
                    std::to_string(kind.second) +
                    " differs from the service response");
    }
    for (auto& [stage, v] : samples) stages[kind][stage] = median(v);
  }
  return stages;
}

/// Which request types make up the samples around p50, p90 and p99: the
/// request mix is chosen so each percentile sits inside one type's band.
std::string latency_bands(const PhaseResult& phase, std::size_t total) {
  std::vector<std::pair<double, MsgType>> all;
  for (const ClientResult& c : phase.clients)
    for (std::size_t i = 0; i < c.samples.size(); ++i)
      all.push_back({c.samples[i].ms, c.sample_type[i]});
  std::sort(all.begin(), all.end());
  std::string out = "request types around each percentile (+-2.5% of ranks):";
  for (double p : {50.0, 90.0, 99.0}) {
    std::size_t lo = std::size_t(double(total) * std::max(0.0, p - 2.5) / 100);
    std::size_t hi =
        std::min(total, std::size_t(double(total) * (p + 2.5) / 100));
    std::map<MsgType, double> share;
    for (std::size_t i = lo; i < hi; ++i) share[all[i].second] += 1;
    out += "\n  p" + std::to_string(int(p)) + ":";
    for (const auto& [type, k] : share) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " %s %.0f%%", to_string(type).c_str(),
                    100 * k / double(hi - lo));
      out += buf;
    }
  }
  return out;
}

void run_service_workload(const Config& cfg, const Options& opt,
                          Report& report) {
  ServiceOptions sopt;
  sopt.workers = kServiceWorkers;
  sopt.cache_entries = cfg.cache_entries;

  // setup_s: constructing the service (resident dialects, maps, target
  // library, worker pool). Destruction is not timed. Measured before the
  // inputs are generated, so it sees the same fresh process every time.
  std::vector<double> setups;
  double probe = probe_host_ms(kProbeSeconds);
  for (std::uint64_t begin = now_ns(); more_setups(setups.size(), begin);) {
    std::uint64_t t0 = now_ns();
    auto svc = std::make_unique<InteropService>(sopt);
    setups.push_back(double(now_ns() - t0) / 1e9);
  }
  probe = (probe + probe_host_ms(kProbeSeconds)) / 2;
  report.end_to_end["setup_s"] = setup_seconds(setups, probe, report);

  Inputs in = make_inputs(cfg, opt.seed, report);

  PhaseResult base;
  {
    InteropService svc(sopt);
    base = run_phase(in, svc, opt, nullptr, [] {});
  }
  auto account = [&](const PhaseResult& phase) {
    for (const ClientResult& c : phase.clients) {
      report.attempted += c.attempted;
      for (const std::string& e : c.errors) report.fail(e);
      report.failed += c.failed - c.errors.size();
    }
  };
  account(base);

  PhaseStats w = summarize(base.segments);
  report.end_to_end["throughput_rps"] = w.throughput_rps;
  report.end_to_end["latency_p50_ms"] = w.p50_ms;
  report.end_to_end["latency_p90_ms"] = w.p90_ms;
  report.notes.push_back(w.per_segment);
  report.per_layer["latency_p99_ms"] = percentile(w.latencies_ms, 99);
  report.per_layer["host.probe_ms"] = w.probe_ms;
  report.notes.push_back("measured requests: " +
                         std::to_string(w.latencies_ms.size()));
  report.notes.push_back(latency_bands(base, w.latencies_ms.size()));
  if (!opt.trace) return;

  // ---- traced run: same seed, same inputs, a fresh service.
  SpanRecorder rec;
  InteropService svc(sopt);
  RuntimeCounters rt0;
  interop::runtime::ResultCache::Stats cache0;
  PhaseResult traced = run_phase(in, svc, opt, &rec, [&] {
    svc.metrics().reset();
    rec.clear();
    rt0 = RuntimeCounters::now();
    cache0 = svc.cache()->stats();
  });
  account(traced);
  RuntimeCounters rt1 = RuntimeCounters::now();
  interop::runtime::ResultCache::Stats cache1 = svc.cache()->stats();
  const obs::MetricHistogram& queue =
      svc.metrics().histogram("service.queue_wait_us");
  const obs::MetricHistogram& handle =
      svc.metrics().histogram("service.handle_us");
  double rejected = double(svc.metrics().counter("service.rejected").value());

  SpanRecorder replay_rec;
  auto stages = replay_stages(in, traced, &replay_rec, report);

  double n = double(traced.measured());
  if (n <= 0) n = 1;
  std::map<std::pair<MsgType, int>, std::uint64_t> kinds;
  double flow_wall_us = 0, flow_exec = 0, flow_hits = 0, flow_runs = 0;
  for (const ClientResult& c : traced.clients) {
    for (const auto& [k, cnt] : c.by_kind) kinds[k] += cnt;
    flow_wall_us += c.flow_wall_us;
    flow_exec += c.flow_executed;
    flow_hits += c.flow_hits;
  }
  for (const auto& [k, cnt] : kinds)
    if (k.first == MsgType::FlowRun) flow_runs += double(cnt);

  SelfTimes st = self_times(rec.spans());
  auto& L = report.per_layer;
  L["service.wire_encode_us"] = st.self_of("service.wire_encode") / n / 1e3;
  L["service.wire_decode_us"] = st.self_of("service.wire_decode") / n / 1e3;
  L["service.handle_us"] = double(handle.sum()) / n;
  L["service.queue_wait_us_p50"] = hist_percentile(queue, 50);
  L["service.queue_wait_us_p90"] = hist_percentile(queue, 90);
  L["service.rejected"] = rejected / n;

  double sized = 0, instances = 0, kb = 0, callbacks = 0;
  std::map<std::string, double> stage_total;
  for (const auto& [k, cnt] : kinds) {
    if (k.second < 0) continue;
    const DesignRef& ref = in.designs[std::size_t(k.second)];
    sized += double(cnt);
    instances += double(cnt) * ref.instances;
    kb += double(cnt) * ref.kb;
    if (k.first == MsgType::Migrate)
      callbacks += double(cnt) * ref.callbacks_run;
    for (const auto& [stage, ms] : stages[k])
      stage_total[stage] += double(cnt) * ms;
  }
  for (const char* stage : {"read_design", "migrate_design", "verify_migration",
                            "write_design", "extract_netlist"})
    L[std::string("schematic.") + stage + "_ms"] = stage_total[stage] / n;
  L["schematic.instances"] = sized > 0 ? instances / sized : 0;
  L["schematic.design_kb"] = sized > 0 ? kb / sized : 0;
  L["al.callbacks_run"] = callbacks / n;

  L["runtime.run_ms"] = flow_wall_us / 1e3 / n;
  L["runtime.executed"] = flow_exec / n;
  L["runtime.cache_hits"] = flow_hits / n;
  L["runtime.hit_ratio"] =
      flow_exec + flow_hits > 0 ? flow_hits / (flow_exec + flow_hits) : 0;
  L["runtime.cache_stores"] = double(cache1.stores - cache0.stores) / n;
  L["runtime.cache_evictions"] =
      double(cache1.evictions - cache0.evictions) / n;
  L["runtime.batches"] = (rt1.batches - rt0.batches) / n;
  L["runtime.steals"] = (rt1.steals - rt0.steals) / n;
  L["runtime.utilization"] =
      flow_wall_us > 0
          ? (rt1.busy_us - rt0.busy_us) / (flow_wall_us * sopt.flow_workers)
          : 0;

  // Wall time of the request spans not covered by the wire spans or by
  // the service's own queue-wait and handler accounting.
  double attributed = st.self_of("service.wire_encode") +
                      st.self_of("service.wire_decode") +
                      (double(queue.sum()) + double(handle.sum())) * 1e3;
  L["trace.unattributed_pct"] =
      st.root_ns > 0 ? std::max(0.0, st.root_ns - attributed) / st.root_ns * 100
                     : 0;
  // Both halves at reference speed, so a drift of the host between them
  // does not read as tracing overhead.
  double base_p50 = percentile(w.latencies_ms, 50);
  L["trace.overhead_pct"] =
      (percentile(summarize(traced.segments).latencies_ms, 50) - base_p50) /
      base_p50 * 100;

  // Per-layer table: one average request's wall time split across layers.
  double per_req_us = st.root_ns / n / 1e3;
  double schematic_us = 0;
  for (const auto& [stage, total] : stage_total)
    schematic_us += total / n * 1e3;
  char buf[160];
  report.notes.push_back(
      "traced requests: " + std::to_string(std::uint64_t(n)) +
      ", flow runs: " + std::to_string(std::uint64_t(flow_runs)));
  report.notes.push_back(
      "layer split of one average request (us, share of wall):");
  auto row = [&](const char* layer, double us) {
    std::snprintf(buf, sizeof buf, "  %-34s %10.2f %7.2f%%", layer, us,
                  per_req_us > 0 ? 100 * us / per_req_us : 0);
    report.notes.push_back(buf);
  };
  row("request wall", per_req_us);
  row("service.wire (encode + decode)",
      (st.self_of("service.wire_encode") + st.self_of("service.wire_decode")) /
          n / 1e3);
  row("service.queue_wait", double(queue.sum()) / n);
  row("service.handle (minus tools)",
      std::max(0.0, double(handle.sum()) / n - schematic_us -
                        flow_wall_us / n));
  row("schematic (replayed stages)", schematic_us);
  row("runtime (flow executor wall)", flow_wall_us / n);
  row("unattributed", L["trace.unattributed_pct"] * per_req_us / 100);
  report.notes.push_back("client spans:");
  for (const std::string& line : self_time_table(st, n))
    report.notes.push_back("  " + line);
  report.notes.push_back("replay spans (per replay):");
  SelfTimes rst = self_times(replay_rec.spans());
  for (const std::string& line : self_time_table(rst, double(rst.roots)))
    report.notes.push_back("  " + line);
}

}  // namespace

void run_migrate_large(const Options& opt, Report& report) {
  Config cfg;
  cfg.clients = 2;
  cfg.migrate_pct = 100;
  cfg.designs = 24;
  cfg.design_opt.sheets = 2;
  cfg.design_opt.components_per_sheet = 400;
  cfg.design_opt.nets_per_sheet = 266;
  cfg.warmup_per_client = 2;
  run_service_workload(cfg, opt, report);
}

void run_service_mix(const Options& opt, Report& report) {
  Config cfg;
  cfg.clients = 4;
  cfg.ping_pct = 20;
  cfg.flow_pct = 50;
  cfg.netlist_pct = 30;
  // Designs keep the generator's default size: 31 instances, ~13 KB.
  // 128 lineages x (width + 2) entries = 1280; half of that fits, so the
  // shared cache keeps storing and evicting beside its hits.
  cfg.cache_entries = 640;
  cfg.warmup_per_client = 200;
  run_service_workload(cfg, opt, report);
}

}  // namespace perfbench
