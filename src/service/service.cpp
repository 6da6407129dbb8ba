#include "service/service.hpp"

#include <optional>
#include <algorithm>
#include <future>
#include <set>
#include <thread>

#include "base/diagnostics.hpp"
#include "obs/trace.hpp"
#include "runtime/executor.hpp"
#include "runtime/hash.hpp"
#include "runtime/pool.hpp"
#include "schematic/generator.hpp"
#include "schematic/netlist.hpp"
#include "schematic/textio.hpp"

namespace interop::service {

namespace {

/// Lock shards of the resident result cache.
constexpr int kCacheShards = 16;

/// One modeled tool run: a fixed invocation latency plus deterministic
/// content derived from the inputs, so identical specs hash to identical
/// cache keys no matter which tenant submits them.
wf::Action flow_tool_action(std::string out, std::vector<std::string> reads,
                            std::uint32_t latency_us) {
  return {out, wf::ActionLanguage::Native,
          [out, reads, latency_us](wf::ActionApi& api) {
            std::string content;
            for (const std::string& r : reads)
              content += api.read_data(r).value_or("?");
            if (latency_us > 0)
              std::this_thread::sleep_for(
                  std::chrono::microseconds(latency_us));
            api.write_data(out, runtime::to_hex(runtime::fnv1a(content)) +
                                    "+");
            return wf::ActionResult{0, ""};
          }};
}

/// The resident "fanout" flow spec: seed -> width parallel tool runs ->
/// sink. The seed feeds the source content, so distinct seeds are
/// distinct cache lineages while equal seeds share one.
wf::FlowTemplate make_fanout_flow(std::uint32_t width,
                                  std::uint32_t latency_us,
                                  std::uint64_t seed) {
  wf::FlowTemplate flow;
  flow.name = "fanout";
  wf::StepDef src;
  src.name = "src";
  src.writes = {"src.out"};
  src.action = {"src", wf::ActionLanguage::Native,
                [seed, latency_us](wf::ActionApi& api) {
                  if (latency_us > 0)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(latency_us));
                  api.write_data("src.out",
                                 runtime::to_hex(runtime::fnv1a(
                                     "seed:" + std::to_string(seed))));
                  return wf::ActionResult{0, ""};
                }};
  // The action body captures the seed, so the cache identity must too.
  src.content_tag = "service.fanout.src:" + std::to_string(seed);
  flow.steps.push_back(std::move(src));

  wf::StepDef sink;
  sink.name = "sink";
  for (std::uint32_t i = 0; i < width; ++i) {
    std::string name = "w" + std::to_string(i);
    wf::StepDef step;
    step.name = name;
    step.start_after = {"src"};
    step.reads = {"src.out"};
    step.writes = {name + ".out"};
    step.action = flow_tool_action(name + ".out", {"src.out"}, latency_us);
    flow.steps.push_back(std::move(step));
    sink.start_after.push_back(name);
    sink.reads.push_back(name + ".out");
  }
  sink.writes = {"sink.out"};
  sink.action = flow_tool_action("sink.out", sink.reads, latency_us);
  flow.steps.push_back(std::move(sink));
  return flow;
}

Response error_response(std::uint64_t id, std::string why) {
  Response resp;
  resp.id = id;
  resp.status = Status::Error;
  resp.error = std::move(why);
  return resp;
}

}  // namespace

InteropService::InteropService(ServiceOptions opt)
    : opt_(opt),
      clock_(std::make_shared<runtime::SteadyClock>()),
      watchdog_(clock_) {
  m_admitted_.bind(&metrics_, "service.admitted");
  m_completed_.bind(&metrics_, "service.completed");
  m_errors_.bind(&metrics_, "service.errors");
  m_rejected_.bind(&metrics_, "service.rejected");
  m_queue_depth_.bind(&metrics_, "service.queue.depth");
  m_tenants_.bind(&metrics_, "service.tenants");
  m_in_flight_.bind(&metrics_, "service.in_flight");
  m_queue_wait_us_.bind(&metrics_, "service.queue_wait_us");
  m_handle_us_.bind(&metrics_, "service.handle_us");
  for (std::size_t t = std::size_t(MsgType::Ping); t < m_latency_us_.size();
       ++t)
    m_latency_us_[t].bind(&metrics_,
                          "service.latency_us." + to_string(MsgType(t)));

  // Resident cache, durable when a store directory was configured. A
  // store that cannot open must not take the service down with it — the
  // daemon still serves, just cold after every restart — so the failure
  // degrades to the plain in-memory cache and is surfaced via metrics
  // and store_error().
  if (!opt_.store_dir.empty()) {
    auto persistent = std::make_shared<store::PersistentResultCache>(
        opt_.cache_entries, kCacheShards);
    if (persistent->open(opt_.store_dir)) {
      persistent_cache_ = persistent;
      cache_ = persistent;
      metrics_.gauge("service.store.recovered")
          .set(std::int64_t(persistent->recovered()));
    } else {
      store_error_ = persistent->object_store().error();
      metrics_.counter("service.store.open_failures").add();
    }
  }
  if (!cache_)
    cache_ = std::make_shared<runtime::ResultCache>(opt_.cache_entries,
                                                    kCacheShards);

  // Resident tool models: built once, shared read-only by every request.
  dialects_["viewlogic"] = sch::viewlogic_dialect();
  dialects_["composer"] = sch::composer_dialect();
  migration_config_.source = dialects_["viewlogic"];
  migration_config_.target = dialects_["composer"];
  migration_config_.symbol_map = sch::make_standard_symbol_map();
  migration_config_.global_map = sch::make_standard_global_map();
  migration_config_.property_rules = sch::make_standard_property_rules();
  migration_config_.target_symbols = sch::make_target_library();
}

InteropService::~InteropService() { drain(); }

bool InteropService::submit(Request req, Done done) {
  // Drain is an admin verb, not work: it must land even when the queue is
  // full, and it must not block the submitting session.
  if (req.type == MsgType::Drain) {
    begin_drain();
    Response resp;
    resp.id = req.id;
    resp.body = "draining";
    m_admitted_->add();
    m_completed_->add();
    done(std::move(resp));
    return true;
  }

  Response reject;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!draining_ && queued_ < opt_.queue_limit) {
      Pending p;
      p.req = std::move(req);
      p.done = std::move(done);
      p.enqueue_us = clock_->now_us();
      const std::string& tenant = p.req.tenant;
      auto [it, fresh] = queues_.try_emplace(tenant);
      if (it->second.empty()) rr_.push_back(tenant);
      (void)fresh;
      it->second.push_back(std::move(p));
      ++queued_;
      m_admitted_->add();
      m_queue_depth_->set(std::int64_t(queued_));
      m_tenants_->set(std::int64_t(queues_.size()));
      bool start = serving_ < std::max(1, opt_.workers);
      if (start) ++serving_;
      lock.unlock();
      if (start) runtime::WorkerPool::shared().submit([this] { serve(); });
      return true;
    }
    reject.id = req.id;
    if (draining_) {
      reject.status = Status::Error;
      reject.error = "service draining";
    } else {
      reject.status = Status::Rejected;
      reject.retry_after_us = opt_.retry_after_us;
      reject.error = "queue full";
    }
  }
  m_rejected_->add();
  if (obs::armed())
    obs::instant("service", "reject",
                 "\"tenant\":\"" + obs::escape_json(req.tenant) +
                     "\",\"reason\":\"" + obs::escape_json(reject.error) +
                     "\"");
  done(std::move(reject));
  return false;
}

Response InteropService::call(Request req) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  submit(std::move(req),
         [&promise](Response resp) { promise.set_value(std::move(resp)); });
  return future.get();
}

void InteropService::begin_drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

bool InteropService::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void InteropService::drain() {
  begin_drain();
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [this] { return queued_ == 0 && serving_ == 0; });
  }
  // Quiesced: land any batched store writes so the shutdown path (SIGTERM
  // and SIGINT both end here) leaves the cache fully durable.
  if (persistent_cache_) persistent_cache_->object_store().flush();
}

std::size_t InteropService::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

int InteropService::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

void InteropService::serve() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!rr_.empty()) {
    // Fair claim: take one request from the tenant at the round-robin
    // cursor, then rotate the tenant behind every other waiting tenant.
    std::string tenant = std::move(rr_.front());
    rr_.pop_front();
    auto it = queues_.find(tenant);
    Pending p = std::move(it->second.front());
    it->second.pop_front();
    if (!it->second.empty()) rr_.push_back(tenant);
    --queued_;
    ++in_flight_;
    m_queue_depth_->set(std::int64_t(queued_));
    m_in_flight_->set(in_flight_);
    lock.unlock();

    std::uint64_t start_us = clock_->now_us();
    m_queue_wait_us_->observe(start_us - p.enqueue_us);
    Flight flight;
    std::uint64_t arm_id = 0;
    if (opt_.request_timeout_us > 0) {
      flight.deadline_us = start_us + opt_.request_timeout_us;
      arm_id = watchdog_.arm(flight.deadline_us, [this, &flight] {
        metrics_.counter("service.timeouts").add();
        flight.token.cancel();
      });
    }
    Response resp = handle(p.req, flight);
    if (arm_id != 0) watchdog_.disarm(arm_id);
    resp.id = p.req.id;
    finish(std::move(p), std::move(resp), start_us);

    lock.lock();
    --in_flight_;
    m_in_flight_->set(in_flight_);
  }
  // Notified under mu_: once drain() sees serving_ == 0, no serve() task
  // touches the service any more.
  --serving_;
  drain_cv_.notify_all();
}

void InteropService::finish(Pending p, Response resp, std::uint64_t start_us) {
  std::uint64_t end_us = clock_->now_us();
  const std::size_t type = std::size_t(p.req.type);
  obs::MetricHistogram& latency =
      type >= std::size_t(MsgType::Ping) && type < m_latency_us_.size()
          ? *m_latency_us_[type]
          : metrics_.histogram("service.latency_us." +
                               to_string(p.req.type));
  latency.observe(end_us - p.enqueue_us);
  m_handle_us_->observe(end_us - start_us);
  (resp.status == Status::Ok ? m_completed_ : m_errors_)->add();
  p.done(std::move(resp));
}

Response InteropService::handle(const Request& req, const Flight& flight) {
  obs::Span span("service", [&req] {
    return std::pair{"request:" + to_string(req.type),
                     "\"tenant\":\"" + obs::escape_json(req.tenant) +
                         "\",\"id\":" + std::to_string(req.id)};
  });
  if (flight.token.cancelled())
    return error_response(req.id, "cancelled before start");

  switch (req.type) {
    case MsgType::Ping: {
      Response resp;
      resp.body = "pong";
      return resp;
    }
    case MsgType::Migrate:
      return handle_migrate(req);
    case MsgType::Netlist:
      return handle_netlist(req);
    case MsgType::FlowRun:
      return handle_flow_run(req, flight);
    case MsgType::Metrics: {
      Response resp;
      resp.body = metrics_.expose();
      return resp;
    }
    case MsgType::Drain:
      // Unreachable: submit() short-circuits Drain before the queue.
      return error_response(req.id, "drain must not reach the queue");
  }
  return error_response(req.id, "unknown request type");
}

Response InteropService::handle_migrate(const Request& req) {
  base::DiagnosticEngine diags;
  std::optional<sch::Design> src;
  try {
    src.emplace(sch::read_design(req.design, diags));
  } catch (const std::exception& e) {
    return error_response(req.id, std::string("bad design: ") + e.what());
  }
  // Verification is independent of the migration (§2): its golden side
  // needs only the source, so it is built beside migrate_design, and the
  // check of the migrated design runs beside writing it out.
  Response resp;
  std::optional<sch::MigrationResult> result;
  sch::GoldenNetlists golden;
  std::vector<sch::NetlistDiff> diffs;
  base::DiagnosticEngine verify_diags;
  runtime::WorkerPool& pool = runtime::WorkerPool::shared();
  try {
    pool.run(2, [&](int i) {
      if (i == 0)
        result.emplace(sch::migrate_design(*src, migration_config_, diags));
      else
        golden = sch::extract_golden(*src, migration_config_);
    });
    src.reset();  // both sides are done with it
    pool.run(2, [&](int i) {
      if (i == 0)
        diffs = sch::check_migration(golden, result->design,
                                     migration_config_, verify_diags);
      else
        resp.body = sch::write_design(result->design);
    });
  } catch (const std::exception& e) {
    return error_response(req.id, std::string("migrate failed: ") + e.what());
  }
  const sch::MigrationReport& r = result->report;
  resp.counters = {
      {"sheets", r.sheets},
      {"diffs", diffs.size()},
      {"points_rescaled", r.points_rescaled},
      {"labels_translated", r.labels_translated},
      {"hier_connectors", r.hier_connectors_added},
      {"offpage_connectors", r.offpage_connectors_added},
      {"globals_replaced", r.globals_replaced},
      {"props_applied", r.props.added + r.props.deleted + r.props.renamed +
                            r.props.changed + r.props.callbacks_run},
  };
  return resp;
}

Response InteropService::handle_netlist(const Request& req) {
  std::string dialect = req.dialect.empty() ? "viewlogic" : req.dialect;
  auto dit = dialects_.find(dialect);
  if (dit == dialects_.end())
    return error_response(req.id, "unknown dialect: " + dialect);
  base::DiagnosticEngine diags;
  std::optional<sch::Design> design;
  try {
    design.emplace(sch::read_design(req.design, diags));
  } catch (const std::exception& e) {
    return error_response(req.id, std::string("bad design: ") + e.what());
  }
  const sch::Schematic* schematic = design->find_schematic(req.cell);
  if (!schematic)
    return error_response(req.id, "unknown cell: " + req.cell);
  sch::Netlist netlist =
      sch::extract_netlist(*design, *schematic, dit->second, diags);
  // std::to_string, unlike a stream, ignores the global C++ locale.
  Response resp;
  std::uint64_t connections = 0, ports = 0, globals = 0;
  for (const auto& [name, net] : netlist.nets) {
    resp.body += "net " + name +
                 " pins=" + std::to_string(net.connections.size()) +
                 " port=" + (net.is_port ? "1" : "0") +
                 " global=" + (net.global ? "1" : "0") + "\n";
    connections += net.connections.size();
    if (net.is_port) ++ports;
    if (net.global) ++globals;
  }
  resp.counters = {{"nets", netlist.nets.size()},
                   {"connections", connections},
                   {"ports", ports},
                   {"globals", globals}};
  return resp;
}

Response InteropService::handle_flow_run(const Request& req,
                                         const Flight& flight) {
  if (!req.flow.empty() && req.flow != "fanout")
    return error_response(req.id, "unknown flow spec: " + req.flow);
  std::uint32_t width = std::clamp<std::uint32_t>(req.width, 1, 256);
  std::uint32_t latency_us =
      std::min<std::uint32_t>(req.latency_us, 1'000'000);

  runtime::ExecutorOptions exec_opt;
  exec_opt.workers = std::max(1, opt_.flow_workers);
  runtime::ParallelExecutor executor(
      make_fanout_flow(width, latency_us, req.seed), {},
      std::make_unique<wf::SimpleDataManager>(), exec_opt, cache_);
  std::string err = executor.instantiate({});
  if (!err.empty())
    return error_response(req.id, "instantiate failed: " + err);

  if (flight.token.cancelled())
    return error_response(req.id, "cancelled before flow run");
  // Let the watchdog stop the inner run at the request's deadline. The
  // disarm below returns only once that fire can no longer run, so it
  // never touches the executor after this scope ends.
  std::uint64_t stop_id = 0;
  if (flight.deadline_us > 0)
    stop_id = watchdog_.arm(flight.deadline_us,
                            [&executor] { executor.request_stop(); });
  runtime::RunStats stats = executor.run();
  if (stop_id != 0) watchdog_.disarm(stop_id);

  // Shared-cache telemetry: cumulative across every request and tenant,
  // which is exactly what makes cross-request sharing visible.
  runtime::ResultCache::Stats cache_stats = cache_->stats();
  metrics_.gauge("service.cache.hits").set(std::int64_t(cache_stats.hits));
  metrics_.gauge("service.cache.misses")
      .set(std::int64_t(cache_stats.misses));
  metrics_.gauge("service.cache.entries").set(std::int64_t(cache_->size()));

  Response resp;
  if (stats.stopped)
    return error_response(req.id, "flow run cancelled (timeout or drain)");
  if (!stats.error.empty())
    return error_response(req.id, "flow run failed: " + stats.error);
  resp.counters = {{"steps", std::uint64_t(width) + 2},
                   {"executed", std::uint64_t(stats.executed)},
                   {"attempts", std::uint64_t(stats.attempts)},
                   {"cache_hits", std::uint64_t(stats.cache_hits)},
                   {"failures", std::uint64_t(stats.failures)},
                   {"wall_us", stats.wall_us}};
  return resp;
}

Response LoopbackClient::call(const Request& req) {
  // Each leg goes through the real frame scanner, in its own scope, so its
  // buffers are freed before the next stage runs.
  std::string error;
  Request decoded;
  {
    FrameReader server_reader;
    server_reader.feed(encode_request(req));
    std::string payload;
    if (server_reader.next(&payload, &error) != FrameReader::Result::Frame)
      return error_response(0, "loopback framing: " + error);
    if (!decode_request(payload, &decoded, &error))
      return error_response(0, "loopback decode: " + error);
  }
  FrameReader client_reader;
  client_reader.feed(encode_response(service_.call(std::move(decoded))));
  std::string payload;
  if (client_reader.next(&payload, &error) != FrameReader::Result::Frame)
    return error_response(0, "loopback framing: " + error);
  Response resp;
  if (!decode_response(payload, &resp, &error))
    return error_response(0, "loopback decode: " + error);
  return resp;
}

}  // namespace interop::service
