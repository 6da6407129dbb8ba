#pragma once
// The interop service core: the long-lived, multi-tenant request engine
// behind tools/interopd. The paper's claim is that interoperability is a
// *service* problem — tool models, dialect tables, and design-data caches
// must outlive any single tool invocation — so this keeps them resident:
// one MigrationConfig (symbol/property/global tables + target library),
// the dialect registry, and one sharded content-addressed ResultCache are
// built at startup and shared across every request from every tenant.
//
// Request pipeline: submit() runs admission control (bounded queue —
// beyond the limit the request is *rejected with a retry-after hint*, the
// §5 answer to graceful degradation, instead of letting latency collapse),
// then parks the request on its tenant's FIFO queue. At most `workers`
// tasks on the shared runtime::WorkerPool drain tenants round-robin (a
// task ends when the queues are empty), so one tenant flooding the daemon
// cannot starve another's single request. A Migrate request forks one more
// pool task, so it runs on up to two threads: verify's source side beside
// the migration, then the check beside the write. With a request timeout set, each
// in-flight request is armed on the shared runtime::Watchdog, which fires
// the request's CancelToken (and the inner flow executor's request_stop)
// past the deadline — the same watchdog and cooperative cancellation the
// flow runtime uses for step timeouts.
//
// Transport-free by design: the core consumes decoded wire::Request
// structs and produces Responses through completion callbacks. The socket
// front end lives in tools/interopd; tests and bench_service drive the
// same core through LoopbackClient, which round-trips every call through
// the real wire codec without any networking.
//
// Observability: every stage is counted in an owned obs::Metrics registry
// (queue depth, busy workers, admitted/rejected/completed, queue-wait and
// per-endpoint latency log2-histograms, shared-cache hits/misses) — the
// Metrics endpoint exposes it — and each request runs under a TraceSession
// span (cat "service") when tracing is armed.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/cache.hpp"
#include "runtime/retry.hpp"
#include "runtime/watchdog.hpp"
#include "schematic/migrate.hpp"
#include "service/wire.hpp"
#include "store/persistent_cache.hpp"

namespace interop::service {

struct ServiceOptions {
  /// Requests served at once (each by one runtime::WorkerPool task).
  int workers = 4;
  /// Inner ParallelExecutor workers for each FlowRun request.
  int flow_workers = 2;
  /// Admission bound: queued (not yet claimed) requests beyond this are
  /// rejected. 0 means reject everything (useful in tests).
  std::size_t queue_limit = 64;
  /// Backoff hint attached to rejections.
  std::uint64_t retry_after_us = 2000;
  /// Cooperative per-request timeout; 0 arms no watchdog (and starts no
  /// watchdog thread).
  std::uint64_t request_timeout_us = 0;
  /// Resident ResultCache bound (0 = unbounded).
  std::size_t cache_entries = 0;
  /// When non-empty, back the resident cache with a crash-consistent
  /// ObjectStore at this directory (store::PersistentResultCache): every
  /// cached step effect is WAL-durable before it is visible, and a
  /// restarted daemon cold-opens into the warm cache a kill -9 would
  /// otherwise have destroyed. An unusable directory degrades to the
  /// plain in-memory cache (counted in service.store.open_failures).
  std::string store_dir{};
};

class InteropService {
 public:
  using Done = std::function<void(Response)>;

  explicit InteropService(ServiceOptions opt = {});
  ~InteropService();  ///< drains (completes queued + in-flight work)

  InteropService(const InteropService&) = delete;
  InteropService& operator=(const InteropService&) = delete;

  /// Admit or reject `req`. On admission, `done` runs later on a pool
  /// thread. On rejection (queue full or draining), `done` runs inline
  /// with a Rejected/Error response and submit returns false.
  bool submit(Request req, Done done);

  /// Synchronous convenience: submit and wait for the response.
  Response call(Request req);

  /// Stop admitting new requests; queued and in-flight work still runs.
  void begin_drain();
  /// True once begin_drain()/drain() has been called (sticky). The daemon
  /// polls this so a wire-level Drain request ends its accept loop.
  bool draining() const;
  /// begin_drain() + wait until every queued and in-flight request has
  /// completed. Idempotent; the destructor calls it.
  void drain();

  obs::Metrics& metrics() { return metrics_; }
  std::shared_ptr<runtime::ResultCache> cache() const { return cache_; }
  /// The persistent cache when ServiceOptions::store_dir was set and the
  /// store opened; nullptr in memory-only mode (including fallback after
  /// an open failure — see store_error()).
  store::PersistentResultCache* persistent_cache() const {
    return persistent_cache_.get();
  }
  /// Why the store failed to open ("" when it opened or was not asked for).
  const std::string& store_error() const { return store_error_; }

  /// Queued (admitted, unclaimed) requests right now.
  std::size_t queued() const;
  /// Requests being served right now.
  int in_flight() const;

 private:
  struct Pending {
    Request req;
    Done done;
    std::uint64_t enqueue_us = 0;
  };
  /// One in-flight request's cancellation state. The watchdog cancels
  /// `token` at `deadline_us` (0 = no timeout, nothing armed).
  struct Flight {
    std::uint64_t deadline_us = 0;
    runtime::CancelToken token;
  };

  /// One pool task: serve queued requests until the queues are empty.
  void serve();
  Response handle(const Request& req, const Flight& flight);
  Response handle_migrate(const Request& req);
  Response handle_netlist(const Request& req);
  Response handle_flow_run(const Request& req, const Flight& flight);
  void finish(Pending p, Response resp, std::uint64_t start_us);

  ServiceOptions opt_;
  /// Time source for queue-wait/latency metrics and request deadlines.
  std::shared_ptr<runtime::Clock> clock_;

  // --- resident tool models (immutable after construction) ---
  std::map<std::string, sch::Dialect> dialects_;
  sch::MigrationConfig migration_config_;
  std::shared_ptr<runtime::ResultCache> cache_;
  /// Set (aliasing cache_) when the store opened; drain() flushes it.
  std::shared_ptr<store::PersistentResultCache> persistent_cache_;
  std::string store_error_;

  obs::Metrics metrics_;

  /// A registry handle looked up by name on first use, then cached: the
  /// request path skips the registry's lock and name building, and the
  /// metric still enters the exposition only once it is first touched,
  /// exactly as a lookup per request would.
  template <class M>
  class MetricHandle {
   public:
    void bind(obs::Metrics* registry, std::string name) {
      registry_ = registry;
      name_ = std::move(name);
    }
    M& operator*() {
      M* m = metric_.load(std::memory_order_acquire);
      if (!m) {
        if constexpr (std::is_same_v<M, obs::MetricCounter>)
          m = &registry_->counter(name_);
        else if constexpr (std::is_same_v<M, obs::MetricGauge>)
          m = &registry_->gauge(name_);
        else
          m = &registry_->histogram(name_);
        metric_.store(m, std::memory_order_release);
      }
      return *m;
    }
    M* operator->() { return &**this; }

   private:
    obs::Metrics* registry_ = nullptr;
    std::string name_;
    std::atomic<M*> metric_{nullptr};
  };
  MetricHandle<obs::MetricCounter> m_admitted_, m_completed_, m_errors_,
      m_rejected_;
  MetricHandle<obs::MetricGauge> m_queue_depth_, m_tenants_, m_in_flight_;
  MetricHandle<obs::MetricHistogram> m_queue_wait_us_, m_handle_us_;
  /// service.latency_us.<type>, indexed by MsgType.
  std::array<MetricHandle<obs::MetricHistogram>,
             std::size_t(MsgType::Drain) + 1>
      m_latency_us_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;  ///< drain() waits for quiescence
  /// Per-tenant FIFO queues; `rr_` holds each tenant with queued work
  /// exactly once, in round-robin claim order.
  std::map<std::string, std::deque<Pending>> queues_;
  std::deque<std::string> rr_;
  std::size_t queued_ = 0;
  int in_flight_ = 0;
  int serving_ = 0;  ///< serve() tasks on the pool, at most opt_.workers
  bool draining_ = false;

  /// Request deadlines; its thread starts only once a timeout is armed.
  runtime::Watchdog watchdog_;
};

/// In-process transport: drives an InteropService through the real wire
/// codec (encode -> FrameReader -> decode on both legs), so tests and
/// bench_service exercise the exact byte path the daemon speaks, minus
/// the socket. Not thread-safe; use one per client thread.
class LoopbackClient {
 public:
  explicit LoopbackClient(InteropService& service) : service_(service) {}

  /// Round-trip one request. Wire-level failures surface as Status::Error
  /// responses (id 0), mirroring what the daemon would send before
  /// closing the session.
  Response call(const Request& req);

 private:
  InteropService& service_;
};

}  // namespace interop::service
