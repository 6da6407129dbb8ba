#pragma once
// Retry/recovery support for the fault-tolerant runtime: the fixed
// exponential backoff between attempts, a pluggable clock so backoff and
// step timeouts are deterministic under test (SimClock advances instantly),
// and the cooperative cancellation token the executor's watchdog uses to
// cut hung attempts loose. The attempt budget is
// ExecutorOptions::max_attempts.
//
// The paper's §4-§5 failure catalog is full of tools that die mid-flow
// (crashing netlisters, license drops); a flow manager that cannot retry
// and resume around them is not managing the flow. Everything here is
// deterministic by construction so the chaos harness can sweep seeds and
// diff final states byte-for-byte.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

namespace interop::runtime {

/// Backoff before the retry that follows `failed_attempts` failures
/// (>= 1): 1 ms * 2^(failed_attempts - 1), capped at 60 s.
std::uint64_t backoff_delay_us(int failed_attempts);

/// Monotonic-time source the executor, journal, and backoff sleep share.
/// Injecting SimClock makes every retry delay and timeout deterministic and
/// instant; the default SteadyClock is real time.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::uint64_t now_us() const = 0;
  virtual void sleep_us(std::uint64_t us) = 0;
};

/// Real time (std::chrono::steady_clock).
class SteadyClock : public Clock {
 public:
  std::uint64_t now_us() const override;
  void sleep_us(std::uint64_t us) override;
};

/// Deterministic simulated time: sleep_us advances the clock instantly.
/// Thread-safe; share one instance across executors to keep it monotonic.
class SimClock : public Clock {
 public:
  explicit SimClock(std::uint64_t start_us = 0) : now_(start_us) {}
  std::uint64_t now_us() const override { return now_.load(); }
  void sleep_us(std::uint64_t us) override { now_.fetch_add(us); }

 private:
  std::atomic<std::uint64_t> now_;
};

/// Cooperative cancellation: the watchdog (or ParallelExecutor::
/// request_stop) sets it; the running attempt polls it via
/// ActionApi::cancel_requested() or blocks on wait(). One token per attempt.
class CancelToken {
 public:
  void cancel();
  bool cancelled() const { return flag_.load(std::memory_order_relaxed); }
  /// Block until cancel() is called (used by injected hangs).
  void wait();
  /// The raw flag, for ActionApi::set_cancel_flag.
  const std::atomic<bool>* flag() const { return &flag_; }

 private:
  std::atomic<bool> flag_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace interop::runtime
