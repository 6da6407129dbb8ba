#pragma once
// The one deadline watchdog in the runtime, shared by the interop service
// (request timeouts) and ParallelExecutor (step timeouts). One thread
// sleeps until the earliest armed deadline and runs each due `fire` once,
// in deadline order; arm() wakes it only for an earlier deadline, so an
// idle watchdog never polls. Deadlines are read off a Clock (deterministic
// under SimClock); the sleep itself is real time. The thread starts on the
// first arm() with a finite deadline: an entry armed at kNever fires only
// through fire_all(), which is how the executor keeps every attempt
// cancellable by request_stop() without a thread when timeouts are off.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "runtime/retry.hpp"

namespace interop::runtime {

class Watchdog {
 public:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  explicit Watchdog(std::shared_ptr<Clock> clock) : clock_(std::move(clock)) {}
  ~Watchdog();  ///< stops the thread; entries still armed never fire
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Run `fire` once the clock reaches `deadline_us`; returns its id.
  std::uint64_t arm(std::uint64_t deadline_us, std::function<void()> fire);
  /// Forget `id`. Returns only once its fire is neither running nor able
  /// to run, so a fire may reference state the caller destroys next. A
  /// fire must not disarm its own id.
  void disarm(std::uint64_t id);
  /// Fire every armed entry now, on the calling thread, in deadline order.
  void fire_all();
  /// Times the thread woke to scan deadlines (regression hook).
  std::uint64_t wakeups() const;

 private:
  void loop();
  /// Fire the first entry due by `now_us`, unlocked around the call.
  bool fire_next(std::unique_lock<std::mutex>& lock, std::uint64_t now_us);

  const std::shared_ptr<Clock> clock_;
  mutable std::mutex mu_;
  std::condition_variable wake_cv_;   ///< the thread sleeps on this
  std::condition_variable fired_cv_;  ///< disarm() waits on this
  /// Keyed (deadline, id): begin() is due first. disarm() scans for the
  /// id, which is cheap at the few entries in flight at once.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::function<void()>>
      armed_;
  std::set<std::uint64_t> firing_;  ///< ids whose fire is running now
  std::uint64_t next_id_ = 0;
  std::uint64_t sleeping_until_ = 0;  ///< 0 while the thread is awake
  std::uint64_t wakeups_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace interop::runtime
