// runtime::Watchdog, the one deadline watchdog behind service request
// timeouts and executor step timeouts: deadline-ordered firing under
// SimClock, no polling while idle, no thread without a finite deadline,
// and disarm()'s guarantee that a fire never runs after it returns (the
// race test destroys the fire's captured state right after disarm, so a
// late fire is a use-after-free under the ASan+UBSan job).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/watchdog.hpp"

namespace interop::runtime {
namespace {

/// Thread-safe log of fired labels, with a wait for the n-th entry.
class FireLog {
 public:
  void add(int label) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      labels_.push_back(label);
    }
    cv_.notify_all();
  }
  std::vector<int> wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(10),
                 [&] { return labels_.size() >= n; });
    return labels_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> labels_;
};

TEST(RuntimeWatchdog, SimClockDeadlinesFireInDeadlineOrder) {
  auto clock = std::make_shared<SimClock>(1000);
  FireLog log;  // outlives the watchdog thread that writes it
  Watchdog wd(clock);
  // Armed out of order, with a tie (equal deadlines fire in arm order).
  for (int label : {400, 100, 300, 200, 201})
    wd.arm(1000 + std::uint64_t(label / 100 * 100),
           [&log, label] { log.add(label); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(log.wait_for(0).empty()) << "sim time has not moved";

  clock->sleep_us(1000);  // every deadline is now due at once
  EXPECT_EQ(log.wait_for(5), (std::vector<int>{100, 200, 201, 300, 400}));
}

TEST(RuntimeWatchdog, IdleOnOneFarDeadlineWakesBoundedTimes) {
  auto clock = std::make_shared<SteadyClock>();
  bool fired = false;
  Watchdog wd(clock);
  std::uint64_t far = wd.arm(clock->now_us() + 60'000'000,
                             [&fired] { fired = true; });
  // Later deadlines never wake a thread sleeping on an earlier one.
  std::vector<std::uint64_t> later;
  for (int i = 0; i < 100; ++i)
    later.push_back(wd.arm(clock->now_us() + 120'000'000, [] {}));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GE(wd.wakeups(), 1u) << "a finite deadline starts the thread";
  EXPECT_LE(wd.wakeups(), 3u) << "an idle watchdog must not poll";
  for (std::uint64_t id : later) wd.disarm(id);
  wd.disarm(far);
  EXPECT_FALSE(fired);
}

TEST(RuntimeWatchdog, NoFiniteDeadlineStartsNoThread) {
  auto clock = std::make_shared<SteadyClock>();
  std::vector<std::thread::id> fired_on;
  Watchdog wd(clock);
  std::uint64_t a = wd.arm(Watchdog::kNever, [&] {
    fired_on.push_back(std::this_thread::get_id());
  });
  wd.arm(Watchdog::kNever,
         [&] { fired_on.push_back(std::this_thread::get_id()); });
  wd.disarm(a);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(wd.wakeups(), 0u);
  EXPECT_TRUE(fired_on.empty());

  wd.fire_all();
  ASSERT_EQ(fired_on.size(), 1u) << "a disarmed entry never fires";
  EXPECT_EQ(fired_on[0], std::this_thread::get_id())
      << "fire_all runs fires on the calling thread";
  EXPECT_EQ(wd.wakeups(), 0u);
  wd.fire_all();
  EXPECT_EQ(fired_on.size(), 1u) << "each entry fires at most once";
}

TEST(RuntimeWatchdog, FireNeverRunsAfterDisarmReturns) {
  auto clock = std::make_shared<SteadyClock>();
  std::atomic<int> late_fires{0}, fires{0};
  Watchdog wd(clock);
  for (int i = 0; i < 1000; ++i) {
    // Heap state the fire touches; freed as soon as disarm returns.
    auto disarmed = std::make_unique<std::atomic<bool>>(false);
    std::atomic<bool> started{false};
    std::uint64_t id = wd.arm(
        clock->now_us(), [flag = disarmed.get(), &started, &late_fires,
                          &fires] {
          started = true;
          // A slow fire: a disarm that does not wait for it returns, and
          // frees `flag`, before this read.
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          if (flag->load()) late_fires++;
          fires++;
        });
    // Odd iterations disarm mid-fire; even ones race the fire's start.
    if (i % 2 == 1) {
      auto until = std::chrono::steady_clock::now() + std::chrono::seconds(1);
      while (!started && std::chrono::steady_clock::now() < until)
        std::this_thread::yield();
    }
    wd.disarm(id);
    disarmed->store(true);
    disarmed.reset();
  }
  EXPECT_EQ(late_fires.load(), 0);
  EXPECT_GE(fires.load(), 500) << "every odd iteration disarms mid-fire";
}

}  // namespace
}  // namespace interop::runtime
