#include "runtime/retry.hpp"

#include <chrono>
#include <thread>

namespace interop::runtime {

std::uint64_t backoff_delay_us(int failed_attempts) {
  constexpr std::uint64_t kBaseUs = 1000;
  constexpr std::uint64_t kMaxUs = 60'000'000;
  std::uint64_t d = kBaseUs;
  for (int i = 1; i < failed_attempts && d < kMaxUs; ++i) d *= 2;
  return d < kMaxUs ? d : kMaxUs;
}

std::uint64_t SteadyClock::now_us() const {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

void SteadyClock::sleep_us(std::uint64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

void CancelToken::cancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    flag_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
}

void CancelToken::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return flag_.load(std::memory_order_relaxed); });
}

}  // namespace interop::runtime
