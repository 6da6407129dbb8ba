#include "runtime/watchdog.hpp"

#include <chrono>

namespace interop::runtime {

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::uint64_t Watchdog::arm(std::uint64_t deadline_us,
                            std::function<void()> fire) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = ++next_id_;
  armed_.emplace(std::pair(deadline_us, id), std::move(fire));
  if (deadline_us == kNever) return id;
  if (!thread_.joinable())
    thread_ = std::thread([this] { loop(); });
  else if (deadline_us < sleeping_until_)
    wake_cv_.notify_one();
  return id;
}

void Watchdog::disarm(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  // No wakeup: a thread sleeping on this deadline wakes early once.
  std::erase_if(armed_, [id](const auto& e) { return e.first.second == id; });
  fired_cv_.wait(lock, [&] { return firing_.count(id) == 0; });
}

void Watchdog::fire_all() {
  std::unique_lock<std::mutex> lock(mu_);
  while (fire_next(lock, kNever)) {
  }
}

std::uint64_t Watchdog::wakeups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wakeups_;
}

bool Watchdog::fire_next(std::unique_lock<std::mutex>& lock,
                         std::uint64_t now_us) {
  if (armed_.empty() || armed_.begin()->first.first > now_us) return false;
  auto entry = armed_.extract(armed_.begin());
  const std::uint64_t id = entry.key().second;
  firing_.insert(id);
  lock.unlock();
  entry.mapped()();
  lock.lock();
  firing_.erase(id);
  fired_cv_.notify_all();
  return true;
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    ++wakeups_;
    while (!stop_ && fire_next(lock, clock_->now_us())) {
    }
    const std::uint64_t next =
        armed_.empty() ? kNever : armed_.begin()->first.first;
    const std::uint64_t now = clock_->now_us();
    if (stop_ || next <= now) continue;  // next came due during a fire
    sleeping_until_ = next;
    if (next == kNever)
      wake_cv_.wait(lock);
    else
      wake_cv_.wait_for(lock, std::chrono::microseconds(next - now));
    sleeping_until_ = 0;
  }
}

}  // namespace interop::runtime
