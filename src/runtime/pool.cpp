#include "runtime/pool.hpp"

#include <exception>

namespace interop::runtime {

WorkerPool& WorkerPool::shared() {
  // Never destroyed: idle threads wait on its members until exit.
  static WorkerPool* pool = new WorkerPool;
  return *pool;
}

void WorkerPool::push_locked(Task task) {
  tasks_.push_back(std::move(task));
  // A notified thread counts as idle until it wakes, so every queued task
  // has an idle thread or a new one of its own.
  if (std::size_t(idle_) >= tasks_.size()) {
    work_cv_.notify_one();
  } else {
    threads_.emplace_back([this] { loop(); });
  }
}

void WorkerPool::submit(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  push_locked({std::move(task), nullptr});
}

void WorkerPool::run(int n, const std::function<void(int)>& fn) {
  if (n <= 1) return fn(0);
  int pending = n - 1;
  std::exception_ptr first;  // guarded by mu_
  // The helpers use fn, pending and first: no call may unwind past them.
  auto call = [this, &fn, &first](int i) {
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first) first = std::current_exception();
    }
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 1; i < n; ++i)
      push_locked({[&call, i] { call(i); }, &pending});
  }
  call(0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&pending] { return pending == 0; });
  if (first) std::rethrow_exception(first);
}

int WorkerPool::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return int(threads_.size());
}

void WorkerPool::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    while (tasks_.empty()) {
      ++idle_;
      work_cv_.wait(lock);
      --idle_;
    }
    auto [fn, pending] = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    fn();
    fn = nullptr;  // drop captures before run() can return
    lock.lock();
    // Counted down in the lock section that returns this thread to the
    // idle set, so the next run() reuses it instead of starting another.
    if (pending && --*pending == 0) done_cv_.notify_all();
  }
}

}  // namespace interop::runtime
