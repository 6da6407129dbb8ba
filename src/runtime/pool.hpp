#pragma once
// The process's one worker pool: flow steps (ParallelExecutor), requests
// (InteropService; a Migrate request uses up to two threads, its migration
// beside verify's source side, then its check beside its write), daemon
// sessions (interopd) and fuzz jobs run on it. It has no size: a task that
// finds no idle thread starts one, so callers keep the concurrency they
// ask for and a task waiting on pool work (a FlowRun request running an
// executor) cannot deadlock. Threads are never torn down; the pool settles
// at the peak number of tasks in flight, and each thread keeps its malloc
// arena (EXPERIMENTS.md §P2, service_mix RSS; §G1, migrate_large RSS).

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace interop::runtime {

class WorkerPool {
 public:
  /// The process-wide pool (created on first use, never destroyed).
  static WorkerPool& shared();

  /// Run `task` on a pool thread.
  void submit(std::function<void()> task);
  /// Run fn(0) on the calling thread and fn(1) .. fn(n - 1) on pool
  /// threads; return once every call has returned and its thread is idle.
  /// An exception escaping a call is caught; once every call has returned,
  /// the first one caught is rethrown on the caller.
  void run(int n, const std::function<void(int)>& fn);
  /// Threads started so far.
  int threads() const;

 private:
  WorkerPool() = default;  // shared() only; the mutex makes it uncopyable

  /// A task and, for run()'s tasks, its countdown (guarded by mu_).
  using Task = std::pair<std::function<void()>, int*>;
  void push_locked(Task task);
  void loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< idle threads wait for tasks
  std::condition_variable done_cv_;  ///< run() waits for its tasks
  std::deque<Task> tasks_;
  std::vector<std::thread> threads_;  ///< never joined: the pool lives on
  int idle_ = 0;  ///< threads waiting on work_cv_
};

}  // namespace interop::runtime
