#ifndef STREAMLAKE_COMMON_THREADPOOL_H_
#define STREAMLAKE_COMMON_THREADPOOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace streamlake {

/// Fixed-size worker pool used by background services (MetaFresher,
/// stream-to-table conversion, tiering). Tasks are run FIFO; Shutdown()
/// drains queued tasks before joining so callers can rely on completion.
class ThreadPool {
 public:
  /// `name` appears in misuse reports (Submit-after-Shutdown) so a crash
  /// identifies which of the process's pools was abused.
  explicit ThreadPool(int num_threads, const char* name = "common.threadpool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Calling after Shutdown() is a checked error: the task
  /// could never run (workers are already joined), so Submit aborts with a
  /// named misuse report instead of silently dropping or deadlocking.
  void Submit(std::function<void()> task);

  /// Block until all tasks submitted so far have finished.
  void Wait();

  /// Drain the queue, then stop and join all workers. Idempotent.
  void Shutdown();

  int num_threads() const { return static_cast<int>(threads_.size()); }
  const char* name() const { return name_; }

 private:
  void WorkerLoop();

  const char* const name_;
  Mutex mu_{LockRank::kThreadPool, "common.threadpool"};
  CondVar work_cv_;   // signals workers
  CondVar idle_cv_;   // signals Wait()
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::vector<std::thread> threads_;
  int active_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

/// Run fn(0) .. fn(n - 1) and return once every call has finished. With a
/// pool and more than one index, each call is a task on `pool` and the
/// caller waits on a barrier private to this call — not ThreadPool::Wait,
/// which on a shared pool would also wait for other callers' tasks.
/// Without a pool, or for n <= 1, the calls run inline on the calling
/// thread in index order. Calls may run concurrently, so `fn` must only
/// touch per-index state or synchronize itself. Must not be called from a
/// task of the same pool: the caller would hold a worker while it waits.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace streamlake

#endif  // STREAMLAKE_COMMON_THREADPOOL_H_
