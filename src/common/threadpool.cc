#include "common/threadpool.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace streamlake {

ThreadPool::ThreadPool(int num_threads, const char* name) : name_(name) {
  SL_CHECK(num_threads > 0);
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      // Workers are (or are about to be) joined: the task could never run.
      // Silent acceptance would be lost work; silent drop would be worse.
      std::fprintf(stderr,
                   "\n*** streamlake ThreadPool misuse ***\n"
                   "  Submit() after Shutdown() on pool \"%s\"\n"
                   "  the task would never execute; fix the caller's "
                   "lifetime ordering\n",
                   name_);
      std::abort();
    }
    queue_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (!queue_.empty() || active_ != 0) idle_cv_.Wait(&mu_);
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) work_cv_.Wait(&mu_);
      if (queue_.empty()) {
        // shutdown_ must be true; drain-complete.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(&mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.NotifyAll();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Mutex mu{LockRank::kParallelFor, "common.parallel_for"};
  CondVar done;
  size_t remaining = n;  // guarded by mu
  for (size_t i = 0; i < n; ++i) {
    pool->Submit([&, i] {
      fn(i);
      MutexLock lock(&mu);
      if (--remaining == 0) done.NotifyAll();
    });
  }
  MutexLock lock(&mu);
  while (remaining > 0) done.Wait(&mu);
}

}  // namespace streamlake
