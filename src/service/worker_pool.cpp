#include "src/service/worker_pool.hpp"

#include <algorithm>
#include <utility>

namespace sap::service {

WorkerPool::WorkerPool(const Options& options)
    : queue_capacity_(std::max<std::size_t>(1, options.queue_capacity)) {
  const std::size_t threads =
      options.threads != 0
          ? options.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() { stop(); }

WorkerPool::Submit WorkerPool::enqueue(std::function<void()> job,
                                       bool enforce_capacity) {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return Submit::kStopped;
    if (enforce_capacity && queue_.size() >= queue_capacity_) {
      return Submit::kFull;
    }
    queue_.push_back(std::move(job));
  }
  work_ready_.notify_one();
  return Submit::kOk;
}

WorkerPool::Submit WorkerPool::submit(std::function<void()> job) {
  return enqueue(std::move(job), /*enforce_capacity=*/true);
}

WorkerPool::Submit WorkerPool::submit_admitted(std::function<void()> job) {
  return enqueue(std::move(job), /*enforce_capacity=*/false);
}

void WorkerPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    job();
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void WorkerPool::drain() {
  // A running job may re-dispatch a waiter onto this same queue before it
  // lowers `active_`, so the predicate cannot hold until that job has run.
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void WorkerPool::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

WorkerPool::Gauges WorkerPool::gauges() const {
  std::lock_guard lock(mutex_);
  return Gauges{queue_.size(), active_};
}

}  // namespace sap::service
