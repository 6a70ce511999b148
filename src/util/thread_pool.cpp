#include "src/util/thread_pool.hpp"

#include <atomic>
#include <exception>

namespace sap {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto done = std::make_shared<std::atomic<std::size_t>>(0);
  auto first_error = std::make_shared<std::atomic<bool>>(false);
  auto error = std::make_shared<std::exception_ptr>();
  auto error_mutex = std::make_shared<std::mutex>();

  auto drain = [next, done, first_error, error, error_mutex, count, &body] {
    for (;;) {
      const std::size_t i = next->fetch_add(1);
      if (i >= count) break;
      try {
        body(i);
      } catch (...) {
        if (!first_error->exchange(true)) {
          std::lock_guard lock(*error_mutex);
          *error = std::current_exception();
        }
      }
      done->fetch_add(1);
    }
  };

  const std::size_t helpers = std::min(workers_.size(), count);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) tasks_.push(drain);
  }
  work_ready_.notify_all();
  drain();  // calling thread participates
  while (done->load() < count) std::this_thread::yield();
  if (first_error->load()) std::rethrow_exception(*error);
}

}  // namespace sap
