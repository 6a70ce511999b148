// Minimal fixed-size thread pool with one entry point: a fork/join
// `parallel_for` used by the batch harness and the benchmarks for parameter
// sweeps. (sapd runs its solver workers on ShardPool, src/service/shard.hpp.)
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sap {

/// Fixed worker pool with a fork/join `parallel_for`. Exceptions thrown by
/// loop bodies are rethrown on the calling thread (first one wins).
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Runs body(i) for i in [0, count) across the pool and blocks until all
  /// iterations finish. The calling thread participates.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;
};

}  // namespace sap
