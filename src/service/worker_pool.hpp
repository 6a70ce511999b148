// sapd's solver workers: one bounded admission queue drained by a fixed set
// of worker threads.
//
// Admission is bounded (`queue_capacity` jobs admitted but not yet started,
// server-wide); submit() returns kFull instead of buffering unboundedly —
// the caller turns that into a typed OVERLOADED rejection. Work that was
// already admitted and must not be dropped (a coalesced waiter being
// re-dispatched after its owner's computation degraded) uses
// submit_admitted(), which bypasses the capacity check but still respects
// shutdown.
//
// drain() blocks until the queue is empty and every worker idle; jobs
// submitted *during* the drain by running jobs (re-dispatch) extend it.
// stop() then joins the workers. Jobs must not throw.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sap::service {

class WorkerPool {
 public:
  struct Options {
    std::size_t threads = 0;  ///< 0 = hardware_concurrency
    /// Jobs admitted but not yet started (at least 1 is enforced).
    std::size_t queue_capacity = 64;
  };

  enum class Submit { kOk, kFull, kStopped };

  struct Gauges {
    std::size_t queue_depth = 0;  ///< admitted, not yet started
    std::size_t active = 0;       ///< running right now
  };

  explicit WorkerPool(const Options& options);
  ~WorkerPool();  ///< drains and joins

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The admission bound submit() enforces.
  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return queue_capacity_;
  }

  /// Enqueues `job`, subject to the queue's capacity.
  [[nodiscard]] Submit submit(std::function<void()> job);

  /// Capacity-exempt enqueue for work that was already admitted once and
  /// must run (coalesced-waiter re-dispatch). Still refuses after stop().
  [[nodiscard]] Submit submit_admitted(std::function<void()> job);

  /// Blocks until the queue is empty and every worker idle.
  void drain();

  /// Runs every queued job, then joins the workers. Idempotent.
  void stop();

  [[nodiscard]] Gauges gauges() const;

 private:
  Submit enqueue(std::function<void()> job, bool enforce_capacity);
  void worker_loop();

  const std::size_t queue_capacity_;
  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sap::service
