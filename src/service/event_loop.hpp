// Single-threaded epoll event loop for sapd: non-blocking accept/read/write
// with a per-connection framing state machine, replacing the one
// reader-thread-per-connection model. One loop thread multiplexes every
// connection; solver work still runs on the sharded worker pools
// (shard.hpp), which hand finished responses back to the loop through the
// thread-safe send() — an eventfd wakes the loop, which owns all socket
// I/O.
//
// Responsibilities split:
//   - the loop assembles frames (header validation, payload bounds) and
//     reports complete frames / framing violations through callbacks, all
//     invoked on the loop thread;
//   - callers promise responses with EventConn::add_pending_response() and
//     fulfil each promise with exactly one send(..., completes_pending =
//     true) — possibly from a worker thread; the loop keeps a connection
//     alive (even after peer EOF or a framing error) until every promised
//     response has been enqueued and flushed, preserving the old reader
//     contract "an exiting connection never swallows a response in flight";
//   - backpressure: a connection whose output buffer exceeds the high-water
//     mark stops being read until it drains, so a peer that floods requests
//     and never reads can only pin bounded memory;
//   - poisoning: output that makes no progress for write_stall_timeout
//     (half-open or wedged peer) poisons the connection — buffered output
//     is dropped and the socket torn down — bounding the damage a dead
//     peer can do, like the SO_SNDTIMEO of the blocking design but without
//     a worker thread stuck in send().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/service/frame.hpp"
#include "src/service/protocol.hpp"

namespace sap::service {

class EventLoop;

/// One accepted connection. Shared between the loop and solver workers via
/// shared_ptr; all socket I/O happens on the loop thread.
class EventConn {
 public:
  explicit EventConn(int fd) : fd_(fd) {}
  ~EventConn();

  EventConn(const EventConn&) = delete;
  EventConn& operator=(const EventConn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_relaxed);
  }

  /// Declares one future send(..., completes_pending = true). Call at
  /// admission time (loop thread) before handing work to another thread.
  void add_pending_response() noexcept {
    pending_responses_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] int pending_responses() const noexcept {
    return pending_responses_.load(std::memory_order_acquire);
  }

 private:
  friend class EventLoop;

  const int fd_;
  std::atomic<bool> poisoned_{false};
  std::atomic<bool> closed_{false};
  std::atomic<int> pending_responses_{0};
  std::atomic<bool> dirty_{false};  ///< queued on the loop's dirty list

  // Output side: shared between send() callers and the loop.
  std::mutex out_mutex;
  std::deque<std::string> outq;
  std::size_t out_bytes = 0;
  std::size_t out_offset = 0;  ///< consumed prefix of outq.front()
  bool close_after_flush = false;

  // Input side and epoll bookkeeping: loop thread only.
  std::string inbuf;
  std::size_t in_offset = 0;  ///< consumed prefix of inbuf
  bool peer_eof = false;
  bool reads_stopped = false;  ///< framing error or drain: ignore input
  bool reads_paused = false;   ///< backpressure: output over high water
  bool registered = false;     ///< fd is in the epoll set
  std::uint32_t epoll_mask = 0;
  /// Guarded by out_mutex (written by the flushing loop, read by the stall
  /// checker).
  std::chrono::steady_clock::time_point last_write_progress{};
};

using ConnPtr = std::shared_ptr<EventConn>;

struct EventLoopOptions {
  /// Pending output making no progress for this long poisons the
  /// connection (half-open peer shedding).
  std::chrono::milliseconds write_stall_timeout{30'000};
  /// Stop reading a connection whose buffered output exceeds this; resume
  /// below half of it.
  std::size_t output_high_water = 4u << 20;
};

struct EventLoopHandlers {
  /// Loop thread: one complete frame (type is the raw wire value).
  std::function<void(const ConnPtr&, std::uint32_t type, std::string payload)>
      on_frame;
  /// Loop thread: framing violation — status is kBadMagic or kTooLarge
  /// (declared_length is the offending length for kTooLarge). Reading from
  /// the connection has already stopped; the handler typically sends a
  /// typed error with close_after_flush = true.
  std::function<void(const ConnPtr&, ReadStatus status,
                     std::uint32_t declared_length)>
      on_protocol_error;
  /// Loop thread: a connection was accepted (counter hook).
  std::function<void(const ConnPtr&)> on_accept;
};

class EventLoop {
 public:
  EventLoop(const EventLoopOptions& options, EventLoopHandlers handlers);
  ~EventLoop();  ///< drains nothing: call drain_and_stop() first

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Starts the loop thread, accepting on `listen_fd` (which must already
  /// be listening; the loop flips it non-blocking but does not own it).
  void start(int listen_fd);

  /// Stops accepting (removes the listen fd from the loop). Call before
  /// closing the listen fd. Thread-safe.
  void stop_listening();

  /// Enqueues one frame on `conn` and wakes the loop to flush it.
  /// Thread-safe. Returns false (dropping the payload) when the connection
  /// is already closed or poisoned. `completes_pending` consumes one
  /// add_pending_response() promise — it is consumed even when the payload
  /// is dropped, so accounting survives dead connections.
  bool send(const ConnPtr& conn, FrameType type, std::string_view payload,
            bool close_after_flush = false, bool completes_pending = false);

  /// Flushes every connection's remaining output (bounded by the stall
  /// timeout for wedged peers), closes all connections, stops the loop and
  /// joins its thread. Callers must first ensure no more work will be
  /// promised (pending responses drained). Idempotent.
  void drain_and_stop();

  /// Cross-thread wakeups delivered via the eventfd (stats).
  [[nodiscard]] std::uint64_t wakeups() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  void accept_ready();
  void handle_readable(const ConnPtr& conn);
  void process_input(const ConnPtr& conn);
  void flush_output(const ConnPtr& conn);
  void update_epoll_mask(const ConnPtr& conn);
  void maybe_close(const ConnPtr& conn);
  void close_conn(const ConnPtr& conn);
  void check_stalls();
  void mark_dirty(const ConnPtr& conn);
  void wake();

  EventLoopOptions options_;
  EventLoopHandlers handlers_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd
  int listen_fd_ = -1;
  std::atomic<bool> listening_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> wakeups_{0};
  std::thread thread_;

  // Loop thread only.
  std::unordered_map<int, ConnPtr> conns_;

  std::mutex dirty_mutex_;
  std::vector<ConnPtr> dirty_;
};

}  // namespace sap::service
