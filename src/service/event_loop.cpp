#include "src/service/event_loop.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace sap::service {
namespace {

/// Loop tick: the stall checker's granularity; also bounds how late a
/// drain-completion or poison is noticed. Cross-thread sends don't wait for
/// it — the eventfd wakes epoll_wait immediately.
constexpr int kEpollTickMs = 50;

/// Per-readable-event read budget so one firehose connection cannot starve
/// the rest of the loop.
constexpr std::size_t kMaxReadPerEvent = 256u << 10;

constexpr std::size_t kReadChunk = 64u << 10;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

EventConn::~EventConn() {
  if (!closed_.load(std::memory_order_acquire) && fd_ >= 0) ::close(fd_);
}

EventLoop::EventLoop(const EventLoopOptions& options,
                     EventLoopHandlers handlers)
    : options_(options), handlers_(std::move(handlers)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error(std::string("sapd: epoll_create1 failed: ") +
                             std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    const std::string why = std::strerror(errno);
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw std::runtime_error("sapd: eventfd failed: " + why);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  drain_and_stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::start(int listen_fd) {
  listen_fd_ = listen_fd;
  set_nonblocking(listen_fd_);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  listening_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop_listening() {
  if (listening_.exchange(false) && listen_fd_ >= 0) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  for (;;) {
    if (::write(wake_fd_, &one, sizeof(one)) >= 0 || errno != EINTR) break;
  }
}

void EventLoop::mark_dirty(const ConnPtr& conn) {
  if (!conn->dirty_.exchange(true, std::memory_order_acq_rel)) {
    std::lock_guard lock(dirty_mutex_);
    dirty_.push_back(conn);
  }
}

bool EventLoop::send(const ConnPtr& conn, FrameType type,
                     std::string_view payload, bool close_after_flush,
                     bool completes_pending) {
  bool accepted = false;
  if (!conn->poisoned()) {
    std::string buf;
    buf.resize(kFrameHeaderBytes);
    encode_frame_header(reinterpret_cast<unsigned char*>(buf.data()), type,
                        static_cast<std::uint32_t>(payload.size()));
    buf.append(payload);
    std::lock_guard lock(conn->out_mutex);
    if (!conn->closed_.load(std::memory_order_acquire)) {
      conn->out_bytes += buf.size();
      conn->outq.push_back(std::move(buf));
      conn->close_after_flush =
          conn->close_after_flush || close_after_flush;
      accepted = true;
    }
  }
  if (completes_pending) {
    conn->pending_responses_.fetch_sub(1, std::memory_order_acq_rel);
  }
  mark_dirty(conn);
  wake();
  return accepted;
}

void EventLoop::run() {
  epoll_event events[64];
  while (!stopped_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)),
                               kEpollTickMs);
    if (n < 0 && errno != EINTR) break;  // epoll fd torn down
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        wakeups_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (fd == listen_fd_ && listening_.load(std::memory_order_acquire)) {
        accept_ready();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this batch
      const ConnPtr conn = it->second;   // keep alive across callbacks
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        // Hard hangup with nothing left to read: poison and tear down
        // (EPOLLHUP with EPOLLIN means data may still be pending — drain
        // it through the normal read path, which will observe EOF).
        conn->poisoned_.store(true, std::memory_order_release);
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(conn);
      if ((events[i].events & EPOLLOUT) != 0 &&
          conns_.find(fd) != conns_.end()) {
        flush_output(conn);
      }
    }

    // Cross-thread work: connections with freshly enqueued output (or
    // consumed response promises) flagged by send().
    std::vector<ConnPtr> dirty;
    {
      std::lock_guard lock(dirty_mutex_);
      dirty.swap(dirty_);
    }
    for (const ConnPtr& conn : dirty) {
      conn->dirty_.store(false, std::memory_order_release);
      if (!conn->closed_.load(std::memory_order_acquire)) {
        flush_output(conn);
      }
    }

    check_stalls();

    if (draining_.load(std::memory_order_acquire)) {
      // Stop reading everywhere, flush what remains, close as buffers
      // empty; exit once every connection is gone. Wedged peers are
      // bounded by the stall check above.
      std::vector<ConnPtr> open;
      open.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) open.push_back(conn);
      for (const ConnPtr& conn : open) {
        if (!conn->reads_stopped) {
          conn->reads_stopped = true;
          update_epoll_mask(conn);
        }
        bool flushed = false;
        {
          std::lock_guard lock(conn->out_mutex);
          flushed = conn->outq.empty();
        }
        if (flushed && conn->pending_responses() == 0) close_conn(conn);
      }
      if (conns_.empty()) break;
    }
  }
  // Tear down anything left (stop without drain, or epoll failure).
  std::vector<ConnPtr> open;
  open.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) open.push_back(conn);
  for (const ConnPtr& conn : open) close_conn(conn);
}

void EventLoop::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or listener shut down
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<EventConn>(fd);
    {
      std::lock_guard lock(conn->out_mutex);
      conn->last_write_progress = std::chrono::steady_clock::now();
    }
    conns_.emplace(fd, conn);
    update_epoll_mask(conn);
    if (handlers_.on_accept) handlers_.on_accept(conn);
  }
}

void EventLoop::handle_readable(const ConnPtr& conn) {
  if (conn->reads_stopped || conn->reads_paused || conn->peer_eof) return;
  char buf[kReadChunk];
  std::size_t total = 0;
  while (total < kMaxReadPerEvent) {
    const ssize_t n = ::recv(conn->fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<std::size_t>(n));
      total += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      conn->peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn->poisoned_.store(true, std::memory_order_release);  // hard error
    close_conn(conn);
    return;
  }
  process_input(conn);
  if (conns_.find(conn->fd_) == conns_.end()) return;  // closed by handler
  update_epoll_mask(conn);
  maybe_close(conn);
}

void EventLoop::process_input(const ConnPtr& conn) {
  while (!conn->reads_stopped) {
    const std::size_t available = conn->inbuf.size() - conn->in_offset;
    if (available < kFrameHeaderBytes) break;
    const auto* base = reinterpret_cast<const unsigned char*>(
        conn->inbuf.data() + conn->in_offset);
    FrameHeader header;
    if (!decode_frame_header(base, &header)) {
      conn->reads_stopped = true;
      if (handlers_.on_protocol_error) {
        handlers_.on_protocol_error(conn, ReadStatus::kBadMagic, 0);
      }
      break;
    }
    if (header.length > kDefaultMaxFramePayload) {
      conn->reads_stopped = true;
      if (handlers_.on_protocol_error) {
        handlers_.on_protocol_error(conn, ReadStatus::kTooLarge,
                                    header.length);
      }
      break;
    }
    if (available < kFrameHeaderBytes + header.length) break;
    std::string payload(
        conn->inbuf.data() + conn->in_offset + kFrameHeaderBytes,
        header.length);
    conn->in_offset += kFrameHeaderBytes + header.length;
    if (handlers_.on_frame) {
      handlers_.on_frame(conn, header.type, std::move(payload));
    }
  }
  // Compact the consumed prefix once it dominates the buffer.
  if (conn->in_offset == conn->inbuf.size()) {
    conn->inbuf.clear();
    conn->in_offset = 0;
  } else if (conn->in_offset > (64u << 10)) {
    conn->inbuf.erase(0, conn->in_offset);
    conn->in_offset = 0;
  }
}

void EventLoop::flush_output(const ConnPtr& conn) {
  if (conn->closed_.load(std::memory_order_acquire)) return;
  if (conn->poisoned()) {
    close_conn(conn);
    return;
  }
  {
    std::lock_guard lock(conn->out_mutex);
    while (!conn->outq.empty()) {
      const std::string& front = conn->outq.front();
      // sapkit-analyze: allow(lock-blocking) -- fd_ is O_NONBLOCK (set at
      // accept), so ::send never sleeps under out_mutex: it either makes
      // progress or returns EAGAIN and the loop breaks.
      const ssize_t n = ::send(conn->fd_, front.data() + conn->out_offset,
                               front.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_offset += static_cast<std::size_t>(n);
        conn->out_bytes -= static_cast<std::size_t>(n);
        conn->last_write_progress = std::chrono::steady_clock::now();
        if (conn->out_offset == front.size()) {
          conn->outq.pop_front();
          conn->out_offset = 0;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // Peer reset mid-frame: nothing sent later could be framed.
      conn->poisoned_.store(true, std::memory_order_release);
      break;
    }
  }
  if (conn->poisoned()) {
    close_conn(conn);
    return;
  }
  update_epoll_mask(conn);
  maybe_close(conn);
}

void EventLoop::update_epoll_mask(const ConnPtr& conn) {
  bool have_output = false;
  {
    std::lock_guard lock(conn->out_mutex);
    have_output = !conn->outq.empty();
    // Backpressure: a peer that floods requests faster than it reads
    // responses stops being read until its output drains below half the
    // high-water mark; combined with bounded admission this caps the
    // memory any one connection can pin.
    if (conn->out_bytes > options_.output_high_water) {
      conn->reads_paused = true;
    } else if (conn->out_bytes < options_.output_high_water / 2) {
      conn->reads_paused = false;
    }
  }
  std::uint32_t mask = 0;
  if (!conn->peer_eof && !conn->reads_stopped && !conn->reads_paused) {
    mask |= EPOLLIN;
  }
  if (have_output) mask |= EPOLLOUT;
  if (conn->registered && mask == conn->epoll_mask) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn->fd_;
  (void)::epoll_ctl(epoll_fd_,
                    conn->registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD,
                    conn->fd_, &ev);
  conn->registered = true;
  conn->epoll_mask = mask;
}

void EventLoop::maybe_close(const ConnPtr& conn) {
  if (conn->closed_.load(std::memory_order_acquire)) return;
  if (conn->poisoned()) {
    close_conn(conn);
    return;
  }
  bool flushed = false;
  bool close_requested = false;
  {
    std::lock_guard lock(conn->out_mutex);
    flushed = conn->outq.empty();
    close_requested = conn->close_after_flush;
  }
  // A connection closes once it will never produce more output: the peer
  // went away (EOF) or we decided to hang up (close_after_flush) — and
  // everything already promised or buffered is out the door.
  if ((close_requested || conn->peer_eof) && flushed &&
      conn->pending_responses() == 0) {
    close_conn(conn);
  }
}

void EventLoop::close_conn(const ConnPtr& conn) {
  bool drop = false;
  {
    std::lock_guard lock(conn->out_mutex);
    if (!conn->closed_.exchange(true, std::memory_order_acq_rel)) {
      conn->outq.clear();
      conn->out_bytes = 0;
      conn->out_offset = 0;
      drop = true;
    }
  }
  if (!drop) return;
  // FIN the peer before closing so a graceful close flushes through the
  // kernel buffer; a poisoned close is an abort either way.
  (void)::shutdown(conn->fd_, SHUT_RDWR);
  (void)::close(conn->fd_);  // also removes the fd from the epoll set
  conns_.erase(conn->fd_);
}

void EventLoop::check_stalls() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<ConnPtr> stalled;
  for (const auto& [fd, conn] : conns_) {
    bool is_stalled = false;
    {
      std::lock_guard lock(conn->out_mutex);
      is_stalled = !conn->outq.empty() &&
                   now - conn->last_write_progress >
                       options_.write_stall_timeout;
    }
    if (is_stalled) {
      conn->poisoned_.store(true, std::memory_order_release);
      stalled.push_back(conn);
    }
  }
  for (const ConnPtr& conn : stalled) close_conn(conn);
}

void EventLoop::drain_and_stop() {
  if (!thread_.joinable()) return;
  draining_.store(true, std::memory_order_release);
  wake();
  thread_.join();
  stopped_.store(true, std::memory_order_release);
}

}  // namespace sap::service
