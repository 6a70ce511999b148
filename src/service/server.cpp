#include "src/service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/service/solve.hpp"

namespace sap::service {
namespace {

constexpr std::size_t kLatencyReservoirCapacity = 4096;

/// The digest lane that keeps distinct problem families from colliding in
/// the cache; persisted with each journal record so the on-disk cache is
/// kind-aware like the live one.
std::uint64_t kind_lane_of(SolveRequest::Kind kind) {
  switch (kind) {
    case SolveRequest::Kind::kPath:
      return 1;
    case SolveRequest::Kind::kRing:
      return 2;
    case SolveRequest::Kind::kRoundUfp:
      return 3;
    case SolveRequest::Kind::kRoundSap:
      return 4;
  }
  return 1;
}

}  // namespace

std::string stats_to_json(const ServerStats& stats) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": 2,\n";
  os << "  \"uptime_seconds\": " << stats.uptime_seconds << ",\n";
  os << "  \"connections_accepted\": " << stats.connections_accepted
     << ",\n";
  os << "  \"requests\": {\n";
  os << "    \"ok\": " << stats.requests_ok << ",\n";
  os << "    \"bad_request\": " << stats.requests_bad << ",\n";
  os << "    \"overloaded\": " << stats.requests_overloaded << ",\n";
  os << "    \"shutting_down\": " << stats.requests_shutting_down << ",\n";
  os << "    \"internal\": " << stats.requests_internal_error << ",\n";
  os << "    \"degraded\": " << stats.requests_degraded << ",\n";
  os << "    \"stats\": " << stats.stats_requests << "\n";
  os << "  },\n";
  os << "  \"queue_depth\": " << stats.queue_depth << ",\n";
  os << "  \"active_solves\": " << stats.active_solves << ",\n";
  os << "  \"cache\": {\n";
  os << "    \"hits\": " << stats.cache_hits << ",\n";
  os << "    \"misses\": " << stats.cache_misses << ",\n";
  os << "    \"coalesced\": " << stats.cache_coalesced << ",\n";
  os << "    \"evictions\": " << stats.cache_evictions << ",\n";
  os << "    \"entries\": " << stats.cache_entries << ",\n";
  os << "    \"persist\": {\n";
  os << "      \"enabled\": " << (stats.cache_persist_enabled ? "true"
                                                             : "false")
     << ",\n";
  os << "      \"recovered_records\": " << stats.cache_recovered_records
     << ",\n";
  os << "      \"discarded_corrupt\": " << stats.cache_discarded_corrupt
     << ",\n";
  os << "      \"truncated_tail_bytes\": "
     << stats.cache_truncated_tail_bytes << ",\n";
  os << "      \"journal_appends\": " << stats.cache_journal_appends
     << ",\n";
  os << "      \"journal_compactions\": " << stats.cache_journal_compactions
     << "\n";
  os << "    }\n";
  os << "  },\n";
  os << "  \"event_loop\": {\n";
  os << "    \"wakeups\": " << stats.loop_wakeups << "\n";
  os << "  },\n";
  os << "  \"latency_ms\": {\n";
  os << "    \"samples\": " << stats.latency_samples << ",\n";
  os << "    \"p50\": " << stats.latency_p50_ms << ",\n";
  os << "    \"p95\": " << stats.latency_p95_ms << ",\n";
  os << "    \"p99\": " << stats.latency_p99_ms << ",\n";
  os << "    \"max\": " << stats.latency_max_ms << "\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_) throw std::logic_error("sapd: server already started");

  // A peer resetting mid-write must surface as EPIPE, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  // Persistence recovery + cache warm-up happen before the listen socket
  // exists: recovery can take a while on a big journal, and no client may
  // reach a server whose warm set is still loading (load-before-listen).
  if (!options_.cache_persist_path.empty()) {
    if (options_.cache_entries == 0) {
      throw std::runtime_error(
          "sapd: cache_persist_path requires cache_entries > 0");
    }
    CacheStore::Options store_options;
    store_options.path = options_.cache_persist_path;
    if (options_.fault_injector) {
      const FaultInjector inject = options_.fault_injector;
      store_options.mid_append_hook = [inject] {
        inject(FaultPoint::kMidJournalAppend);
      };
      store_options.mid_compact_hook = [inject] {
        inject(FaultPoint::kMidJournalCompact);
      };
    }
    store_ = std::make_unique<CacheStore>(std::move(store_options));
    cache_ =
        std::make_unique<SolveCache>(options_.cache_entries, store_.get());
    cache_->warm(store_->take_recovered());
  } else {
    store_.reset();
    cache_ = std::make_unique<SolveCache>(options_.cache_entries);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("sapd: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("sapd: bad bind address '" +
                             options_.bind_address + "' (want IPv4 dotted)");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("sapd: cannot listen on " +
                             options_.bind_address + ":" +
                             std::to_string(options_.port) + ": " + why);
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  workers_ = std::make_unique<WorkerPool>(WorkerPool::Options{
      .threads = options_.solver_threads,
      .queue_capacity = options_.max_queue});
  latency_ = std::make_unique<LatencyReservoir>(kLatencyReservoirCapacity);

  EventLoopOptions loop_options;
  loop_options.write_stall_timeout = options_.send_timeout;
  EventLoopHandlers handlers;
  handlers.on_accept = [this](const ConnPtr&) {
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  };
  handlers.on_frame = [this](const ConnPtr& conn, std::uint32_t type,
                             std::string payload) {
    on_frame(conn, type, std::move(payload));
  };
  handlers.on_protocol_error = [this](const ConnPtr& conn, ReadStatus status,
                                      std::uint32_t declared_length) {
    on_protocol_error(conn, status, declared_length);
  };
  loop_ = std::make_unique<EventLoop>(loop_options, std::move(handlers));

  started_at_ = std::chrono::steady_clock::now();
  stopping_ = false;
  running_ = true;
  loop_->start(listen_fd_);
}

void Server::stop() {
  if (!running_.exchange(false)) return;

  // After this, every new dispatch (loop thread) rejects with SHUTTING_DOWN,
  // so the worker drain below terminates.
  stopping_.store(true, std::memory_order_release);

  // 1. Stop accepting, then close the listen socket.
  loop_->stop_listening();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Every admitted solve finishes and enqueues its response (coalesced
  //    waiters re-dispatched by an abandoning owner extend the drain; they
  //    run cache-less, so the drain cannot cascade).
  workers_->drain();

  // 2b. Every publish has appended by now (publish precedes the response
  //     enqueue on the worker); fsync the journal BEFORE the drain
  //     completes so a graceful shutdown loses at most the record of a
  //     solve that never finished.
  if (store_) store_->flush();

  // 3. Flush buffered responses (bounded by the write-stall timeout for
  //    wedged peers) and join the loop. All response promises were
  //    fulfilled in step 2, so the loop's drain terminates.
  loop_->drain_and_stop();

  // 4. No work left; joining the workers is immediate.
  workers_->stop();
}

void Server::on_frame(const ConnPtr& conn, std::uint32_t type,
                      std::string payload) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kSolveRequest:
      handle_solve_frame(conn, std::move(payload));
      break;
    case FrameType::kStatsRequest:
      stats_requests_.fetch_add(1, std::memory_order_relaxed);
      loop_->send(conn, FrameType::kStatsResponse,
                  stats_to_json(stats_snapshot()));
      break;
    default:
      // Frame boundary intact; answer and keep the connection.
      requests_bad_.fetch_add(1, std::memory_order_relaxed);
      loop_->send(conn, FrameType::kErrorResponse,
                  encode_error_response(
                      {ErrorCode::kBadRequest,
                       "unknown frame type " + std::to_string(type)}));
      break;
  }
}

void Server::on_protocol_error(const ConnPtr& conn, ReadStatus status,
                               std::uint32_t declared_length) {
  (void)declared_length;
  requests_bad_.fetch_add(1, std::memory_order_relaxed);
  const std::string message =
      status == ReadStatus::kTooLarge
          ? "frame payload exceeds server limit of " +
                std::to_string(kDefaultMaxFramePayload) + " bytes"
          : "bad frame magic";
  // The stream is poisoned mid-frame; flush the rejection, then close.
  loop_->send(conn, FrameType::kErrorResponse,
              encode_error_response({ErrorCode::kBadRequest, message}),
              /*close_after_flush=*/true);
}

void Server::handle_solve_frame(const ConnPtr& conn, std::string payload) {
  ResponseTarget target;
  target.conn = conn;
  target.admitted_at = std::chrono::steady_clock::now();
  // Promise the response before any other thread can get involved, so the
  // loop keeps the connection alive until this request is answered.
  conn->add_pending_response();
  SolveRequest request;
  try {
    request = parse_solve_request(payload);
  } catch (const std::invalid_argument& error) {
    requests_bad_.fetch_add(1, std::memory_order_relaxed);
    complete_error(target, ErrorCode::kBadRequest, error.what());
    return;
  }
  dispatch_request(std::move(target), std::move(request));
}

void Server::dispatch_request(ResponseTarget target, SolveRequest request) {
  if (stopping_.load(std::memory_order_acquire)) {
    count_rejection(ErrorCode::kShuttingDown);
    complete_error(target, ErrorCode::kShuttingDown, "server is draining");
    return;
  }

  std::optional<InstanceDigest> cache_key;
  if (cache_->enabled()) {
    // The digest costs a canonicalization pass on the loop thread, so only
    // a cached request pays it.
    const InstanceDigest key = request_digest(request);
    // Park the record *before* acquire: a concurrent publish can then never
    // return a waiter id that settle_waiters cannot find.
    std::uint64_t waiter_id = 0;
    {
      std::lock_guard lock(waiters_mutex_);
      waiter_id = next_waiter_id_++;
      waiters_.emplace(waiter_id, WaiterRecord{target, request});
    }
    const SolveCache::Acquired acquired = cache_->acquire(key, waiter_id);
    if (acquired.role == SolveCache::Role::kWaiter) {
      return;  // the in-flight owner will settle this record
    }
    {
      std::lock_guard lock(waiters_mutex_);
      waiters_.erase(waiter_id);
    }
    if (acquired.role == SolveCache::Role::kHit) {
      requests_ok_.fetch_add(1, std::memory_order_relaxed);
      // Record before enqueueing the response: once a client holds the
      // reply, a stats snapshot must already include its sample.
      record_latency(target);
      complete_ok(target, acquired.payload);
      return;
    }
    if (acquired.role == SolveCache::Role::kOwner) cache_key = key;
  }

  const WorkerPool::Submit admitted = workers_->submit(
      [this, target, request = std::move(request), cache_key] {
        run_and_respond(target, request, cache_key);
      });
  if (admitted == WorkerPool::Submit::kOk) return;

  if (cache_key) {
    // Drop the in-flight marker we own; acquire() only runs on the loop
    // thread, so no waiter can have parked behind it yet.
    settle_waiters(cache_->abandon(*cache_key), nullptr);
  }
  if (admitted == WorkerPool::Submit::kFull) {
    count_rejection(ErrorCode::kOverloaded);
    complete_error(target, ErrorCode::kOverloaded,
                   "admission queue full (" +
                       std::to_string(workers_->queue_capacity()) +
                       " pending)");
  } else {
    count_rejection(ErrorCode::kShuttingDown);
    complete_error(target, ErrorCode::kShuttingDown, "server is draining");
  }
}

void Server::run_and_respond(const ResponseTarget& target,
                             const SolveRequest& request,
                             const std::optional<InstanceDigest>& cache_key) {
  if (options_.fault_injector) options_.fault_injector(FaultPoint::kPreSolve);

  SolveResponse response;
  ErrorResponse rejection;
  const bool served = run_solve_request(request, &response, &rejection);

  if (served) {
    const std::string payload = encode_solve_response(response);
    requests_ok_.fetch_add(1, std::memory_order_relaxed);
    if (response.degraded) {
      requests_degraded_.fetch_add(1, std::memory_order_relaxed);
    }
    if (options_.fault_injector) {
      options_.fault_injector(FaultPoint::kPreResponse);
    }
    // Settle the cache BEFORE enqueueing our own response: once any client
    // holds a reply, the published entry must already be visible (a
    // sequential identical request must hit, not re-solve or park).
    if (cache_key) {
      if (response.degraded) {
        // A degraded result is shaped by this request's deadline, not by
        // the instance — never cache it; re-dispatch the waiters instead.
        settle_waiters(cache_->abandon(*cache_key), nullptr);
      } else {
        const auto waiters = cache_->publish(*cache_key, payload,
                                             kind_lane_of(request.kind));
        settle_waiters(waiters, &payload);
      }
    }
    // Likewise record before enqueueing: a stats snapshot taken by a client
    // that holds the reply must already include its latency sample.
    record_latency(target);
    complete_ok(target, payload);
  } else {
    count_rejection(rejection.code);
    if (cache_key) {
      // An error is never cached either; waiters each get their own
      // attempt.
      settle_waiters(cache_->abandon(*cache_key), nullptr);
    }
    complete_error(target, rejection.code, rejection.message);
  }
}

bool Server::run_solve_request(const SolveRequest& request,
                               SolveResponse* response,
                               ErrorResponse* rejection) {
  try {
    *response = solve_request(request, options_);
    return true;
  } catch (const std::invalid_argument& error) {
    *rejection = {ErrorCode::kBadRequest, error.what()};
  } catch (const std::exception& error) {
    *rejection = {ErrorCode::kInternal, error.what()};
  } catch (...) {
    *rejection = {ErrorCode::kInternal, "unknown solver failure"};
  }
  return false;
}

void Server::complete_ok(const ResponseTarget& target,
                         const std::string& payload) {
  loop_->send(target.conn, FrameType::kSolveResponse, payload,
              /*close_after_flush=*/false, /*completes_pending=*/true);
}

void Server::complete_error(const ResponseTarget& target, ErrorCode code,
                            const std::string& message) {
  loop_->send(target.conn, FrameType::kErrorResponse,
              encode_error_response({code, message}),
              /*close_after_flush=*/false, /*completes_pending=*/true);
}

void Server::count_rejection(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest:
      requests_bad_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ErrorCode::kOverloaded:
      requests_overloaded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ErrorCode::kShuttingDown:
      requests_shutting_down_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ErrorCode::kDeadlineExceeded:  // client-side only: sapd degrades
      break;
    case ErrorCode::kInternal:
      requests_internal_error_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void Server::settle_waiters(const std::vector<std::uint64_t>& ids,
                            const std::string* published_payload) {
  for (const std::uint64_t id : ids) {
    WaiterRecord record;
    {
      std::lock_guard lock(waiters_mutex_);
      const auto it = waiters_.find(id);
      if (it == waiters_.end()) continue;
      record = std::move(it->second);
      waiters_.erase(it);
    }
    if (published_payload != nullptr) {
      requests_ok_.fetch_add(1, std::memory_order_relaxed);
      record_latency(record.target);
      complete_ok(record.target, *published_payload);
      continue;
    }
    // The owner's computation degraded or failed: its outcome reflects that
    // request's deadline, not the instance, so each waiter gets its own
    // cache-less solve. The waiter was admitted once already; bypass the
    // capacity check so backpressure cannot turn coalescing into a drop.
    const WorkerPool::Submit admitted = workers_->submit_admitted(
        [this, target = record.target, request = record.request] {
          run_and_respond(target, request, std::nullopt);
        });
    if (admitted != WorkerPool::Submit::kOk) {
      count_rejection(ErrorCode::kShuttingDown);
      complete_error(record.target, ErrorCode::kShuttingDown,
                     "server is draining");
    }
  }
}

InstanceDigest Server::request_digest(const SolveRequest& request) const {
  // Everything that shapes the response bytes participates in the key
  // EXCEPT the deadline: a published (necessarily non-degraded) response is
  // a full-quality answer valid under any budget, and degraded responses
  // are never published. eps and seed are mixed bit-exactly.
  InstanceHasher hasher;
  hasher.update_u64(kind_lane_of(request.kind));
  hasher.update(request.algo);
  std::uint64_t eps_bits = 0;
  static_assert(sizeof(eps_bits) == sizeof(request.eps));
  std::memcpy(&eps_bits, &request.eps, sizeof(eps_bits));
  hasher.update_u64(eps_bits);
  hasher.update_u64(request.seed);
  hasher.update_u64(request.want_certificate ? 1 : 0);
  hasher.update(canonical_instance_text(request.instance_text));
  return hasher.digest();
}

void Server::record_latency(const ResponseTarget& target) {
  const double ms = 1e3 * std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              target.admitted_at)
                              .count();
  latency_->record(ms);
}

ServerStats Server::stats_snapshot() const {
  ServerStats stats;
  stats.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  stats.requests_bad = requests_bad_.load(std::memory_order_relaxed);
  stats.requests_overloaded =
      requests_overloaded_.load(std::memory_order_relaxed);
  stats.requests_shutting_down =
      requests_shutting_down_.load(std::memory_order_relaxed);
  stats.requests_internal_error =
      requests_internal_error_.load(std::memory_order_relaxed);
  stats.requests_degraded = requests_degraded_.load(std::memory_order_relaxed);
  stats.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  if (workers_) {
    const WorkerPool::Gauges gauges = workers_->gauges();
    stats.queue_depth = gauges.queue_depth;
    stats.active_solves = gauges.active;
  }
  if (cache_) {
    const SolveCache::Stats cache = cache_->stats();
    stats.cache_hits = cache.hits;
    stats.cache_misses = cache.misses;
    stats.cache_coalesced = cache.coalesced;
    stats.cache_evictions = cache.evictions;
    stats.cache_entries = cache.entries;
  }
  if (store_) {
    const CacheStore::Stats persist = store_->stats();
    stats.cache_persist_enabled = true;
    stats.cache_recovered_records = persist.recovery.recovered_records;
    stats.cache_discarded_corrupt = persist.recovery.discarded_corrupt;
    stats.cache_truncated_tail_bytes =
        persist.recovery.truncated_tail_bytes;
    stats.cache_journal_appends = persist.appended_records;
    stats.cache_journal_compactions = persist.compactions;
  }
  if (loop_) stats.loop_wakeups = loop_->wakeups();
  if (latency_) {
    const LatencyReservoir::Snapshot latency = latency_->snapshot();
    stats.latency_samples = latency.samples;
    stats.latency_p50_ms = latency.p50_ms;
    stats.latency_p95_ms = latency.p95_ms;
    stats.latency_p99_ms = latency.p99_ms;
    stats.latency_max_ms = latency.max_ms;
  }
  return stats;
}

}  // namespace sap::service
