// sapd: a long-running SAP solver service over loopback/LAN TCP.
//
// Architecture (a miniature inference server, scale-out edition):
//   - ONE epoll event loop thread (event_loop.hpp) owns every socket:
//     non-blocking accept/read/write, per-connection framing state
//     machines, write backpressure and half-open-peer shedding. Stats
//     requests and typed rejections are answered inline on the loop;
//   - solves are routed by the canonical instance digest
//     (io/canonical.hpp) to N sharded worker pools (shard.hpp) with
//     best-effort CPU affinity — identical instances always land on the
//     same shard. Each shard's admission queue is *bounded*: when full the
//     request is rejected immediately with a typed OVERLOADED error
//     (backpressure, never unbounded buffering, never a silent drop);
//   - an optional bounded LRU solve cache (solve_cache.hpp), keyed by the
//     canonical digest, serves repeated instances without solving and
//     coalesces concurrent identical solves into one computation whose
//     byte-identical response fans out to every waiter. Degraded or
//     errored computations are never cached;
//   - a batched frame (kBatchSolveRequest) carries N independent solve
//     payloads in one round trip; items are individually admitted, cached
//     and sharded, and the aggregated response preserves order.
//
// Shutdown contract (SIGTERM-friendly, exercised under ASan): stop() closes
// the listener first, lets every admitted solve finish, flushes every
// buffered response (bounded by the write-stall timeout for wedged peers),
// then joins the loop and the workers. New work arriving while draining
// gets a SHUTTING_DOWN error.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/io/canonical.hpp"
#include "src/io/instance_io.hpp"
#include "src/service/cache_store.hpp"
#include "src/service/event_loop.hpp"
#include "src/service/protocol.hpp"
#include "src/service/shard.hpp"
#include "src/service/solve_cache.hpp"
#include "src/util/deadline.hpp"
#include "src/util/latency_reservoir.hpp"

namespace sap::service {

/// Named interception points for the fault-injection test seam. Production
/// configs leave `ServerOptions::fault_injector` empty; the chaos harness
/// uses it to stall workers, provoke queue saturation, and time SIGTERM
/// against the degraded-solve window.
enum class FaultPoint {
  kPreSolve,     ///< worker thread: after dequeue, before solving
  kPreFallback,  ///< worker thread: deadline expired, before the fallback
  kPreResponse,  ///< worker thread: response built, before the write
  /// Journal seams (cache persistence): mid-record append and between a
  /// compaction's temp-file fsync and its atomic rename. The chaos harness
  /// SIGKILLs here to manufacture torn appends and interrupted compactions.
  kMidJournalAppend,
  kMidJournalCompact,
};
using FaultInjector = std::function<void(FaultPoint)>;

/// Caps applied when parsing network-supplied instance text. (The frame
/// payload ceiling, kDefaultMaxFramePayload, and the batch item cap,
/// kDefaultMaxBatchItems, are enforced before allocation.)
inline constexpr ReadLimits kServerReadLimits{.max_edges = 1'000'000,
                                              .max_tasks = 1'000'000,
                                              .max_placements = 1'000'000};

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; query Server::port() after start
  std::size_t solver_threads = 0;  ///< 0 = hardware_concurrency
  /// Worker shards the solver threads are split across; instances route to
  /// shards by canonical digest. 1 = the classic single-queue behaviour.
  std::size_t shards = 1;
  /// Solves admitted but not yet started, per shard. Beyond this,
  /// OVERLOADED.
  std::size_t max_queue = 64;
  /// Solve-cache capacity in entries. 0 (default) disables caching AND
  /// in-flight coalescing — repeated identical requests then consume queue
  /// slots like distinct ones, which the admission tests rely on.
  std::size_t cache_entries = 0;
  /// Journal file for crash-safe cache persistence (docs/SERVICE.md,
  /// "Persistence & recovery"). Empty (default) = in-memory only. Requires
  /// cache_entries > 0; start() throws otherwise. The journal is recovered
  /// and replayed into the cache before the server listens, and flushed
  /// (fsync) before a graceful drain completes.
  std::string cache_persist_path;
  /// Server-side default solve budget applied when a request carries no
  /// `deadline_ms` line. 0 = unlimited (the pre-deadline behaviour).
  std::int64_t default_deadline_ms = 0;
  /// Buffered response bytes making no progress toward a peer for this
  /// long poison the connection (the event-loop replacement for
  /// SO_SNDTIMEO): a dead or half-open peer can only pin resources for a
  /// bounded time.
  std::chrono::milliseconds send_timeout{30'000};
  /// Pin each shard's workers to distinct CPUs (Linux, best effort; only
  /// applied when shards > 1).
  bool pin_cpus = true;
  /// Fault-injection test seam: invoked at the named points on the worker
  /// thread. Production configs leave it empty.
  FaultInjector fault_injector;
};

/// Monotonic counters + gauges reported by the `stats` request.
struct ServerStats {
  double uptime_seconds = 0.0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_bad = 0;
  std::uint64_t requests_overloaded = 0;
  std::uint64_t requests_shutting_down = 0;
  std::uint64_t requests_internal_error = 0;
  /// Always 0: an expired deadline degrades a request instead of failing
  /// it. Kept because the stats schema publishes it.
  std::uint64_t requests_deadline_exceeded = 0;
  std::uint64_t requests_degraded = 0;  ///< served ok, but degraded
  std::uint64_t stats_requests = 0;
  std::uint64_t batch_requests = 0;  ///< batch frames (items count above)
  std::size_t queue_depth = 0;    ///< admitted, not yet started (all shards)
  std::size_t active_solves = 0;  ///< running on the pools right now
  /// Per-shard gauges, index = shard id.
  std::vector<ShardPool::ShardGauges> shards;
  /// Solve cache counters (all zero when the cache is disabled).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_coalesced = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_entries = 0;
  /// Cache-persistence counters (all zero when no journal is configured).
  bool cache_persist_enabled = false;
  std::uint64_t cache_recovered_records = 0;  ///< valid records replayed
  std::uint64_t cache_discarded_corrupt = 0;  ///< checksum-failing records
  std::uint64_t cache_truncated_tail_bytes = 0;  ///< bytes cut at recovery
  std::uint64_t cache_journal_appends = 0;  ///< records appended since start
  std::uint64_t cache_journal_compactions = 0;
  std::uint64_t loop_wakeups = 0;  ///< eventfd wakeups of the event loop
  std::size_t latency_samples = 0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
};

/// Formats a snapshot as the stats-response JSON object (docs/SERVICE.md).
[[nodiscard]] std::string stats_to_json(const ServerStats& stats);

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  ///< stops if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the event loop + sharded solver pools.
  /// Throws std::runtime_error when the address cannot be bound.
  void start();

  /// Bound port (after start()); useful with an ephemeral `port = 0`.
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Graceful shutdown: refuse new work, drain in-flight solves (their
  /// responses are flushed), join every thread. Idempotent.
  void stop();

  [[nodiscard]] ServerStats stats_snapshot() const;

 private:
  struct BatchContext;

  /// Where a finished solve's bytes go: a connection's single-response
  /// frame, or one slot of a batch aggregate.
  struct ResponseTarget {
    ConnPtr conn;
    std::shared_ptr<BatchContext> batch;  ///< null = standalone response
    std::size_t slot = 0;
    bool counts_pending = false;  ///< completion consumes one promise
    std::size_t shard = 0;        ///< latency-reservoir stripe hint
    std::chrono::steady_clock::time_point admitted_at{};
  };

  /// A request parked behind an in-flight identical computation.
  struct WaiterRecord {
    ResponseTarget target;
    SolveRequest request;  ///< kept for re-dispatch if the owner abandons
  };

  void on_frame(const ConnPtr& conn, std::uint32_t type,
                std::string payload);
  void on_protocol_error(const ConnPtr& conn, ReadStatus status,
                         std::uint32_t declared_length);
  void handle_solve_frame(const ConnPtr& conn, std::string payload);
  void handle_batch_frame(const ConnPtr& conn, std::string payload);
  /// Parses, consults the cache, and routes to a shard (loop thread).
  void dispatch_payload(ResponseTarget target, const std::string& payload);
  void dispatch_request(ResponseTarget target, SolveRequest request,
                        bool allow_cache);
  /// Runs one solve and fans the outcome out (worker thread). `cache_key`
  /// is set iff this computation owns an in-flight cache slot.
  void run_and_respond(const ResponseTarget& target,
                       const SolveRequest& request,
                       const std::optional<InstanceDigest>& cache_key);
  /// Runs solve_request under the request's budget: fills response, or a
  /// BAD_REQUEST / INTERNAL rejection; true = served.
  bool run_solve_request(const SolveRequest& request, SolveResponse* response,
                         ErrorResponse* rejection);
  void complete_ok(const ResponseTarget& target, const std::string& payload);
  void complete_error(const ResponseTarget& target, ErrorCode code,
                      const std::string& message);
  void finish_batch_slot(const ResponseTarget& target, bool ok,
                         std::string payload);
  void count_rejection(ErrorCode code);
  /// Pops parked waiters and either completes them with the published
  /// payload or re-dispatches them cache-less after an abandon.
  void settle_waiters(const std::vector<std::uint64_t>& ids,
                      const std::string* published_payload);
  [[nodiscard]] InstanceDigest request_digest(
      const SolveRequest& request) const;
  void record_latency(const ResponseTarget& target);

  ServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::chrono::steady_clock::time_point started_at_;

  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ShardPool> shards_;
  std::unique_ptr<CacheStore> store_;  ///< outlives cache_ (cache_ holds it)
  std::unique_ptr<SolveCache> cache_;
  std::unique_ptr<LatencyReservoir> latency_;

  // Parked coalesced waiters, keyed by the id the cache holds. Records are
  // inserted *before* SolveCache::acquire so a publish can never return an
  // id that is not yet here.
  mutable std::mutex waiters_mutex_;
  std::uint64_t next_waiter_id_ = 1;
  std::unordered_map<std::uint64_t, WaiterRecord> waiters_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_bad_{0};
  std::atomic<std::uint64_t> requests_overloaded_{0};
  std::atomic<std::uint64_t> requests_shutting_down_{0};
  std::atomic<std::uint64_t> requests_internal_error_{0};
  std::atomic<std::uint64_t> requests_degraded_{0};
  std::atomic<std::uint64_t> stats_requests_{0};
  std::atomic<std::uint64_t> batch_requests_{0};
};

}  // namespace sap::service
