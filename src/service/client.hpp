// Blocking sapd client: one TCP connection, one outstanding request at a
// time. Transport failures throw std::runtime_error; typed server
// rejections (OVERLOADED, BAD_REQUEST, ...) are returned as values so
// callers can implement backoff without exception control flow.
//
// Robustness knobs (ClientOptions):
//   - connect/read/write timeouts so a dead, half-open, or never-replying
//     peer surfaces as a typed DEADLINE_EXCEEDED outcome instead of a hang;
//   - an optional retry policy (jittered exponential backoff, deterministic
//     under a fixed seed) applied by solve_with_retry. Solve requests are
//     idempotent — the server holds no per-request state — so retrying after
//     OVERLOADED or a transport failure is safe. DEADLINE_EXCEEDED is *not*
//     retried: the budget is the caller's contract, and a retry would spend
//     the same budget on the same losing race.
#pragma once

#include <cstdint>
#include <string>

#include "src/service/protocol.hpp"
#include "src/util/rng.hpp"

namespace sap::service {

struct RetryPolicy {
  /// Total tries including the first. 1 = no retries.
  int max_attempts = 1;
  /// Backoff before retry k (1-based) is drawn uniformly from
  /// [base/2, base) with base = initial_backoff_ms * growth^(k-1) — the
  /// usual "equal jitter" scheme, capped at max_backoff_ms.
  std::int64_t initial_backoff_ms = 50;
  double growth = 2.0;
  std::int64_t max_backoff_ms = 2'000;
  /// Seed for the jitter stream; a fixed seed gives a reproducible backoff
  /// sequence (asserted by the unit tests).
  std::uint64_t seed = 0;
};

struct ClientOptions {
  /// 0 = OS default for all three. Timeouts apply per syscall, not per
  /// round trip, so a slow-but-live server is not cut off mid-response.
  std::int64_t connect_timeout_ms = 0;
  std::int64_t read_timeout_ms = 0;
  std::int64_t write_timeout_ms = 0;
  RetryPolicy retry;
};

class Client {
 public:
  Client() = default;
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Resolves `host` (numeric or named) and connects, honouring
  /// connect_timeout_ms. Throws std::runtime_error on failure.
  /// Reconnecting an open client closes the previous connection first.
  void connect(const std::string& host, std::uint16_t port);
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Outcome of one round trip that reached the server — or that timed out
  /// locally (error_code == kDeadlineExceeded, `local_timeout` set).
  struct SolveOutcome {
    bool ok = false;
    SolveResponse response;  ///< valid when ok
    ErrorCode error_code = ErrorCode::kInternal;  ///< valid when !ok
    std::string error_message;
    /// True when the error was produced by this client's own read/write
    /// timeout rather than by a server rejection frame.
    bool local_timeout = false;
    int attempts = 1;  ///< round trips performed (retries + 1)
  };

  /// Sends a solve request and blocks for the matching response. Throws
  /// std::runtime_error on transport errors (closed connection, protocol
  /// violations); server-side rejections and local read/write timeouts come
  /// back in the outcome.
  [[nodiscard]] SolveOutcome solve(const SolveRequest& request);

  /// solve() wrapped in the retry policy: reconnects and retries after
  /// OVERLOADED rejections and transport failures, with jittered
  /// exponential backoff. Never retries DEADLINE_EXCEEDED, BAD_REQUEST, or
  /// any other non-transient rejection. Requires a prior connect() (the
  /// remembered endpoint is reused for reconnects).
  [[nodiscard]] SolveOutcome solve_with_retry(const SolveRequest& request);

  /// Fetches the server's stats JSON (see docs/SERVICE.md).
  [[nodiscard]] std::string stats_json();

  /// Backoff (ms) the policy would apply before 1-based retry `attempt`,
  /// consuming the same jitter stream solve_with_retry uses. Exposed so
  /// tests can assert the deterministic schedule; `rng` must start from
  /// Rng(policy.seed).
  [[nodiscard]] static std::int64_t backoff_ms(const RetryPolicy& policy,
                                               int attempt, Rng& rng);

 private:
  struct Reply;
  Reply round_trip(FrameType type, const std::string& payload,
                   FrameType expected);
  void apply_io_timeouts();

  ClientOptions options_;
  int fd_ = -1;
  std::string last_host_;
  std::uint16_t last_port_ = 0;
};

}  // namespace sap::service
