// Per-solve resource governor: monotonic deadlines with cooperative,
// allocation-free cancellation.
//
// A `Deadline` is a value type wrapping a steady_clock time point (or
// "unlimited"). Long-running stages accept one through their options structs
// and poll it cooperatively at loop granularity; a stage that runs out of
// budget returns a typed timeout outcome (a `timed_out` flag, an
// `LpStatus::kTimeout`, or a thrown `DeadlineExceeded`) and never a partial
// answer. `DeadlineGate` amortizes the clock read for hot loops: it touches
// the clock once per `stride` calls and latches once expired, so the common
// path is a decrement and a branch.
//
// Determinism contract: a deadline never changes *what* a stage computes,
// only *whether* it finishes. Either branch is deterministic — the full
// answer, or the typed timeout — which is why this is the one file in the
// deterministic tree allowed to read the monotonic clock (sapkit-lint pins
// every other use).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace sap {

/// Typed timeout outcome for APIs that return a solution directly (solve_sap,
/// sap_brute_force): thrown instead of returning a partial answer.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default-constructed deadlines are unlimited: expired() is always false
  /// and every check compiles down to one branch on `enabled_`.
  constexpr Deadline() noexcept = default;

  [[nodiscard]] static Deadline at(Clock::time_point when) noexcept {
    Deadline d;
    d.enabled_ = true;
    d.when_ = when;
    return d;
  }

  /// `budget` from now. A budget past the clock's range is unlimited; a
  /// negative one is already expired.
  [[nodiscard]] static Deadline after(Clock::duration budget) {
    const Clock::time_point now = Clock::now();
    if (budget > Clock::time_point::max() - now) return unlimited();
    return at(now + std::max(budget, Clock::duration::zero()));
  }

  /// after() in milliseconds, saturating the same way (the conversion to
  /// clock ticks would overflow first).
  [[nodiscard]] static Deadline after_ms(std::int64_t ms) {
    constexpr std::int64_t kMaxMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::duration::max())
            .count();
    if (ms > kMaxMs) return unlimited();
    return after(std::chrono::milliseconds(std::max<std::int64_t>(ms, 0)));
  }

  [[nodiscard]] static constexpr Deadline unlimited() noexcept {
    return Deadline{};
  }

  [[nodiscard]] constexpr bool has_deadline() const noexcept {
    return enabled_;
  }

  [[nodiscard]] bool expired() const {
    return enabled_ && Clock::now() >= when_;
  }

  /// Time left, saturating at zero. Unlimited deadlines report the maximum
  /// representable duration.
  [[nodiscard]] Clock::duration remaining() const {
    if (!enabled_) return Clock::duration::max();
    const auto left = when_ - Clock::now();
    return left > Clock::duration::zero() ? left : Clock::duration::zero();
  }

  [[nodiscard]] std::int64_t remaining_ms() const {
    if (!enabled_) return std::numeric_limits<std::int64_t>::max();
    return std::chrono::duration_cast<std::chrono::milliseconds>(remaining())
        .count();
  }

  [[nodiscard]] Clock::time_point when() const noexcept { return when_; }

  /// The earlier of the two deadlines: used to slice a request budget across
  /// ladder rungs without ever extending the outer deadline.
  [[nodiscard]] Deadline min(Deadline other) const noexcept {
    if (!enabled_) return other;
    if (!other.enabled_) return *this;
    return at(std::min(when_, other.when_));
  }

  /// Throws DeadlineExceeded when expired; for exception-style callers.
  void check() const {
    if (expired()) throw DeadlineExceeded();
  }

 private:
  bool enabled_ = false;
  Clock::time_point when_{};
};

/// Amortized deadline poll for hot loops. Calling expired() decrements a
/// counter; the clock is read only every `stride` calls (and on the first),
/// after which the result latches. Allocation-free and cheap enough for
/// per-node / per-state / per-iteration placement.
class DeadlineGate {
 public:
  static constexpr std::uint32_t kDefaultStride = 1024;

  explicit DeadlineGate(Deadline deadline,
                        std::uint32_t stride = kDefaultStride) noexcept
      : deadline_(deadline), stride_(stride > 0 ? stride : 1) {}

  /// True once the underlying deadline has passed (checked at most once per
  /// `stride` calls, then latched).
  [[nodiscard]] bool expired() {
    if (latched_) return true;
    if (!deadline_.has_deadline()) return false;
    if (countdown_ > 0) {
      --countdown_;
      return false;
    }
    countdown_ = stride_ - 1;
    latched_ = deadline_.expired();
    return latched_;
  }

  /// Throws DeadlineExceeded on expiry; same amortization as expired().
  void check() {
    if (expired()) throw DeadlineExceeded();
  }

  [[nodiscard]] Deadline deadline() const noexcept { return deadline_; }

 private:
  Deadline deadline_;
  std::uint32_t stride_;
  std::uint32_t countdown_ = 0;  ///< first call always reads the clock
  bool latched_ = false;
};

}  // namespace sap
