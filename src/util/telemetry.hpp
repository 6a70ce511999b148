// Solver telemetry: named counters and RAII scoped wall timers feeding a
// per-solve TelemetryReport, with near-zero cost when no collector is
// installed.
//
// Collection model: a TelemetrySession installs a report as the *calling
// thread's* sink. Instrumentation points (telemetry::count, ScopedTimer)
// write to that thread-local sink, so concurrent solves on different threads
// collect into disjoint reports without locking — this is what makes the
// counters safe under the batch harness's ThreadPool. When no session is
// active, every instrumentation point reduces to one thread-local pointer
// load and a predictable branch, so always-on instrumentation in the hot
// solver paths costs nothing measurable (acceptance budget: < 2% on
// bench_full_solver).
//
// Determinism contract: counter values and timer *entry counts* depend only
// on the instrumented computation, never on wall time or scheduling; timer
// *seconds* are inherently nondeterministic. TelemetryReport::write_json
// therefore exposes a counters-only mode that the batch harness uses for
// byte-identical reports across thread counts. Exception: the `alloc.`
// counters (arena slow paths, src/util/arena.hpp) depend on the executing
// thread's arena warmth; deterministic consumers drop them via
// drop_counters_with_prefix("alloc.").
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <string_view>

namespace sap {

/// Accumulated state of one named timer: scope entries and total seconds.
struct TimerStat {
  std::int64_t count = 0;
  double seconds = 0.0;
};

/// The telemetry collected over one scope (typically one solve): ordered
/// name -> value maps so iteration, merging and JSON output are
/// deterministic. Plain value type; one writer at a time (the session's
/// thread), aggregation via merge() after joining.
class TelemetryReport {
 public:
  void add_count(std::string_view name, std::int64_t delta);
  /// Raises the named counter to `value` if that is larger, and marks it a
  /// peak: merge() then keeps the larger of two peaks instead of adding
  /// them. A name is used either as a sum or as a peak, never both.
  void add_peak(std::string_view name, std::int64_t value);
  void add_time(std::string_view name, std::int64_t entries, double seconds);

  /// Adds every counter and timer of `other` into this report; peaks
  /// (add_peak) keep the maximum.
  void merge(const TelemetryReport& other);

  /// Removes every counter whose name starts with `prefix`. The batch
  /// harness uses this to drop the allocator counters (`alloc.`): they
  /// record whether the *executing thread's* arena was already warm — a
  /// scheduling fact, not a property of the case — and so are exempt from
  /// the determinism contract below.
  void drop_counters_with_prefix(std::string_view prefix);

  /// Value of a counter (0 when never touched).
  [[nodiscard]] std::int64_t count(std::string_view name) const;
  /// State of a timer ({0, 0.0} when never entered).
  [[nodiscard]] TimerStat timer(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, std::int64_t, std::less<>>&
  counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, TimerStat, std::less<>>& timers()
      const noexcept {
    return timers_;
  }
  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && timers_.empty();
  }
  void clear();

  /// Writes {"counters": {...}, "timers": {...}} with keys in sorted order.
  /// With include_timers = false only the (deterministic) counters object is
  /// emitted. `indent` spaces prefix every line when > 0.
  void write_json(std::ostream& os, bool include_timers = true,
                  int indent = 0) const;

 private:
  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::set<std::string, std::less<>> peaks_;  ///< counters that merge by max
  std::map<std::string, TimerStat, std::less<>> timers_;
};

namespace telemetry {

/// The calling thread's active sink, or nullptr when collection is off.
[[nodiscard]] TelemetryReport* sink() noexcept;

/// True when the calling thread has an active TelemetrySession.
[[nodiscard]] inline bool enabled() noexcept { return sink() != nullptr; }

/// Adds `delta` to the named counter of the active sink; no-op when
/// collection is off.
void count(std::string_view name, std::int64_t delta = 1);

/// Raises the named peak counter of the active sink to `value` (see
/// TelemetryReport::add_peak); no-op when collection is off.
void peak(std::string_view name, std::int64_t value);

}  // namespace telemetry

/// RAII collection scope: installs `report` as the calling thread's sink and
/// restores the previous sink on destruction, so sessions nest (an outer
/// aggregate session is shadowed, not corrupted, by an inner per-solve one).
class TelemetrySession {
 public:
  explicit TelemetrySession(TelemetryReport* report) noexcept;
  ~TelemetrySession();

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

 private:
  TelemetryReport* previous_;
};

/// RAII wall timer: charges the elapsed time between construction and
/// destruction to `name` on the sink captured at construction. When no
/// session is active at construction both ends are no-ops (no clock read).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) noexcept;
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  TelemetryReport* sink_;
  // sapkit-lint: allow(determinism) -- timer start point for telemetry
  // only; timings are declared nondeterministic.
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sap
