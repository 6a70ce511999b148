// Parallel batch-solve harness: run a generator sweep of N instances across
// a ThreadPool, collect per-instance ratio measurements and solver telemetry,
// and aggregate them into a machine-readable report.
//
// Determinism contract: instance i draws every random bit from seed
// base_seed ^ i, and aggregation happens sequentially in instance order
// after the pool joins — so the aggregate (and its JSON in counters-only
// mode) is byte-identical across thread counts. Wall-clock timings are the
// only scheduling-dependent output and live in a separate "run" section that
// write_batch_json can omit.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <mutex>
// sapkit-lint: allow(determinism) -- header for BatchResumeStore's
// index-keyed checkpoint map; see the member for the iteration argument.
#include <unordered_map>
#include <vector>

#include "src/cert/certificate.hpp"
#include "src/core/ring_solver.hpp"
#include "src/gen/generators.hpp"
#include "src/harness/ratio_harness.hpp"
#include "src/round/gen.hpp"
#include "src/round/ratio.hpp"
#include "src/util/stats.hpp"
#include "src/util/telemetry.hpp"
#include "src/util/thread_pool.hpp"

namespace sap {

/// Outcome of one instance of a sweep.
struct BatchCase {
  bool feasible = false;  ///< solver output passed the independent verifier
  Weight algo_weight = 0;
  double bound = 0.0;
  bool bound_exact = false;
  double ratio = 1.0;
  /// Certification outcome (certify sweeps only): a certificate was
  /// produced, and it additionally passed the independent check_certificate
  /// verifier.
  bool certified = false;
  bool cert_checked = false;
  cert::UbRung cert_rung = cert::UbRung::kTotalWeight;
  /// Certified a-posteriori ratio UB / w(S) (1.0 when both are zero, +inf
  /// for zero-weight output against a positive certified bound).
  double cert_ratio = std::numeric_limits<double>::quiet_NaN();
  TelemetryReport telemetry;  ///< collected while this case ran
  double seconds = 0.0;       ///< case wall time (excluded from determinism)
};

/// Builds and solves the i-th case. Receives the sweep index and the
/// deterministic per-instance seed; must not depend on any other state that
/// varies across runs or threads.
using BatchCaseFn = std::function<BatchCase(std::size_t index,
                                            std::uint64_t seed)>;

struct BatchOptions {
  std::size_t num_instances = 0;
  std::uint64_t base_seed = 1;
  /// Install a TelemetrySession around each case (cases still run with the
  /// instrumentation disabled-path cost when false).
  bool collect_telemetry = true;
  /// Keep every per-case record in BatchReport::cases (the aggregate is
  /// always computed).
  bool keep_cases = true;
  /// Resume seam. `load_case(i, &c)` returning true supplies a completed
  /// record from a previous (interrupted) run and skips recomputation;
  /// `save_case(i, c)` fires as each case completes so the caller can
  /// persist it. Both are called from pool worker threads concurrently —
  /// implementations must be thread-safe. Because a case is a pure function
  /// of (index, seed) and aggregation is sequential in instance order, a
  /// resumed sweep's aggregate is byte-identical to an uninterrupted one.
  std::function<bool(std::size_t, BatchCase*)> load_case;
  std::function<void(std::size_t, const BatchCase&)> save_case;
};

/// Ready-made in-memory checkpoint store for the resume seam: survives an
/// exception that aborts run_batch (e.g. a deadline or a simulated kill)
/// and lets the next run_batch complete only the missing cases.
class BatchResumeStore {
 public:
  /// Wires this store into `options` (overwrites load_case/save_case).
  void attach(BatchOptions& options);

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  // sapkit-lint: allow(determinism) -- never iterated: accessed only by
  // point lookup/insert on the case index, so iteration order cannot
  // reach any output.
  std::unordered_map<std::size_t, BatchCase> done_;
};

/// Aggregate over one sweep. All fields except `threads`, `total_seconds`,
/// `case_seconds` and the timer halves of `telemetry` are deterministic
/// functions of (case fn, num_instances, base_seed).
struct BatchReport {
  std::size_t num_instances = 0;
  std::uint64_t base_seed = 0;
  std::size_t threads = 0;
  std::size_t solved = 0;          ///< cases with feasible == true
  std::size_t bound_exact = 0;     ///< cases whose bound was proven optimal
  std::size_t ratio_infinite = 0;  ///< zero-weight output against a positive bound
  Summary ratio;                   ///< finite ratios of feasible cases
  double ratio_p50 = 0.0;
  double ratio_p95 = 0.0;
  /// Certification aggregate (all zero unless the sweep certifies).
  std::size_t certified = 0;     ///< certificates produced
  std::size_t cert_checked = 0;  ///< produced AND passed check_certificate
  std::array<std::size_t, cert::kNumUbRungs> cert_rungs{};  ///< by UbRung
  Summary cert_ratio;            ///< finite certified ratios
  double cert_ratio_p50 = 0.0;
  double cert_ratio_p95 = 0.0;
  std::size_t cert_ratio_infinite = 0;
  Summary case_seconds;
  double total_seconds = 0.0;
  TelemetryReport telemetry;       ///< merged over cases, instance order
  std::vector<BatchCase> cases;    ///< per-instance records (keep_cases)
};

/// Seed of instance `index` in a sweep rooted at `base_seed`.
[[nodiscard]] constexpr std::uint64_t batch_case_seed(
    std::uint64_t base_seed, std::size_t index) noexcept {
  return base_seed ^ static_cast<std::uint64_t>(index);
}

/// Runs the sweep across `pool` (the calling thread participates) and
/// aggregates in instance order. An exception from any case cancels the
/// aggregate and is rethrown (first one wins, via ThreadPool).
[[nodiscard]] BatchReport run_batch(const BatchOptions& options,
                                    const BatchCaseFn& fn, ThreadPool& pool);

struct BatchJsonOptions {
  /// Emit the scheduling-dependent "run" section (threads, wall times,
  /// telemetry timers). Off = counters-only deterministic report.
  bool include_timings = true;
  /// Emit the per-case array.
  bool include_cases = false;
};

/// Writes the report as a single JSON object ("sapkit-batch-v1", see
/// docs/ALGORITHMS.md) with keys in fixed order and sorted counter names.
void write_batch_json(std::ostream& os, const BatchReport& report,
                      const BatchJsonOptions& options = {});

/// Standard path sweep: generate_path_instance -> solve_sap -> verify_sap ->
/// measure_ratio, with params.seed re-rooted at the case seed. With
/// `certify` set, each case instead produces a full certificate (one ladder
/// run, whose bound doubles as the ratio bound) and pushes it through the
/// independent check_certificate verifier.
struct PathBatchConfig {
  PathGenOptions gen;
  SolverParams solver;
  cert::LadderOptions bound = measurement_ladder();
  bool certify = false;
};
[[nodiscard]] BatchCaseFn make_path_batch_case(const PathBatchConfig& config);

/// Standard ring sweep: generate_ring_instance -> solve_ring_sap ->
/// verify_ring_sap -> measure_ratio (two-route LP bound). `certify` as for
/// path sweeps.
struct RingBatchConfig {
  RingGenOptions gen;
  SolverParams solver;
  bool certify = false;
};
[[nodiscard]] BatchCaseFn make_ring_batch_case(const RingBatchConfig& config);

/// Round-family sweep: generate_round_instance -> round approximation ->
/// verify_round_assignment, with the branch-and-bound oracle as the ratio
/// bound. Round counts map onto the report's weight/bound/ratio fields:
/// algo_weight = approximation rounds, bound = oracle rounds (bound_exact
/// iff the oracle proved optimality), ratio = approx / oracle >= 1. An
/// oracle timeout falls back to the approximation count (ratio 1, not
/// exact), so a sweep cannot hang on one adversarial case.
struct RoundBatchConfig {
  round::RoundGenOptions gen;
  round::RoundKind kind = round::RoundKind::kUfp;
};
[[nodiscard]] BatchCaseFn make_round_batch_case(const RoundBatchConfig& config);

}  // namespace sap
