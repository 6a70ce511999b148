// The upper-bound ladder: the cheapest applicable proven upper bound on OPT.
//
// Rungs, tightest first (OPT_SAP <= OPT_UFPP <= LP <= sum w justifies
// stopping at the first rung that proves a bound):
//   1. exact_dp      — exact SAP optimum via the profile DP (tiny path
//                      instances), proven or given up: a plain 256-state
//                      truncating pass finds a floor L (or proves the
//                      optimum outright); if it does not prove, a 100k-state
//                      prove-or-stop pass drops every state whose weight
//                      plus the lp_dual suffix bound of the edges still
//                      ahead is <= L, and stops at the first edge that would
//                      truncate;
//   2. ufpp_bnb      — exact UFPP optimum via branch-and-bound (paths);
//   3. lp_dual       — the UFPP LP relaxation, certified by an exact
//                      rational re-check of dual feasibility: the simplex
//                      *suggests* prices, the ladder rounds them to a scaled
//                      integral vector y >= 0, recomputes each task's slack
//                      z_j = max(0, w_j*S - d_j * min_R sum_{e in R} y_e)
//                      over the task's routes R (one on a path, two on a
//                      ring) exactly in 128-bit arithmetic, and takes
//                      UB = floor((sum c_e y_e + sum z_j) / S). By weak LP
//                      duality ANY such (y, z) is dual-feasible, so double
//                      round-off can make the bound looser but never invalid,
//                      and floor() is sound because OPT is integral;
//   4. total_weight  — sum of all weights, the unconditional fallback.
//
// The lp_dual LP is solved at most once: inside rung 1 when its prices are
// needed there for pruning (its time is then part of rung 1's), else in
// turn. Attempts are recorded in rung order. The result records which rung
// fired, its bound, and per-rung attempt timings so callers can report the
// cost of certification.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cert/certificate.hpp"
#include "src/model/path_instance.hpp"
#include "src/model/ring_instance.hpp"
#include "src/util/deadline.hpp"

namespace sap::cert {

struct LadderOptions {
  /// Rung 1 (paths only): exact SAP profile DP. Applicable when the
  /// instance is within both caps (task count and max capacity); used only
  /// when the DP proves optimality within its beam.
  bool try_exact_dp = true;
  std::size_t exact_dp_max_tasks = 24;
  Value exact_dp_max_capacity = 48;

  /// Rung 2 (paths only): exact UFPP branch-and-bound. Applicable up to 18
  /// tasks; used only when the search proves optimality within its node
  /// budget.
  bool try_ufpp_bnb = true;

  /// Rung 3: rational-repaired LP dual. Always applicable on non-empty
  /// instances; fails only if the simplex does not reach optimality or the
  /// repaired bound overflows / is looser than sum w.
  bool try_lp_dual = true;

  /// Cooperative cancellation for the whole ladder: an expensive rung whose
  /// slice runs out is recorded as `timed_out` and the ladder falls through
  /// to the next (cheaper) rung — total_weight is instant, so a deadline
  /// degrades the bound rather than losing it.
  Deadline deadline{};
};

/// What happened at one rung of the ladder (in try order).
struct LadderRungAttempt {
  UbRung rung = UbRung::kTotalWeight;
  bool applicable = false;  ///< rung was within its caps and attempted
  bool proved = false;      ///< rung produced a proven bound
  bool timed_out = false;   ///< the deadline cut this rung short
  Weight value = 0;         ///< the bound, when proved
  // sapkit-lint: allow(float-ban) -- wall-time telemetry for rung attempts;
  // never feeds the bound arithmetic.
  double seconds = 0.0;     ///< wall time spent on the attempt
};

struct LadderResult {
  /// False only when every rung failed (e.g. sum w overflows int64); then
  /// `best` is meaningless and no certificate can be produced.
  bool proven = false;
  UpperBoundCertificate best;
  std::vector<LadderRungAttempt> attempts;
};

/// Runs the ladder, returning the first rung that proves a bound (tightest
/// first). On a path every rung applies; on a ring only lp_dual (one dual
/// row per route direction, the slack priced on the cheaper route) and the
/// total_weight fallback do.
[[nodiscard]] LadderResult run_upper_bound_ladder(
    const PathInstance& inst, const LadderOptions& options = {});
[[nodiscard]] LadderResult run_upper_bound_ladder(
    const RingInstance& inst, const LadderOptions& options = {});

/// The exact_dp rung's pruning bound: entry k bounds the weight of any
/// feasible set of the tasks that start at edge k or later, and entry
/// num_edges is 0. Entry k is the smaller of entry k + 1 plus the weight of
/// the tasks starting at k, and those tasks' share of the repaired dual
/// bound, floor((sum_{e >= k} c_e*y_e + sum_{first_j >= k} z_j) / S), which
/// weak duality makes an upper bound on that sub-instance. Without usable
/// prices (none, a bad scale or a negative price) or on a 128-bit overflow,
/// the entries are the tasks' weight suffix sums.
[[nodiscard]] std::vector<Weight> suffix_upper_bounds(const PathInstance& inst,
                                                      const DualWitness& dual);

}  // namespace sap::cert
