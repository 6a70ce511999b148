// Two-phase primal simplex, built from scratch.
//
// This is the LP substrate behind (a) the UFPP LP relaxation used by the
// small-task LP-rounding pipeline (the relaxation of ILP (1) in the paper),
// (b) LP upper bounds on OPT used by the ratio harness when instances exceed
// the exact oracles, and (c) bounding in the exact UFPP branch-and-bound.
//
// The tableau lives in flat arena-backed storage (src/util/flat.hpp): a
// solve borrows the calling thread's arena and releases its whole footprint
// on return, so repeated solves -- the branch-and-bound bound loop above
// all -- touch the heap only to copy the final x vector out.
#pragma once

#include <cstddef>
#include <vector>

#include "src/util/deadline.hpp"

namespace sap {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeout,  ///< the deadline expired mid-solve; no solution is returned
};

enum class LpRelation { kLessEqual, kGreaterEqual, kEqual };

/// One linear constraint: sum_i coeffs[i] * x[i] (rel) rhs.
struct LpConstraint {
  std::vector<double> coeffs;
  LpRelation relation = LpRelation::kLessEqual;
  double rhs = 0.0;
};

/// A linear program in n non-negative variables: maximize objective . x
/// subject to the constraints (x >= 0 implicit; upper bounds are rows).
struct LpProblem {
  std::vector<double> objective;
  std::vector<LpConstraint> constraints;

  [[nodiscard]] std::size_t num_vars() const noexcept {
    return objective.size();
  }
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
};

/// Entering-column pricing rule.
enum class LpPricing {
  /// Dantzig: most negative reduced cost. The default; every consumer whose
  /// downstream output is locked byte-identical (golden fixtures) uses it.
  kDantzig,
  /// Steepest-edge (recomputed form): maximize cost_c^2 / (1 + ||A_c||^2).
  /// Typically far fewer pivots on the degenerate knapsack-like relaxations
  /// the branch-and-bound bound loop solves; the optimum reached is the
  /// same LP optimum, but the path (and float round-off in the objective)
  /// may differ, so only bound-style consumers opt in.
  kSteepestEdge,
};

struct LpOptions {
  /// Polled once per pivot; on expiry the solve returns LpStatus::kTimeout
  /// with no solution (never a partial basis).
  Deadline deadline{};
  LpPricing pricing = LpPricing::kDantzig;
};

/// Solves `problem` with dense two-phase primal simplex on a flat
/// arena-backed tableau. Pricing is per LpOptions with a Bland's-rule
/// fallback halfway through the pivot budget (200 * (rows + columns + 16)
/// across both phases) to guarantee termination.
[[nodiscard]] LpSolution solve_lp(const LpProblem& problem,
                                  const LpOptions& options);

/// Convenience wrapper: Dantzig pricing.
[[nodiscard]] LpSolution solve_lp(const LpProblem& problem,
                                  Deadline deadline = {});

}  // namespace sap
