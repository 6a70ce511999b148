// The paper's concluding open problem (Section 8): extended DSA on a
// non-uniform capacity vector — given a path with capacities c and a set of
// (small) tasks, find the minimum coefficient rho such that ALL tasks pack
// as a SAP solution within the scaled capacities rho * c.
//
// The decision problem is NP-hard (it contains DSA), so this module
// provides: a heuristic upper bound (capacity-aware first-fit portfolio
// inside a binary search over rho), and the LOAD-based lower bound
// rho >= max_e load(e) / c_e. bench_rho_dsa measures the gap between the
// two across workloads — the quantity a future approximation algorithm for
// the open problem would have to beat.
#pragma once

#include <span>

#include "src/model/path_instance.hpp"
#include "src/model/solution.hpp"

namespace sap {

struct RhoPackResult {
  /// Smallest multiplier found such that every task packs under
  /// floor(rho * c_e) (heuristic => an upper bound on the true optimum).
  double rho = 0.0;
  /// LOAD lower bound: max_e load(e) / c_e; no packing can beat this.
  double lower_bound = 0.0;
  /// The witness packing at `rho` (contains every task in the subset).
  SapSolution solution;
  bool found = false;  ///< false iff even 8 * lower_bound failed
};

/// Packs all of `subset` into the tightest rho * c it can certify,
/// searching rho over multiples of 1/64 up to 8 times the lower bound.
[[nodiscard]] RhoPackResult rho_pack_all(const PathInstance& inst,
                                         std::span<const TaskId> subset);

/// Decision version: tries to pack every task under the given per-edge
/// ceilings (height + demand <= ceiling on every used edge). Returns an
/// empty solution on failure.
[[nodiscard]] SapSolution pack_under_ceilings(
    const PathInstance& inst, std::span<const TaskId> subset,
    std::span<const Value> ceilings);

}  // namespace sap
