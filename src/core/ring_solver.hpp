// Section 7 / Theorem 5: the (10+eps)-approximation for SAP on rings.
//
// Cut the ring at a minimum-capacity edge e*. Every task has exactly one
// route avoiding e* (the two routes partition the cycle's edges); those
// form a path SAP instance solved by the Theorem 4 pipeline. Tasks routed
// through e* can all be stacked from height 0 — the cut edge has minimum
// capacity, so a knapsack with capacity c(e*) over all demands selects
// them (Lemma 18 uses the knapsack FPTAS). Return the heavier solution.
#pragma once

#include "src/core/params.hpp"
#include "src/model/ring_instance.hpp"

namespace sap {

enum class RingBranch { kPath, kThroughCut };

struct RingSolveReport {
  EdgeId cut_edge = 0;
  Weight path_weight = 0;
  Weight knapsack_weight = 0;
  RingBranch winner = RingBranch::kPath;
};

/// The ring SAP approximation pipeline. Always returns a feasible solution.
/// `params` drive the path pipeline; `params.deadline` also governs the ring
/// solve as a whole (both branches check it; expiry throws
/// DeadlineExceeded, never a partial solution).
[[nodiscard]] RingSapSolution solve_ring_sap(
    const RingInstance& inst, const SolverParams& params = {},
    RingSolveReport* report = nullptr);

}  // namespace sap
