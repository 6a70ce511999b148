// Exact UFPP via depth-first branch-and-bound with LP-relaxation bounding.
//
// Serves as the OPT_UFPP oracle of the benches: OPT_SAP <= OPT_UFPP, so the
// exact UFPP value upper-bounds SAP optima on instances too large for the
// SAP oracles, and it is the baseline in the UFPP-vs-SAP gap experiments
// (Figure 1).
#pragma once

#include <cstddef>
#include <span>

#include "src/model/path_instance.hpp"
#include "src/model/solution.hpp"
#include "src/util/deadline.hpp"

namespace sap {

struct UfppExactOptions {
  std::size_t max_nodes = 20'000'000;  ///< search-node budget
  bool use_lp_bound = true;            ///< LP bound at depths [0, 8)
  /// Cooperative cancellation: expiry stops the search and the result is a
  /// typed timeout (`timed_out`, empty solution) — never a partial answer.
  Deadline deadline{};
};

struct UfppExactResult {
  UfppSolution solution;
  Weight weight = 0;
  bool proven_optimal = false;  ///< false iff the node budget ran out
  bool timed_out = false;       ///< deadline expired: solution is empty
  std::size_t nodes = 0;
};

/// Maximum-weight feasible UFPP subset of `subset` by branch-and-bound.
[[nodiscard]] UfppExactResult ufpp_exact(const PathInstance& inst,
                                         std::span<const TaskId> subset,
                                         const UfppExactOptions& options = {});

/// Convenience overload over all tasks.
[[nodiscard]] UfppExactResult ufpp_exact(const PathInstance& inst,
                                         const UfppExactOptions& options = {});

}  // namespace sap
