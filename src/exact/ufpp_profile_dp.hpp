// A second, independent exact UFPP oracle: edge-sweep DP over "active
// selection profiles" (which selected tasks are alive, reduced to their
// (demand, last-edge) signature). Cross-checks the branch-and-bound of
// src/ufpp/branch_and_bound.hpp in the test suite; exponential in the
// per-edge crossing count, pseudo-independent of weights and capacities.
#pragma once

#include <cstddef>
#include <span>

#include "src/model/path_instance.hpp"
#include "src/model/solution.hpp"

namespace sap {

struct UfppProfileDpOptions {
  /// Beam cap on live states per edge; exceeding it truncates to the best
  /// states and clears `proven_optimal`.
  std::size_t max_states = 500'000;
};

struct UfppProfileDpResult {
  UfppSolution solution;
  Weight weight = 0;
  bool proven_optimal = true;
  std::size_t peak_states = 0;
};

[[nodiscard]] UfppProfileDpResult ufpp_exact_profile_dp(
    const PathInstance& inst, std::span<const TaskId> subset,
    const UfppProfileDpOptions& options = {});

[[nodiscard]] UfppProfileDpResult ufpp_exact_profile_dp(
    const PathInstance& inst, const UfppProfileDpOptions& options = {});

}  // namespace sap
