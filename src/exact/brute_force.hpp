// Obviously-correct exponential SAP oracle for tiny instances.
//
// Enumerates, via DFS with weight pruning, every subset and every integral
// height assignment (integral heights are WLOG for integral demands: apply
// gravity, Observation 11, and heights become sums of demands). Exists to
// cross-validate the profile DP and to anchor the ratio benches.
#pragma once

#include <span>

#include "src/model/path_instance.hpp"
#include "src/model/solution.hpp"
#include "src/util/deadline.hpp"

namespace sap {

/// Maximum-weight SAP solution by exhaustive search. Throws
/// std::invalid_argument on more than 20 tasks or a capacity above 64, and
/// DeadlineExceeded (a typed outcome, never a partial best-so-far) when
/// `deadline` expires mid-search.
[[nodiscard]] SapSolution sap_brute_force(const PathInstance& inst,
                                          std::span<const TaskId> subset,
                                          Deadline deadline = {});

[[nodiscard]] SapSolution sap_brute_force(const PathInstance& inst,
                                          Deadline deadline = {});

}  // namespace sap
