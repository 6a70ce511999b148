// SAP-U: the uniform-capacity special case (Section 1.1's lineage: Bar-Noy
// et al. [5] gave a 7-approximation, Bar-Yehuda et al. [6] a 2.582-
// approximation by combining an exact DP for delta-large tasks with a
// strip-packed solution for delta-small tasks).
//
// This solver follows the [6] architecture on integral instances:
//   large  (d > delta*cap): exact profile DP (pseudo-polynomial),
//   small  (d <= delta*cap): UFPP-U local ratio, then the strip
//                            transformation into the full-height strip,
//   result: the heavier of the two (Lemma 3).
// It is the specialized baseline the ablation bench compares the general
// (9+eps) pipeline against on uniform workloads.
#pragma once

#include "src/core/params.hpp"
#include "src/model/path_instance.hpp"
#include "src/model/solution.hpp"
#include "src/util/deadline.hpp"

namespace sap {

struct SapUniformOptions {
  Ratio delta{1, 4};  ///< small/large split threshold
  /// Budget of the large-task DP (grounded heuristic above
  /// kExactCapacityLimit); expiry throws DeadlineExceeded.
  Deadline deadline{};
};

struct SapUniformReport {
  std::size_t num_small = 0;
  std::size_t num_large = 0;
  Weight small_weight = 0;
  Weight large_weight = 0;
  bool large_exact = true;
  double strip_retention = 1.0;
};

/// Solves SAP with uniform capacities. Throws std::invalid_argument when
/// capacities are not uniform, and DeadlineExceeded (never a partial
/// solution) when the deadline expires. Otherwise returns a feasible
/// solution.
[[nodiscard]] SapSolution solve_sap_uniform(
    const PathInstance& inst, const SapUniformOptions& options = {},
    SapUniformReport* report = nullptr);

}  // namespace sap
