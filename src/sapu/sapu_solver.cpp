#include "src/sapu/sapu_solver.hpp"

#include <stdexcept>

#include "src/dsa/strip_transform.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/ufpp/local_ratio.hpp"

namespace sap {

SapSolution solve_sap_uniform(const PathInstance& inst,
                              const SapUniformOptions& options,
                              SapUniformReport* report) {
  const Value cap = inst.min_capacity();
  if (cap != inst.max_capacity()) {
    throw std::invalid_argument(
        "solve_sap_uniform: capacities must be uniform");
  }

  std::vector<TaskId> small;
  std::vector<TaskId> large;
  for (std::size_t j = 0; j < inst.num_tasks(); ++j) {
    const auto id = static_cast<TaskId>(j);
    (inst.is_small(id, options.delta) ? small : large).push_back(id);
  }

  // Large branch: exact (or grounded-heuristic) DP on the large tasks.
  SapExactOptions dp;
  dp.grounded_only = cap > kExactCapacityLimit;
  dp.deadline = options.deadline;
  const SapExactResult large_result =
      sap_exact_profile_dp(inst, large, dp);
  if (large_result.timed_out) throw DeadlineExceeded("SAP-U large-task DP");

  // Small branch: UFPP-U local ratio at full capacity, then strip-pack the
  // result into the [0, cap) strip.
  const UfppSolution small_ufpp =
      ufpp_uniform_narrow_local_ratio(inst, small, cap);
  const StripTransformResult strip =
      strip_transform(inst, small_ufpp, cap);

  if (report != nullptr) {
    report->num_small = small.size();
    report->num_large = large.size();
    report->small_weight = strip.solution.weight(inst);
    report->large_weight = large_result.weight;
    report->large_exact = large_result.proven_optimal;
    report->strip_retention = strip.retention();
  }
  return strip.solution.weight(inst) >= large_result.weight
             ? strip.solution
             : large_result.solution;
}

}  // namespace sap
