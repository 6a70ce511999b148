// The LP relaxation of the natural UFPP integer program — ILP (1) in the
// paper: max sum w_j x_j s.t. sum_{j in S(e)} d_j x_j <= c_e, x in [0,1]^n.
//
// Its optimum upper-bounds OPT_UFPP and hence OPT_SAP, which is how the
// ratio harness bounds approximation factors on instances too large for the
// exact oracles.
#pragma once

#include <span>

#include "src/lp/simplex.hpp"
#include "src/model/path_instance.hpp"

namespace sap {

/// Builds the relaxation over `subset` (variables indexed by position in
/// subset). Edges no selected task uses contribute no row.
[[nodiscard]] LpProblem build_ufpp_relaxation(const PathInstance& inst,
                                              std::span<const TaskId> subset);

/// Convenience: relaxation over all tasks.
[[nodiscard]] LpProblem build_ufpp_relaxation(const PathInstance& inst);

/// Solves the relaxation over `subset`; x is indexed by subset position.
[[nodiscard]] LpSolution solve_ufpp_relaxation(const PathInstance& inst,
                                               std::span<const TaskId> subset);

/// Same, with explicit LP options (pricing rule, deadline). Bound
/// consumers that only need the objective value pass steepest-edge here;
/// anything that consumes x fractionally sticks with the default overload.
[[nodiscard]] LpSolution solve_ufpp_relaxation(const PathInstance& inst,
                                               std::span<const TaskId> subset,
                                               const LpOptions& options);

/// Fractional optimum over all tasks: an upper bound on OPT_UFPP >= OPT_SAP.
[[nodiscard]] double ufpp_lp_upper_bound(const PathInstance& inst);

}  // namespace sap
