// A Bonsma-Schulz-Wiese-style constant-factor UFPP pipeline, assembled
// from the same substrates as the SAP solver. The paper's algorithm is "a
// variation of the framework for approximating UFPP by Bonsma et al."
// (§1.2); having the UFPP original alongside lets the benches measure what
// SAP's contiguity requirement costs on identical workloads.
//
// Structure: the same stages as solve_sap, sharing its octave, band and
// residue-class code (src/core/classify.hpp); only the per-stage oracles
// differ:
//   small  — the per-octave (B/2)-packable UFPP solutions themselves,
//            unioned with no strip transformation: octave t contributes
//            load <= 2^(t-1) only to edges with c_e >= 2^t, and the
//            geometric series sum_{2^t <= c_e} 2^(t-1) < c_e.
//   medium — an exact per-band UFPP oracle run under reserve-reduced
//            capacities min(c_e, 2^(k+ell)) - 2^(k-q+1); bands spaced
//            ell+q apart then stack within the reserve (the UFPP analogue
//            of beta-elevation).
//   large  — the rectangle MWIS (its output is in particular UFPP
//            feasible; Bonsma et al. analyse it at 2k vs our 2k-1).
// Returns the heaviest of the three (Lemma 3).
#pragma once

#include "src/core/params.hpp"
#include "src/model/path_instance.hpp"
#include "src/model/solution.hpp"

namespace sap {

struct UfppSolveReport {
  std::size_t num_small = 0;
  std::size_t num_medium = 0;
  std::size_t num_large = 0;
  Weight small_weight = 0;
  Weight medium_weight = 0;
  Weight large_weight = 0;
};

/// The full UFPP approximation pipeline. Always returns a feasible UFPP
/// solution (verified by tests against verify_ufpp).
[[nodiscard]] UfppSolution solve_ufpp_approx(const PathInstance& inst,
                                             const SolverParams& params = {},
                                             UfppSolveReport* report = nullptr);

}  // namespace sap
