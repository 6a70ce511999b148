// Approximation-ratio measurement: bound OPT_SAP from above via the
// certification subsystem's upper-bound ladder (src/cert/ladder.hpp) and
// compare an algorithm's solution weight against it. The ladder owns the
// bound-selection policy (exact oracle when tractable, certified LP dual
// otherwise); this harness only picks its rungs and forms ratios.
#pragma once

#include "src/cert/ladder.hpp"
#include "src/model/path_instance.hpp"
#include "src/model/ring_instance.hpp"
#include "src/model/solution.hpp"

namespace sap {

/// The measurement ladder: the certification ladder without the ufpp_bnb
/// rung, since measurement loops favour throughput.
[[nodiscard]] cert::LadderOptions measurement_ladder();

struct RatioMeasurement {
  Weight algo_weight = 0;
  double bound = 0.0;
  bool bound_exact = false;  ///< bound == OPT_SAP (the exact_dp rung fired)
  cert::UbRung bound_rung = cert::UbRung::kTotalWeight;
  /// bound / algo_weight; 1.0 when both are zero; +inf when only the
  /// algorithm is zero.
  double ratio = 1.0;
};

/// Measures `sol` against the first ladder rung that proves a bound. Ring
/// ladders start at the certified dual of the two-route ring LP relaxation,
/// so measured ring ratios include the LP integrality gap on top of the
/// algorithm's loss.
[[nodiscard]] RatioMeasurement measure_ratio(
    const PathInstance& inst, const SapSolution& sol,
    const cert::LadderOptions& options = measurement_ladder());
[[nodiscard]] RatioMeasurement measure_ratio(
    const RingInstance& inst, const RingSapSolution& sol,
    const cert::LadderOptions& options = measurement_ladder());

}  // namespace sap
