#include "src/harness/ratio_harness.hpp"

#include <limits>

namespace sap {
namespace {

RatioMeasurement measure(Weight algo_weight,
                         const cert::LadderResult& ladder) {
  RatioMeasurement out;
  out.algo_weight = algo_weight;
  if (ladder.proven) {
    out.bound = static_cast<double>(ladder.best.value);
    out.bound_rung = ladder.best.rung;
    out.bound_exact = ladder.best.rung == cert::UbRung::kExactDp;
  } else {
    // Every rung failed (sum w overflows int64): report the only honest
    // upper bound a double can express.
    out.bound = std::numeric_limits<double>::infinity();
  }
  if (algo_weight > 0) {
    out.ratio = out.bound / static_cast<double>(algo_weight);
  } else if (out.bound > 1e-9) {
    out.ratio = std::numeric_limits<double>::infinity();
  }
  return out;
}

}  // namespace

cert::LadderOptions measurement_ladder() {
  cert::LadderOptions options;
  options.try_ufpp_bnb = false;
  return options;
}

RatioMeasurement measure_ratio(const PathInstance& inst,
                               const SapSolution& sol,
                               const cert::LadderOptions& options) {
  return measure(sol.weight(inst), cert::run_upper_bound_ladder(inst, options));
}

RatioMeasurement measure_ratio(const RingInstance& inst,
                               const RingSapSolution& sol,
                               const cert::LadderOptions& options) {
  return measure(inst.solution_weight(sol),
                 cert::run_upper_bound_ladder(inst, options));
}

}  // namespace sap
