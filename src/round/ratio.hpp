// Integer-only round-count ratio measurement for the differential sweeps
// and the batch harness. No floating point enters src/round (exact-arith
// discipline); callers that want a double ratio form it from the two
// integer counts (src/harness does).
#pragma once

#include "src/model/path_instance.hpp"
#include "src/round/solution.hpp"

namespace sap::round {

struct RoundRatioMeasurement {
  Value approx_rounds = 0;
  Value oracle_rounds = 0;    ///< == approx_rounds when the oracle bailed
  Value lower_bound = 0;
  bool oracle_proven = false;
  bool oracle_timed_out = false;
  bool approx_valid = false;  ///< verifier verdict on the approx assignment
  bool slab_arm_won = false;
};

/// Runs the approximation, independently verifies it, and runs the exact
/// oracle, returning both round counts. Throws DeadlineExceeded only if the
/// approximation itself cannot finish; an oracle timeout is reported in the
/// measurement (with oracle_rounds falling back to approx_rounds).
[[nodiscard]] RoundRatioMeasurement measure_round_ratio(
    const PathInstance& inst, RoundKind kind);

}  // namespace sap::round
