#include "src/round/ratio.hpp"

#include "src/round/approx.hpp"
#include "src/round/exact.hpp"
#include "src/round/verify.hpp"
#include "src/util/arena.hpp"

namespace sap::round {

RoundRatioMeasurement measure_round_ratio(const PathInstance& inst,
                                          RoundKind kind) {
  // One scratch scope over the approximation, its verification and the
  // oracle, so sapkit-analyze checks all three from this entry point.
  ArenaScope scope(thread_arena());
  RoundRatioMeasurement out;
  RoundApproxReport report;
  const RoundAssignment approx =
      kind == RoundKind::kUfp
          ? solve_round_ufp_approx(inst, {}, &report)
          : solve_round_sap_approx(inst, {}, &report);
  out.approx_rounds = static_cast<Value>(approx.num_rounds());
  out.lower_bound = report.lower_bound;
  out.slab_arm_won = report.slab_arm_won;
  out.approx_valid = verify_round_assignment(inst, approx).ok;

  const RoundExactResult oracle = solve_round_exact(inst, kind);
  out.oracle_timed_out = oracle.timed_out;
  out.oracle_proven = oracle.proven_optimal && !oracle.timed_out;
  out.oracle_rounds = oracle.timed_out ? out.approx_rounds : oracle.rounds;
  return out;
}

}  // namespace sap::round
