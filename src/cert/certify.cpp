#include "src/cert/certify.hpp"

#include <stdexcept>
#include <utility>

#include "src/model/verify.hpp"
#include "src/util/checked.hpp"
#include "src/util/telemetry.hpp"

namespace sap::cert {
namespace {

/// Checked recomputation of w(S); certification refuses to claim a weight
/// that does not fit in int64.
bool checked_solution_weight(const PathInstance& inst, const SapSolution& sol,
                             Weight* out) {
  Weight total = 0;
  for (const Placement& p : sol.placements) {
    if (!checked_add(total, inst.task(p.task).weight, &total)) return false;
  }
  *out = total;
  return true;
}

bool checked_solution_weight(const RingInstance& inst,
                             const RingSapSolution& sol, Weight* out) {
  Weight total = 0;
  for (const RingPlacement& p : sol.placements) {
    if (!checked_add(total, inst.task(p.task).weight, &total)) return false;
  }
  *out = total;
  return true;
}

template <typename Outcome>
Outcome finish(Outcome outcome, Certificate::Kind kind, Weight weight,
               LadderResult ladder) {
  outcome.ladder = std::move(ladder);
  if (!outcome.ladder.proven) {
    outcome.detail = "upper-bound ladder could not prove any bound";
    return outcome;
  }
  outcome.cert.kind = kind;
  outcome.cert.solution_weight = weight;
  outcome.cert.ub = outcome.ladder.best;
  set_alpha_from_bound(outcome.cert);
  outcome.certified = true;
  telemetry::count("cert.produced");
  return outcome;
}

}  // namespace

CertifyOutcome certify_solution(const PathInstance& inst,
                                const SapSolution& sol,
                                const CertifyOptions& options) {
  CertifyOutcome outcome;
  const VerifyResult feasible = verify_sap(inst, sol);
  if (!feasible) {
    outcome.detail = "infeasible solution: " + feasible.reason;
    return outcome;
  }
  outcome.feasible = true;
  Weight weight = 0;
  if (!checked_solution_weight(inst, sol, &weight)) {
    outcome.detail = "solution weight overflows int64";
    return outcome;
  }
  return finish(std::move(outcome), Certificate::Kind::kPath, weight,
                run_upper_bound_ladder(inst, options.ladder));
}

CertifyOutcome certify_solution(const RingInstance& inst,
                                const RingSapSolution& sol,
                                const CertifyOptions& options) {
  CertifyOutcome outcome;
  const VerifyResult feasible = verify_ring_sap(inst, sol);
  if (!feasible) {
    outcome.detail = "infeasible solution: " + feasible.reason;
    return outcome;
  }
  outcome.feasible = true;
  Weight weight = 0;
  if (!checked_solution_weight(inst, sol, &weight)) {
    outcome.detail = "solution weight overflows int64";
    return outcome;
  }
  return finish(std::move(outcome), Certificate::Kind::kRing, weight,
                run_ring_upper_bound_ladder(inst, options.ladder));
}

}  // namespace sap::cert
