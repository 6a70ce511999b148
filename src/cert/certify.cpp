#include "src/cert/certify.hpp"

#include "src/model/verify.hpp"
#include "src/util/checked.hpp"
#include "src/util/telemetry.hpp"

namespace sap::cert {
namespace {

/// The shared path/ring body. `feasible` is the library verifier's verdict
/// on `sol`; the solution weight is recomputed with checked arithmetic, so
/// certification refuses to claim a weight that does not fit in int64.
template <typename Instance, typename Solution>
CertifyOutcome certify(const Instance& inst, const Solution& sol,
                       Certificate::Kind kind, const VerifyResult& feasible,
                       const CertifyOptions& options) {
  CertifyOutcome outcome;
  if (!feasible) {
    outcome.detail = "infeasible solution: " + feasible.reason;
    return outcome;
  }
  outcome.feasible = true;
  Weight weight = 0;
  for (const auto& p : sol.placements) {
    if (!checked_add(weight, inst.task(p.task).weight, &weight)) {
      outcome.detail = "solution weight overflows int64";
      return outcome;
    }
  }
  outcome.ladder = run_upper_bound_ladder(inst, options.ladder);
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
  return certify(inst, sol, Certificate::Kind::kPath, verify_sap(inst, sol),
                 options);
}

CertifyOutcome certify_solution(const RingInstance& inst,
                                const RingSapSolution& sol,
                                const CertifyOptions& options) {
  return certify(inst, sol, Certificate::Kind::kRing,
                 verify_ring_sap(inst, sol), options);
}

}  // namespace sap::cert
