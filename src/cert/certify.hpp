// Producer side of certification: turn a (instance, solution) pair into a
// Certificate. Solving and certifying one request is
// sap::service::solve_request's job (src/service/solve.hpp).
//
// certify_solution re-verifies feasibility with the library verifier (the
// FeasibilityCertificate: the solution itself is the witness, re-checked
// before anything is claimed about it), runs the upper-bound ladder, and
// records the exact a-posteriori ratio. The independent re-check of all of
// this is check_certificate (src/cert/check.hpp).
#pragma once

#include <string>

#include "src/cert/certificate.hpp"
#include "src/cert/ladder.hpp"
#include "src/model/path_instance.hpp"
#include "src/model/ring_instance.hpp"
#include "src/model/solution.hpp"

namespace sap::cert {

struct CertifyOptions {
  LadderOptions ladder;
};

/// Outcome of certifying one solution. `feasible` is the feasibility
/// certificate verdict; when false (or when the ladder cannot prove any
/// bound) `cert` is not meaningful and `detail` explains why.
struct CertifyOutcome {
  bool feasible = false;
  bool certified = false;  ///< feasible AND a bound was proven
  std::string detail;      ///< failure reason when !certified
  Certificate cert;
  LadderResult ladder;
};

/// Certifies an existing path solution.
[[nodiscard]] CertifyOutcome certify_solution(const PathInstance& inst,
                                              const SapSolution& sol,
                                              const CertifyOptions& options = {});

/// Certifies an existing ring solution.
[[nodiscard]] CertifyOutcome certify_solution(const RingInstance& inst,
                                              const RingSapSolution& sol,
                                              const CertifyOptions& options = {});

}  // namespace sap::cert
