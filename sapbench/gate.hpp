// The correctness gate: every answer sapd returns is re-checked by the
// library's exact verifiers, which share no code with the solvers —
// verify_sap for path solutions, verify_round_assignment for round
// packings, and check_certificate at default CheckOptions for
// certificates. Plain path answers are also bounded by the lp_dual rung so
// that cert_gap means the same on every workload.
#pragma once

#include <cstdint>
#include <string>

#include "sapbench/trace.hpp"
#include "src/model/path_instance.hpp"
#include "src/service/protocol.hpp"

namespace sapbench {

struct Verdict {
  bool ok = false;
  std::string reason;  ///< why the answer was rejected
  /// The certificate was rejected only because its exact rung exceeds the
  /// checker's default re-proof budgets ("unverifiable"). Counted, not
  /// failed; the budgets are not raised to get a pass.
  bool unverifiable = false;
  sap::Weight weight = 0;  ///< verified weight (path answers)
  /// Proven upper bound / weight; 0 for round packings and empty answers.
  double gap = 0.0;
};

/// Identity of an answer's bytes: its solution and certificate text.
[[nodiscard]] std::uint64_t answer_hash(const std::string& solution_text,
                                        const std::string& certificate_text);

/// Checks `response` as the answer to `wire` on `inst`. Spans go to
/// `tracer` when it is not null, all named "gate.*" so that the gate's own
/// calls into the library are never counted as the server's work.
[[nodiscard]] Verdict check_answer(const sap::PathInstance& inst,
                                   const sap::service::SolveRequest& wire,
                                   const sap::service::SolveResponse& response,
                                   Tracer* tracer);

}  // namespace sapbench
