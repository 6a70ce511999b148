// The request-level solve path shared by sapd and sapkit_cli: one
// (kind, algo) table picks the solver, and one wrapper runs it under the
// request deadline, degrades to a budget-free fallback when that deadline
// expires, certifies on request and serializes the response. A served
// response and a local `sapkit_cli solve` therefore cannot drift apart.
#pragma once

#include "src/service/protocol.hpp"
#include "src/service/server.hpp"
#include "src/util/deadline.hpp"

namespace sap::service {

/// Solves `request` under `deadline`. Uses `options.read_limits` to parse
/// the instance, `options.exact` for `algo exact` on paths,
/// `options.certify` for certificates and fires `options.fault_injector`
/// at FaultPoint::kPreFallback. Throws std::invalid_argument for a bad
/// request: malformed instance text, an unknown (kind, algo) pair, or a
/// certificate asked of a round kind. An expired deadline never throws: the
/// response comes back `degraded` with the cut stages in `skipped`.
[[nodiscard]] SolveResponse solve_request(const SolveRequest& request,
                                          const ServerOptions& options,
                                          const Deadline& deadline);

}  // namespace sap::service
