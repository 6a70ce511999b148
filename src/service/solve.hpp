// The request-level solve path shared by sapd and sapkit_cli: one
// (kind, algo) table picks the solver, and one wrapper runs it under the
// request deadline, degrades to a budget-free fallback when that deadline
// expires, certifies on request and serializes the response. A served
// response and a local `sapkit_cli solve` therefore cannot drift apart.
#pragma once

#include <cstddef>

#include "src/service/protocol.hpp"
#include "src/service/server.hpp"

namespace sap::service {

/// Beam cap of the exponential profile DP behind `algo exact` on paths.
inline constexpr std::size_t kExactMaxStates = 5'000'000;

/// Solves `request` under its budget, which starts now: `deadline_ms`
/// when set, else `options.default_deadline_ms` when set, else unlimited.
/// Uses kServerReadLimits to parse the instance and fires
/// `options.fault_injector` at FaultPoint::kPreFallback. Throws
/// std::invalid_argument for a bad request: malformed instance text, an
/// unknown (kind, algo) pair, or a certificate asked of a round kind. An
/// expired deadline never throws: the response comes back `degraded` with
/// the cut stages in `skipped`.
[[nodiscard]] SolveResponse solve_request(const SolveRequest& request,
                                          const ServerOptions& options);

}  // namespace sap::service
