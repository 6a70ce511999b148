#include "src/service/solve.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/cert/certify.hpp"
#include "src/core/ring_solver.hpp"
#include "src/core/sap_solver.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/io/instance_io.hpp"
#include "src/round/approx.hpp"
#include "src/round/exact.hpp"
#include "src/sapu/sapu_solver.hpp"
#include "src/util/telemetry.hpp"

namespace sap::service {
namespace {

using Kind = SolveRequest::Kind;

/// Everything a solver in the table sees besides the instance.
struct Call {
  const SolveRequest& request;
  const ServerOptions& options;
  Deadline deadline;
};

SolverParams path_params(const Call& call) {
  SolverParams params;
  params.eps = call.request.eps;
  params.seed = call.request.seed;
  params.deadline = call.deadline;
  return params;
}

/// Every stage runs under small polynomial caps, so a fallback completes
/// promptly with no deadline of its own (and never throws
/// DeadlineExceeded).
SolverParams degraded_params(const Call& call) {
  SolverParams params;
  params.eps = call.request.eps;
  params.seed = call.request.seed;
  params.small_backend = SmallTaskBackend::kLocalRatio;  // no LP solves
  params.medium_exact_capacity_limit = 0;  // always the grounded heuristic
  params.large_max_nodes = 100'000;
  return params;
}

SapSolution path_full(const PathInstance& inst, const Call& call) {
  return solve_sap(inst, path_params(call));
}

SapSolution path_exact(const PathInstance& inst, const Call& call) {
  const SapExactResult oracle = sap_exact_profile_dp(
      inst, {.max_states = kExactMaxStates, .deadline = call.deadline});
  if (oracle.timed_out) throw DeadlineExceeded("exact oracle");
  return oracle.solution;
}

SapSolution path_uniform(const PathInstance& inst, const Call& call) {
  return solve_sap_uniform(inst, {.deadline = call.deadline});
}

SapSolution path_fallback(const PathInstance& inst, const Call& call) {
  return solve_sap(inst, degraded_params(call));
}

round::RoundAssignment round_approx(const PathInstance& inst, const Call& call,
                                    const round::RoundApproxOptions& options) {
  return call.request.kind == Kind::kRoundUfp
             ? round::solve_round_ufp_approx(inst, options)
             : round::solve_round_sap_approx(inst, options);
}

round::RoundAssignment round_full(const PathInstance& inst, const Call& call) {
  round::RoundApproxOptions approx;
  approx.deadline = call.deadline;
  return round_approx(inst, call, approx);
}

round::RoundAssignment round_exact(const PathInstance& inst,
                                   const Call& call) {
  round::RoundExactOptions exact;
  exact.deadline = call.deadline;
  const round::RoundExactResult oracle = round::solve_round_exact(
      inst,
      call.request.kind == Kind::kRoundUfp ? round::RoundKind::kUfp
                                           : round::RoundKind::kSap,
      exact);
  if (oracle.timed_out) throw DeadlineExceeded("round exact oracle");
  return oracle.assignment;
}

/// Plain first fit (no strip-packing portfolio, no oracle): polynomial and
/// always a valid packing, just more rounds.
round::RoundAssignment round_fallback(const PathInstance& inst,
                                      const Call& call) {
  round::RoundApproxOptions fallback;
  fallback.portfolio = false;
  return round_approx(inst, call, fallback);
}

RingSapSolution ring_full(const RingInstance& inst, const Call& call) {
  return solve_ring_sap(inst, path_params(call));
}

RingSapSolution ring_fallback(const RingInstance& inst, const Call& call) {
  return solve_ring_sap(inst, degraded_params(call));
}

/// One-line {"name": value, ...} over the (deterministic) counters only;
/// timer seconds are scheduling noise a service client rarely wants.
std::string compact_counters_json(const TelemetryReport& report) {
  std::string json = "{";
  bool first = true;
  for (const auto& [name, value] : report.counters()) {
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += name;  // counter names are plain identifiers
    json += "\": ";
    json += std::to_string(value);
  }
  json += '}';
  return json;
}

void note_skipped(SolveResponse* response, const std::string& stage) {
  response->degraded = true;
  if (!response->skipped.empty()) response->skipped += ',';
  response->skipped += stage;
}

template <typename Inst>
Inst read_instance(const Call& call) {
  std::istringstream is(call.request.instance_text);
  if constexpr (std::is_same_v<Inst, RingInstance>) {
    return read_ring_instance(is, kServerReadLimits);
  } else {
    return read_path_instance(is, kServerReadLimits);
  }
}

void describe(const PathInstance& inst, const SapSolution& sol,
              SolveResponse* response, std::ostream& os) {
  response->weight = sol.weight(inst);
  response->placed = sol.size();
  response->total_tasks = inst.num_tasks();
  write_sap_solution(os, sol);
}

void describe(const RingInstance& inst, const RingSapSolution& sol,
              SolveResponse* response, std::ostream& os) {
  response->weight = inst.solution_weight(sol);
  response->placed = sol.size();
  response->total_tasks = inst.num_tasks();
  write_ring_solution(os, sol);
}

/// Round packings place every task; weight reports the packed total.
void describe(const PathInstance& inst,
              const round::RoundAssignment& assignment,
              SolveResponse* response, std::ostream& os) {
  response->weight = inst.total_weight();
  response->placed = assignment.total_placements();
  response->total_tasks = inst.num_tasks();
  response->is_round = true;
  response->rounds = assignment.num_rounds();
  write_round_assignment(os, assignment);
}

/// The default ladder under the request deadline: a rung that times out is
/// noted as skipped and the ladder falls through to a cheaper bound.
template <typename Inst, typename Sol>
void certify(const Inst& inst, const Sol& sol, const Call& call,
             SolveResponse* response) {
  const cert::CertifyOutcome outcome = cert::certify_solution(
      inst, sol, {.ladder = {.deadline = call.deadline}});
  for (const cert::LadderRungAttempt& attempt : outcome.ladder.attempts) {
    if (attempt.timed_out) {
      note_skipped(response,
                   std::string("cert.") + cert::ub_rung_name(attempt.rung));
    }
  }
  if (outcome.certified) {
    std::ostringstream cert_os;
    write_certificate(cert_os, outcome.cert);
    response->certificate_text = cert_os.str();
  }
}

/// The one wrapper every row runs through: parse, solve under the request
/// deadline, fall back once on expiry, certify on request, serialize.
template <typename Inst, typename Sol>
SolveResponse run_route(Sol (*primary)(const Inst&, const Call&),
                        Sol (*fallback)(const Inst&, const Call&),
                        const Call& call) {
  constexpr bool kRound = std::is_same_v<Sol, round::RoundAssignment>;
  if (kRound && call.request.want_certificate) {
    throw std::invalid_argument("certificates are not defined for round kinds");
  }
  SolveResponse response;
  TelemetryReport telemetry;
  const auto start = std::chrono::steady_clock::now();
  const Inst inst = read_instance<Inst>(call);
  Sol sol;
  {
    // Certification runs inside the telemetry session (cert.ladder.*
    // counters surface in telemetry_json) and inside the wall timer, so
    // wall_micros reflects the true cost of a certified request.
    TelemetrySession session(&telemetry);
    try {
      sol = primary(inst, call);
    } catch (const DeadlineExceeded&) {
      if (call.options.fault_injector) {
        call.options.fault_injector(FaultPoint::kPreFallback);
      }
      note_skipped(&response, "solve." + call.request.algo);
      sol = fallback(inst, call);
    }
    if constexpr (!kRound) {
      if (call.request.want_certificate) certify(inst, sol, call, &response);
    }
  }
  std::ostringstream solution_os;
  describe(inst, sol, &response, solution_os);
  response.wall_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  response.telemetry_json = compact_counters_json(telemetry);
  response.solution_text = solution_os.str();
  return response;
}

/// Binds a table row's primary and fallback into one callable.
template <auto Primary, auto Fallback>
SolveResponse routed(const Call& call) {
  return run_route(Primary, Fallback, call);
}

/// The one place a (kind, algo) pair becomes a primary solver and its
/// budget-free fallback.
struct Entry {
  Kind kind;
  std::string_view algo;
  SolveResponse (*solve)(const Call&);
};
const Entry kRoutes[] = {
    {Kind::kPath, "full", routed<path_full, path_fallback>},
    {Kind::kPath, "exact", routed<path_exact, path_fallback>},
    {Kind::kPath, "uniform", routed<path_uniform, path_fallback>},
    {Kind::kRoundUfp, "full", routed<round_full, round_fallback>},
    {Kind::kRoundUfp, "exact", routed<round_exact, round_fallback>},
    {Kind::kRoundSap, "full", routed<round_full, round_fallback>},
    {Kind::kRoundSap, "exact", routed<round_exact, round_fallback>},
    {Kind::kRing, "full", routed<ring_full, ring_fallback>},
};

}  // namespace

SolveResponse solve_request(const SolveRequest& request,
                            const ServerOptions& options) {
  const std::int64_t budget_ms = request.deadline_ms > 0
                                     ? request.deadline_ms
                                     : options.default_deadline_ms;
  const Deadline deadline =
      budget_ms > 0 ? Deadline::after_ms(budget_ms) : Deadline::unlimited();
  std::string known;
  for (const Entry& entry : kRoutes) {
    if (entry.kind != request.kind) continue;
    if (entry.algo == request.algo) {
      return entry.solve(Call{request, options, deadline});
    }
    if (!known.empty()) known += '|';
    known += entry.algo;
  }
  throw std::invalid_argument("unknown algo '" + request.algo + "' for kind " +
                              kind_name(request.kind) + " (want " + known +
                              ")");
}

}  // namespace sap::service
