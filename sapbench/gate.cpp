#include "sapbench/gate.hpp"

#include <exception>
#include <functional>
#include <sstream>

#include "src/cert/certify.hpp"
#include "src/cert/check.hpp"
#include "src/io/instance_io.hpp"
#include "src/model/verify.hpp"
#include "src/round/verify.hpp"

namespace sapbench {
namespace {

using sap::service::SolveRequest;
using sap::service::SolveResponse;

Verdict reject(std::string reason) {
  Verdict verdict;
  verdict.reason = std::move(reason);
  return verdict;
}

/// The lp_dual rung alone: a proven bound in about a millisecond, where the
/// exact rungs could take seconds on an n <= 24 instance.
sap::cert::CertifyOptions lp_bound_options() {
  sap::cert::CertifyOptions options;
  options.ladder.try_exact_dp = false;
  options.ladder.try_ufpp_bnb = false;
  return options;
}

Verdict check_path(const sap::PathInstance& inst, const SolveRequest& wire,
                   const SolveResponse& response, Tracer* tracer) {
  if (response.is_round) return reject("path request got a round packing");
  sap::SapSolution sol;
  {
    SpanScope span(tracer, "gate.read_answer");
    std::istringstream is(response.solution_text);
    sol = sap::read_sap_solution(is);
  }
  {
    SpanScope span(tracer, "gate.verify_sap");
    const sap::VerifyResult check = sap::verify_sap(inst, sol);
    if (!check) return reject("verify_sap: " + check.reason);
  }
  const sap::Weight weight = sol.weight(inst);
  if (weight != response.weight || sol.size() != response.placed ||
      inst.num_tasks() != response.total_tasks) {
    return reject("response header disagrees with its solution");
  }

  Verdict verdict;
  verdict.ok = true;
  verdict.weight = weight;
  sap::Weight bound = 0;
  if (wire.want_certificate) {
    if (response.certificate_text.empty()) {
      return reject("certify 1 answered without a certificate");
    }
    std::istringstream is(response.certificate_text);
    const sap::cert::Certificate cert = sap::read_certificate(is);
    sap::cert::CheckResult check;
    {
      SpanScope span(tracer, "gate.check_certificate");
      check = sap::cert::check_certificate(inst, sol, cert);
    }
    if (!check) {
      if (check.reason.find("unverifiable") == std::string::npos) {
        return reject("check_certificate: " + check.reason);
      }
      verdict.unverifiable = true;
    }
    bound = cert.ub.value;
  } else {
    sap::cert::CertifyOutcome outcome;
    {
      SpanScope span(tracer, "gate.bound");
      outcome = sap::cert::certify_solution(inst, sol, lp_bound_options());
    }
    if (!outcome.certified) return reject("no bound: " + outcome.detail);
    sap::cert::CheckResult check;
    {
      SpanScope span(tracer, "gate.check_bound");
      check = sap::cert::check_certificate(inst, sol, outcome.cert);
    }
    if (!check) return reject("check_certificate (lp bound): " + check.reason);
    bound = outcome.cert.ub.value;
  }
  if (weight > 0) {
    verdict.gap = static_cast<double>(bound) / static_cast<double>(weight);
  }
  return verdict;
}

Verdict check_round(const sap::PathInstance& inst,
                    const SolveResponse& response, Tracer* tracer) {
  if (!response.is_round) return reject("round request got a path answer");
  sap::round::RoundAssignment assignment;
  {
    SpanScope span(tracer, "gate.read_answer");
    std::istringstream is(response.solution_text);
    assignment = sap::read_round_assignment(is);
  }
  {
    SpanScope span(tracer, "gate.verify_round");
    const sap::VerifyResult check =
        sap::round::verify_round_assignment(inst, assignment);
    if (!check) return reject("verify_round_assignment: " + check.reason);
  }
  if (assignment.num_rounds() != response.rounds ||
      assignment.total_placements() != response.placed ||
      inst.total_weight() != response.weight) {
    return reject("round response header disagrees with its packing");
  }
  Verdict verdict;
  verdict.ok = true;
  return verdict;
}

}  // namespace

std::uint64_t answer_hash(const std::string& solution_text,
                          const std::string& certificate_text) {
  const std::hash<std::string> hash;
  const std::uint64_t cert = hash(certificate_text);
  return hash(solution_text) ^ (cert << 1 | cert >> 63);
}

Verdict check_answer(const sap::PathInstance& inst, const SolveRequest& wire,
                     const SolveResponse& response, Tracer* tracer) {
  try {
    if (wire.kind == SolveRequest::Kind::kPath) {
      return check_path(inst, wire, response, tracer);
    }
    return check_round(inst, response, tracer);
  } catch (const std::exception& error) {
    return reject(std::string("unreadable answer: ") + error.what());
  }
}

}  // namespace sapbench
