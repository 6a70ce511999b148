#include "sapbench/replay.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <initializer_list>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sapbench/gate.hpp"
#include "sapbench/trace.hpp"
#include "src/cert/certify.hpp"
#include "src/core/sap_solver.hpp"
#include "src/io/canonical.hpp"
#include "src/io/instance_io.hpp"
#include "src/round/approx.hpp"

namespace sapbench {
namespace {

using sap::service::SolveRequest;
using sap::service::SolveResponse;

// sapd's parse caps (ServerOptions::read_limits).
constexpr sap::ReadLimits kServerLimits{.max_edges = 1'000'000,
                                        .max_tasks = 1'000'000,
                                        .max_placements = 1'000'000};

struct Answer {
  std::string solution_text;
  std::string certificate_text;
  Verdict verdict;
};

/// solve_sap's pipeline, stage by stage, each stage in its own span. The
/// untraced pass calls solve_sap itself, and the two must agree byte for
/// byte, so this stays a faithful copy of the composition.
sap::SapSolution staged_solve(const sap::PathInstance& inst,
                              const sap::SolverParams& params,
                              Tracer* tracer) {
  SpanScope solve(tracer, "core.solve");
  sap::TaskClasses classes;
  {
    SpanScope span(tracer, "core.classify");
    classes = sap::classify_tasks(inst, params);
  }
  sap::SapSolution small;
  sap::SapSolution medium;
  sap::SapSolution large;
  {
    SpanScope span(tracer, "core.small");
    small = sap::solve_small_tasks(inst, classes.small, params);
  }
  {
    SpanScope span(tracer, "core.medium");
    medium = sap::solve_medium_tasks(inst, classes.medium, params);
  }
  {
    SpanScope span(tracer, "core.large");
    large = sap::solve_large_tasks(inst, classes.large, params);
  }
  const sap::Weight ws = small.weight(inst);
  const sap::Weight wm = medium.weight(inst);
  const sap::Weight wl = large.weight(inst);
  if (wl > std::max(ws, wm)) return large;
  if (wm > ws || (wm == ws && wm > 0)) return medium;
  return small;
}

/// sapd's side of one request: envelope parse, canonical digest, instance
/// parse, solve, certify, encode. Returns the encoded response and leaves
/// the parsed instance in `inst`. With a tracer, the library's counters go
/// to tracer->counters through a TelemetrySession that covers this side
/// only, so the gate's own solver calls are not counted.
std::string serve(const BenchRequest& request, sap::PathInstance& inst,
                  Tracer* tracer) {
  std::optional<sap::TelemetrySession> session;
  if (tracer) session.emplace(&tracer->counters);
  SpanScope root(tracer, "sapd");
  std::string payload;
  {
    SpanScope span(tracer, "service.encode_request");
    payload = sap::service::encode_solve_request(*request.wire);
  }
  SolveRequest wire;
  {
    SpanScope span(tracer, "service.parse_request");
    wire = sap::service::parse_solve_request(payload);
  }
  {
    SpanScope span(tracer, "io.canonical");
    (void)sap::canonical_digest(wire.instance_text);
  }
  {
    SpanScope span(tracer, "io.parse");
    std::istringstream is(wire.instance_text);
    inst = sap::read_path_instance(is, kServerLimits);
  }
  SolveResponse response;
  std::ostringstream solution_os;
  if (wire.kind == SolveRequest::Kind::kPath) {
    sap::SolverParams params;
    params.eps = wire.eps;
    params.seed = wire.seed;
    const sap::SapSolution sol = tracer ? staged_solve(inst, params, tracer)
                                        : sap::solve_sap(inst, params);
    if (wire.want_certificate) {
      SpanScope span(tracer, "cert.ladder");
      const sap::cert::CertifyOutcome outcome =
          sap::cert::certify_solution(inst, sol, {});
      if (tracer) tracer->record_ladder(outcome.ladder);
      if (outcome.certified) {
        std::ostringstream cert_os;
        sap::write_certificate(cert_os, outcome.cert);
        response.certificate_text = cert_os.str();
      }
    }
    {
      SpanScope span(tracer, "io.write");
      sap::write_sap_solution(solution_os, sol);
    }
    response.weight = sol.weight(inst);
    response.placed = sol.size();
  } else {
    sap::round::RoundAssignment assignment;
    {
      SpanScope span(tracer, "round.approx");
      assignment = wire.kind == SolveRequest::Kind::kRoundUfp
                       ? sap::round::solve_round_ufp_approx(inst)
                       : sap::round::solve_round_sap_approx(inst);
    }
    {
      SpanScope span(tracer, "io.write");
      sap::write_round_assignment(solution_os, assignment);
    }
    response.weight = inst.total_weight();
    response.placed = assignment.total_placements();
    response.is_round = true;
    response.rounds = assignment.num_rounds();
  }
  response.total_tasks = inst.num_tasks();
  response.telemetry_json = "{}";
  response.solution_text = solution_os.str();
  SpanScope span(tracer, "service.encode_response");
  return sap::service::encode_solve_response(response);
}

/// One request: sapd's side, then the client's parse and the gate.
Answer answer(const BenchRequest& request, Tracer* tracer) {
  SpanScope root(tracer, "request");
  sap::PathInstance inst;
  const std::string payload = serve(request, inst, tracer);
  SolveResponse parsed;
  {
    SpanScope span(tracer, "service.parse_response");
    parsed = sap::service::parse_solve_response(payload);
  }
  Answer out;
  out.verdict = check_answer(inst, *request.wire, parsed, tracer);
  out.solution_text = std::move(parsed.solution_text);
  out.certificate_text = std::move(parsed.certificate_text);
  return out;
}

struct Item {
  const BenchRequest* request = nullptr;
  std::ptrdiff_t served = -1;  ///< index into plan.requests, -1 for the pool
};

struct Pass {
  std::vector<Answer> answers;
  /// Summed request times over the workload's items (the pool left out).
  std::int64_t workload_ns = 0;
  std::vector<Tracer> tracers;
};

/// Runs every item on kClients threads.
Pass run_pass(const std::vector<Item>& items, bool traced) {
  Pass pass;
  pass.answers.resize(items.size());
  pass.tracers.resize(kClients);
  std::atomic<std::int64_t> workload_ns{0};
  parallel_for(items.size(), [&](std::size_t worker, std::size_t i) {
    Tracer* active = traced ? &pass.tracers[worker] : nullptr;
    if (active) active->set_request(static_cast<std::int32_t>(i));
    const std::int64_t start = now_ns();
    pass.answers[i] = answer(*items[i].request, active);
    if (items[i].served >= 0) workload_ns += now_ns() - start;
  });
  pass.workload_ns = workload_ns;
  return pass;
}

double per_call(const std::map<std::string, LayerTime>& layers,
                const char* name, double unit_ns) {
  const auto it = layers.find(name);
  if (it == layers.end() || it->second.calls == 0) return 0.0;
  return static_cast<double>(it->second.self_ns) / unit_ns /
         static_cast<double>(it->second.calls);
}

double self_ms(const std::map<std::string, LayerTime>& layers,
               const char* name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0
                            : static_cast<double>(it->second.self_ns) / 1e6;
}

double total_ms(const std::map<std::string, LayerTime>& layers,
                const char* name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0
                            : static_cast<double>(it->second.total_ns) / 1e6;
}

}  // namespace

ReplayResult run_replay(const Plan& plan,
                        const std::vector<std::optional<std::uint64_t>>& served,
                        const std::string& spans_path) {
  std::vector<Item> items;
  // The pool's round entries give the round layers their per-call times;
  // its path entries are left out, so that their DP work does not mix into
  // the workload's core.* and dp.* figures.
  for (const BenchRequest& request : plan.pool) {
    if (request.wire->kind != SolveRequest::Kind::kPath) {
      items.push_back({&request, -1});
    }
  }
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    if (plan.requests[i].replay) {
      items.push_back({&plan.requests[i], static_cast<std::ptrdiff_t>(i)});
    }
  }

  // The first pass warms arenas and caches, so that the tracing overhead
  // compares two warm passes.
  (void)run_pass(items, false);
  const Pass plain = run_pass(items, false);
  const Pass traced = run_pass(items, true);

  ReplayResult result;
  auto fail = [&result](std::string why) {
    if (result.correct) result.reason = std::move(why);
    result.correct = false;
  };
  std::int64_t unverifiable = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Answer& a = plain.answers[i];
    const Answer& b = traced.answers[i];
    if (!a.verdict.ok) fail("replay answer rejected: " + a.verdict.reason);
    if (!b.verdict.ok) fail("traced answer rejected: " + b.verdict.reason);
    if (b.verdict.unverifiable) ++unverifiable;
    if (a.solution_text != b.solution_text ||
        a.certificate_text != b.certificate_text) {
      fail("staged pipeline differs from solve_sap on replay item " +
           std::to_string(i));
    }
    if (items[i].served >= 0) {
      const std::optional<std::uint64_t>& sapd =
          served[static_cast<std::size_t>(items[i].served)];
      if (sapd && *sapd != answer_hash(a.solution_text, a.certificate_text)) {
        fail("sapd answer differs from the in-process solve for request " +
             std::to_string(items[i].served));
      }
    }
  }

  const std::map<std::string, LayerTime> layers = layer_times(traced.tracers);
  sap::TelemetryReport counters;
  std::array<RungStats, sap::cert::kNumUbRungs> rungs{};
  for (const Tracer& tracer : traced.tracers) {
    counters.merge(tracer.counters);
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      rungs[r].attempts += tracer.rungs()[r].attempts;
      rungs[r].proved += tracer.rungs()[r].proved;
      rungs[r].seconds += tracer.rungs()[r].seconds;
      rungs[r].failed_seconds += tracer.rungs()[r].failed_seconds;
    }
  }

  std::map<std::string, double>& m = result.metrics;
  m["core.classify_ms"] = self_ms(layers, "core.classify");
  m["core.small_ms"] = self_ms(layers, "core.small");
  m["core.medium_ms"] = self_ms(layers, "core.medium");
  m["core.large_ms"] = self_ms(layers, "core.large");
  const double solve_ms = total_ms(layers, "core.solve");
  m["core.medium_share"] =
      solve_ms > 0 ? self_ms(layers, "core.medium") / solve_ms : 0.0;
  for (const char* counter :
       {"dp.states.expanded", "dp.states.peak", "dp.truncated",
        "lp.iterations"}) {
    m[counter] = static_cast<double>(counters.count(counter));
  }
  const double ladder_ms = total_ms(layers, "cert.ladder");
  m["cert.ladder_ms"] = ladder_ms;
  const std::pair<sap::cert::UbRung, const char*> named_rungs[] = {
      {sap::cert::UbRung::kExactDp, "exact_dp"},
      {sap::cert::UbRung::kUfppBnb, "ufpp_bnb"},
      {sap::cert::UbRung::kLpDual, "lp_dual"}};
  for (const auto& [rung, name] : named_rungs) {
    const RungStats& stats = rungs[static_cast<std::size_t>(rung)];
    const std::string prefix = std::string("cert.rung.") + name;
    m[prefix + ".attempts"] = static_cast<double>(stats.attempts);
    m[prefix + ".proved"] = static_cast<double>(stats.proved);
    m[prefix + ".time_share"] =
        ladder_ms > 0 ? 1e3 * stats.seconds / ladder_ms : 0.0;
  }
  const RungStats& exact =
      rungs[static_cast<std::size_t>(sap::cert::UbRung::kExactDp)];
  m["cert.rung.exact_dp.proved_share"] =
      exact.attempts > 0 ? static_cast<double>(exact.proved) /
                               static_cast<double>(exact.attempts)
                         : 0.0;
  m["cert.exact_dp.failed_share"] =
      ladder_ms > 0 ? 1e3 * exact.failed_seconds / ladder_ms : 0.0;
  m["cert.check_ms"] = per_call(layers, "gate.check_certificate", 1e6);
  m["cert.check.unverifiable"] = static_cast<double>(unverifiable);
  for (const auto& [metric, span] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"model.verify_us", "gate.verify_sap"},
           {"round.approx_us", "round.approx"},
           {"round.verify_us", "gate.verify_round"},
           {"io.parse_us", "io.parse"},
           {"io.canonical_us", "io.canonical"},
           {"io.write_us", "io.write"},
           {"io.read_answer_us", "gate.read_answer"},
           {"service.encode_request_us", "service.encode_request"},
           {"service.parse_request_us", "service.parse_request"},
           {"service.encode_response_us", "service.encode_response"},
           {"service.parse_response_us", "service.parse_response"}}) {
    m[metric] = per_call(layers, span, 1e3);
  }
  m["trace.overhead_pct"] =
      plain.workload_ns > 0
          ? 100.0 * (static_cast<double>(traced.workload_ns) /
                         static_cast<double>(plain.workload_ns) -
                     1.0)
          : 0.0;

  std::ofstream out(spans_path);
  if (!out) throw std::runtime_error("cannot write " + spans_path);
  write_spans_json(out, traced.tracers, layers);
  return result;
}

}  // namespace sapbench
