#include "src/harness/batch_runner.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <ostream>

#include "src/cert/certify.hpp"
#include "src/cert/check.hpp"
#include "src/core/sap_solver.hpp"
#include "src/model/verify.hpp"

namespace sap {
namespace {

// sapkit-lint: allow(determinism) -- the monotonic clock feeds case/run
// wall-time fields only, which live in the scheduling-dependent "run"
// section that counters-only JSON omits; no aggregate counter reads it.
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// JSON number with non-finite values mapped to null (JSON has no NaN/inf).
void write_number(std::ostream& os, double value) {
  if (std::isfinite(value)) {
    os << value;
  } else {
    os << "null";
  }
}

/// {"count": c, "mean": m, "p50": ..., "p95": ..., "min": ..., "max": ...}
/// computed over a finite-value sample; nulls when the sample is empty.
void write_ratio_stats(std::ostream& os, const Summary& summary, double p50,
                       double p95, std::size_t infinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  os << "{\"count\": " << summary.count() << ", \"mean\": ";
  write_number(os, summary.count() == 0 ? nan : summary.mean());
  os << ", \"p50\": ";
  write_number(os, p50);
  os << ", \"p95\": ";
  write_number(os, p95);
  os << ", \"min\": ";
  write_number(os, summary.count() == 0 ? nan : summary.min());
  os << ", \"max\": ";
  write_number(os, summary.count() == 0 ? nan : summary.max());
  os << ", \"infinite\": " << infinite << "}";
}

/// The certified a-posteriori ratio UB / w(S) with the same conventions as
/// the measured ratio (1.0 when 0/0, +inf for a zero-weight solution).
double certified_ratio(const cert::Certificate& cert) {
  if (cert.solution_weight > 0) {
    return static_cast<double>(cert.ub.value) /
           static_cast<double>(cert.solution_weight);
  }
  if (cert.ub.value == 0) return 1.0;
  return std::numeric_limits<double>::infinity();
}

/// Bounds a solved, feasible case (its algo_weight already set) with one
/// ladder run. With `certify` the run produces a certificate whose bound
/// doubles as the ratio bound, and the certificate goes through the
/// independent check_certificate verifier.
template <typename Instance, typename Solution>
void bound_case(const Instance& inst, const Solution& sol, bool certify,
                const cert::LadderOptions& ladder, BatchCase* out) {
  if (!certify) {
    ScopedTimer timer("batch.bound");
    const RatioMeasurement m = measure_ratio(inst, sol, ladder);
    out->bound = m.bound;
    out->bound_exact = m.bound_exact;
    out->ratio = m.ratio;
    return;
  }
  cert::CertifyOutcome outcome;
  {
    ScopedTimer timer("batch.certify");
    outcome = cert::certify_solution(inst, sol, {ladder});
  }
  if (!outcome.certified) {
    out->ratio = std::numeric_limits<double>::quiet_NaN();
    return;
  }
  out->certified = true;
  out->cert_rung = outcome.cert.ub.rung;
  out->cert_ratio = certified_ratio(outcome.cert);
  out->bound = static_cast<double>(outcome.cert.ub.value);
  out->bound_exact = outcome.cert.ub.rung == cert::UbRung::kExactDp;
  out->ratio = out->cert_ratio;
  ScopedTimer timer("batch.check_cert");
  out->cert_checked = static_cast<bool>(
      cert::check_certificate(inst, sol, outcome.cert));
}

}  // namespace

BatchReport run_batch(const BatchOptions& options, const BatchCaseFn& fn,
                      ThreadPool& pool) {
  BatchReport out;
  out.num_instances = options.num_instances;
  out.base_seed = options.base_seed;
  out.threads = pool.thread_count();

  std::vector<BatchCase> cases(options.num_instances);
  const auto sweep_start = Clock::now();
  pool.parallel_for(options.num_instances, [&](std::size_t i) {
    const std::uint64_t seed = batch_case_seed(options.base_seed, i);
    BatchCase c;
    TelemetryReport collected;
    const auto case_start = Clock::now();
    {
      TelemetrySession session(&collected);
      c = fn(i, seed);
    }
    c.seconds = seconds_since(case_start);
    // Allocator counters record whether the executing thread's arena was
    // warm — a scheduling fact, not a property of the case — so they are
    // dropped from records that must aggregate byte-identically across
    // thread counts.
    collected.drop_counters_with_prefix("alloc.");
    c.telemetry.merge(collected);
    cases[i] = std::move(c);
  });
  out.total_seconds = seconds_since(sweep_start);

  // Sequential aggregation in instance order: identical across thread counts.
  std::vector<double> finite_ratios;
  std::vector<double> finite_cert_ratios;
  finite_ratios.reserve(cases.size());
  for (const BatchCase& c : cases) {
    out.case_seconds.add(c.seconds);
    out.telemetry.merge(c.telemetry);
    if (!c.feasible) continue;
    ++out.solved;
    if (c.bound_exact) ++out.bound_exact;
    if (std::isfinite(c.ratio)) {
      out.ratio.add(c.ratio);
      finite_ratios.push_back(c.ratio);
    } else {
      ++out.ratio_infinite;
    }
    if (c.certified) {
      ++out.certified;
      if (c.cert_checked) ++out.cert_checked;
      ++out.cert_rungs[static_cast<std::size_t>(c.cert_rung)];
      if (std::isfinite(c.cert_ratio)) {
        out.cert_ratio.add(c.cert_ratio);
        finite_cert_ratios.push_back(c.cert_ratio);
      } else {
        ++out.cert_ratio_infinite;
      }
    }
  }
  out.ratio_p50 = percentile(finite_ratios, 50.0);
  out.ratio_p95 = percentile(finite_ratios, 95.0);
  out.cert_ratio_p50 = percentile(finite_cert_ratios, 50.0);
  out.cert_ratio_p95 = percentile(finite_cert_ratios, 95.0);
  if (options.keep_cases) out.cases = std::move(cases);
  return out;
}

void write_batch_json(std::ostream& os, const BatchReport& report,
                      const BatchJsonOptions& options) {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os.precision(12);

  os << "{\n  \"schema\": \"sapkit-batch-v1\",\n";
  os << "  \"sweep\": {\n";
  os << "    \"instances\": " << report.num_instances << ",\n";
  os << "    \"base_seed\": " << report.base_seed << ",\n";
  os << "    \"solved\": " << report.solved << ",\n";
  os << "    \"bound_exact\": " << report.bound_exact << ",\n";
  os << "    \"ratio\": ";
  write_ratio_stats(os, report.ratio, report.ratio_p50, report.ratio_p95,
                    report.ratio_infinite);
  os << ",\n";
  os << "    \"certificates\": {\"produced\": " << report.certified
     << ", \"checked\": " << report.cert_checked << ", \"rungs\": {";
  for (std::size_t r = 0; r < cert::kNumUbRungs; ++r) {
    os << (r == 0 ? "" : ", ") << "\""
       << cert::ub_rung_name(static_cast<cert::UbRung>(r))
       << "\": " << report.cert_rungs[r];
  }
  os << "}, \"ratio\": ";
  write_ratio_stats(os, report.cert_ratio, report.cert_ratio_p50,
                    report.cert_ratio_p95, report.cert_ratio_infinite);
  os << "},\n";
  os << "    \"telemetry\": ";
  report.telemetry.write_json(os, /*include_timers=*/false, /*indent=*/4);
  os << "\n  }";

  if (options.include_timings) {
    os << ",\n  \"run\": {\n";
    os << "    \"threads\": " << report.threads << ",\n";
    os << "    \"total_seconds\": ";
    write_number(os, report.total_seconds);
    os << ",\n    \"case_seconds\": {\"mean\": ";
    write_number(os, report.case_seconds.count() == 0
                         ? std::numeric_limits<double>::quiet_NaN()
                         : report.case_seconds.mean());
    os << ", \"max\": ";
    write_number(os, report.case_seconds.count() == 0
                         ? std::numeric_limits<double>::quiet_NaN()
                         : report.case_seconds.max());
    os << "},\n";
    os << "    \"timers\": {";
    bool first = true;
    for (const auto& [name, stat] : report.telemetry.timers()) {
      os << (first ? "\n" : ",\n");
      first = false;
      os << "      \"" << name << "\": {\"count\": " << stat.count
         << ", \"seconds\": ";
      write_number(os, stat.seconds);
      os << "}";
    }
    if (!first) os << "\n    ";
    os << "}\n  }";
  }

  if (options.include_cases) {
    os << ",\n  \"cases\": [";
    for (std::size_t i = 0; i < report.cases.size(); ++i) {
      const BatchCase& c = report.cases[i];
      os << (i == 0 ? "\n" : ",\n");
      os << "    {\"index\": " << i << ", \"seed\": "
         << batch_case_seed(report.base_seed, i)
         << ", \"feasible\": " << (c.feasible ? "true" : "false")
         << ", \"weight\": " << c.algo_weight << ", \"bound\": ";
      write_number(os, c.bound);
      os << ", \"bound_exact\": " << (c.bound_exact ? "true" : "false")
         << ", \"ratio\": ";
      write_number(os, c.ratio);
      if (c.certified) {
        os << ", \"certified\": true, \"cert_checked\": "
           << (c.cert_checked ? "true" : "false") << ", \"cert_rung\": \""
           << cert::ub_rung_name(c.cert_rung) << "\", \"cert_ratio\": ";
        write_number(os, c.cert_ratio);
      }
      if (options.include_timings) {
        os << ", \"seconds\": ";
        write_number(os, c.seconds);
      }
      os << "}";
    }
    if (!report.cases.empty()) os << "\n  ";
    os << "]";
  }

  os << "\n}\n";
  os.flags(flags);
  os.precision(precision);
}

BatchCaseFn make_path_batch_case(const PathBatchConfig& config) {
  return [config](std::size_t /*index*/, std::uint64_t seed) {
    Rng rng(seed);
    const PathInstance inst = generate_path_instance(config.gen, rng);
    SolverParams params = config.solver;
    params.seed = seed;
    BatchCase out;
    SapSolution sol;
    {
      ScopedTimer timer("batch.solve");
      sol = solve_sap(inst, params);
    }
    if (!verify_sap(inst, sol)) return out;
    out.feasible = true;
    out.algo_weight = sol.weight(inst);
    bound_case(inst, sol, config.certify, config.bound, &out);
    return out;
  };
}

BatchCaseFn make_round_batch_case(const RoundBatchConfig& config) {
  return [config](std::size_t /*index*/, std::uint64_t seed) {
    Rng rng(seed);
    const PathInstance inst = round::generate_round_instance(config.gen, rng);
    BatchCase out;
    round::RoundRatioMeasurement m;
    {
      ScopedTimer timer("batch.round");
      m = round::measure_round_ratio(inst, config.kind);
    }
    if (!m.approx_valid) return out;
    out.feasible = true;
    out.algo_weight = m.approx_rounds;
    out.bound = static_cast<double>(m.oracle_rounds);
    out.bound_exact = m.oracle_proven;
    out.ratio = m.oracle_rounds > 0
                    ? static_cast<double>(m.approx_rounds) /
                          static_cast<double>(m.oracle_rounds)
                    : 1.0;
    return out;
  };
}

BatchCaseFn make_ring_batch_case(const RingBatchConfig& config) {
  return [config](std::size_t /*index*/, std::uint64_t seed) {
    Rng rng(seed);
    const RingInstance ring = generate_ring_instance(config.gen, rng);
    SolverParams params = config.solver;
    params.seed = seed;
    BatchCase out;
    RingSapSolution sol;
    {
      ScopedTimer timer("batch.solve");
      sol = solve_ring_sap(ring, params);
    }
    if (!verify_ring_sap(ring, sol)) return out;
    out.feasible = true;
    out.algo_weight = ring.solution_weight(sol);
    bound_case(ring, sol, config.certify, measurement_ladder(), &out);
    return out;
  };
}

}  // namespace sap
