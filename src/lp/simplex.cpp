#include "src/lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/util/arena.hpp"
#include "src/util/flat.hpp"
#include "src/util/telemetry.hpp"

namespace sap {
namespace {

constexpr double kEps = 1e-9;

/// Dense tableau state shared by both phases. All storage is flat and
/// arena-backed; a Tableau is built fresh per solve and its footprint is
/// reclaimed wholesale by the caller's ArenaScope.
struct Tableau {
  FlatMat<double> a;          // m x total coefficient matrix
  FlatBuf<double> rhs;        // m, kept >= -kEps
  FlatBuf<double> cost;       // reduced-cost row (minimization)
  FlatBuf<double> gamma;      // steepest-edge scratch: 1 + ||A_c||^2
  double cost_rhs = 0.0;      // negated objective value so far
  FlatBuf<std::size_t> basis;  // m entries, column of basic var per row
  std::size_t iterations = 0;  // pivots taken across both phases

  explicit Tableau(Arena& arena)
      : a(arena), rhs(arena), cost(arena), gamma(arena), basis(arena) {}

  void pivot(std::size_t row, std::size_t col) {
    const double pivot_value = a(row, col);
    const std::size_t width = a.cols();
    double* prow = a.row(row).data();
    const double inv = 1.0 / pivot_value;
    for (std::size_t c = 0; c < width; ++c) prow[c] *= inv;
    rhs[row] /= pivot_value;
    for (std::size_t r = 0; r < a.rows(); ++r) {
      if (r == row) continue;
      const double factor = a(r, col);
      if (std::abs(factor) < kEps) continue;
      double* tr = a.row(r).data();
      const double neg = -factor;
      for (std::size_t c = 0; c < width; ++c) tr[c] += neg * prow[c];
      rhs[r] -= factor * rhs[row];
      tr[col] = 0.0;  // clear residual round-off exactly
    }
    const double cost_factor = cost[col];
    if (std::abs(cost_factor) > 0.0) {
      const double* src = prow;
      for (std::size_t c = 0; c < cost.size(); ++c) {
        cost[c] -= cost_factor * src[c];
      }
      cost_rhs -= cost_factor * rhs[row];
      cost[col] = 0.0;
    }
    basis[row] = col;
  }

  /// Dantzig pricing: most negative reduced cost (or the first negative
  /// column under Bland's rule). Returns cost.size() when optimal.
  [[nodiscard]] std::size_t price_dantzig(bool bland) const {
    std::size_t enter = cost.size();
    double best = -kEps;
    for (std::size_t c = 0; c < cost.size(); ++c) {
      if (cost[c] < best) {
        enter = c;
        if (bland) break;
        best = cost[c];
      }
    }
    return enter;
  }

  /// Steepest-edge pricing, recomputed form: among columns with negative
  /// reduced cost, maximize cost_c^2 / (1 + ||A_c||^2). The norms are
  /// accumulated row-major (one cache-friendly sweep of the tableau) into
  /// the reusable gamma row; ties break to the smallest column index.
  [[nodiscard]] std::size_t price_steepest() {
    const std::size_t width = cost.size();
    gamma.resize(width);
    for (std::size_t c = 0; c < width; ++c) gamma[c] = 1.0;
    for (std::size_t r = 0; r < a.rows(); ++r) {
      const double* src = a.row(r).data();
      for (std::size_t c = 0; c < width; ++c) gamma[c] += src[c] * src[c];
    }
    std::size_t enter = width;
    double best = 0.0;
    for (std::size_t c = 0; c < width; ++c) {
      if (cost[c] >= -kEps) continue;
      const double score = cost[c] * cost[c] / gamma[c];
      if (score > best) {
        best = score;
        enter = c;
      }
    }
    return enter;
  }

  /// Runs simplex iterations on the current cost row until optimal,
  /// unbounded, the iteration budget runs out, or `gate` expires. A pivot on
  /// a dense tableau is heavy, so the gate is polled every iteration (the
  /// gate's stride amortizes the clock read).
  LpStatus iterate(std::size_t max_iterations, DeadlineGate* gate,
                   LpPricing pricing) {
    const std::size_t bland_after = max_iterations / 2;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
      if (gate != nullptr && gate->expired()) return LpStatus::kTimeout;
      const bool bland = iter >= bland_after;
      const std::size_t enter = (bland || pricing == LpPricing::kDantzig)
                                    ? price_dantzig(bland)
                                    : price_steepest();
      if (enter == cost.size()) return LpStatus::kOptimal;

      // Ratio test: tightest row; ties to the smallest basis column (keeps
      // Bland's rule anti-cycling valid in the fallback regime).
      std::size_t leave = a.rows();
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < a.rows(); ++r) {
        const double coeff = a(r, enter);
        if (coeff <= kEps) continue;
        const double ratio = rhs[r] / coeff;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && leave < a.rows() &&
             basis[r] < basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
      if (leave == a.rows()) return LpStatus::kUnbounded;
      pivot(leave, enter);
      ++iterations;
    }
    return LpStatus::kIterationLimit;
  }
};

/// Reports pivot counts on every exit path of solve_lp (including error
/// returns), so "lp.iterations" matches the work actually done.
struct PivotTelemetry {
  const Tableau& tableau;
  ~PivotTelemetry() {
    telemetry::count("lp.solves");
    telemetry::count("lp.iterations",
                     static_cast<std::int64_t>(tableau.iterations));
  }
};

}  // namespace

LpSolution solve_lp(const LpProblem& problem, const LpOptions& options) {
  ScopedTimer timer("lp.solve");
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.constraints.size();
  const std::size_t max_iterations = 200 * (n + m + 16);
  // Pivots are O(m * columns) apiece, so a short stride keeps cancellation
  // prompt without measurable overhead.
  DeadlineGate gate(options.deadline, /*stride=*/16);

  Arena& arena = thread_arena();
  ArenaScope scope(arena);

  // Column layout: [0, n) structural, [n, n + m) slack/surplus (one per
  // row; unused for equalities), [n + m, n + m + artificials) artificial.
  std::size_t num_artificial = 0;
  FlatBuf<unsigned char> row_flipped(arena);
  row_flipped.resize_zeroed(m);
  for (std::size_t r = 0; r < m; ++r) {
    const LpConstraint& con = problem.constraints[r];
    double rhs = con.rhs;
    LpRelation rel = con.relation;
    if (rhs < 0.0) {  // normalize to rhs >= 0 by negating the row
      row_flipped[r] = 1;
      rhs = -rhs;
      if (rel == LpRelation::kLessEqual) {
        rel = LpRelation::kGreaterEqual;
      } else if (rel == LpRelation::kGreaterEqual) {
        rel = LpRelation::kLessEqual;
      }
    }
    // >= rows and equalities need an artificial; <= rows start on slack.
    if (rel != LpRelation::kLessEqual) ++num_artificial;
  }

  const std::size_t total = n + m + num_artificial;
  Tableau t(arena);
  const PivotTelemetry pivot_telemetry{t};
  t.a.reshape_zeroed(m, total);
  t.rhs.resize_zeroed(m);
  t.basis.resize_zeroed(m);

  LpSolution out;

  std::size_t next_artificial = n + m;
  for (std::size_t r = 0; r < m; ++r) {
    if (gate.expired()) {
      out.status = LpStatus::kTimeout;
      return out;
    }
    const LpConstraint& con = problem.constraints[r];
    const double sign = row_flipped[r] != 0 ? -1.0 : 1.0;
    for (std::size_t c = 0; c < std::min(n, con.coeffs.size()); ++c) {
      t.a(r, c) = sign * con.coeffs[c];
    }
    double rhs = sign * con.rhs;
    LpRelation rel = con.relation;
    if (row_flipped[r] != 0) {
      if (rel == LpRelation::kLessEqual) {
        rel = LpRelation::kGreaterEqual;
      } else if (rel == LpRelation::kGreaterEqual) {
        rel = LpRelation::kLessEqual;
      }
    }
    t.rhs[r] = rhs;
    switch (rel) {
      case LpRelation::kLessEqual:
        t.a(r, n + r) = 1.0;
        t.basis[r] = n + r;
        break;
      case LpRelation::kGreaterEqual:
        t.a(r, n + r) = -1.0;  // surplus
        t.a(r, next_artificial) = 1.0;
        t.basis[r] = next_artificial++;
        break;
      case LpRelation::kEqual:
        t.a(r, next_artificial) = 1.0;
        t.basis[r] = next_artificial++;
        break;
    }
  }

  // Phase 1: minimize the sum of artificials (skippable when there are none).
  if (num_artificial > 0) {
    t.cost.resize(total);
    std::fill(t.cost.begin(), t.cost.end(), 0.0);
    t.cost_rhs = 0.0;
    for (std::size_t c = n + m; c < total; ++c) t.cost[c] = 1.0;
    // Price out the artificial basis so reduced costs start consistent.
    for (std::size_t r = 0; r < m; ++r) {
      if (gate.expired()) {
        out.status = LpStatus::kTimeout;
        return out;
      }
      if (t.basis[r] >= n + m) {
        const double* src = t.a.row(r).data();
        for (std::size_t c = 0; c < total; ++c) t.cost[c] -= src[c];
        t.cost_rhs -= t.rhs[r];
      }
    }
    const LpStatus phase1 = t.iterate(max_iterations, &gate, options.pricing);
    if (phase1 == LpStatus::kIterationLimit ||
        phase1 == LpStatus::kTimeout) {
      out.status = phase1;
      return out;
    }
    if (-t.cost_rhs > 1e-7) {  // objective value = -cost_rhs
      out.status = LpStatus::kInfeasible;
      return out;
    }
    // Drive any artificial still in the basis out (degenerate at zero).
    for (std::size_t r = 0; r < m; ++r) {
      if (gate.expired()) {
        out.status = LpStatus::kTimeout;
        return out;
      }
      if (t.basis[r] < n + m) continue;
      std::size_t enter = total;
      for (std::size_t c = 0; c < n + m; ++c) {
        if (std::abs(t.a(r, c)) > kEps) {
          enter = c;
          break;
        }
      }
      if (enter == total) continue;  // redundant row; leave it degenerate
      t.pivot(r, enter);
    }
  }

  // Phase 2: minimize -objective over structural variables; forbid
  // artificials by pricing them prohibitively.
  t.cost.resize(total);
  std::fill(t.cost.begin(), t.cost.end(), 0.0);
  t.cost_rhs = 0.0;
  for (std::size_t c = 0; c < n; ++c) t.cost[c] = -problem.objective[c];
  for (std::size_t c = n + m; c < total; ++c) {
    t.cost[c] = 1e30;  // never re-enter
  }
  for (std::size_t r = 0; r < m; ++r) {  // price out the current basis
    if (gate.expired()) {
      out.status = LpStatus::kTimeout;
      return out;
    }
    const double basic_cost = t.cost[t.basis[r]];
    if (basic_cost == 0.0) continue;
    const double* src = t.a.row(r).data();
    const std::size_t basic = t.basis[r];
    for (std::size_t c = 0; c < total; ++c) t.cost[c] -= basic_cost * src[c];
    t.cost_rhs -= basic_cost * t.rhs[r];
    t.cost[basic] = 0.0;
  }
  const LpStatus phase2 = t.iterate(max_iterations, &gate, options.pricing);
  if (phase2 != LpStatus::kOptimal) {
    out.status = phase2;
    return out;
  }

  out.status = LpStatus::kOptimal;
  // sapkit-analyze: allow(arena-discipline) -- result assembly: the solution
  // vector crosses the ArenaScope boundary back to the caller, so it owns heap
  // storage.
  out.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (t.basis[r] < n) out.x[t.basis[r]] = std::max(0.0, t.rhs[r]);
  }
  out.objective = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    out.objective += problem.objective[c] * out.x[c];
  }
  return out;
}

LpSolution solve_lp(const LpProblem& problem, Deadline deadline) {
  LpOptions options;
  options.deadline = deadline;
  return solve_lp(problem, options);
}

}  // namespace sap
