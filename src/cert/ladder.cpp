#include "src/cert/ladder.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/exact/profile_dp.hpp"
#include "src/lp/simplex.hpp"
#include "src/ufpp/branch_and_bound.hpp"
#include "src/util/checked.hpp"
#include "src/util/telemetry.hpp"

namespace sap::cert {
namespace {

/// Fixed rung budgets: the exact_dp beams (the floor pass and the
/// prove-or-stop pass), the ufpp_bnb task cap and node budget, and the
/// fixed-point denominator S of the repaired dual prices (recorded in every
/// lp_dual certificate, so the checker needs no copy of it).
constexpr std::size_t kExactDpFloorStates = 256;
constexpr std::size_t kExactDpMaxStates = 100'000;
constexpr std::size_t kUfppBnbMaxTasks = 18;
constexpr std::size_t kUfppBnbMaxNodes = 2'000'000;
constexpr std::int64_t kDualScale = std::int64_t{1} << 20;

// sapkit-lint: allow(determinism) -- the monotonic clock feeds per-rung
// wall-time telemetry only; ladder bounds and rung order never read it.
using Clock = std::chrono::steady_clock;

// sapkit-lint: begin-allow(float-ban) -- wall-time measurement feeds the
// per-rung telemetry only; it never touches a bound or a solver decision.
double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
// sapkit-lint: end-allow(float-ban)

/// Sum of all task weights; false when it overflows int64.
template <typename Instance>
bool checked_total_weight(const Instance& inst, Weight* out) {
  Weight total = 0;
  for (std::size_t j = 0; j < inst.num_tasks(); ++j) {
    if (!checked_add(total, inst.task(static_cast<TaskId>(j)).weight,
                     &total)) {
      return false;
    }
  }
  *out = total;
  return true;
}

/// The routes task j may take, as edge lists: a path task has the one route
/// [first, last]; a ring task has its clockwise then its counter-clockwise
/// route (Lemma 18's two orientations).
std::vector<std::vector<EdgeId>> task_routes(const PathInstance& inst,
                                             TaskId j) {
  const Task& t = inst.task(j);
  std::vector<EdgeId> route;
  for (EdgeId e = t.first; e <= t.last; ++e) route.push_back(e);
  return {std::move(route)};
}

std::vector<std::vector<EdgeId>> task_routes(const RingInstance& inst,
                                             TaskId j) {
  return {inst.route_edges(j, true), inst.route_edges(j, false)};
}

/// Rounds one simplex-suggested price to the scaled integral grid. Any
/// non-negative result keeps the bound valid; the guard only rejects values
/// too large to represent.
// sapkit-lint: begin-allow(float-ban) -- the declared LP-dual-repair region:
// floating-point simplex output is a *suggestion* only; every repaired price
// is re-evaluated exactly in Int128 (evaluate_dual_bound) before any bound
// is emitted, so float error can weaken the bound but never falsify it.
bool repair_price(double y, std::int64_t scale, std::int64_t* out) {
  if (!std::isfinite(y)) return false;
  const double scaled = std::max(0.0, y) * static_cast<double>(scale);
  if (scaled >= 9.0e18) return false;
  *out = static_cast<std::int64_t>(std::llround(scaled));
  return true;
}
// sapkit-lint: end-allow(float-ban)

/// Exact evaluation of the repaired dual bound:
/// UB = floor((sum_e c_e*Y_e + sum_j z_j) / S) with
/// z_j = max(0, w_j*S - d_j * price_j) and price_j supplied per task (the
/// price sum of its cheapest route). Returns false on 128-bit overflow.
bool evaluate_dual_bound(std::span<const Value> capacities,
                         std::span<const std::int64_t> prices,
                         std::span<const Int128> task_price,
                         std::span<const Value> demands,
                         std::span<const Weight> weights, std::int64_t scale,
                         Weight* out) {
  Int128 total = 0;
  for (std::size_t e = 0; e < capacities.size(); ++e) {
    Int128 term = 0;
    if (!checked_mul(capacities[e], prices[e], &term)) return false;
    if (!checked_add(total, term, &total)) return false;
  }
  for (std::size_t j = 0; j < weights.size(); ++j) {
    Int128 ws = 0;
    if (!checked_mul(weights[j], scale, &ws)) return false;
    Int128 dp = 0;
    if (!checked_mul(demands[j], task_price[j], &dp)) return false;
    Int128 slack = ws - dp;  // subtraction of in-range products cannot wrap
    if (slack < 0) slack = 0;
    if (!checked_add(total, slack, &total)) return false;
  }
  const Int128 ub = total / scale;  // total >= 0, scale > 0: floor
  if (ub > std::numeric_limits<Weight>::max()) return false;
  *out = static_cast<Weight>(ub);
  return true;
}

/// Attempts the lp_dual rung: solves the dual of the UFPP LP relaxation
/// (min c.y + sum z s.t. d_j sum_{e in R} y_e + z_j >= w_j for every route
/// R of task j, y,z >= 0) with the primal simplex, then repairs the prices
/// exactly. The exact slack uses each task's cheapest route, matching the
/// verifier in check.cpp.
template <typename Instance>
bool try_lp_dual(const Instance& inst, const Deadline& deadline,
                 UpperBoundCertificate* out, bool* timed_out) {
  const std::size_t m = inst.num_edges();
  const std::size_t n = inst.num_tasks();
  if (n == 0) return false;
  DeadlineGate gate(deadline);

  // sapkit-lint: begin-allow(float-ban) -- LP-dual-repair region: the dual
  // LP is posed in doubles for the simplex, but its solution is only ever a
  // hint; the emitted bound comes from the exact Int128 re-evaluation below.
  LpProblem dual;
  dual.objective.assign(m + n, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    dual.objective[e] = -static_cast<double>(inst.capacity(
        static_cast<EdgeId>(e)));
  }
  for (std::size_t j = 0; j < n; ++j) dual.objective[m + j] = -1.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (gate.expired()) {
      *timed_out = true;
      return false;
    }
    const auto& t = inst.task(static_cast<TaskId>(j));
    for (const std::vector<EdgeId>& route :
         task_routes(inst, static_cast<TaskId>(j))) {
      LpConstraint row;
      row.coeffs.assign(m + n, 0.0);
      for (EdgeId e : route) {
        row.coeffs[static_cast<std::size_t>(e)] =
            static_cast<double>(t.demand);
      }
      row.coeffs[m + j] = 1.0;
      row.relation = LpRelation::kGreaterEqual;
      row.rhs = static_cast<double>(t.weight);
      dual.constraints.push_back(std::move(row));
    }
  }

  const LpSolution lp = solve_lp(dual, deadline);
  // sapkit-lint: end-allow(float-ban)
  if (lp.status == LpStatus::kTimeout) {
    *timed_out = true;
    return false;
  }
  if (lp.status != LpStatus::kOptimal) return false;

  DualWitness witness;
  witness.scale = kDualScale;
  witness.edge_price.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    if (!repair_price(lp.x[e], witness.scale, &witness.edge_price[e])) {
      return false;
    }
  }

  std::vector<Int128> task_price(n, 0);
  std::vector<Value> demands(n);
  std::vector<Weight> weights(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (gate.expired()) {
      *timed_out = true;
      return false;
    }
    const auto& t = inst.task(static_cast<TaskId>(j));
    bool first = true;
    for (const std::vector<EdgeId>& route :
         task_routes(inst, static_cast<TaskId>(j))) {
      Int128 sum = 0;
      for (EdgeId e : route) {
        sum += witness.edge_price[static_cast<std::size_t>(e)];
      }
      if (first || sum < task_price[j]) task_price[j] = sum;
      first = false;
    }
    demands[j] = t.demand;
    weights[j] = t.weight;
  }

  Weight ub = 0;
  if (!evaluate_dual_bound(inst.capacities(), witness.edge_price, task_price,
                           demands, weights, witness.scale, &ub)) {
    return false;
  }
  out->rung = UbRung::kLpDual;
  out->value = ub;
  out->dual = std::move(witness);
  return true;
}

/// The exact_dp rung. A small truncating pass finds a feasible floor L (and
/// proves the optimum outright when no edge overflows its beam); only then
/// is `suffix_bound()` asked for, and a pruned prove-or-stop pass drops
/// every state that cannot beat L and proves max(L, best), or gives up at
/// its first over-full edge.
template <typename SuffixBound>
SapExactResult exact_dp_rung(const PathInstance& inst,
                             const Deadline& deadline,
                             SuffixBound suffix_bound) {
  const SapExactResult floor_pass = sap_exact_profile_dp(
      inst, {.max_states = kExactDpFloorStates, .deadline = deadline});
  if (floor_pass.proven_optimal || floor_pass.timed_out) return floor_pass;
  const std::vector<Weight> suffix = suffix_bound();
  return sap_exact_profile_dp(inst, {.max_states = kExactDpMaxStates,
                                     .deadline = deadline,
                                     .floor = floor_pass.weight,
                                     .suffix_bound = suffix});
}

/// Records `attempt` and, when it proved `bound`, selects that bound as the
/// ladder's answer and stamps telemetry. Returns whether it was selected.
bool settle(LadderResult* result, const LadderRungAttempt& attempt,
            UpperBoundCertificate bound) {
  result->attempts.push_back(attempt);
  if (!attempt.proved) return false;
  result->proven = true;
  result->best = std::move(bound);
  telemetry::count(std::string("cert.ladder.") +
                   ub_rung_name(result->best.rung));
  return true;
}

UpperBoundCertificate plain_bound(const LadderRungAttempt& attempt) {
  UpperBoundCertificate bound;
  bound.rung = attempt.rung;
  bound.value = attempt.value;
  return bound;
}

/// Runs one exact-oracle rung: `solve()` returns a result whose
/// proven_optimal, timed_out and weight decide the attempt.
template <typename Solve>
LadderRungAttempt oracle_attempt(UbRung rung, bool applicable, Solve solve) {
  LadderRungAttempt attempt{.rung = rung, .applicable = applicable};
  if (!applicable) return attempt;
  const auto start = Clock::now();
  const auto oracle = solve();
  attempt.seconds = seconds_since(start);
  attempt.timed_out = oracle.timed_out;
  if (oracle.proven_optimal) {
    attempt.proved = true;
    attempt.value = oracle.weight;
  }
  return attempt;
}

/// The one ladder body. The exact rungs are SAP and UFPP oracles on a path,
/// so a ring starts at lp_dual.
template <typename Instance>
LadderResult run_ladder(const Instance& inst, const LadderOptions& options) {
  LadderResult result;
  Weight sum_w = 0;
  const bool sum_ok = checked_total_weight(inst, &sum_w);

  // Rung 3's LP is solved at most once: early, when rung 1 needs its prices
  // to prune (the time is then charged to rung 1), or in turn.
  LadderRungAttempt lp{.rung = UbRung::kLpDual,
                       .applicable = options.try_lp_dual};
  UpperBoundCertificate candidate;
  bool lp_solved = false;
  const auto solve_lp_dual = [&] {
    if (lp_solved || !lp.applicable) return;
    lp_solved = true;
    lp.proved =
        try_lp_dual(inst, options.deadline, &candidate, &lp.timed_out);
    if (lp.proved) lp.value = candidate.value;
  };

  if constexpr (std::is_same_v<Instance, PathInstance>) {
    // Rung 1: exact SAP optimum by profile DP.
    const LadderRungAttempt dp = oracle_attempt(
        UbRung::kExactDp,
        options.try_exact_dp &&
            inst.num_tasks() <= options.exact_dp_max_tasks &&
            (inst.num_edges() == 0 ||
             inst.max_capacity() <= options.exact_dp_max_capacity),
        [&] {
          return exact_dp_rung(inst, options.deadline, [&] {
            solve_lp_dual();
            return suffix_upper_bounds(inst, candidate.dual);
          });
        });
    if (settle(&result, dp, plain_bound(dp))) return result;

    // Rung 2: exact UFPP optimum (>= OPT_SAP).
    const LadderRungAttempt bnb = oracle_attempt(
        UbRung::kUfppBnb,
        options.try_ufpp_bnb && inst.num_tasks() <= kUfppBnbMaxTasks,
        [&] {
          return ufpp_exact(inst, {.max_nodes = kUfppBnbMaxNodes,
                                   .deadline = options.deadline});
        });
    if (settle(&result, bnb, plain_bound(bnb))) return result;
  }

  // Rung 3: rational-repaired LP dual. Skipped in favour of the fallback if
  // the repaired bound is looser than sum w.
  const auto start = Clock::now();
  solve_lp_dual();
  lp.seconds = seconds_since(start);
  if (lp.proved && sum_ok && candidate.value > sum_w) {
    result.attempts.push_back(lp);
  } else if (settle(&result, lp, std::move(candidate))) {
    return result;
  }

  // Rung 4: the unconditional fallback, unless sum w itself overflows.
  const LadderRungAttempt fallback{.rung = UbRung::kTotalWeight,
                                   .applicable = true,
                                   .proved = sum_ok,
                                   .value = sum_w};
  settle(&result, fallback, plain_bound(fallback));
  return result;
}

}  // namespace

std::vector<Weight> suffix_upper_bounds(const PathInstance& inst,
                                        const DualWitness& dual) {
  const std::size_t m = inst.num_edges();
  // Per start edge k, the weight of the tasks that start there and the
  // scaled dual terms that belong to the suffix from k on: c_k*Y_k and the
  // slacks z_j of those tasks.
  std::vector<Int128> weight_at(m, 0);
  std::vector<Int128> dual_at(m, 0);
  bool dual_ok = dual.scale > 0 && dual.edge_price.size() == m;
  for (std::size_t e = 0; dual_ok && e < m; ++e) {
    dual_ok = dual.edge_price[e] >= 0 &&
              checked_mul(inst.capacity(static_cast<EdgeId>(e)),
                          dual.edge_price[e], &dual_at[e]);
  }
  for (std::size_t j = 0; j < inst.num_tasks(); ++j) {
    const Task& t = inst.task(static_cast<TaskId>(j));
    const auto k = static_cast<std::size_t>(t.first);
    weight_at[k] += Int128{t.weight};
    if (!dual_ok) continue;
    Int128 price = 0;  // at most m int64 prices: cannot overflow 128 bits
    for (EdgeId e = t.first; e <= t.last; ++e) {
      price += dual.edge_price[static_cast<std::size_t>(e)];
    }
    Int128 scaled = 0;
    Int128 covered = 0;
    dual_ok = checked_mul(t.weight, dual.scale, &scaled) &&
              checked_mul(t.demand, price, &covered) &&
              (scaled <= covered ||
               checked_add(dual_at[k], scaled - covered, &dual_at[k]));
  }
  std::vector<Int128> dual_from(m + 1, 0);
  for (std::size_t k = m; dual_ok && k-- > 0;) {
    dual_ok = checked_add(dual_from[k + 1], dual_at[k], &dual_from[k]);
  }
  // A set of the tasks starting at k or later is the tasks it takes at k
  // plus a set bounded by bound[k + 1]. Without the dual this is the weight
  // suffix sum, which fits in int64: the PathInstance constructor proved the
  // instance total does.
  std::vector<Weight> bound(m + 1, 0);
  for (std::size_t k = m; k-- > 0;) {
    Int128 b = Int128{bound[k + 1]} + weight_at[k];
    if (dual_ok) b = std::min(b, dual_from[k] / dual.scale);
    bound[k] = static_cast<Weight>(b);
  }
  return bound;
}

LadderResult run_upper_bound_ladder(const PathInstance& inst,
                                    const LadderOptions& options) {
  return run_ladder(inst, options);
}

LadderResult run_upper_bound_ladder(const RingInstance& inst,
                                    const LadderOptions& options) {
  return run_ladder(inst, options);
}

}  // namespace sap::cert
