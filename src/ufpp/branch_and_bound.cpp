#include "src/ufpp/branch_and_bound.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/lp/ufpp_lp.hpp"

namespace sap {
namespace {

/// With use_lp_bound, nodes at depths [0, kLpBoundDepth) get LP bounds.
constexpr std::size_t kLpBoundDepth = 8;

struct Searcher {
  const PathInstance& inst;
  const UfppExactOptions& options;
  std::vector<TaskId> order;        // density-descending task ids
  std::vector<Weight> suffix;       // suffix weight sums over `order`
  std::vector<Value> residual;      // per-edge remaining capacity
  std::vector<TaskId> current;
  std::vector<TaskId> best;
  Weight current_weight = 0;
  Weight best_weight = 0;
  std::size_t nodes = 0;
  bool budget_exhausted = false;
  bool timed_out = false;
  DeadlineGate gate;

  Searcher(const PathInstance& instance, std::span<const TaskId> subset,
           const UfppExactOptions& opts)
      : inst(instance), options(opts), order(subset.begin(), subset.end()),
        gate(opts.deadline) {
    std::ranges::sort(order, [&](TaskId a, TaskId b) {
      const Task& ta = inst.task(a);
      const Task& tb = inst.task(b);
      const Int128 lhs = static_cast<Int128>(ta.weight) * tb.demand;
      const Int128 rhs = static_cast<Int128>(tb.weight) * ta.demand;
      if (lhs != rhs) return lhs > rhs;
      return a < b;
    });
    suffix.assign(order.size() + 1, 0);
    for (std::size_t i = order.size(); i-- > 0;) {
      suffix[i] = suffix[i + 1] + inst.task(order[i]).weight;
    }
    residual = inst.capacities();
  }

  [[nodiscard]] bool fits(const Task& t) const {
    for (EdgeId e = t.first; e <= t.last; ++e) {
      if (residual[static_cast<std::size_t>(e)] < t.demand) return false;
    }
    return true;
  }

  void occupy(const Task& t, Value sign) {
    for (EdgeId e = t.first; e <= t.last; ++e) {
      residual[static_cast<std::size_t>(e)] -= sign * t.demand;
    }
  }

  // Reused bound scratch: the LP relaxation is rebuilt in place on every
  // probe, so its row/coefficient storage is recycled call to call instead
  // of being reallocated per node.
  std::vector<TaskId> rest;
  LpProblem relax;

  /// Upper bound on the weight attainable from order[i..) with the current
  /// residual capacities.
  [[nodiscard]] double remaining_bound(std::size_t i, std::size_t depth) {
    const auto loose = static_cast<double>(suffix[i]);
    if (!options.use_lp_bound || depth >= kLpBoundDepth) {
      return loose;
    }
    rest.clear();
    for (std::size_t k = i; k < order.size(); ++k) {
      if (gate.expired()) {
        timed_out = true;
        return loose;  // still a valid bound; dfs aborts on the next node
      }
      if (fits(inst.task(order[k]))) rest.push_back(order[k]);
    }
    if (rest.empty()) return 0.0;

    // Build the UFPP relaxation of the residual subproblem directly (the
    // same rows build_ufpp_relaxation would emit for the equivalent
    // sub-instance, without constructing one): a capacity row per edge some
    // surviving task crosses, then an x_v <= 1 box row per variable.
    // Residual capacities can hit 0 on saturated edges; clamp to 1, which
    // only loosens the LP value and so keeps it a valid upper bound.
    const std::size_t n = rest.size();
    relax.objective.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      relax.objective[v] = static_cast<double>(inst.task(rest[v]).weight);
    }
    if (relax.constraints.size() < residual.size() + n) {
      relax.constraints.resize(residual.size() + n);
    }
    std::size_t row = 0;
    for (std::size_t e = 0; e < residual.size(); ++e) {
      if (gate.expired()) {
        timed_out = true;
        return loose;
      }
      LpConstraint* con = nullptr;
      for (std::size_t v = 0; v < n; ++v) {
        const Task& t = inst.task(rest[v]);
        if (static_cast<std::size_t>(t.first) > e ||
            static_cast<std::size_t>(t.last) < e) {
          continue;
        }
        if (con == nullptr) {
          con = &relax.constraints[row++];
          con->coeffs.assign(n, 0.0);
          con->relation = LpRelation::kLessEqual;
          con->rhs = static_cast<double>(std::max<Value>(1, residual[e]));
        }
        con->coeffs[v] = static_cast<double>(t.demand);
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      LpConstraint& con = relax.constraints[row++];
      con.coeffs.assign(n, 0.0);
      con.coeffs[v] = 1.0;
      con.relation = LpRelation::kLessEqual;
      con.rhs = 1.0;
    }
    relax.constraints.resize(row);

    // Bound LPs only consume the objective value, so steepest-edge pricing
    // is safe here: it reaches the same LP optimum in (typically far) fewer
    // pivots, and any optimum makes the bound valid. The solve runs on the
    // thread arena, so this per-node LP costs no heap traffic once warm.
    LpOptions lp_options;
    lp_options.pricing = LpPricing::kSteepestEdge;
    lp_options.deadline = options.deadline;
    const LpSolution lp = solve_lp(relax, lp_options);
    if (lp.status != LpStatus::kOptimal) return loose;
    return std::min(loose, lp.objective + 1e-6);
  }

  void dfs(std::size_t i, std::size_t depth) {
    if (budget_exhausted || timed_out) return;
    if (gate.expired()) {
      timed_out = true;
      return;
    }
    if (++nodes > options.max_nodes) {
      budget_exhausted = true;
      return;
    }
    if (current_weight > best_weight) {
      best_weight = current_weight;
      best = current;
    }
    if (i == order.size()) return;
    const double bound = remaining_bound(i, depth);
    if (static_cast<double>(current_weight) + bound <=
        static_cast<double>(best_weight)) {
      return;
    }
    const Task& t = inst.task(order[i]);
    if (fits(t)) {  // include-first: density order makes this promising
      occupy(t, 1);
      current.push_back(order[i]);
      current_weight += t.weight;
      dfs(i + 1, depth + 1);
      current_weight -= t.weight;
      current.pop_back();
      occupy(t, -1);
    }
    dfs(i + 1, depth + 1);
  }
};

}  // namespace

UfppExactResult ufpp_exact(const PathInstance& inst,
                           std::span<const TaskId> subset,
                           const UfppExactOptions& options) {
  Searcher searcher(inst, subset, options);
  searcher.dfs(0, 0);
  UfppExactResult out;
  if (searcher.timed_out) {
    // Typed timeout outcome: empty solution, never the partial incumbent.
    out.timed_out = true;
    out.nodes = searcher.nodes;
    return out;
  }
  out.solution.tasks = std::move(searcher.best);
  out.weight = searcher.best_weight;
  out.proven_optimal = !searcher.budget_exhausted;
  out.nodes = searcher.nodes;
  return out;
}

UfppExactResult ufpp_exact(const PathInstance& inst,
                           const UfppExactOptions& options) {
  std::vector<TaskId> all(inst.num_tasks());
  std::iota(all.begin(), all.end(), TaskId{0});
  return ufpp_exact(inst, all, options);
}

}  // namespace sap
