#include "src/exact/brute_force.hpp"

#include <numeric>
#include <stdexcept>
#include <vector>

namespace sap {
namespace {

/// Guards: exhaustive search refuses larger or taller inputs.
constexpr std::size_t kMaxTasks = 20;
constexpr Value kMaxCapacity = 64;

struct BruteSearcher {
  const PathInstance& inst;
  std::vector<TaskId> order;
  std::vector<Weight> suffix;
  std::vector<Placement> current;
  std::vector<Placement> best;
  Weight current_weight = 0;
  Weight best_weight = -1;
  DeadlineGate gate;

  BruteSearcher(const PathInstance& instance, std::span<const TaskId> subset,
                Deadline deadline)
      : inst(instance), order(subset.begin(), subset.end()), gate(deadline) {
    suffix.assign(order.size() + 1, 0);
    for (std::size_t i = order.size(); i-- > 0;) {
      // sapkit-lint: allow(exact-arith) -- suffix sums of task weights; the
      // PathInstance constructor proved the full sum fits in int64.
      suffix[i] = suffix[i + 1] + inst.task(order[i]).weight;
    }
  }

  [[nodiscard]] bool placeable(const Task& t, Value h) const {
    for (const Placement& p : current) {
      const Task& other = inst.task(p.task);
      if (!t.overlaps(other)) continue;
      // sapkit-lint: begin-allow(exact-arith) -- candidate and settled
      // heights satisfy h <= b(j) - d, so h + d <= b(j) <= 2^62 is exact.
      const Value other_top = p.height + other.demand;
      if (h < other_top && p.height < h + t.demand) return false;
      // sapkit-lint: end-allow(exact-arith)
    }
    return true;
  }

  void dfs(std::size_t i) {
    gate.check();  // throws DeadlineExceeded; amortized clock read
    if (current_weight > best_weight) {
      best_weight = current_weight;
      best = current;
    }
    if (i == order.size()) return;
    if (static_cast<Int128>(current_weight) + suffix[i] <= best_weight) return;
    const TaskId j = order[i];
    const Task& t = inst.task(j);
    const Value top_limit = inst.bottleneck(j) - t.demand;
    for (Value h = 0; h <= top_limit; ++h) {
      if (!placeable(t, h)) continue;
      current.push_back({j, h});
      // sapkit-lint: allow(exact-arith) -- subset sum of task weights; the
      // PathInstance constructor proved the full sum fits in int64.
      current_weight += t.weight;
      dfs(i + 1);
      current_weight -= t.weight;
      current.pop_back();
    }
    dfs(i + 1);  // skip j
  }
};

}  // namespace

SapSolution sap_brute_force(const PathInstance& inst,
                            std::span<const TaskId> subset,
                            Deadline deadline) {
  if (subset.size() > kMaxTasks) {
    throw std::invalid_argument("sap_brute_force: too many tasks");
  }
  if (inst.max_capacity() > kMaxCapacity) {
    throw std::invalid_argument("sap_brute_force: capacities too large");
  }
  BruteSearcher searcher(inst, subset, deadline);
  searcher.dfs(0);
  return SapSolution{std::move(searcher.best)};
}

SapSolution sap_brute_force(const PathInstance& inst, Deadline deadline) {
  std::vector<TaskId> all(inst.num_tasks());
  std::iota(all.begin(), all.end(), TaskId{0});
  return sap_brute_force(inst, all, deadline);
}

}  // namespace sap
