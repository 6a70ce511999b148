#include "src/model/solution.hpp"

#include <algorithm>

namespace sap {

Weight UfppSolution::weight(const PathInstance& inst) const {
  Weight total = 0;
  // sapkit-lint: allow(exact-arith) -- subset sum of task weights; the
  // PathInstance constructor proved the full sum fits in int64.
  for (TaskId j : tasks) total += inst.task(j).weight;
  return total;
}

Weight SapSolution::weight(const PathInstance& inst) const {
  Weight total = 0;
  // sapkit-lint: allow(exact-arith) -- subset sum of task weights; the
  // PathInstance constructor proved the full sum fits in int64.
  for (const Placement& p : placements) total += inst.task(p.task).weight;
  return total;
}

void SapSolution::lift(Value delta) {
  // sapkit-lint: allow(exact-arith) -- callers lift within a capacity bound
  // they already proved (h + delta <= c <= 2^62), so the sum is exact.
  for (Placement& p : placements) p.height += delta;
}

UfppSolution SapSolution::to_ufpp() const {
  UfppSolution out;
  out.tasks.reserve(placements.size());
  for (const Placement& p : placements) out.tasks.push_back(p.task);
  return out;
}

UfppSolution UfppSolution::remapped(std::span<const TaskId> back) const {
  UfppSolution out;
  out.tasks.reserve(tasks.size());
  for (TaskId j : tasks) out.tasks.push_back(back[static_cast<std::size_t>(j)]);
  return out;
}

SapSolution SapSolution::remapped(std::span<const TaskId> back) const {
  SapSolution out;
  out.placements.reserve(placements.size());
  for (const Placement& p : placements) {
    out.placements.push_back(
        {back[static_cast<std::size_t>(p.task)], p.height});
  }
  return out;
}

std::vector<Value> edge_loads(const PathInstance& inst,
                              std::span<const TaskId> tasks) {
  std::vector<Value> diff(inst.num_edges() + 1, 0);
  for (TaskId j : tasks) {
    const Task& t = inst.task(j);
    // sapkit-lint: begin-allow(exact-arith) -- difference-array entries are
    // subset sums of demands; the constructor proved the full sum fits int64.
    diff[static_cast<std::size_t>(t.first)] += t.demand;
    diff[static_cast<std::size_t>(t.last) + 1] -= t.demand;
    // sapkit-lint: end-allow(exact-arith)
  }
  std::vector<Value> loads(inst.num_edges());
  Value running = 0;
  for (std::size_t e = 0; e < loads.size(); ++e) {
    running += diff[e];
    loads[e] = running;
  }
  return loads;
}

Value max_load(const PathInstance& inst, std::span<const TaskId> tasks) {
  const auto loads = edge_loads(inst, tasks);
  return loads.empty() ? 0 : *std::max_element(loads.begin(), loads.end());
}

std::vector<Value> edge_makespans(const PathInstance& inst,
                                  const SapSolution& sol) {
  std::vector<Value> tops(inst.num_edges(), 0);
  for (const Placement& p : sol.placements) {
    const Task& t = inst.task(p.task);
    // sapkit-lint: allow(exact-arith) -- callers pass verified solutions
    // (h + d <= c <= 2^62, enforced at instance construction), so the
    // stacking top is exact; adversarial heights go through verify_sap.
    const Value top = p.height + t.demand;
    for (EdgeId e = t.first; e <= t.last; ++e) {
      auto& cell = tops[static_cast<std::size_t>(e)];
      cell = std::max(cell, top);
    }
  }
  return tops;
}

Value max_makespan(const PathInstance& inst, const SapSolution& sol) {
  Value best = 0;
  for (const Placement& p : sol.placements) {
    // sapkit-lint: allow(exact-arith) -- same verified-solution bound as in
    // edge_makespans above: h + d <= c <= 2^62 is exact in int64.
    best = std::max(best, p.height + inst.task(p.task).demand);
  }
  return best;
}

}  // namespace sap
