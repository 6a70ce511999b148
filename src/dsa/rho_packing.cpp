#include "src/dsa/rho_packing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/dsa/skyline.hpp"
#include "src/util/rmq.hpp"

namespace sap {
namespace {

/// rho is searched over multiples of 1 / kResolution, up to kMaxBlowup
/// times the LOAD lower bound.
constexpr std::int64_t kResolution = 64;
constexpr double kMaxBlowup = 8.0;

/// Orders tried by the packing portfolio (same spirit as dsa_pack).
std::vector<std::vector<TaskId>> candidate_orders(
    const PathInstance& inst, std::span<const TaskId> subset) {
  std::vector<std::vector<TaskId>> orders;
  std::vector<TaskId> base(subset.begin(), subset.end());

  auto by_left = base;
  std::ranges::sort(by_left, [&](TaskId a, TaskId b) {
    if (inst.task(a).first != inst.task(b).first) {
      return inst.task(a).first < inst.task(b).first;
    }
    if (inst.task(a).demand != inst.task(b).demand) {
      return inst.task(a).demand > inst.task(b).demand;
    }
    return a < b;  // tie-break: order must not depend on sort internals
  });
  orders.push_back(std::move(by_left));

  auto by_slack = base;  // tightest ceiling-slack first
  std::ranges::sort(by_slack, [&](TaskId a, TaskId b) {
    const Value slack_a = inst.bottleneck(a) - inst.task(a).demand;
    const Value slack_b = inst.bottleneck(b) - inst.task(b).demand;
    if (slack_a != slack_b) return slack_a < slack_b;
    if (inst.task(a).demand != inst.task(b).demand) {
      return inst.task(a).demand > inst.task(b).demand;
    }
    return a < b;  // tie-break: order must not depend on sort internals
  });
  orders.push_back(std::move(by_slack));

  auto by_demand = base;
  std::ranges::sort(by_demand, [&](TaskId a, TaskId b) {
    if (inst.task(a).demand != inst.task(b).demand) {
      return inst.task(a).demand > inst.task(b).demand;
    }
    if (inst.task(a).first != inst.task(b).first) {
      return inst.task(a).first < inst.task(b).first;
    }
    return a < b;  // tie-break: order must not depend on sort internals
  });
  orders.push_back(std::move(by_demand));
  return orders;
}

}  // namespace

SapSolution pack_under_ceilings(const PathInstance& inst,
                                std::span<const TaskId> subset,
                                std::span<const Value> ceilings) {
  const RangeMin ceiling_rmq(
      std::span<const std::int64_t>(ceilings.data(), ceilings.size()));
  for (const auto& order : candidate_orders(inst, subset)) {
    OccupancyIndex index(inst);
    bool ok = true;
    for (TaskId j : order) {
      const Task& t = inst.task(j);
      const Value ceiling =
          ceiling_rmq.min(static_cast<std::size_t>(t.first),
                          static_cast<std::size_t>(t.last));
      const Value h = index.lowest_fit(t);
      if (h + t.demand > ceiling) {
        ok = false;
        break;
      }
      index.add({j, h});
    }
    if (ok) return SapSolution{index.placements()};
  }
  return {};
}

RhoPackResult rho_pack_all(const PathInstance& inst,
                           std::span<const TaskId> subset) {
  RhoPackResult out;
  if (subset.empty()) {
    out.rho = 0.0;
    out.found = true;
    return out;
  }
  const auto loads = edge_loads(inst, std::vector<TaskId>(subset.begin(),
                                                          subset.end()));
  double lb = 0.0;
  for (std::size_t e = 0; e < loads.size(); ++e) {
    lb = std::max(lb, static_cast<double>(loads[e]) /
                          static_cast<double>(inst.capacities()[e]));
  }
  out.lower_bound = lb;

  // Search numerators of rho = num / kResolution in
  // [ceil(lb * kResolution), ceil(lb * kMaxBlowup * kResolution)].
  const auto lo_num = static_cast<std::int64_t>(
      std::ceil(lb * static_cast<double>(kResolution) - 1e-9));
  const auto hi_num = std::max(
      lo_num + 1, static_cast<std::int64_t>(std::ceil(
                      lb * kMaxBlowup * static_cast<double>(kResolution))));

  auto ceilings_for = [&](std::int64_t num) {
    std::vector<Value> ceilings(inst.num_edges());
    for (std::size_t e = 0; e < ceilings.size(); ++e) {
      ceilings[e] = static_cast<Value>(
          (static_cast<Int128>(inst.capacities()[e]) * num) / kResolution);
    }
    return ceilings;
  };

  // Exponential probe upward for a feasible point, then binary search.
  std::int64_t feasible_num = -1;
  SapSolution feasible_solution;
  for (std::int64_t num = std::max<std::int64_t>(lo_num, 1); num <= hi_num;
       num = std::max(num + 1, num + (num - lo_num))) {
    SapSolution sol = pack_under_ceilings(inst, subset, ceilings_for(num));
    if (sol.size() == subset.size()) {
      feasible_num = num;
      feasible_solution = std::move(sol);
      break;
    }
  }
  if (feasible_num < 0) return out;  // not found within the blowup budget

  std::int64_t lo = std::max<std::int64_t>(lo_num, 1);
  std::int64_t hi = feasible_num;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    SapSolution sol = pack_under_ceilings(inst, subset, ceilings_for(mid));
    if (sol.size() == subset.size()) {
      hi = mid;
      feasible_solution = std::move(sol);
    } else {
      lo = mid + 1;
    }
  }
  out.rho = static_cast<double>(hi) / static_cast<double>(kResolution);
  out.solution = std::move(feasible_solution);
  out.found = true;
  return out;
}

}  // namespace sap
