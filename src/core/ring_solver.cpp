#include "src/core/ring_solver.hpp"

#include <algorithm>
#include <vector>

#include "src/core/sap_solver.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/util/telemetry.hpp"

namespace sap {
namespace {

// sapkit-lint: allow(float-ban) -- FPTAS accuracy of the through-cut branch;
// the knapsack backend does its own exact bookkeeping in integers.
constexpr double kKnapsackEps = 0.1;

}  // namespace

RingSapSolution solve_ring_sap(const RingInstance& inst,
                               const SolverParams& params,
                               RingSolveReport* report) {
  ScopedTimer solve_timer("ring.solve");
  const EdgeId cut = inst.min_capacity_edge();
  const auto m = static_cast<int>(inst.num_edges());
  // Ring edge r maps to path edge (r - cut - 1) mod m in the cut-open path
  // of m-1 edges (the cut edge itself is removed).
  auto to_path_edge = [&](EdgeId r) {
    return static_cast<EdgeId>(((r - cut - 1) % m + m) % m);
  };

  // Branch 1: path SAP over the routes avoiding the cut edge.
  std::vector<Value> path_caps(static_cast<std::size_t>(m - 1));
  for (EdgeId r = 0; r < m; ++r) {
    if (r == cut) continue;
    path_caps[static_cast<std::size_t>(to_path_edge(r))] = inst.capacity(r);
  }
  std::vector<Task> path_tasks;
  std::vector<TaskId> path_back;       // path task -> ring task
  std::vector<bool> path_clockwise;    // the route that avoids the cut
  for (std::size_t j = 0; j < inst.num_tasks(); ++j) {
    const auto id = static_cast<TaskId>(j);
    // Exactly one orientation avoids the cut edge.
    for (bool cw : {true, false}) {
      const std::vector<EdgeId> route = inst.route_edges(id, cw);
      if (std::ranges::find(route, cut) != route.end()) continue;
      EdgeId lo = static_cast<EdgeId>(m);
      EdgeId hi = -1;
      for (EdgeId r : route) {
        lo = std::min(lo, to_path_edge(r));
        hi = std::max(hi, to_path_edge(r));
      }
      const RingTask& t = inst.task(id);
      if (t.demand > inst.route_bottleneck(id, cw)) break;  // cannot fit
      path_tasks.push_back({lo, hi, t.demand, t.weight});
      path_back.push_back(id);
      path_clockwise.push_back(cw);
      break;
    }
  }
  RingSapSolution path_branch;
  Weight path_weight = 0;
  if (!path_tasks.empty()) {
    params.deadline.check();
    ScopedTimer timer("ring.stage.path");
    const PathInstance path(path_caps, path_tasks);
    const SapSolution sol = solve_sap(path, params);
    for (const Placement& p : sol.placements) {
      const auto idx = static_cast<std::size_t>(p.task);
      path_branch.placements.push_back(
          {path_back[idx], p.height, path_clockwise[idx]});
    }
    path_weight = inst.solution_weight(path_branch);
  }

  // Branch 2: all tasks routed through the cut edge, stacked from 0 — a
  // knapsack with capacity c(cut), the ring's minimum.
  std::vector<KnapsackItem> items;
  std::vector<TaskId> item_back;
  std::vector<bool> item_clockwise;
  for (std::size_t j = 0; j < inst.num_tasks(); ++j) {
    const auto id = static_cast<TaskId>(j);
    const RingTask& t = inst.task(id);
    if (t.demand > inst.capacity(cut)) continue;
    for (bool cw : {true, false}) {
      const std::vector<EdgeId> route = inst.route_edges(id, cw);
      if (std::ranges::find(route, cut) == route.end()) continue;
      items.push_back({t.demand, t.weight});
      item_back.push_back(id);
      item_clockwise.push_back(cw);
      break;
    }
  }
  RingSapSolution cut_branch;
  {
    params.deadline.check();
    ScopedTimer timer("ring.stage.cut");
    const KnapsackResult picked =
        knapsack_fptas(items, inst.capacity(cut), kKnapsackEps);
    Value stack = 0;
    for (std::size_t idx : picked.chosen) {
      cut_branch.placements.push_back(
          {item_back[idx], stack, item_clockwise[idx]});
      stack += items[idx].size;
    }
  }
  const Weight cut_weight = inst.solution_weight(cut_branch);

  telemetry::count(path_weight >= cut_weight ? "ring.winner.path"
                                             : "ring.winner.cut");
  if (report != nullptr) {
    report->cut_edge = cut;
    report->path_weight = path_weight;
    report->knapsack_weight = cut_weight;
    report->winner =
        path_weight >= cut_weight ? RingBranch::kPath : RingBranch::kThroughCut;
  }
  return path_weight >= cut_weight ? path_branch : cut_branch;
}

}  // namespace sap
