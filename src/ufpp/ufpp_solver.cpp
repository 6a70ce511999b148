#include "src/ufpp/ufpp_solver.hpp"

#include "src/core/classify.hpp"
#include "src/core/rectangles.hpp"
#include "src/ufpp/branch_and_bound.hpp"
#include "src/util/deadline.hpp"
#include "src/util/telemetry.hpp"

namespace sap {
namespace {

/// Small tasks: per-octave (B/2)-packable solutions, unioned (the geometric
/// series over octaves keeps every edge feasible).
UfppSolution solve_small_ufpp(const PathInstance& inst,
                              std::span<const TaskId> subset,
                              const SolverParams& params) {
  Rng rng(params.seed ^ 0xBADC0FFEULL);
  UfppSolution out;
  for_each_octave(inst, subset, params, rng, [&](const Octave& o) {
    const UfppSolution placed = o.packed.solution.remapped(o.back);
    out.tasks.insert(out.tasks.end(), placed.tasks.begin(), placed.tasks.end());
  });
  return out;
}

/// One medium band k: an exact UFPP oracle under capacities reduced by the
/// reserve for the residue class's lower bands, whose total load on any
/// edge is below 2^(k-q+1), i.e. at most 2^(k-q+1) - 1 integrally.
UfppSolution solve_ufpp_band(const PathInstance& inst,
                             std::span<const TaskId> members, int k, int ell,
                             const SolverParams& params) {
  const int q = params.beta_q();
  const Value reserve = k - q + 1 >= 0 ? (Value{1} << (k - q + 1)) - 1 : 0;
  const Value band_cap = band_capacity(k, ell);
  std::vector<Value> caps(inst.num_edges());
  for (std::size_t e = 0; e < caps.size(); ++e) {
    // Band tasks only use edges with c_e >= 2^k > reserve, so flooring
    // unusable edges at 1 never admits band load.
    caps[e] = std::max<Value>(
        1, std::min(inst.capacities()[e], band_cap) - reserve);
  }
  std::vector<Task> tasks;
  std::vector<TaskId> back;
  {
    // Keep only tasks that still fit under the reduced capacities.
    RangeMin rmq(caps);
    for (TaskId j : members) {
      const Task& t = inst.task(j);
      if (t.demand <= rmq.min(static_cast<std::size_t>(t.first),
                              static_cast<std::size_t>(t.last))) {
        tasks.push_back(t);
        back.push_back(j);
      }
    }
  }
  if (tasks.empty()) return {};
  PathInstance sub(std::move(caps), std::move(tasks));
  UfppExactOptions opts;
  opts.max_nodes = 200'000;  // best-found fallback keeps this polynomial
  opts.deadline = params.deadline;
  const UfppExactResult result = ufpp_exact(sub, opts);
  if (result.timed_out) throw DeadlineExceeded();
  return result.solution.remapped(back);
}

}  // namespace

UfppSolution solve_ufpp_approx(const PathInstance& inst,
                               const SolverParams& params,
                               UfppSolveReport* report) {
  params.validate();
  ScopedTimer solve_timer("ufpp.solve");
  const TaskClasses classes = classify_tasks(inst, params);
  telemetry::count("ufpp.tasks.small",
                   static_cast<std::int64_t>(classes.small.size()));
  telemetry::count("ufpp.tasks.medium",
                   static_cast<std::int64_t>(classes.medium.size()));
  telemetry::count("ufpp.tasks.large",
                   static_cast<std::int64_t>(classes.large.size()));

  UfppSolution small;
  UfppSolution medium;
  UfppSolution large;
  {
    ScopedTimer timer("ufpp.stage.small");
    small = solve_small_ufpp(inst, classes.small, params);
  }
  {
    ScopedTimer timer("ufpp.stage.medium");
    const int ell = params.effective_ell();
    medium = stack_residue_classes<UfppSolution>(
        inst, classes.medium, ell, ell + params.beta_q(), params.deadline,
        [&](int k, std::span<const TaskId> members) {
          return solve_ufpp_band(inst, members, k, ell, params);
        });
  }
  {
    ScopedTimer timer("ufpp.stage.large");
    const std::vector<TaskRect> rects = task_rectangles(inst, classes.large);
    const RectMwisResult mwis =
        rectangle_mwis(rects, {params.large_max_nodes});
    for (std::size_t idx : mwis.chosen) {
      large.tasks.push_back(rects[idx].task);
    }
  }

  const Weight ws = small.weight(inst);
  const Weight wm = medium.weight(inst);
  const Weight wl = large.weight(inst);
  if (report != nullptr) {
    report->num_small = classes.small.size();
    report->num_medium = classes.medium.size();
    report->num_large = classes.large.size();
    report->small_weight = ws;
    report->medium_weight = wm;
    report->large_weight = wl;
  }
  if (ws >= wm && ws >= wl) return small;
  if (wm >= wl) return medium;
  return large;
}

}  // namespace sap
