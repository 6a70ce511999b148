#include "src/ufpp/ufpp_solver.hpp"

#include <bit>
#include <map>
#include <numeric>

#include "src/core/classify.hpp"
#include "src/core/rectangles.hpp"
#include "src/ufpp/branch_and_bound.hpp"
#include "src/ufpp/lp_rounding.hpp"
#include "src/ufpp/strip_local_ratio.hpp"
#include "src/util/deadline.hpp"
#include "src/util/rng.hpp"
#include "src/util/telemetry.hpp"

namespace sap {
namespace {

int floor_log2(Value v) {
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v))) - 1;
}

/// Small tasks: per-octave (B/2)-packable solutions, unioned (the geometric
/// series over octaves keeps every edge feasible).
UfppSolution solve_small_ufpp(const PathInstance& inst,
                              std::span<const TaskId> subset,
                              const SolverParams& params) {
  std::map<int, std::vector<TaskId>> octaves;
  for (TaskId j : subset) {
    octaves[floor_log2(inst.bottleneck(j))].push_back(j);
  }
  Rng rng(params.seed ^ 0xBADC0FFEULL);
  UfppSolution out;
  for (const auto& [t, group] : octaves) {
    params.deadline.check();
    const Value big_b = Value{1} << t;
    if (big_b / 2 < 1) continue;
    auto [sub, back] = inst.clamp_capacities(2 * big_b, group);
    std::vector<TaskId> all(sub.num_tasks());
    std::iota(all.begin(), all.end(), TaskId{0});
    UfppSolution octave_sol;
    if (params.small_backend == SmallTaskBackend::kLpRounding) {
      Rng octave_rng = rng.fork();
      octave_sol =
          ufpp_lp_rounding_half_b(sub, all, big_b, {}, octave_rng).solution;
    } else {
      octave_sol = ufpp_strip_local_ratio(sub, all, big_b);
    }
    for (TaskId j : octave_sol.tasks) {
      out.tasks.push_back(back[static_cast<std::size_t>(j)]);
    }
  }
  return out;
}

/// Medium tasks: AlmostUniform bands with an exact per-band UFPP oracle
/// under reserve-reduced capacities; residue-spaced bands then stack.
UfppSolution solve_medium_ufpp(const PathInstance& inst,
                               std::span<const TaskId> subset,
                               const SolverParams& params) {
  const int ell = params.effective_ell();
  const int q = params.beta_q();
  DeadlineGate gate(params.deadline);
  std::map<int, std::vector<TaskId>> bands;
  for (TaskId j : subset) {
    gate.check();
    const int top = floor_log2(inst.bottleneck(j));
    for (int k = top - ell + 1; k <= top; ++k) {
      if (k >= 0) bands[k].push_back(j);
    }
  }

  std::map<int, UfppSolution> band_solutions;
  for (const auto& [k, members] : bands) {
    // Reserve for the residue class's lower bands: their total load on any
    // edge is below 2^(k-q+1), i.e. at most 2^(k-q+1) - 1 integrally.
    const Value reserve =
        k - q + 1 >= 0 ? (Value{1} << (k - q + 1)) - 1 : 0;
    const Value band_cap = Value{1} << (k + ell);
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
    if (tasks.empty()) {
      band_solutions.emplace(k, UfppSolution{});
      continue;
    }
    PathInstance sub(std::move(caps), std::move(tasks));
    UfppExactOptions opts;
    opts.max_nodes = 200'000;  // best-found fallback keeps this polynomial
    opts.deadline = params.deadline;
    const UfppExactResult result = ufpp_exact(sub, opts);
    if (result.timed_out) throw DeadlineExceeded();
    UfppSolution mapped;
    for (TaskId j : result.solution.tasks) {
      mapped.tasks.push_back(back[static_cast<std::size_t>(j)]);
    }
    band_solutions.emplace(k, std::move(mapped));
  }

  const int period = ell + q;
  UfppSolution best;
  Weight best_weight = -1;
  for (int r = 0; r < period; ++r) {
    gate.check();
    UfppSolution combined;
    for (const auto& [k, sol] : band_solutions) {
      if ((k % period + period) % period != r) continue;
      combined.tasks.insert(combined.tasks.end(), sol.tasks.begin(),
                            sol.tasks.end());
    }
    const Weight w = combined.weight(inst);
    if (w > best_weight) {
      best_weight = w;
      best = std::move(combined);
    }
  }
  return best;
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
    medium = solve_medium_ufpp(inst, classes.medium, params);
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
