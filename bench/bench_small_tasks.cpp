// Experiment E3 (Theorem 1 / Section 4): measured approximation ratio of
// Strip-Pack on delta-small workloads, swept over delta, n, and capacity
// profile, for both per-strip backends. The theorem guarantees (4+eps) for
// the LP backend and (5+eps) for the local-ratio backend; the measured
// ratios should sit well below those bounds.
#include <cstdio>
#include <iostream>
#include <numeric>

#include "src/core/small_tasks.hpp"
#include "src/gen/generators.hpp"
#include "src/harness/ratio_harness.hpp"
#include "src/harness/table.hpp"
#include "src/model/verify.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"

using namespace sap;

int main() {
  std::printf("== E3 / Theorem 1: Strip-Pack on delta-small instances ==\n");
  std::printf("bound: 4+eps (LP backend) / 5+eps (local-ratio backend)\n\n");

  TablePrinter table({"profile", "delta", "n", "backend", "trials",
                      "mean ratio", "max ratio", "bound", "exact-opt%"});
  ThreadPool pool;

  const std::pair<CapacityProfile, const char*> profiles[] = {
      {CapacityProfile::kUniform, "uniform"},
      {CapacityProfile::kValley, "valley"},
      {CapacityProfile::kRandomWalk, "walk"},
  };
  const std::pair<Ratio, const char*> deltas[] = {
      {{1, 4}, "1/4"}, {{1, 8}, "1/8"}, {{1, 16}, "1/16"}};
  const std::pair<SmallTaskBackend, const char*> backends[] = {
      {SmallTaskBackend::kLocalRatio, "local-ratio"},
      {SmallTaskBackend::kLpRounding, "lp-round"}};

  for (const auto& [profile, profile_name] : profiles) {
    for (const auto& [delta, delta_name] : deltas) {
      for (const std::size_t n : {24u, 48u, 96u}) {
        for (const auto& [backend, backend_name] : backends) {
          const int trials = 20;
          std::vector<Summary> ratios(static_cast<std::size_t>(trials));
          std::vector<int> exact(static_cast<std::size_t>(trials), 0);
          pool.parallel_for(
              static_cast<std::size_t>(trials), [&](std::size_t trial) {
                Rng rng(1000 * trial + n + static_cast<std::size_t>(
                                               delta.den));
                PathGenOptions opt;
                opt.num_edges = 16;
                opt.num_tasks = n;
                opt.profile = profile;
                opt.min_capacity = 32;
                opt.max_capacity = 128;
                opt.demand = DemandClass::kSmall;
                opt.delta = delta;
                const PathInstance inst = generate_path_instance(opt, rng);
                SolverParams params;
                params.delta = delta;
                params.small_backend = backend;
                params.seed = trial;
                std::vector<TaskId> all(inst.num_tasks());
                std::iota(all.begin(), all.end(), TaskId{0});
                const SapSolution sol =
                    solve_small_tasks(inst, all, params);
                if (!verify_sap(inst, sol)) return;  // counted as missing
                cert::LadderOptions bound = measurement_ladder();
                bound.exact_dp_max_tasks = 28;
                const RatioMeasurement m = measure_ratio(inst, sol, bound);
                ratios[trial].add(m.ratio);
                exact[trial] = m.bound_exact ? 1 : 0;
              });
          Summary ratio;
          int exact_count = 0;
          for (int t = 0; t < trials; ++t) {
            ratio.merge(ratios[static_cast<std::size_t>(t)]);
            exact_count += exact[static_cast<std::size_t>(t)];
          }
          const double bound =
              backend == SmallTaskBackend::kLpRounding ? 4.0 : 5.0;
          table.add_row(
              {profile_name, delta_name, std::to_string(n), backend_name,
               std::to_string(ratio.count()), fmt(ratio.mean()),
               fmt(ratio.max()), fmt(bound, 1) + "+eps",
               fmt(100.0 * exact_count / trials, 0)});
        }
      }
    }
  }
  table.print(std::cout);
  std::printf(
      "\nnote: ratios are against the exact SAP optimum when the oracle "
      "fits, else against the UFPP LP bound (which inflates the ratio).\n");
  return 0;
}
