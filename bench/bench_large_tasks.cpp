// Experiment E5 (Theorem 3 / Section 6): measured ratio of the rectangle-
// MWIS algorithm on 1/k-large workloads for k = 2..5, against the exact SAP
// optimum; the paper's bound is (2k - 1). Also reports Lemma 17's
// degeneracy statistics and the Figure 8 tightness witness.
#include <cstdio>
#include <iostream>
#include <numeric>

#include "src/core/large_tasks.hpp"
#include "src/core/rectangles.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/gen/generators.hpp"
#include "src/gen/paper_instances.hpp"
#include "src/harness/ratio_harness.hpp"
#include "src/harness/table.hpp"
#include "src/model/verify.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"

using namespace sap;

int main() {
  std::printf("== E5 / Theorem 3: rectangle MWIS on 1/k-large tasks ==\n\n");

  TablePrinter table({"k", "n", "trials", "mean ratio", "max ratio",
                      "bound 2k-1", "mean degeneracy", "max degeneracy",
                      "degen bound 2k-2"});
  ThreadPool pool;

  for (const std::int64_t k : {2, 3, 4, 5}) {
    for (const std::size_t n : {10u, 16u, 24u}) {
      const int trials = 20;
      std::vector<Summary> ratios(static_cast<std::size_t>(trials));
      std::vector<Summary> degen(static_cast<std::size_t>(trials));
      pool.parallel_for(
          static_cast<std::size_t>(trials), [&](std::size_t trial) {
            Rng rng(9000 + 17 * trial + n + static_cast<std::size_t>(k));
            PathGenOptions opt;
            opt.num_edges = 10;
            opt.num_tasks = n;
            opt.min_capacity = 2 * k;
            opt.max_capacity = 8 * k;
            opt.demand = DemandClass::kLarge;
            opt.k_large = k;
            const PathInstance inst = generate_path_instance(opt, rng);
            SolverParams params;
            std::vector<TaskId> all(inst.num_tasks());
            std::iota(all.begin(), all.end(), TaskId{0});
            const SapSolution sol = solve_large_tasks(inst, all, params);
            if (!verify_sap(inst, sol)) return;
            cert::LadderOptions bopt = measurement_ladder();
            bopt.exact_dp_max_tasks = 30;
            bopt.exact_dp_max_capacity = 8 * k;
            const RatioMeasurement m = measure_ratio(inst, sol, bopt);
            ratios[trial].add(m.ratio);
            // Lemma 17 on the exact optimum's rectangles.
            const SapExactResult opt_sol = sap_exact_profile_dp(inst);
            if (opt_sol.proven_optimal && !opt_sol.solution.empty()) {
              std::vector<TaskId> chosen;
              for (const Placement& p : opt_sol.solution.placements) {
                chosen.push_back(p.task);
              }
              const auto rects = task_rectangles(inst, chosen);
              degen[trial].add(static_cast<double>(
                  smallest_last_coloring(rects).degeneracy));
            }
          });
      Summary ratio;
      Summary degeneracy;
      for (int t = 0; t < trials; ++t) {
        ratio.merge(ratios[static_cast<std::size_t>(t)]);
        degeneracy.merge(degen[static_cast<std::size_t>(t)]);
      }
      table.add_row({std::to_string(k), std::to_string(n),
                     std::to_string(ratio.count()), fmt(ratio.mean()),
                     fmt(ratio.max()), std::to_string(2 * k - 1),
                     fmt(degeneracy.mean(), 2), fmt(degeneracy.max(), 0),
                     std::to_string(2 * k - 2)});
    }
  }
  table.print(std::cout);

  std::printf("\n-- Figure 8 tightness witness (k = 2) --\n");
  const OddCycleWitness& witness = fig8_instance();
  std::vector<TaskId> all(witness.instance.num_tasks());
  std::iota(all.begin(), all.end(), TaskId{0});
  const auto rects = task_rectangles(witness.instance, all);
  const ColoringResult coloring = smallest_last_coloring(rects);
  std::printf(
      "5 half-large tasks, feasible as a whole; R(J) is a 5-cycle needing "
      "%d colors (2k-1 = 3), degeneracy %d (2k-2 = 2)\n",
      coloring.num_colors, coloring.degeneracy);
  std::printf("capacities:");
  for (Value c : witness.instance.capacities()) {
    std::printf(" %lld", static_cast<long long>(c));
  }
  std::printf("\n");
  return 0;
}
