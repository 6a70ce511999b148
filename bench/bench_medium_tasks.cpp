// Experiment E4 (Theorem 2 / Section 5): measured approximation ratio of
// AlmostUniform + Elevator on medium-band workloads, swept over eps (which
// drives the window width ell) and n. Bound: (2 + eps).
#include <cstdio>
#include <iostream>
#include <numeric>

#include "src/core/medium_tasks.hpp"
#include "src/gen/generators.hpp"
#include "src/harness/ratio_harness.hpp"
#include "src/harness/table.hpp"
#include "src/model/verify.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"

using namespace sap;

int main() {
  std::printf("== E4 / Theorem 2: AlmostUniform+Elevator on medium tasks ==\n");
  std::printf("guarantee: (1 + q/ell) * 2 with q = ceil(log2(1/beta))\n\n");

  TablePrinter table({"eps", "ell", "n", "trials", "mean ratio", "max ratio",
                      "bound", "exact-opt%"});
  ThreadPool pool;

  for (const double eps : {2.0, 1.0, 0.5}) {
    for (const std::size_t n : {10u, 16u, 24u}) {
      const int trials = 20;
      std::vector<Summary> ratios(static_cast<std::size_t>(trials));
      std::vector<int> exact(static_cast<std::size_t>(trials), 0);
      SolverParams probe;
      probe.eps = eps;
      const int ell = probe.effective_ell();
      const double bound =
          (1.0 + static_cast<double>(probe.beta_q()) / ell) * 2.0;
      pool.parallel_for(
          static_cast<std::size_t>(trials), [&](std::size_t trial) {
            Rng rng(7000 + 31 * trial + n);
            PathGenOptions opt;
            opt.num_edges = 10;
            opt.num_tasks = n;
            opt.min_capacity = 8;
            opt.max_capacity = 32;
            opt.demand = DemandClass::kMedium;
            opt.delta = {1, 8};
            opt.k_large = 2;
            const PathInstance inst = generate_path_instance(opt, rng);
            SolverParams params;
            params.eps = eps;
            std::vector<TaskId> all(inst.num_tasks());
            std::iota(all.begin(), all.end(), TaskId{0});
            const SapSolution sol = solve_medium_tasks(inst, all, params);
            if (!verify_sap(inst, sol)) return;
            cert::LadderOptions bopt = measurement_ladder();
            bopt.exact_dp_max_tasks = 30;
            const RatioMeasurement m = measure_ratio(inst, sol, bopt);
            ratios[trial].add(m.ratio);
            exact[trial] = m.bound_exact ? 1 : 0;
          });
      Summary ratio;
      int exact_count = 0;
      for (int t = 0; t < trials; ++t) {
        ratio.merge(ratios[static_cast<std::size_t>(t)]);
        exact_count += exact[static_cast<std::size_t>(t)];
      }
      table.add_row({fmt(eps, 1), std::to_string(ell), std::to_string(n),
                     std::to_string(ratio.count()), fmt(ratio.mean()),
                     fmt(ratio.max()), fmt(bound, 2),
                     fmt(100.0 * exact_count / trials, 0)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape: larger ell (smaller eps) tightens the mean ratio "
      "toward 2; every max ratio stays below its bound column.\n");
  return 0;
}
