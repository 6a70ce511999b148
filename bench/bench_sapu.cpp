// SAP-U (uniform capacities): measured ratio of the specialized solver of
// src/sapu against the exact oracle, swept over capacity, delta and n —
// the related-work baseline lineage ([5]: 7-approx, [6]: 2.582-approx).
#include <cstdio>
#include <iostream>

#include "src/gen/generators.hpp"
#include "src/harness/ratio_harness.hpp"
#include "src/harness/table.hpp"
#include "src/model/verify.hpp"
#include "src/sapu/sapu_solver.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"

using namespace sap;

int main() {
  std::printf("== SAP-U: specialized uniform-capacity solver ==\n");
  std::printf("lineage bound: 2.582 + eps ([6], deterministic)\n\n");

  TablePrinter table({"cap", "delta", "n", "trials", "mean ratio",
                      "max ratio", "mean retention"});
  ThreadPool pool;

  const std::pair<Ratio, const char*> deltas[] = {{{1, 4}, "1/4"},
                                                  {{1, 8}, "1/8"}};
  for (const Value cap : {Value{12}, Value{24}, Value{40}}) {
    for (const auto& [delta, delta_name] : deltas) {
      for (const std::size_t n : {16u, 32u}) {
        const int trials = 16;
        std::vector<Summary> ratios(static_cast<std::size_t>(trials));
        std::vector<Summary> retention(static_cast<std::size_t>(trials));
        pool.parallel_for(
            static_cast<std::size_t>(trials), [&](std::size_t trial) {
              Rng rng(8800 + 23 * trial + n +
                      static_cast<std::size_t>(cap + delta.den));
              PathGenOptions opt;
              opt.num_edges = 10;
              opt.num_tasks = n;
              opt.profile = CapacityProfile::kUniform;
              opt.min_capacity = cap;
              opt.max_capacity = cap;
              const PathInstance inst = generate_path_instance(opt, rng);
              SapUniformOptions options;
              options.delta = delta;
              SapUniformReport report;
              const SapSolution sol =
                  solve_sap_uniform(inst, options, &report);
              if (!verify_sap(inst, sol)) return;
              cert::LadderOptions bopt = measurement_ladder();
              bopt.exact_dp_max_tasks = 20;
              bopt.exact_dp_max_capacity = 40;
              const RatioMeasurement m = measure_ratio(inst, sol, bopt);
              ratios[trial].add(m.ratio);
              retention[trial].add(report.strip_retention);
            });
        Summary ratio;
        Summary ret;
        for (int t = 0; t < trials; ++t) {
          ratio.merge(ratios[static_cast<std::size_t>(t)]);
          ret.merge(retention[static_cast<std::size_t>(t)]);
        }
        table.add_row({std::to_string(cap), delta_name, std::to_string(n),
                       std::to_string(ratio.count()), fmt(ratio.mean()),
                       fmt(ratio.max()), fmt(ret.mean())});
      }
    }
  }
  table.print(std::cout);
  return 0;
}
