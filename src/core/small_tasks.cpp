#include "src/core/small_tasks.hpp"

#include "src/core/classify.hpp"
#include "src/dsa/strip_transform.hpp"

namespace sap {

SapSolution solve_small_tasks(const PathInstance& inst,
                              std::span<const TaskId> subset,
                              const SolverParams& params,
                              SmallTasksReport* report) {
  Rng rng(params.seed);
  SapSolution out;
  for_each_octave(inst, subset, params, rng, [&](const Octave& o) {
    const Value strip_height = Value{1} << (o.t - 1);
    StripTransformResult strip =
        strip_transform(o.sub, o.packed.solution, strip_height);
    strip.solution.lift(strip_height);  // octave t lives in [B/2, B)
    const SapSolution placed = strip.solution.remapped(o.back);
    out.placements.insert(out.placements.end(), placed.placements.begin(),
                          placed.placements.end());

    if (report != nullptr) {
      report->strips.push_back({o.t, o.back.size(),
                                o.packed.solution.weight(o.sub),
                                strip.kept_weight, strip.retention(),
                                o.packed.lp_value});
    }
  });
  return out;
}

}  // namespace sap
