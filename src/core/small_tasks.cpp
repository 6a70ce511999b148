#include "src/core/small_tasks.hpp"

#include <bit>
#include <map>
#include <numeric>

#include "src/dsa/strip_transform.hpp"
#include "src/ufpp/lp_rounding.hpp"
#include "src/ufpp/strip_local_ratio.hpp"
#include "src/util/rng.hpp"

namespace sap {
namespace {

int floor_log2(Value v) {
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v))) - 1;
}

}  // namespace

SapSolution solve_small_tasks(const PathInstance& inst,
                              std::span<const TaskId> subset,
                              const SolverParams& params,
                              SmallTasksReport* report) {
  std::map<int, std::vector<TaskId>> octaves;
  for (TaskId j : subset) {
    octaves[floor_log2(inst.bottleneck(j))].push_back(j);
  }

  Rng rng(params.seed);
  SapSolution out;
  for (const auto& [t, group] : octaves) {
    params.deadline.check();  // per-octave: each UFPP strip is polynomial
    const Value big_b = Value{1} << t;
    const Value strip_height = big_b / 2;
    if (strip_height < 1) continue;  // cannot host any positive demand

    // Normalize: capacities above 2B are irrelevant to this octave
    // (Observation 2), so clamp before the per-strip UFPP step. In the top
    // octave 2 * big_b would be 2^63 and overflow, but every capacity is at
    // most kMaxExactCapacity, so saturating there keeps the clamp a no-op.
    const Value cap_clamp = big_b > kMaxExactCapacity / 2 ? kMaxExactCapacity
                                                          : 2 * big_b;
    auto [sub, back] = inst.clamp_capacities(cap_clamp, group);
    std::vector<TaskId> all(sub.num_tasks());
    std::iota(all.begin(), all.end(), TaskId{0});

    UfppSolution ufpp;
    // sapkit-lint: allow(float-ban) -- LP backend diagnostic for the report
    // struct only; the solver never reads it back.
    double lp_value = 0.0;
    if (params.small_backend == SmallTaskBackend::kLpRounding) {
      Rng strip_rng = rng.fork();
      const LpRoundingResult rounded =
          ufpp_lp_rounding_half_b(sub, all, big_b, {}, strip_rng);
      ufpp = rounded.solution;
      lp_value = rounded.lp_value;
    } else {
      ufpp = ufpp_strip_local_ratio(sub, all, big_b);
    }

    StripTransformResult strip = strip_transform(sub, ufpp, strip_height);
    strip.solution.lift(strip_height);  // octave t lives in [B/2, B)
    const SapSolution placed = strip.solution.remapped(back);
    out.placements.insert(out.placements.end(), placed.placements.begin(),
                          placed.placements.end());

    if (report != nullptr) {
      report->strips.push_back({t, group.size(), ufpp.weight(sub),
                                strip.kept_weight, strip.retention(),
                                lp_value});
    }
  }
  return out;
}

}  // namespace sap
