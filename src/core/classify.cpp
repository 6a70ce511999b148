#include "src/core/classify.hpp"

#include <bit>
#include <numeric>
#include <tuple>

#include "src/ufpp/strip_local_ratio.hpp"

namespace sap {

TaskClasses classify_tasks(const PathInstance& inst,
                           const SolverParams& params) {
  TaskClasses out;
  const Ratio large_threshold{1, params.k_large};
  for (std::size_t j = 0; j < inst.num_tasks(); ++j) {
    const auto id = static_cast<TaskId>(j);
    if (inst.is_small(id, params.delta)) {
      out.small.push_back(id);
    } else if (inst.is_large(id, large_threshold)) {
      out.large.push_back(id);
    } else {
      out.medium.push_back(id);
    }
  }
  return out;
}

int floor_log2(Value v) noexcept {
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v))) - 1;
}

Value band_capacity(int k, int ell) noexcept {
  return k + ell >= floor_log2(kMaxExactCapacity) ? kMaxExactCapacity
                                                 : Value{1} << (k + ell);
}

void for_each_octave(const PathInstance& inst, std::span<const TaskId> subset,
                     const SolverParams& params, Rng& rng,
                     const std::function<void(const Octave&)>& visit) {
  std::map<int, std::vector<TaskId>> groups;
  for (TaskId j : subset) {
    groups[floor_log2(inst.bottleneck(j))].push_back(j);
  }
  for (const auto& [t, group] : groups) {
    params.deadline.check();  // per octave: each UFPP strip is polynomial
    if (t == 0) continue;
    const Value big_b = Value{1} << t;
    Octave o{t, {}, {}, {}};
    std::tie(o.sub, o.back) =
        inst.clamp_capacities(band_capacity(t, 1), group);
    std::vector<TaskId> all(o.sub.num_tasks());
    std::iota(all.begin(), all.end(), TaskId{0});
    if (params.small_backend == SmallTaskBackend::kLpRounding) {
      Rng octave_rng = rng.fork();
      o.packed = ufpp_lp_rounding_half_b(o.sub, all, big_b, {}, octave_rng);
    } else {
      o.packed.solution = ufpp_strip_local_ratio(o.sub, all, big_b);
    }
    visit(o);
  }
}

}  // namespace sap
