// Task classification of Theorem 4: delta-small ("small"), 1/k-large
// ("large") and everything in between ("medium": delta-large and
// (1-2*beta)-small once k = 1/(1-2*beta)), plus the bottleneck partitions
// the small and medium stages of both the SAP and the UFPP pipeline build
// on: Strip-Pack's octaves and AlmostUniform's bands with their residue
// classes.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <span>
#include <type_traits>
#include <vector>

#include "src/core/params.hpp"
#include "src/model/path_instance.hpp"
#include "src/model/solution.hpp"
#include "src/ufpp/lp_rounding.hpp"
#include "src/util/rng.hpp"

namespace sap {

struct TaskClasses {
  std::vector<TaskId> small;   ///< d_j <= delta * b(j)
  std::vector<TaskId> medium;  ///< delta-large and (1/k)-small
  std::vector<TaskId> large;   ///< d_j > b(j) / k
};

/// Splits all tasks of `inst` by the params' delta and k_large thresholds.
/// Every task lands in exactly one class.
[[nodiscard]] TaskClasses classify_tasks(const PathInstance& inst,
                                         const SolverParams& params);

/// floor(log2 v) for v >= 1.
[[nodiscard]] int floor_log2(Value v) noexcept;

/// min(2^(k+ell), kMaxExactCapacity) for k, ell >= 0: the height of band
/// [2^k, 2^(k+ell)). Saturating keeps it exact for any exponent, and the
/// cap is no clamp at all, since no capacity exceeds kMaxExactCapacity.
[[nodiscard]] Value band_capacity(int k, int ell) noexcept;

/// One octave t of Strip-Pack: the tasks with b(j) in [B, 2B), B = 2^t.
struct Octave {
  int t = 0;
  PathInstance sub;          ///< all octave tasks, capacities clamped at 2B
  std::vector<TaskId> back;  ///< sub task id -> inst task id
  LpRoundingResult packed;   ///< (B/2)-packable on sub; lp_value: LP only
};

/// Groups `subset` into bottleneck octaves t >= 1 (octave 0's strips have
/// height 1/2 and host nothing), packs each with params.small_backend and
/// hands it to `visit`, polling params.deadline per octave. Capacities above
/// 2B are irrelevant to an octave (Observation 2). The LP backend forks
/// `rng` per octave.
void for_each_octave(const PathInstance& inst, std::span<const TaskId> subset,
                     const SolverParams& params, Rng& rng,
                     const std::function<void(const Octave&)>& visit);

/// AlmostUniform: puts each task of `subset` into the ell overlapping bands
/// J^{k,ell} = { j : 2^k <= b(j) < 2^(k+ell) }, k >= 0, that contain it,
/// solves each band with `solve_band(k, members)`, and returns the heaviest
/// residue class of bands modulo `period` = ell + q: bands that far apart
/// stack feasibly (Lemma 8). Ties keep the smallest residue, stored in
/// `chosen_residue` when given. `deadline` is polled per task and residue.
template <class Solution, class SolveBand>
Solution stack_residue_classes(const PathInstance& inst,
                               std::span<const TaskId> subset, int ell,
                               int period, Deadline deadline,
                               SolveBand&& solve_band,
                               int* chosen_residue = nullptr) {
  DeadlineGate gate(deadline);
  std::map<int, std::vector<TaskId>> bands;
  for (TaskId j : subset) {
    gate.check();
    const int top = floor_log2(inst.bottleneck(j));
    for (int k = std::max(top - ell + 1, 0); k <= top; ++k) {
      bands[k].push_back(j);
    }
  }
  std::map<int, Solution> solved;
  for (const auto& [k, members] : bands) {
    solved.emplace(k, solve_band(k, std::span<const TaskId>(members)));
  }
  Solution best;
  Weight best_weight = -1;
  for (int r = 0; r < period; ++r) {
    gate.check();
    Solution combined;
    for (const auto& [k, sol] : solved) {
      if (k % period != r) continue;
      if constexpr (std::is_same_v<Solution, SapSolution>) {
        combined.placements.insert(combined.placements.end(),
                                   sol.placements.begin(),
                                   sol.placements.end());
      } else {
        combined.tasks.insert(combined.tasks.end(), sol.tasks.begin(),
                              sol.tasks.end());
      }
    }
    const Weight w = combined.weight(inst);
    if (w > best_weight) {
      best_weight = w;
      best = std::move(combined);
      if (chosen_residue != nullptr) *chosen_residue = r;
    }
  }
  return best;
}

}  // namespace sap
