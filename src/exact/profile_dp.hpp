// Exact SAP on paths by an edge-sweep dynamic program over vertical
// "profiles", in the style of Chen, Hassin, Tzur [18] (O(n (nK)^K) for
// integer capacity K) and of the paper's Lemma 13 DP.
//
// A state after edge e is the canonical multiset of (height, demand,
// lifetime) slots of the selected tasks that cross into e + 1; integral
// heights are WLOG for integral demands (gravity, Observation 11). States are
// merged by this crossing profile (task identity beyond (height, demand,
// lifetime) is irrelevant to future feasibility, and a slot whose lifetime
// ends at e is irrelevant from e + 1 on), keeping the maximum accumulated
// weight. Every height h of a task j satisfies h + d_j <= b(j), its
// bottleneck, so a placement is feasible on its whole span the moment it is
// made. That is also why a slot's lifetime is cut to the last edge of its
// span at which a task of the subset starts: every overlap is checked where
// the later task starts, so past that edge the slot blocks nothing, and
// partial solutions that differ only there merge. Edges where no task starts
// are skipped.
//
// This is the exact oracle behind the medium-task Elevator (Lemma 13) and
// behind every measured-approximation-ratio bench. The certificate ladder
// runs it in prove-or-stop mode with a prune floor and a per-edge suffix
// bound (see SapExactOptions and docs/ALGORITHMS.md).
#pragma once

#include <cstddef>
#include <span>

#include "src/model/path_instance.hpp"
#include "src/model/solution.hpp"
#include "src/util/deadline.hpp"

namespace sap {

struct SapExactOptions {
  /// Beam cap on live states per edge; exceeding it truncates to the best
  /// states and clears `proven_optimal`.
  std::size_t max_states = 500'000;
  /// Every placement must satisfy height >= min_height: used by the medium-
  /// task Elevator to compute optimal beta-elevated solutions directly (the
  /// paper's remark after Lemma 15).
  Value min_height = 0;
  /// Heuristic mode: restrict candidate heights to min_height and the tops
  /// of tasks currently alive. Exponentially faster on tall instances but
  /// no longer exact (clears proven_optimal); misses solutions in which a
  /// task rests on a later-starting task.
  bool grounded_only = false;
  /// Cooperative cancellation: once this expires the sweep stops and the
  /// result is a typed timeout (`timed_out`, empty solution) — never a
  /// partial answer. Default: unlimited.
  Deadline deadline{};
  /// Pruned prove-or-stop mode, active when suffix_bound is non-empty.
  /// `floor` is at least 0 and at most OPT (the weight of a known feasible
  /// solution); suffix_bound[k] (num_edges + 1 entries, each >= 0) bounds
  /// the weight of any feasible set of tasks that start at edge k or later.
  /// A state emitted at edge e whose weight plus suffix_bound[e + 1] is at
  /// most `floor` cannot beat the floor and is dropped. At the first edge
  /// whose frontier exceeds max_states the sweep gives up instead of
  /// truncating: the result is unproven, with weight 0 and no solution, the
  /// overflow brake trips at max_states (not 4 * max_states), and no later
  /// edge is swept. A completed sweep proves max(floor, best state); when
  /// the floor wins, the solution is empty (the caller holds the solution
  /// that reaches it).
  Weight floor = 0;
  std::span<const Weight> suffix_bound{};
};

struct SapExactResult {
  SapSolution solution;
  Weight weight = 0;
  bool proven_optimal = true;   ///< false iff the beam cap truncated (or
                                ///< stopped) the sweep, or grounded_only
  bool timed_out = false;       ///< deadline expired: solution is empty
  std::size_t peak_states = 0;  ///< max live states over the sweep
};

/// Maximum-weight SAP solution over `subset` (exact unless the beam cap
/// trips, in which case the result is still feasible and a lower bound, or
/// empty in the pruned prove-or-stop mode).
/// Throws std::invalid_argument on a suffix_bound of the wrong size or with
/// a negative entry, or on a negative floor.
[[nodiscard]] SapExactResult sap_exact_profile_dp(
    const PathInstance& inst, std::span<const TaskId> subset,
    const SapExactOptions& options = {});

[[nodiscard]] SapExactResult sap_exact_profile_dp(
    const PathInstance& inst, const SapExactOptions& options = {});

}  // namespace sap
