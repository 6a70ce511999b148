// Solution value types for UFPP (task subsets) and SAP (subsets + heights),
// plus exact load/makespan accounting.
#pragma once

#include <span>
#include <vector>

#include "src/model/path_instance.hpp"
#include "src/model/task.hpp"

namespace sap {

/// A UFPP solution: a subset of task ids (order irrelevant, no duplicates).
struct UfppSolution {
  std::vector<TaskId> tasks;

  [[nodiscard]] Weight weight(const PathInstance& inst) const;
  [[nodiscard]] bool empty() const noexcept { return tasks.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return tasks.size(); }

  /// Remaps task ids through `back`, as SapSolution::remapped does.
  [[nodiscard]] UfppSolution remapped(std::span<const TaskId> back) const;
};

/// One placed task of a SAP solution: the task occupies the vertical range
/// [height, height + demand) on every edge it uses.
struct Placement {
  TaskId task = 0;
  Value height = 0;

  friend bool operator==(const Placement&, const Placement&) = default;
};

/// A SAP solution: placed tasks (order irrelevant, ids unique).
struct SapSolution {
  std::vector<Placement> placements;

  [[nodiscard]] Weight weight(const PathInstance& inst) const;
  [[nodiscard]] bool empty() const noexcept { return placements.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return placements.size(); }

  /// Adds `delta` to every height ("lifting" in Strip-Pack).
  void lift(Value delta);

  /// Forgets heights, yielding the induced UFPP solution.
  [[nodiscard]] UfppSolution to_ufpp() const;

  /// Remaps task ids through `back` (result of restrict_tasks /
  /// clamp_capacities), so a sub-instance solution refers to the original.
  [[nodiscard]] SapSolution remapped(std::span<const TaskId> back) const;
};

/// Per-edge load d(S(e)) of a task subset, exact, O(n + m).
[[nodiscard]] std::vector<Value> edge_loads(const PathInstance& inst,
                                            std::span<const TaskId> tasks);

/// max_e d(S(e)) (the LOAD of the task set).
[[nodiscard]] Value max_load(const PathInstance& inst,
                             std::span<const TaskId> tasks);

/// Per-edge makespan mu_h(S(e)) = max_{j in S(e)} (h(j)+d_j); 0 where empty.
[[nodiscard]] std::vector<Value> edge_makespans(const PathInstance& inst,
                                                const SapSolution& sol);

/// max_e mu_h(S(e)).
[[nodiscard]] Value max_makespan(const PathInstance& inst,
                                 const SapSolution& sol);

}  // namespace sap
