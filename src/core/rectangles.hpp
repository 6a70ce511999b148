// Section 6 substrate: the reduction from large-task SAP/UFPP to maximum-
// weight independent set of "anchored" rectangles, plus the smallest-last
// degeneracy coloring used in the (2k-1) analysis (Lemma 17) and an exact
// MWIS solver (the Theorem 7 substitute, see DESIGN.md).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/model/path_instance.hpp"
#include "src/model/solution.hpp"
#include "src/util/deadline.hpp"

namespace sap {

/// R(j) = [s_j, t_j) x [b(j) - d_j, b(j)): the rectangle induced by placing
/// task j at its residual capacity l(j) = b(j) - d_j.
struct TaskRect {
  TaskId task = 0;
  EdgeId first = 0;   ///< first edge covered
  EdgeId last = 0;    ///< last edge covered (inclusive)
  Value bottom = 0;   ///< l(j)
  Value top = 0;      ///< b(j)
  Weight weight = 0;

  [[nodiscard]] bool intersects(const TaskRect& o) const noexcept {
    return first <= o.last && o.first <= last && bottom < o.top &&
           o.bottom < top;
  }
};

/// Builds R(j) for every task in `subset`.
[[nodiscard]] std::vector<TaskRect> task_rectangles(
    const PathInstance& inst, std::span<const TaskId> subset);

/// Builds the rectangles induced by an arbitrary SAP solution (each task at
/// its assigned height instead of its residual capacity).
[[nodiscard]] std::vector<TaskRect> solution_rectangles(
    const PathInstance& inst, const SapSolution& sol);

struct ColoringResult {
  std::vector<int> color;  ///< per rectangle, 0-based
  int num_colors = 0;
  int degeneracy = 0;      ///< max over the smallest-last elimination order
};

/// Smallest-last (Matula–Beck) greedy coloring of the rectangle
/// intersection graph; uses degeneracy+1 colors.
[[nodiscard]] ColoringResult smallest_last_coloring(
    std::span<const TaskRect> rects);

struct RectMwisOptions {
  std::size_t max_nodes = 5'000'000;
  /// Cooperative cancellation: expiry stops the search and the result is a
  /// typed timeout (`timed_out`, empty selection) — never the incumbent.
  Deadline deadline{};
};

struct RectMwisResult {
  std::vector<std::size_t> chosen;  ///< indices into the rectangle span
  Weight weight = 0;
  bool proven_optimal = true;
  bool timed_out = false;  ///< deadline expired: `chosen` is empty
  std::size_t nodes = 0;
};

/// Exact maximum-weight independent set of the rectangle intersection graph
/// by branch-and-bound with a greedy clique-cover bound. Falls back to the
/// best incumbent (proven_optimal = false) if the node budget trips.
[[nodiscard]] RectMwisResult rectangle_mwis(std::span<const TaskRect> rects,
                                            const RectMwisOptions& options = {});

}  // namespace sap
