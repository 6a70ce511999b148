// Exact oracle for Round-UFP / Round-SAP round counts, for differential
// testing of the approximation pipelines on tiny instances.
//
// Branch and bound over round counts: the first-fit approximation supplies
// a valid upper bound R_ff (and its assignment), round_lower_bound supplies
// LB; for each k = LB .. R_ff - 1 in ascending order a DFS assigns tasks
// (left-endpoint order, symmetry-broken: a task may only open round
// used + 1) to at most k rounds under an incremental per-edge load check —
// necessary for both variants. For Round-SAP each extension additionally
// probes the grown round through sap_exact_profile_dp on a unit-weight twin
// of the instance (a round's task set is SAP-feasible iff the max-weight
// placement takes every member); SAP feasibility is subset-monotone, so
// probing at every extension is a sound prune. Probe verdicts are memoized
// by round task-bitmask (n <= 64) — feasibility depends on the set only.
//
// The first k that admits an assignment is optimal; if none does, the
// approximation was already optimal. Trust accounting: a beam-truncated
// (non-proven) probe that reports infeasible may prune a real solution, so
// it clears `proven_optimal` while keeping the returned assignment valid;
// the DFS node budget (1e6 across all tried round counts) does the same.
// Probes run with a 200000-state beam; scratch comes from the calling
// thread's arena. The deadline mirrors SapExactResult
// semantics: `timed_out` with an empty assignment, never a partial answer.
#pragma once

#include <cstdint>

#include "src/model/path_instance.hpp"
#include "src/round/solution.hpp"
#include "src/util/deadline.hpp"

namespace sap::round {

struct RoundExactOptions {
  /// Cooperative cancellation; expiry yields `timed_out`, empty assignment.
  Deadline deadline{};
};

struct RoundExactResult {
  RoundAssignment assignment;
  /// assignment.num_rounds() as a Value, for ratio arithmetic.
  Value rounds = 0;
  /// True iff `rounds` is the certified optimum (no budget truncation and
  /// no untrusted probe verdict influenced the search).
  bool proven_optimal = false;
  /// Deadline expired: assignment is empty and rounds is 0.
  bool timed_out = false;
  /// DFS nodes expanded (0 when the bounds already met).
  std::uint64_t nodes = 0;
};

[[nodiscard]] RoundExactResult solve_round_exact(
    const PathInstance& inst, RoundKind kind,
    const RoundExactOptions& options = {});

}  // namespace sap::round
