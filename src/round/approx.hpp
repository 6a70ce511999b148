// Kar–Khan-style approximation pipelines for Round-UFP and Round-SAP:
// classify-and-pack first-fit over the existing single-round substrates.
//
// Round-UFP (classify-and-pack):
//   Tasks are split into *small* (2 d_j <= b(j)) and *large* (the rest) and
//   each class is packed by first fit in left-endpoint order into its own
//   pool of rounds, with exact per-edge load feasibility. Under uniform
//   capacity c (which implies the no-bottleneck assumption) this is a
//   proven 3-approximation:
//    - Smalls: when task j opens round R+1, every round r <= R is load-
//      blocked at some edge e in I_j, i.e. load_r(e) > c - d_j >= c/2.
//      Every task contributing to load_r(e) started at or before s_j and
//      ends at or after e >= s_j, so it is alive at s_j and
//      load_r(s_j) >= load_r(e) > c/2. Summing over rounds,
//      LOAD(s_j) > R c / 2, while OPT >= ceil(LOAD(s_j)/c), so the smalls
//      use at most 2 OPT rounds.
//    - Larges: two overlapping larges have d_i + d_j > c and can never
//      share a round, so the larges form an interval graph whose clique
//      number w_L lower-bounds OPT; first fit in left-endpoint order
//      colours an interval graph with exactly w_L colours, and the load
//      check reduces to exactly that conflict test. R_large = w_L <= OPT.
//   General capacities: the packing is always valid (verified), and the
//   factor is measured empirically by the ratio harness — Round-UFP
//   without the no-bottleneck assumption has super-constant hardness, so
//   no constant is claimed there.
//
// Round-SAP:
//   Larges (2 d_j > b(j)): first fit in left-endpoint order with an exact
//   lowest-feasible-height probe per round. Under uniform capacity this
//   degenerates to the interval colouring above (R_large = w_L <= OPT).
//   Smalls (2 d_j <= b(j)): two arms, keep whichever uses fewer rounds —
//    - profiled first fit: same left-endpoint first fit, placing each task
//      at the lowest feasible height of the first round that has one.
//      Under uniform capacity with demands drawn from one power-of-two
//      class (d in (2^{i-1}, 2^i]) this is a proven O(1): when j opens
//      round R+1, every height y = k d_j (k = 0..K-1, K >= c/(2 d_j)
//      disjoint windows of height d_j) is blocked in every round, every
//      blocker is alive at s_j (left-endpoint order, as above), a blocker
//      spans at most 3 disjoint windows (d_b < 2 d_j), and each blocker
//      carries d_b > d_j / 2 — so load_r(s_j) > (K/3)(d_j/2) >= c/12 and
//      R_small <= 12 OPT; the bound asserted by the differential tests is
//      the combined 13 OPT. Mixed classes are valid-but-measured (the
//      class-mixing loss is exactly what makes the source paper hard).
//    - slab cut: dsa_pack_portfolio packs the d <= floor(c_min/2) subset
//      into an unbounded strip; cutting the strip at multiples of
//      s = floor(c_min/2) and rebasing each task against the slab holding
//      its bottom yields rounds of height < 2 s <= c_min <= c_e, each a
//      feasible SAP round. Smalls too tall for a slab (possible only under
//      non-uniform capacities) are first-fitted into extra rounds.
//
// Both entry points take the house Deadline/Arena contract: expiry throws
// DeadlineExceeded (never a partial answer), scratch comes from the calling
// thread's arena and is rewound on return.
#pragma once

#include "src/model/path_instance.hpp"
#include "src/round/solution.hpp"
#include "src/util/deadline.hpp"

namespace sap::round {

struct RoundApproxOptions {
  /// Cooperative budget; checked at per-task/per-round probe granularity.
  Deadline deadline{};
  /// Round-SAP only: run the DSA slab arm alongside profiled first fit and
  /// keep the better packing. Off = first fit only (the cheap pipeline the
  /// server's deadline degradation uses).
  bool portfolio = true;
};

struct RoundApproxReport {
  std::size_t small_rounds = 0;
  std::size_t large_rounds = 0;
  Value lower_bound = 0;      ///< round_lower_bound(inst)
  bool slab_arm_won = false;  ///< Round-SAP: the slab arm beat first fit
};

[[nodiscard]] RoundAssignment solve_round_ufp_approx(
    const PathInstance& inst, const RoundApproxOptions& options = {},
    RoundApproxReport* report = nullptr);

[[nodiscard]] RoundAssignment solve_round_sap_approx(
    const PathInstance& inst, const RoundApproxOptions& options = {},
    RoundApproxReport* report = nullptr);

}  // namespace sap::round
