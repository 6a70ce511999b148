// Tunable parameters of the full (9+eps)-approximation pipeline
// (Theorem 4: k = 2, beta = 1/4, delta chosen from eps).
#pragma once

#include <cstdint>

#include "src/model/task.hpp"
#include "src/util/deadline.hpp"

namespace sap {

/// Capacity above which a profile DP falls back to the grounded-heights
/// heuristic: the default for SolverParams::medium_exact_capacity_limit and
/// the SAP-U large-task DP's switch.
inline constexpr Value kExactCapacityLimit = 512;

/// Backend choice for the per-strip UFPP step of the small-task pipeline.
enum class SmallTaskBackend {
  kLpRounding,  ///< Section 4.1: LP + quarter scaling + rounding, (4+eps)
  kLocalRatio,  ///< Appendix Algorithm 3 (Strip), deterministic, (5+eps)
};

struct SolverParams {
  /// Approximation slack. Drives delta (small threshold) and ell (medium
  /// framework window width).
  // sapkit-lint: allow(float-ban) -- tuning knob consumed only by the
  // integer parameter derivation in params.cpp; never mixes with quantities.
  double eps = 0.5;

  /// Tasks with d_j <= delta * b(j) are "small" (Theorem 1 pipeline). The
  /// paper picks delta <= eps/100 for the analysis; that makes almost no
  /// task "small" at practical sizes, so the default follows the
  /// structural requirement delta < 1 - 2*beta = 1/2 instead and the
  /// benches measure the resulting ratios.
  Ratio delta{1, 4};

  /// Elevation fraction beta for the medium framework (Theorem 4: 1/4).
  Ratio beta{1, 4};

  /// Tasks with d_j > b(j)/k_large are "large" (Theorem 4: k = 2).
  std::int64_t k_large = 2;

  /// Window width ell of AlmostUniform; 0 = derive from eps as
  /// ceil(q / eps) with q = ceil(log2(1/beta)) (Lemma 10).
  int ell = 0;

  SmallTaskBackend small_backend = SmallTaskBackend::kLocalRatio;

  /// Elevator backend: 0 = direct floored DP (default), 1 = the paper's
  /// Lemma-14 split of an unconstrained optimum. (Kept as an int to avoid a
  /// header cycle; matches ElevatorMode's enumerator order.)
  int elevator_mode = 0;

  /// Bands taller than this run the medium DP with the grounded-heights
  /// heuristic (keeps runtime polynomial-ish at the cost of exactness
  /// inside each class).
  Value medium_exact_capacity_limit = kExactCapacityLimit;

  /// Node budget for the large-task rectangle MWIS branch-and-bound.
  std::size_t large_max_nodes = 5'000'000;

  /// Seed for every randomized component.
  std::uint64_t seed = 0x54F2013ULL;

  /// Cooperative solve budget. Checked between pipeline stages and threaded
  /// into every expensive inner oracle (medium DP, large-task MWIS); expiry
  /// aborts the solve with a thrown DeadlineExceeded — the pipeline never
  /// returns a partial solution. Default: unlimited.
  Deadline deadline{};

  /// q = ceil(log2(1/beta)) used by the medium framework.
  [[nodiscard]] int beta_q() const noexcept;
  /// Effective ell (resolving the 0 = auto rule).
  [[nodiscard]] int effective_ell() const noexcept;

  /// Throws std::invalid_argument when the parameters violate the
  /// theorems' preconditions (eps > 0, 0 < delta < 1 - 2*beta,
  /// beta in (0, 1/2), k >= 2).
  void validate() const;
};

}  // namespace sap
