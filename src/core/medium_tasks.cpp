#include "src/core/medium_tasks.hpp"

#include "src/core/classify.hpp"
#include "src/exact/profile_dp.hpp"

namespace sap {
namespace {

/// ceil(beta * 2^k) computed exactly.
Value elevation_floor(Ratio beta, int k) {
  const Int128 num = static_cast<Int128>(beta.num) << k;
  return static_cast<Value>((num + beta.den - 1) / beta.den);
}

/// The profile DP on a band's clamped sub-instance, heights floored at
/// `min_height`; bands taller than medium_exact_capacity_limit run it
/// grounded.
SapSolution band_dp(const PathInstance& sub, Value band_cap, Value min_height,
                    const SolverParams& params, bool* exact) {
  SapExactOptions dp;
  dp.min_height = min_height;
  dp.deadline = params.deadline;
  dp.grounded_only = band_cap > params.medium_exact_capacity_limit;
  SapExactResult result = sap_exact_profile_dp(sub, dp);
  if (result.timed_out) throw DeadlineExceeded("medium elevator DP");
  if (exact != nullptr) *exact = result.proven_optimal;
  return std::move(result.solution);
}

}  // namespace

SapSolution elevator(const PathInstance& inst, std::span<const TaskId> band,
                     int k, int ell, const SolverParams& params, bool* exact) {
  const Value band_cap = band_capacity(k, ell);
  auto [sub, back] = inst.clamp_capacities(band_cap, band);
  return band_dp(sub, band_cap, elevation_floor(params.beta, k), params, exact)
      .remapped(back);
}

SapSolution elevator_lemma14(const PathInstance& inst,
                             std::span<const TaskId> band, int k, int ell,
                             const SolverParams& params, bool* exact,
                             std::size_t* dropped) {
  const Value band_cap = band_capacity(k, ell);
  auto [sub, back] = inst.clamp_capacities(band_cap, band);
  const SapSolution optimum = band_dp(sub, band_cap, 0, params, exact);

  // Lemma 14: S1 = tasks below the elevation line (lifted), S2 = the rest.
  const Value lift = elevation_floor(params.beta, k);
  SapSolution low;
  SapSolution high;
  std::size_t casualties = 0;
  for (const Placement& p : optimum.placements) {
    if (params.beta.lt_scaled(p.height, Value{1} << k)) {
      // Lifting by ceil(beta * 2^k) is safe by inequality (2) up to the
      // integral rounding of the lift; drop the rare boundary violators.
      // sapkit-lint: begin-allow(exact-arith) -- h + lift <= 2 * bottleneck
      // and lifted + d <= 2 * bottleneck (the guard drops violators), with
      // bottleneck <= capacity <= 2^62: both pairwise sums are exact int64.
      const Value lifted = p.height + lift;
      if (lifted + sub.task(p.task).demand <= sub.bottleneck(p.task)) {
        // sapkit-lint: end-allow(exact-arith)
        low.placements.push_back({p.task, lifted});
      } else {
        ++casualties;
      }
    } else {
      high.placements.push_back({p.task, p.height});
    }
  }
  if (dropped != nullptr) *dropped = casualties;
  const SapSolution& better =
      low.weight(sub) >= high.weight(sub) ? low : high;
  return better.remapped(back);
}

SapSolution solve_medium_tasks(const PathInstance& inst,
                               std::span<const TaskId> subset,
                               const SolverParams& params,
                               MediumTasksReport* report) {
  const int ell = params.effective_ell();
  const int q = params.beta_q();
  if (report != nullptr) {
    report->ell = ell;
    report->q = q;
  }

  // The SAP stage polls once per band, not per task or residue.
  return stack_residue_classes<SapSolution>(
      inst, subset, ell, ell + q, Deadline::unlimited(),
      [&](int k, std::span<const TaskId> members) {
        params.deadline.check();
        bool exact = true;
        std::size_t dropped = 0;
        SapSolution sol =
            params.elevator_mode ==
                    static_cast<int>(ElevatorMode::kLemma14Split)
                ? elevator_lemma14(inst, members, k, ell, params, &exact,
                                   &dropped)
                : elevator(inst, members, k, ell, params, &exact);
        if (report != nullptr) {
          report->bands.push_back(
              {k, members.size(), sol.weight(inst), exact, dropped});
        }
        return sol;
      },
      report != nullptr ? &report->chosen_residue : nullptr);
}

}  // namespace sap
