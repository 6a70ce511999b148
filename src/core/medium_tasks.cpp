#include "src/core/medium_tasks.hpp"

#include <bit>
#include <map>

#include "src/exact/profile_dp.hpp"

namespace sap {
namespace {

int floor_log2(Value v) {
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v))) - 1;
}

/// ceil(beta * 2^k) computed exactly.
Value elevation_floor(Ratio beta, int k) {
  const Int128 num = static_cast<Int128>(beta.num) << k;
  return static_cast<Value>((num + beta.den - 1) / beta.den);
}

}  // namespace

SapSolution elevator(const PathInstance& inst, std::span<const TaskId> band,
                     int k, int ell, const SolverParams& params, bool* exact) {
  const Value band_cap = Value{1} << (k + ell);
  auto [sub, back] = inst.clamp_capacities(band_cap, band);

  SapExactOptions dp;
  dp.min_height = elevation_floor(params.beta, k);
  dp.deadline = params.deadline;
  dp.grounded_only = band_cap > params.medium_exact_capacity_limit;
  const SapExactResult result = sap_exact_profile_dp(sub, dp);
  if (result.timed_out) throw DeadlineExceeded("medium elevator DP");
  if (exact != nullptr) *exact = result.proven_optimal;
  return result.solution.remapped(back);
}

SapSolution elevator_lemma14(const PathInstance& inst,
                             std::span<const TaskId> band, int k, int ell,
                             const SolverParams& params, bool* exact,
                             std::size_t* dropped) {
  const Value band_cap = Value{1} << (k + ell);
  auto [sub, back] = inst.clamp_capacities(band_cap, band);

  SapExactOptions dp;
  dp.deadline = params.deadline;
  dp.grounded_only = band_cap > params.medium_exact_capacity_limit;
  const SapExactResult result = sap_exact_profile_dp(sub, dp);
  if (result.timed_out) throw DeadlineExceeded("medium elevator DP");
  if (exact != nullptr) *exact = result.proven_optimal;

  // Lemma 14: S1 = tasks below the elevation line (lifted), S2 = the rest.
  const Value lift = elevation_floor(params.beta, k);
  SapSolution low;
  SapSolution high;
  std::size_t casualties = 0;
  for (const Placement& p : result.solution.placements) {
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

  // Build the overlapping bands: task j belongs to J^{k,ell} for every k in
  // (log2 b(j) - ell, log2 b(j)] — exactly ell bands.
  std::map<int, std::vector<TaskId>> bands;
  for (TaskId j : subset) {
    const int top = floor_log2(inst.bottleneck(j));
    for (int k = top - ell + 1; k <= top; ++k) {
      if (k >= 0) bands[k].push_back(j);
    }
  }

  std::map<int, SapSolution> band_solutions;
  for (const auto& [k, members] : bands) {
    params.deadline.check();
    bool exact = true;
    std::size_t dropped = 0;
    SapSolution sol =
        params.elevator_mode == static_cast<int>(ElevatorMode::kLemma14Split)
            ? elevator_lemma14(inst, members, k, ell, params, &exact,
                               &dropped)
            : elevator(inst, members, k, ell, params, &exact);
    if (report != nullptr) {
      report->bands.push_back(
          {k, members.size(), sol.weight(inst), exact, dropped});
    }
    band_solutions.emplace(k, std::move(sol));
  }

  // Residue classes: bands spaced ell+q apart stack feasibly (Lemma 8).
  const int period = ell + q;
  SapSolution best;
  Weight best_weight = -1;
  int best_r = 0;
  for (int r = 0; r < period; ++r) {
    SapSolution combined;
    for (const auto& [k, sol] : band_solutions) {
      if ((k % period + period) % period != r) continue;
      combined.placements.insert(combined.placements.end(),
                                 sol.placements.begin(),
                                 sol.placements.end());
    }
    const Weight w = combined.weight(inst);
    if (w > best_weight) {
      best_weight = w;
      best = std::move(combined);
      best_r = r;
    }
  }
  if (report != nullptr) report->chosen_residue = best_r;
  return best;
}

}  // namespace sap
