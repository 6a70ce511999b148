// The cooperative-cancellation contract (src/util/deadline.hpp): a deadline
// never changes *what* is computed, only *whether* the computation finishes
// — either the full deterministic answer or a typed timeout, never a
// partial result. These tests pin the Deadline/DeadlineGate semantics and
// the typed-timeout behaviour of every solver layer that honours them.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <vector>

#include "src/cert/ladder.hpp"
#include "src/core/rectangles.hpp"
#include "src/core/sap_solver.hpp"
#include "src/exact/brute_force.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/gen/generators.hpp"
#include "src/lp/simplex.hpp"
#include "src/sapu/sapu_solver.hpp"
#include "src/ufpp/branch_and_bound.hpp"
#include "src/util/deadline.hpp"
#include "src/util/rng.hpp"

namespace sap {
namespace {

/// A deadline that expired in the past: every gate check fires on its next
/// clock read, making timeout paths deterministic to test.
Deadline already_expired() {
  return Deadline::at(Deadline::Clock::now() - std::chrono::seconds(1));
}

/// Dense same-span heavy instances keep the profile DP frontier wide — the
/// adversarial shape the degradation ladder exists for.
PathInstance hard_instance(std::size_t tasks, std::uint64_t seed) {
  PathGenOptions opt;
  opt.num_edges = 12;
  opt.num_tasks = tasks;
  opt.min_capacity = 64;
  opt.max_capacity = 64;
  opt.mean_span_fraction = 0.8;
  Rng rng(seed);
  return generate_path_instance(opt, rng);
}

TEST(DeadlineTest, UnlimitedDeadlineNeverExpires) {
  const Deadline unlimited = Deadline::unlimited();
  EXPECT_FALSE(unlimited.has_deadline());
  EXPECT_FALSE(unlimited.expired());
  EXPECT_NO_THROW(unlimited.check());
  EXPECT_EQ(unlimited.remaining(), Deadline::Clock::duration::max());
}

TEST(DeadlineTest, ExpiredDeadlineReportsAndThrows) {
  const Deadline expired = already_expired();
  EXPECT_TRUE(expired.has_deadline());
  EXPECT_TRUE(expired.expired());
  EXPECT_THROW(expired.check(), DeadlineExceeded);
  EXPECT_EQ(expired.remaining_ms(), 0);
}

TEST(DeadlineTest, FutureDeadlineHasPositiveRemaining) {
  const Deadline soon = Deadline::after(std::chrono::hours(1));
  EXPECT_TRUE(soon.has_deadline());
  EXPECT_FALSE(soon.expired());
  EXPECT_GT(soon.remaining_ms(), 0);
  EXPECT_NO_THROW(soon.check());
}

TEST(DeadlineTest, MinPicksTheEarlierDeadline) {
  const Deadline early = Deadline::after_ms(1);
  const Deadline late = Deadline::after(std::chrono::hours(1));
  EXPECT_EQ(early.min(late).when(), early.when());
  EXPECT_EQ(late.min(early).when(), early.when());
  // Unlimited is the identity element on both sides.
  EXPECT_EQ(Deadline::unlimited().min(early).when(), early.when());
  EXPECT_EQ(early.min(Deadline::unlimited()).when(), early.when());
  EXPECT_FALSE(Deadline::unlimited().min(Deadline::unlimited()).has_deadline());
}

TEST(DeadlineTest, BudgetBeyondClockRangeIsUnlimited) {
  // ms -> clock ticks would overflow int64 (UB); such a budget saturates to
  // unlimited instead of wrapping into one already expired.
  for (const Deadline d :
       {Deadline::after_ms(std::numeric_limits<std::int64_t>::max()),
        Deadline::after(Deadline::Clock::duration::max())}) {
    EXPECT_FALSE(d.has_deadline());
    EXPECT_FALSE(d.expired());
  }
  // A long but representable budget stays a real deadline.
  const Deadline century = Deadline::after(std::chrono::hours(24 * 36525));
  EXPECT_TRUE(century.has_deadline());
  EXPECT_FALSE(century.expired());
  // Negative budgets, however large, are already expired.
  for (const Deadline d :
       {Deadline::after_ms(-5),
        Deadline::after_ms(std::numeric_limits<std::int64_t>::min()),
        Deadline::after(Deadline::Clock::duration::min())}) {
    EXPECT_TRUE(d.has_deadline());
    EXPECT_TRUE(d.expired());
  }
}

TEST(DeadlineGateTest, GateLatchesOnceExpired) {
  DeadlineGate gate(already_expired(), /*stride=*/1);
  EXPECT_TRUE(gate.expired());
  EXPECT_TRUE(gate.expired());  // latched, no further clock reads needed
  EXPECT_THROW(gate.check(), DeadlineExceeded);
}

TEST(DeadlineGateTest, GateOnUnlimitedDeadlineIsFree) {
  DeadlineGate gate(Deadline::unlimited());
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_FALSE(gate.expired());
  }
}

TEST(DeadlineGateTest, StrideAmortizesClockReadsButStillFires) {
  DeadlineGate gate(already_expired(), /*stride=*/64);
  // The first call always reads the clock; an expired deadline is detected
  // immediately, not after `stride` calls.
  EXPECT_TRUE(gate.expired());
}

TEST(DeadlineSolverTest, ProfileDpReturnsTypedTimeoutNotPartialAnswer) {
  const PathInstance inst = hard_instance(20, 7);
  SapExactOptions options;
  options.deadline = already_expired();
  const SapExactResult result = sap_exact_profile_dp(inst, options);
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_TRUE(result.solution.placements.empty());
}

TEST(DeadlineSolverTest, ProfileDpWithGenerousDeadlineMatchesUnlimited) {
  const PathInstance inst = hard_instance(10, 11);
  SapExactOptions generous;
  generous.deadline = Deadline::after(std::chrono::hours(1));
  const SapExactResult with = sap_exact_profile_dp(inst, generous);
  const SapExactResult without = sap_exact_profile_dp(inst, SapExactOptions{});
  ASSERT_FALSE(with.timed_out);
  // Determinism: a non-binding deadline changes nothing.
  EXPECT_EQ(with.weight, without.weight);
  EXPECT_EQ(with.solution.placements.size(),
            without.solution.placements.size());
}

TEST(DeadlineSolverTest, BruteForceThrowsTypedExceptionOnExpiry) {
  const PathInstance inst = hard_instance(12, 3);
  EXPECT_THROW((void)sap_brute_force(inst, already_expired()),
               DeadlineExceeded);
}

TEST(DeadlineSolverTest, UfppBranchAndBoundReturnsTypedTimeout) {
  PathGenOptions opt;
  opt.num_edges = 10;
  opt.num_tasks = 18;
  Rng rng(5);
  const PathInstance inst = generate_path_instance(opt, rng);
  UfppExactOptions options;
  options.deadline = already_expired();
  const UfppExactResult result = ufpp_exact(inst, options);
  EXPECT_TRUE(result.timed_out);
  EXPECT_TRUE(result.solution.tasks.empty());
}

TEST(DeadlineSolverTest, SimplexReturnsTimeoutStatus) {
  // maximize x + y subject to x + y <= 1, x, y >= 0.
  LpProblem lp;
  lp.objective = {1.0, 1.0};
  lp.constraints = {{{1.0, 1.0}, LpRelation::kLessEqual, 1.0}};
  const LpSolution expired = solve_lp(lp, already_expired());
  EXPECT_EQ(expired.status, LpStatus::kTimeout);
  const LpSolution fine =
      solve_lp(lp, Deadline::after(std::chrono::hours(1)));
  EXPECT_EQ(fine.status, LpStatus::kOptimal);
  EXPECT_NEAR(fine.objective, 1.0, 1e-9);
}

TEST(DeadlineSolverTest, RectangleMwisReturnsTypedTimeout) {
  std::vector<TaskRect> rects;
  for (int i = 0; i < 12; ++i) {
    TaskRect rect;
    rect.task = static_cast<TaskId>(i);
    rect.first = static_cast<EdgeId>(i % 4);
    rect.last = static_cast<EdgeId>(i % 4 + 2);
    rect.bottom = 0;
    rect.top = 4;
    rect.weight = 1 + i;
    rects.push_back(rect);
  }
  RectMwisOptions options;
  options.deadline = already_expired();
  const RectMwisResult result = rectangle_mwis(rects, options);
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_TRUE(result.chosen.empty());
}

TEST(DeadlineSolverTest, FullPipelineThrowsTypedExceptionNeverPartial) {
  const PathInstance inst = hard_instance(16, 13);
  SolverParams params;
  params.deadline = already_expired();
  EXPECT_THROW((void)solve_sap(inst, params), DeadlineExceeded);
}

TEST(DeadlineSolverTest, SapUniformThrowsTypedExceptionNeverPartial) {
  const PathInstance inst = hard_instance(16, 13);
  EXPECT_THROW((void)solve_sap_uniform(inst, {.deadline = already_expired()}),
               DeadlineExceeded);
  const SapSolution plain = solve_sap_uniform(inst);
  const SapSolution budgeted = solve_sap_uniform(
      inst, {.deadline = Deadline::after(std::chrono::hours(1))});
  EXPECT_EQ(plain.placements, budgeted.placements);
}

TEST(DeadlineSolverTest, FullPipelineWithGenerousDeadlineIsDeterministic) {
  const PathInstance inst = hard_instance(16, 17);
  SolverParams plain;
  SolverParams budgeted;
  budgeted.deadline = Deadline::after(std::chrono::hours(1));
  const SapSolution a = solve_sap(inst, plain);
  const SapSolution b = solve_sap(inst, budgeted);
  EXPECT_EQ(a.weight(inst), b.weight(inst));
  EXPECT_EQ(a.placements.size(), b.placements.size());
}

TEST(DeadlineLadderTest, TimedOutRungsFallThroughToTotalWeight) {
  const PathInstance inst = hard_instance(14, 19);
  cert::LadderOptions options;
  options.deadline = already_expired();
  const cert::LadderResult ladder = cert::run_upper_bound_ladder(inst, options);
  // The ladder still proves a bound: total_weight is instant and can never
  // time out, so a deadline degrades the bound rather than losing it.
  ASSERT_TRUE(ladder.proven);
  EXPECT_EQ(ladder.best.rung, cert::UbRung::kTotalWeight);
  bool any_timed_out = false;
  for (const cert::LadderRungAttempt& attempt : ladder.attempts) {
    any_timed_out = any_timed_out || attempt.timed_out;
  }
  EXPECT_TRUE(any_timed_out);
}

}  // namespace
}  // namespace sap
