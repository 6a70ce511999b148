// End-to-end tests of the full (9+eps) SAP pipeline (Theorem 4).
#include <gtest/gtest.h>

#include <numeric>

#include "src/core/classify.hpp"
#include "src/core/sap_solver.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/gen/generators.hpp"
#include "src/harness/ratio_harness.hpp"
#include "src/model/verify.hpp"

namespace sap {
namespace {

TEST(ClassifyTest, PartitionIsExhaustiveAndDisjoint) {
  Rng rng(199);
  PathGenOptions opt;
  opt.num_edges = 12;
  opt.num_tasks = 40;
  const PathInstance inst = generate_path_instance(opt, rng);
  SolverParams params;
  const TaskClasses classes = classify_tasks(inst, params);
  std::vector<int> count(inst.num_tasks(), 0);
  for (TaskId j : classes.small) ++count[static_cast<std::size_t>(j)];
  for (TaskId j : classes.medium) ++count[static_cast<std::size_t>(j)];
  for (TaskId j : classes.large) ++count[static_cast<std::size_t>(j)];
  for (int c : count) EXPECT_EQ(c, 1);
  // Class membership matches the thresholds.
  for (TaskId j : classes.small) {
    EXPECT_TRUE(inst.is_small(j, params.delta));
  }
  for (TaskId j : classes.large) {
    EXPECT_TRUE(inst.is_large(j, Ratio{1, params.k_large}));
  }
  for (TaskId j : classes.medium) {
    EXPECT_FALSE(inst.is_small(j, params.delta));
    EXPECT_FALSE(inst.is_large(j, Ratio{1, params.k_large}));
  }
}

TEST(SolverParamsTest, DerivedQuantities) {
  SolverParams params;
  EXPECT_EQ(params.beta_q(), 2);  // beta = 1/4
  params.eps = 0.5;
  EXPECT_EQ(params.effective_ell(), 4);  // ceil(2 / 0.5)
  params.eps = 1.0;
  EXPECT_EQ(params.effective_ell(), 2);
  params.ell = 7;
  EXPECT_EQ(params.effective_ell(), 7);
  params.beta = {1, 8};
  EXPECT_EQ(params.beta_q(), 3);
}

TEST(SolverTest, FeasibleAcrossProfilesAndMixes) {
  Rng rng(211);
  for (int trial = 0; trial < 10; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 14;
    opt.num_tasks = 30;
    opt.profile = static_cast<CapacityProfile>(trial % 5);
    opt.min_capacity = 8;
    opt.max_capacity = 64;
    const PathInstance inst = generate_path_instance(opt, rng);
    SolveReport report;
    const SapSolution sol = solve_sap(inst, {}, &report);
    ASSERT_TRUE(verify_sap(inst, sol)) << verify_sap(inst, sol).reason;
    EXPECT_EQ(report.num_small + report.num_medium + report.num_large,
              inst.num_tasks());
    // Winner weight matches the returned solution.
    const Weight w = sol.weight(inst);
    EXPECT_EQ(w, std::max({report.small_weight, report.medium_weight,
                           report.large_weight}));
  }
}

TEST(SolverTest, WithinNineEpsAgainstExactOptimum) {
  Rng rng(223);
  int checked = 0;
  for (int trial = 0; trial < 20 && checked < 10; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 8;
    opt.num_tasks = 12;
    opt.min_capacity = 4;
    opt.max_capacity = 16;
    const PathInstance inst = generate_path_instance(opt, rng);
    const SapExactResult opt_sol = sap_exact_profile_dp(inst);
    ASSERT_TRUE(opt_sol.proven_optimal);
    if (opt_sol.weight == 0) continue;
    ++checked;
    SolverParams params;
    params.eps = 1.0;
    const SapSolution sol = solve_sap(inst, params);
    // Guarantee with eps = 1: 4+eps' small, (1+1)*2 medium, 3 large ->
    // sum bounded by 10ish; assert the paper's headline factor loosely.
    EXPECT_GE(10 * sol.weight(inst), opt_sol.weight) << "trial " << trial;
  }
  EXPECT_GT(checked, 0);
}

TEST(SolverParamsTest, ValidateRejectsBadConfigurations) {
  SolverParams ok;
  EXPECT_NO_THROW(ok.validate());

  SolverParams bad_eps;
  bad_eps.eps = 0.0;
  EXPECT_THROW(bad_eps.validate(), std::invalid_argument);

  SolverParams bad_beta;
  bad_beta.beta = {1, 2};  // beta must be strictly below 1/2
  EXPECT_THROW(bad_beta.validate(), std::invalid_argument);

  SolverParams bad_delta;
  bad_delta.delta = {1, 2};  // must be < 1 - 2*beta = 1/2
  EXPECT_THROW(bad_delta.validate(), std::invalid_argument);

  SolverParams bad_k;
  bad_k.k_large = 1;
  EXPECT_THROW(bad_k.validate(), std::invalid_argument);

  SolverParams bad_mode;
  bad_mode.elevator_mode = 7;
  EXPECT_THROW(bad_mode.validate(), std::invalid_argument);

  // solve_sap enforces validation up front.
  const PathInstance inst({4}, {Task{0, 0, 2, 1}});
  EXPECT_THROW((void)solve_sap(inst, bad_eps), std::invalid_argument);
}

// Medium bands reach 2^(k+ell) >= 2^63 when b(j) >= 2^(63-ell): band
// capacities saturate at kMaxExactCapacity instead of overflowing, so these
// admissible instances solve (they used to throw from a band sub-instance
// whose wrapped capacity was negative).
TEST(SolverTest, HugeCapacityMediumBandsStayExact) {
  const PathInstance one_task({1'000'000'000'000'000'000},
                              {{0, 0, 300'000'000'000'000'000, 5}});
  const SapSolution sol = solve_sap(one_task);  // eps 0.5: ell = 4
  EXPECT_TRUE(verify_sap(one_task, sol)) << verify_sap(one_task, sol).reason;
  EXPECT_EQ(sol.weight(one_task), 5);

  const PathInstance two_tasks(
      {10'000'000'000'000},
      {{0, 0, 3'000'000'000'000, 5}, {0, 0, 4'000'000'000'000, 7}});
  SolverParams params;
  params.eps = 0.1;  // ell = 20
  const SapSolution sol2 = solve_sap(two_tasks, params);
  EXPECT_TRUE(verify_sap(two_tasks, sol2))
      << verify_sap(two_tasks, sol2).reason;
  EXPECT_GT(sol2.weight(two_tasks), 0);
}

TEST(SolverTest, EmptyInstance) {
  const PathInstance inst({4, 4}, {});
  const SapSolution sol = solve_sap(inst);
  EXPECT_TRUE(sol.empty());
}

TEST(SolverTest, MeasuredRatioReportedAgainstBound) {
  Rng rng(227);
  PathGenOptions opt;
  opt.num_edges = 10;
  opt.num_tasks = 20;
  const PathInstance inst = generate_path_instance(opt, rng);
  const SapSolution sol = solve_sap(inst);
  const RatioMeasurement m = measure_ratio(inst, sol);
  EXPECT_GE(m.ratio, 1.0 - 1e-9);
  EXPECT_GE(m.bound, static_cast<double>(m.algo_weight) - 1e-6);
}

}  // namespace
}  // namespace sap
