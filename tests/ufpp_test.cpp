// Unit tests for the UFPP algorithms: interval MWIS, local ratio, the
// Appendix Strip algorithm, LP rounding, and exact branch-and-bound.
#include <gtest/gtest.h>

#include <numeric>

#include "src/gen/generators.hpp"
#include "src/model/verify.hpp"
#include "src/ufpp/branch_and_bound.hpp"
#include "src/ufpp/local_ratio.hpp"
#include "src/ufpp/lp_rounding.hpp"
#include "src/ufpp/strip_local_ratio.hpp"

namespace sap {
namespace {

std::vector<TaskId> all_ids(const PathInstance& inst) {
  std::vector<TaskId> ids(inst.num_tasks());
  std::iota(ids.begin(), ids.end(), TaskId{0});
  return ids;
}

/// Exhaustive interval-MWIS reference for tiny inputs.
Weight naive_interval_mwis(const PathInstance& inst,
                           std::span<const TaskId> subset) {
  Weight best = 0;
  const std::size_t n = subset.size();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    Weight w = 0;
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) {
      if (!(mask >> i & 1)) continue;
      for (std::size_t k = i + 1; k < n && ok; ++k) {
        if ((mask >> k & 1) &&
            inst.task(subset[i]).overlaps(inst.task(subset[k]))) {
          ok = false;
        }
      }
      w += inst.task(subset[i]).weight;
    }
    if (ok) best = std::max(best, w);
  }
  return best;
}

TEST(IntervalMwisTest, MatchesNaiveOnRandomInstances) {
  Rng rng(67);
  for (int trial = 0; trial < 40; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 8;
    opt.num_tasks = 12;
    const PathInstance inst = generate_path_instance(opt, rng);
    const auto ids = all_ids(inst);
    const UfppSolution sol = interval_mwis(inst, ids);
    // Result is an independent set in the interval graph.
    for (std::size_t a = 0; a < sol.tasks.size(); ++a) {
      for (std::size_t b = a + 1; b < sol.tasks.size(); ++b) {
        EXPECT_FALSE(
            inst.task(sol.tasks[a]).overlaps(inst.task(sol.tasks[b])));
      }
    }
    EXPECT_EQ(sol.weight(inst), naive_interval_mwis(inst, ids));
  }
}

TEST(UniformLocalRatioTest, FeasibleAndThreeApproximate) {
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 8;
    opt.num_tasks = 12;
    opt.profile = CapacityProfile::kUniform;
    opt.min_capacity = 8;
    opt.max_capacity = 16;
    const PathInstance inst = generate_path_instance(opt, rng);
    const UfppSolution sol = ufpp_uniform_local_ratio(inst);
    ASSERT_TRUE(verify_ufpp(inst, sol)) << verify_ufpp(inst, sol).reason;
    const UfppExactResult exact = ufpp_exact(inst);
    ASSERT_TRUE(exact.proven_optimal);
    // Wide tasks are solved exactly and the narrow local-ratio pass is
    // 3-approximate under our simplified weight decomposition, so the
    // best-of combination is 4-approximate (Lemma 3); Bar-Noy et al.'s
    // finer decomposition achieves 3.
    EXPECT_GE(4 * sol.weight(inst), exact.weight) << "trial " << trial;
  }
}

TEST(UniformLocalRatioTest, RejectsNonUniformCapacities) {
  const PathInstance inst({4, 8}, {Task{0, 0, 1, 1}});
  EXPECT_THROW(ufpp_uniform_local_ratio(inst), std::invalid_argument);
}

TEST(StripLocalRatioTest, HalfBPackable) {
  Rng rng(73);
  for (int trial = 0; trial < 20; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 12;
    opt.num_tasks = 40;
    opt.min_capacity = 32;
    opt.max_capacity = 63;  // all bottlenecks within [32, 64)
    opt.demand = DemandClass::kSmall;
    opt.delta = {1, 8};
    const PathInstance inst = generate_path_instance(opt, rng);
    const UfppSolution sol = ufpp_strip_local_ratio(inst, all_ids(inst), 32);
    // Load at most B/2 = 16 on every edge.
    EXPECT_TRUE(verify_ufpp_packable(inst, sol, 16))
        << verify_ufpp_packable(inst, sol, 16).reason;
  }
}

TEST(StripLocalRatioTest, FiveApproximateAgainstExactUfpp) {
  Rng rng(79);
  for (int trial = 0; trial < 15; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 8;
    opt.num_tasks = 14;
    opt.min_capacity = 32;
    opt.max_capacity = 63;
    opt.demand = DemandClass::kSmall;
    opt.delta = {1, 8};
    const PathInstance inst = generate_path_instance(opt, rng);
    const UfppSolution sol = ufpp_strip_local_ratio(inst, all_ids(inst), 32);
    const UfppExactResult exact = ufpp_exact(inst);
    ASSERT_TRUE(exact.proven_optimal);
    // OPT_SAP <= OPT_UFPP, so 5/(1-4*delta)-approximation w.r.t. OPT_SAP is
    // implied by checking against OPT_UFPP with the same factor: with
    // delta = 1/8, 5/(1-0.5) = 10.
    EXPECT_GE(10 * sol.weight(inst), exact.weight);
  }
}

TEST(LpRoundingTest, HalfBPackableAndCompetitive) {
  Rng rng(83);
  Rng rounding_rng(85);
  for (int trial = 0; trial < 10; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 10;
    opt.num_tasks = 30;
    opt.min_capacity = 32;
    opt.max_capacity = 63;
    opt.demand = DemandClass::kSmall;
    opt.delta = {1, 8};
    const PathInstance inst = generate_path_instance(opt, rng);
    const LpRoundingResult r = ufpp_lp_rounding_half_b(
        inst, all_ids(inst), 32, {0.2, 8}, rounding_rng);
    EXPECT_TRUE(verify_ufpp_packable(inst, r.solution, 16));
    // The rounded solution should not collapse: at least 40% of the scaled
    // LP target (the repair pass usually gets far above it).
    if (r.scaled_lp > 0) {
      EXPECT_GE(static_cast<double>(r.solution.weight(inst)),
                0.4 * r.scaled_lp)
          << "trial " << trial;
    }
  }
}

TEST(UfppExactTest, MatchesBruteForceOnTinyInstances) {
  const auto check = [](const PathInstance& inst, const char* family,
                        int trial) {
    const UfppExactResult bb = ufpp_exact(inst);
    ASSERT_TRUE(bb.proven_optimal);
    ASSERT_TRUE(verify_ufpp(inst, bb.solution));
    // Brute force over all subsets.
    Weight best = 0;
    const std::size_t n = inst.num_tasks();
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
      UfppSolution s;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask >> i & 1) s.tasks.push_back(static_cast<TaskId>(i));
      }
      if (verify_ufpp(inst, s)) best = std::max(best, s.weight(inst));
    }
    EXPECT_EQ(bb.weight, best) << family << " trial " << trial;
  };
  Rng rng(89);
  for (int trial = 0; trial < 30; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 6;
    opt.num_tasks = 10;
    opt.min_capacity = 4;
    opt.max_capacity = 12;
    check(generate_path_instance(opt, rng), "uniform", trial);
  }
  // Mixed sizes over every capacity profile.
  Rng mixed_rng(367);
  for (int trial = 0; trial < 40; ++trial) {
    PathGenOptions opt;
    opt.num_edges = static_cast<std::size_t>(mixed_rng.uniform_int(2, 8));
    opt.num_tasks = static_cast<std::size_t>(mixed_rng.uniform_int(2, 12));
    opt.profile = static_cast<CapacityProfile>(mixed_rng.uniform_int(0, 4));
    opt.min_capacity = 3;
    opt.max_capacity = 14;
    check(generate_path_instance(opt, mixed_rng), "profiled", trial);
  }
}

TEST(UfppExactTest, LpBoundTogglesDoNotChangeResult) {
  Rng rng(97);
  PathGenOptions opt;
  opt.num_edges = 8;
  opt.num_tasks = 14;
  const PathInstance inst = generate_path_instance(opt, rng);
  UfppExactOptions with_lp;
  UfppExactOptions without_lp;
  without_lp.use_lp_bound = false;
  const UfppExactResult a = ufpp_exact(inst, with_lp);
  const UfppExactResult b = ufpp_exact(inst, without_lp);
  ASSERT_TRUE(a.proven_optimal);
  ASSERT_TRUE(b.proven_optimal);
  EXPECT_EQ(a.weight, b.weight);
}

}  // namespace
}  // namespace sap
