// Cross-validation of the two SAP oracles: the profile DP must agree with
// the obviously-correct brute force on every random tiny instance.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/exact/brute_force.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/exact/ufpp_profile_dp.hpp"
#include "src/gen/generators.hpp"
#include "src/model/verify.hpp"
#include "src/ufpp/branch_and_bound.hpp"
#include "src/util/telemetry.hpp"

namespace sap {
namespace {

/// A suffix bound that prunes nothing: every entry is the instance's total
/// weight. It turns on the profile DP's pruned prove-or-stop mode.
std::vector<Weight> loose_suffix_bound(const PathInstance& inst) {
  Weight total = 0;
  for (std::size_t j = 0; j < inst.num_tasks(); ++j) {
    total += inst.task(static_cast<TaskId>(j)).weight;
  }
  return std::vector<Weight>(inst.num_edges() + 1, total);
}

TEST(BruteForceTest, SingleTask) {
  const PathInstance inst({4}, {Task{0, 0, 2, 7}});
  const SapSolution sol = sap_brute_force(inst);
  EXPECT_EQ(sol.weight(inst), 7);
  EXPECT_TRUE(verify_sap(inst, sol));
}

TEST(BruteForceTest, PrefersHeavierConflictingTask) {
  // Two tasks that cannot coexist (each needs the full capacity).
  const PathInstance inst({4, 4}, {Task{0, 1, 4, 3}, Task{0, 1, 4, 9}});
  const SapSolution sol = sap_brute_force(inst);
  ASSERT_EQ(sol.size(), 1u);
  EXPECT_EQ(sol.placements[0].task, 1);
}

TEST(BruteForceTest, GuardsAgainstHugeInputs) {
  const PathInstance tall({1000}, {Task{0, 0, 1, 1}});
  EXPECT_THROW(sap_brute_force(tall), std::invalid_argument);
}

TEST(ProfileDpTest, EmptyInstance) {
  const PathInstance inst({4, 4}, {});
  const SapExactResult r = sap_exact_profile_dp(inst);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.weight, 0);
  EXPECT_TRUE(r.solution.empty());
}

TEST(ProfileDpTest, StacksCompatibleTasks) {
  const PathInstance inst({4, 4}, {Task{0, 1, 2, 5}, Task{0, 1, 2, 5}});
  const SapExactResult r = sap_exact_profile_dp(inst);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.weight, 10);
  EXPECT_TRUE(verify_sap(inst, r.solution));
}

TEST(ProfileDpTest, RespectsDownstreamCapacityDrops) {
  // Task 0 spans a high-capacity prefix but its bottleneck is the final
  // low edge; placed high it would violate there.
  const PathInstance inst({8, 2}, {Task{0, 1, 2, 5}, Task{0, 0, 6, 4}});
  const SapExactResult r = sap_exact_profile_dp(inst);
  EXPECT_TRUE(r.proven_optimal);
  // Task 0 at height 0 (pinned by edge 1), task 1 at height 2.
  EXPECT_EQ(r.weight, 9);
  EXPECT_TRUE(verify_sap(inst, r.solution));
}

TEST(ProfileDpTest, SupportsHeightFloor) {
  const PathInstance inst({6}, {Task{0, 0, 3, 5}, Task{0, 0, 3, 4}});
  SapExactOptions opt;
  opt.min_height = 2;
  const SapExactResult r = sap_exact_profile_dp(inst, opt);
  // Only one task fits in [2, 6).
  EXPECT_EQ(r.weight, 5);
  for (const Placement& p : r.solution.placements) {
    EXPECT_GE(p.height, 2);
  }
}

TEST(ProfileDpTest, MatchesBruteForceOnRandomTinyInstances) {
  Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    PathGenOptions opt;
    opt.num_edges = static_cast<std::size_t>(rng.uniform_int(2, 6));
    opt.num_tasks = static_cast<std::size_t>(rng.uniform_int(2, 8));
    opt.profile = static_cast<CapacityProfile>(rng.uniform_int(0, 4));
    opt.min_capacity = 2;
    opt.max_capacity = 8;
    const PathInstance inst = generate_path_instance(opt, rng);
    const SapSolution brute = sap_brute_force(inst);
    const SapExactResult dp = sap_exact_profile_dp(inst);
    ASSERT_TRUE(dp.proven_optimal) << "trial " << trial;
    ASSERT_TRUE(verify_sap(inst, dp.solution))
        << verify_sap(inst, dp.solution).reason;
    EXPECT_EQ(dp.weight, brute.weight(inst)) << "trial " << trial;
    EXPECT_EQ(dp.solution.weight(inst), dp.weight);
  }
}

TEST(ProfileDpTest, HeightFloorMatchesBruteForceOnLoweredCapacities) {
  // The Elevator's mode: placing every task at height >= f under c_e is the
  // same problem as placing it at height >= 0 under c_e - f. Tasks that no
  // longer fit under their lowered bottleneck drop out of the reference.
  Rng rng(109);
  for (int trial = 0; trial < 40; ++trial) {
    PathGenOptions opt;
    opt.num_edges = static_cast<std::size_t>(rng.uniform_int(2, 6));
    opt.num_tasks = static_cast<std::size_t>(rng.uniform_int(2, 8));
    opt.profile = static_cast<CapacityProfile>(rng.uniform_int(0, 4));
    opt.min_capacity = 4;
    opt.max_capacity = 10;
    const PathInstance inst = generate_path_instance(opt, rng);
    const Value floor = rng.uniform_int(1, 3);

    std::vector<Value> lowered_caps = inst.capacities();
    for (Value& c : lowered_caps) c -= floor;
    std::vector<Task> fitting;
    for (TaskId j = 0; j < static_cast<TaskId>(inst.num_tasks()); ++j) {
      if (inst.task(j).demand + floor <= inst.bottleneck(j)) {
        fitting.push_back(inst.task(j));
      }
    }
    const PathInstance lowered(lowered_caps, fitting);
    const SapSolution brute = sap_brute_force(lowered);

    SapExactOptions floored;
    floored.min_height = floor;
    const SapExactResult dp = sap_exact_profile_dp(inst, floored);
    ASSERT_TRUE(dp.proven_optimal) << "trial " << trial;
    ASSERT_TRUE(verify_sap(inst, dp.solution))
        << verify_sap(inst, dp.solution).reason;
    for (const Placement& p : dp.solution.placements) {
      EXPECT_GE(p.height, floor) << "trial " << trial;
    }
    EXPECT_EQ(dp.weight, brute.weight(lowered)) << "trial " << trial;
    EXPECT_EQ(dp.solution.weight(inst), dp.weight);
  }
}

TEST(ProfileDpTest, ProvesSmallDemandPropertyCasesWithinBeam) {
  // The SapPropertyTest.FullSolverFeasibleAndWithinBound instances that
  // are hardest for the oracle (8 edges, 12 small-demand tasks, capacities
  // 4..16, seed 1). That test skips when the oracle is not proven, so this
  // pins them: they must finish inside the default beam, which takes
  // bottleneck-bounded heights and crossing-profile merging.
  for (const CapacityProfile profile :
       {CapacityProfile::kUniform, CapacityProfile::kMountain,
        CapacityProfile::kRandomWalk}) {
    Rng rng(1 * 7919 + 13);
    PathGenOptions opt;
    opt.num_edges = 8;
    opt.num_tasks = 12;
    opt.profile = profile;
    opt.demand = DemandClass::kSmall;
    opt.min_capacity = 4;
    opt.max_capacity = 16;
    const PathInstance inst = generate_path_instance(opt, rng);
    const SapExactResult dp = sap_exact_profile_dp(inst);
    const int id = static_cast<int>(profile);
    ASSERT_TRUE(dp.proven_optimal) << "profile " << id;
    ASSERT_TRUE(verify_sap(inst, dp.solution))
        << verify_sap(inst, dp.solution).reason;
    EXPECT_EQ(dp.solution.weight(inst), dp.weight);
    EXPECT_EQ(dp.weight, sap_brute_force(inst).weight(inst))
        << "profile " << id;
  }
}

TEST(ProfileDpTest, GroundedHeuristicIsFeasibleLowerBound) {
  Rng rng(103);
  for (int trial = 0; trial < 20; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 6;
    opt.num_tasks = 8;
    opt.min_capacity = 4;
    opt.max_capacity = 10;
    const PathInstance inst = generate_path_instance(opt, rng);
    SapExactOptions heuristic;
    heuristic.grounded_only = true;
    const SapExactResult h = sap_exact_profile_dp(inst, heuristic);
    EXPECT_FALSE(h.proven_optimal);
    EXPECT_TRUE(verify_sap(inst, h.solution));
    const SapExactResult exact = sap_exact_profile_dp(inst);
    EXPECT_LE(h.weight, exact.weight);
    // On these tiny instances the heuristic is usually optimal too; it must
    // at least find a non-trivial solution whenever one exists.
    if (exact.weight > 0) {
      EXPECT_GT(h.weight, 0);
    }
  }
}

TEST(ProfileDpTest, BeamCapTruncatesButStaysFeasible) {
  Rng rng(107);
  PathGenOptions opt;
  opt.num_edges = 5;
  opt.num_tasks = 10;
  opt.min_capacity = 6;
  opt.max_capacity = 12;
  const PathInstance inst = generate_path_instance(opt, rng);
  SapExactOptions tight;
  tight.max_states = 4;
  const SapExactResult r = sap_exact_profile_dp(inst, tight);
  EXPECT_TRUE(verify_sap(inst, r.solution));
  const SapExactResult full = sap_exact_profile_dp(inst);
  EXPECT_LE(r.weight, full.weight);
}

// Prove-or-stop (the pruned mode, here with a bound that prunes nothing)
// gives up at the first edge that would truncate: nothing is proven,
// nothing is rebuilt, and no later edge is swept.
TEST(ProfileDpTest, ProveOrStopGivesUpAtTheFirstTruncatedEdge) {
  Rng rng(107);
  PathGenOptions opt;
  opt.num_edges = 5;
  opt.num_tasks = 10;
  opt.min_capacity = 6;
  opt.max_capacity = 12;
  const PathInstance inst = generate_path_instance(opt, rng);
  TelemetryReport truncating_work;
  TelemetryReport stopping_work;
  SapExactResult truncating;
  SapExactResult stopped;
  const std::vector<Weight> loose = loose_suffix_bound(inst);
  {
    const TelemetrySession session(&truncating_work);
    truncating = sap_exact_profile_dp(inst, {.max_states = 8});
  }
  {
    const TelemetrySession session(&stopping_work);
    stopped =
        sap_exact_profile_dp(inst, {.max_states = 8, .suffix_bound = loose});
  }
  ASSERT_FALSE(truncating.proven_optimal);  // the beam does truncate
  EXPECT_FALSE(stopped.proven_optimal);
  EXPECT_FALSE(stopped.timed_out);
  EXPECT_EQ(stopped.weight, 0);
  EXPECT_TRUE(stopped.solution.empty());
  EXPECT_LT(stopping_work.count("dp.states.expanded"),
            truncating_work.count("dp.states.expanded"));
  EXPECT_EQ(stopping_work.count("dp.truncated"), 1);
}

// With a beam that never overflows, prove-or-stop is the plain sweep.
TEST(ProfileDpTest, ProveOrStopMatchesTheFullSweepInsideTheBeam) {
  Rng rng(109);
  for (int trial = 0; trial < 20; ++trial) {
    PathGenOptions opt;
    opt.num_edges = static_cast<std::size_t>(rng.uniform_int(2, 7));
    opt.num_tasks = static_cast<std::size_t>(rng.uniform_int(1, 9));
    opt.min_capacity = 2;
    opt.max_capacity = 10;
    const PathInstance inst = generate_path_instance(opt, rng);
    const SapExactResult full = sap_exact_profile_dp(inst);
    const std::vector<Weight> loose = loose_suffix_bound(inst);
    const SapExactResult stop =
        sap_exact_profile_dp(inst, {.suffix_bound = loose});
    ASSERT_TRUE(full.proven_optimal);
    EXPECT_TRUE(stop.proven_optimal) << "trial " << trial;
    EXPECT_EQ(stop.weight, full.weight) << "trial " << trial;
    EXPECT_EQ(stop.solution.placements, full.solution.placements)
        << "trial " << trial;
  }
}

// Two tasks that each fill both edges: OPT = 9. With a tight suffix bound
// and the floor at OPT every state is pruned, and the completed sweep proves
// the floor; one below OPT, the optimal state survives and is rebuilt.
TEST(ProfileDpTest, FloorAtTheOptimumPrunesEveryStateAndIsProved) {
  const PathInstance inst({4, 4}, {Task{0, 1, 4, 3}, Task{0, 1, 4, 9}});
  const std::vector<Weight> suffix{12, 0, 0};
  TelemetryReport work;
  SapExactResult at_opt;
  {
    const TelemetrySession session(&work);
    at_opt =
        sap_exact_profile_dp(inst, {.floor = 9, .suffix_bound = suffix});
  }
  EXPECT_TRUE(at_opt.proven_optimal);
  EXPECT_EQ(at_opt.weight, 9);
  EXPECT_TRUE(at_opt.solution.empty());  // the caller holds the floor's
  // Two cut branches cover every state: "skip task 0" reaches at most 9,
  // and "task 0 without task 1" at most 3.
  EXPECT_EQ(work.count("dp.pruned"), 2);
  EXPECT_EQ(work.count("dp.states.expanded"), 1);  // the start state only

  const SapExactResult below =
      sap_exact_profile_dp(inst, {.floor = 8, .suffix_bound = suffix});
  EXPECT_TRUE(below.proven_optimal);
  EXPECT_EQ(below.weight, 9);
  EXPECT_TRUE(verify_sap(inst, below.solution));
  EXPECT_EQ(below.solution.weight(inst), 9);
}

TEST(ProfileDpTest, RejectsMalformedPruningInputs) {
  const PathInstance inst({4, 4}, {Task{0, 1, 4, 3}});
  const std::vector<Weight> short_bound{3, 0};
  const std::vector<Weight> negative_bound{3, -1, 0};
  const std::vector<Weight> good_bound{3, 0, 0};
  const auto run = [&](const SapExactOptions& options) {
    return sap_exact_profile_dp(inst, options);
  };
  EXPECT_THROW(run({.suffix_bound = short_bound}), std::invalid_argument);
  EXPECT_THROW(run({.suffix_bound = negative_bound}), std::invalid_argument);
  EXPECT_THROW(run({.floor = -1, .suffix_bound = good_bound}),
               std::invalid_argument);
}

TEST(UfppProfileDpTest, CrossValidatesBranchAndBound) {
  // Two independently implemented exact UFPP solvers must agree.
  Rng rng(367);
  for (int trial = 0; trial < 40; ++trial) {
    PathGenOptions opt;
    opt.num_edges = static_cast<std::size_t>(rng.uniform_int(2, 8));
    opt.num_tasks = static_cast<std::size_t>(rng.uniform_int(2, 12));
    opt.profile = static_cast<CapacityProfile>(rng.uniform_int(0, 4));
    opt.min_capacity = 3;
    opt.max_capacity = 14;
    const PathInstance inst = generate_path_instance(opt, rng);
    const UfppProfileDpResult dp = ufpp_exact_profile_dp(inst);
    const UfppExactResult bb = ufpp_exact(inst);
    ASSERT_TRUE(dp.proven_optimal);
    ASSERT_TRUE(bb.proven_optimal);
    ASSERT_TRUE(verify_ufpp(inst, dp.solution))
        << verify_ufpp(inst, dp.solution).reason;
    EXPECT_EQ(dp.weight, bb.weight) << "trial " << trial;
    EXPECT_EQ(dp.solution.weight(inst), dp.weight);
  }
}

TEST(UfppProfileDpTest, BeamCapDegradesGracefully) {
  Rng rng(373);
  PathGenOptions opt;
  opt.num_edges = 6;
  opt.num_tasks = 14;
  const PathInstance inst = generate_path_instance(opt, rng);
  UfppProfileDpOptions tight;
  tight.max_states = 2;
  const UfppProfileDpResult r = ufpp_exact_profile_dp(inst, tight);
  EXPECT_TRUE(verify_ufpp(inst, r.solution));
  const UfppProfileDpResult full = ufpp_exact_profile_dp(inst);
  EXPECT_LE(r.weight, full.weight);
}

TEST(ProfileDpTest, SubsetRestriction) {
  const PathInstance inst({4}, {Task{0, 0, 4, 100}, Task{0, 0, 2, 1},
                                Task{0, 0, 2, 1}});
  const std::vector<TaskId> subset{1, 2};
  const SapExactResult r = sap_exact_profile_dp(inst, subset, {});
  EXPECT_EQ(r.weight, 2);
}

}  // namespace
}  // namespace sap
