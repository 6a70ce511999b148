// Cross-validation of the two SAP oracles: the profile DP must agree with
// the obviously-correct brute force on every random tiny instance.
#include <gtest/gtest.h>

#include <algorithm>
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

/// The Elevator's mode as a plain instance: placing every task at height
/// >= f under c_e is the same problem as placing it at height >= 0 under
/// c_e - f. Tasks that no longer fit under their lowered bottleneck drop out.
PathInstance lowered_instance(const PathInstance& inst, Value f) {
  std::vector<Value> lowered_caps = inst.capacities();
  for (Value& c : lowered_caps) c -= f;
  std::vector<Task> fitting;
  for (TaskId j = 0; j < static_cast<TaskId>(inst.num_tasks()); ++j) {
    if (inst.task(j).demand + f <= inst.bottleneck(j)) {
      fitting.push_back(inst.task(j));
    }
  }
  return PathInstance(lowered_caps, fitting);
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
    const PathInstance lowered = lowered_instance(inst, floor);
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

/// A random tiny instance whose tasks start at only one to three edges, so
/// most edges start nothing and most tasks outlive the last start edge of
/// their span: the shape on which start-edge lifetimes merge the most.
/// Capacities are at least 3, so a height floor of 1 or 2 leaves room.
PathInstance sparse_start_instance(Rng& rng) {
  const auto m = static_cast<EdgeId>(rng.uniform_int(4, 8));
  std::vector<Value> caps(static_cast<std::size_t>(m));
  for (Value& c : caps) c = rng.uniform_int(3, 8);
  std::vector<EdgeId> starts;
  const std::int64_t num_starts = rng.uniform_int(1, 3);
  for (std::int64_t k = 0; k < num_starts; ++k) {
    starts.push_back(static_cast<EdgeId>(rng.uniform_int(0, m - 2)));
  }
  std::vector<Task> tasks;
  const std::int64_t n = rng.uniform_int(3, 8);
  for (std::int64_t k = 0; k < n; ++k) {
    Task t;
    t.first = starts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(starts.size()) - 1))];
    t.last = static_cast<EdgeId>(rng.uniform_int(t.first, m - 1));
    const Value bottleneck =
        *std::min_element(caps.begin() + t.first, caps.begin() + t.last + 1);
    t.demand = rng.uniform_int(1, bottleneck);
    t.weight = rng.uniform_int(1, 10);
    tasks.push_back(t);
  }
  return PathInstance(caps, tasks);
}

/// bound[k]: the weight of the tasks that start at edge k or later, a valid
/// (if loose) suffix bound for the pruned mode.
std::vector<Weight> weight_suffix_bound(const PathInstance& inst) {
  std::vector<Weight> bound(inst.num_edges() + 1, 0);
  for (std::size_t j = 0; j < inst.num_tasks(); ++j) {
    const Task& t = inst.task(static_cast<TaskId>(j));
    bound[static_cast<std::size_t>(t.first)] += t.weight;
  }
  for (std::size_t k = inst.num_edges(); k-- > 0;) bound[k] += bound[k + 1];
  return bound;
}

// Slots live only until the last start edge of their span, and edges where
// nothing starts are skipped. Both are exact: cross-check every mode that
// the medium stage and the ladder use against the brute force.
TEST(ProfileDpTest, StartEdgeLifetimesMatchBruteForceOnSparseStarts) {
  Rng rng(211);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    const PathInstance inst = sparse_start_instance(rng);
    const Weight opt = sap_brute_force(inst).weight(inst);

    const SapExactResult plain = sap_exact_profile_dp(inst);
    ASSERT_TRUE(plain.proven_optimal);
    ASSERT_TRUE(verify_sap(inst, plain.solution))
        << verify_sap(inst, plain.solution).reason;
    EXPECT_EQ(plain.weight, opt);
    EXPECT_EQ(plain.solution.weight(inst), plain.weight);

    // A random subset: lifetimes follow the subset's start edges only.
    std::vector<TaskId> subset;
    for (TaskId j = 0; j < static_cast<TaskId>(inst.num_tasks()); ++j) {
      if (rng.bernoulli(0.6)) subset.push_back(j);
    }
    const SapExactResult part = sap_exact_profile_dp(inst, subset, {});
    ASSERT_TRUE(part.proven_optimal);
    ASSERT_TRUE(verify_sap(inst, part.solution));
    EXPECT_EQ(part.weight, sap_brute_force(inst, subset).weight(inst));

    // Pruned prove-or-stop: a truncating pass's floor, the weight suffix
    // bound. A completed sweep proves OPT; the solution is empty only when
    // the floor already reaches it.
    const SapExactResult floor_pass =
        sap_exact_profile_dp(inst, {.max_states = 2});
    const std::vector<Weight> suffix = weight_suffix_bound(inst);
    const SapExactResult pruned = sap_exact_profile_dp(
        inst, {.floor = floor_pass.weight, .suffix_bound = suffix});
    ASSERT_TRUE(pruned.proven_optimal);
    EXPECT_EQ(pruned.weight, opt);
    ASSERT_TRUE(verify_sap(inst, pruned.solution));
    if (!pruned.solution.empty()) {
      EXPECT_EQ(pruned.solution.weight(inst), opt);
    } else {
      EXPECT_EQ(floor_pass.weight, opt);
    }

    // The Elevator's mode, against the brute force on lowered capacities.
    const Value f = rng.uniform_int(1, 2);
    const PathInstance lowered = lowered_instance(inst, f);
    const SapExactResult floored =
        sap_exact_profile_dp(inst, {.min_height = f});
    ASSERT_TRUE(floored.proven_optimal);
    ASSERT_TRUE(verify_sap(inst, floored.solution));
    for (const Placement& p : floored.solution.placements) {
      EXPECT_GE(p.height, f);
    }
    EXPECT_EQ(floored.weight, sap_brute_force(lowered).weight(lowered));
  }
}

// Capacity 2 on four edges; tasks start only at edges 0 and 1. A = [0, 2]
// and B = [0, 3] both outlive edge 1, the last start edge, so "A at height
// 0" and "B at height 0" leave the same crossing profile and merge (keeping
// B, the heavier). With true lifetimes they would be two states.
TEST(ProfileDpTest, LifetimesPastTheLastStartEdgeMerge) {
  const PathInstance inst({2, 2, 2, 2}, {Task{0, 2, 1, 2}, Task{0, 3, 1, 3},
                                         Task{1, 1, 1, 1}});
  TelemetryReport work;
  SapExactResult r;
  {
    const TelemetrySession session(&work);
    r = sap_exact_profile_dp(inst);
  }
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.weight, 5);  // A and B stacked; C has no room left
  EXPECT_TRUE(verify_sap(inst, r.solution));
  // Edge 0 emits 7 leaves (none, B0, B1, A0, A0+B1, A1, A1+B0) into 4
  // states: {}, {0}, {1}, {0, 1}. At edge 1 every slot's lifetime ends, so
  // its 8 leaves make one state. Edges 2 and 3 start nothing and are skipped.
  EXPECT_EQ(work.count("dp.states.expanded"), 1 + 4 + 1);
  EXPECT_EQ(work.count("dp.emits"), 7 + 8);
  EXPECT_EQ(work.count("dp.states.peak"), 4);
}

// dp.states.peak is the largest frontier of any run in the session, not a
// sum over runs.
TEST(ProfileDpTest, StatesPeakIsTheMaximumOverRuns) {
  Rng rng(223);
  PathGenOptions opt;
  opt.num_edges = 6;
  opt.num_tasks = 8;
  opt.min_capacity = 4;
  opt.max_capacity = 10;
  const PathInstance a = generate_path_instance(opt, rng);
  const PathInstance b = generate_path_instance(opt, rng);
  TelemetryReport work;
  SapExactResult ra;
  SapExactResult rb;
  {
    const TelemetrySession session(&work);
    ra = sap_exact_profile_dp(a);
    rb = sap_exact_profile_dp(b);
  }
  EXPECT_EQ(work.count("dp.runs"), 2);
  EXPECT_EQ(work.count("dp.states.peak"),
            static_cast<std::int64_t>(std::max(ra.peak_states,
                                               rb.peak_states)));
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
