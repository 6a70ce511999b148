// Certification subsystem tests: every ladder rung is a true upper bound on
// the exact optimum across a tiny-instance sweep, solver-produced
// certificates pass the independent checker, and hand-mutated certificates
// (wrong weights, tampered bounds, hostile dual witnesses, infeasible
// solutions, mismatched kinds) are rejected.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/cert/certify.hpp"
#include "src/cert/check.hpp"
#include "src/cert/ladder.hpp"
#include "src/core/ring_solver.hpp"
#include "src/core/sap_solver.hpp"
#include "src/exact/brute_force.hpp"
#include "src/exact/profile_dp.hpp"
#include "src/gen/generators.hpp"
#include "src/io/instance_io.hpp"
#include "src/sapu/sapu_solver.hpp"

namespace sap {
namespace {

PathGenOptions tiny_gen() {
  PathGenOptions gen;
  gen.num_edges = 6;
  gen.num_tasks = 8;
  gen.min_capacity = 4;
  gen.max_capacity = 12;
  return gen;
}

PathInstance tiny_instance(std::uint64_t seed) {
  Rng rng(seed);
  return generate_path_instance(tiny_gen(), rng);
}

RingInstance tiny_ring(std::uint64_t seed) {
  RingGenOptions gen;
  gen.num_edges = 6;
  gen.num_tasks = 8;
  gen.min_capacity = 4;
  gen.max_capacity = 12;
  Rng rng(seed);
  return generate_ring_instance(gen, rng);
}

/// Ladder options restricted to one rung (plus the unconditional
/// total_weight fallback, which cannot be disabled).
cert::LadderOptions only_rung(cert::UbRung rung) {
  cert::LadderOptions options;
  options.try_exact_dp = rung == cert::UbRung::kExactDp;
  options.try_ufpp_bnb = rung == cert::UbRung::kUfppBnb;
  options.try_lp_dual = rung == cert::UbRung::kLpDual;
  return options;
}

/// The lp_dual rung's repaired prices (empty when the rung did not fire).
cert::DualWitness lp_prices(const PathInstance& inst) {
  return run_upper_bound_ladder(inst, only_rung(cert::UbRung::kLpDual))
      .best.dual;
}

/// Entry i of one cell of the sapbench certify_cold corpus (corpus seed
/// 5000): 12 edges, capacities 8..48, mixed demand.
PathInstance certify_cold_instance(CapacityProfile profile, std::size_t n,
                                   std::size_t i) {
  PathGenOptions gen;
  gen.num_edges = 12;
  gen.num_tasks = n;
  gen.profile = profile;
  gen.min_capacity = 8;
  gen.max_capacity = 48;
  gen.demand = DemandClass::kMixed;
  Rng rng((5000 + n) ^ i);
  return generate_path_instance(gen, rng);
}

/// Weight of the tasks that start at edge k or later, for every k.
std::vector<Weight> weight_suffix_sums(const PathInstance& inst) {
  std::vector<Weight> sums(inst.num_edges() + 1, 0);
  for (std::size_t j = 0; j < inst.num_tasks(); ++j) {
    const Task& t = inst.task(static_cast<TaskId>(j));
    for (std::size_t k = 0; k <= static_cast<std::size_t>(t.first); ++k) {
      sums[k] += t.weight;
    }
  }
  return sums;
}

// --- Upper-bound ladder -----------------------------------------------------

TEST(LadderTest, EveryRungUpperBoundsExactOptOnTinySweep) {
  const cert::UbRung rungs[] = {
      cert::UbRung::kExactDp, cert::UbRung::kUfppBnb, cert::UbRung::kLpDual,
      cert::UbRung::kTotalWeight};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const PathInstance inst = tiny_instance(seed);
    const SapExactResult exact = sap_exact_profile_dp(inst);
    ASSERT_TRUE(exact.proven_optimal) << "seed " << seed;
    for (const cert::UbRung rung : rungs) {
      const cert::LadderResult ladder =
          run_upper_bound_ladder(inst, only_rung(rung));
      ASSERT_TRUE(ladder.proven)
          << "seed " << seed << ", rung " << cert::ub_rung_name(rung);
      EXPECT_GE(ladder.best.value, exact.weight)
          << "seed " << seed << ", rung "
          << cert::ub_rung_name(ladder.best.rung)
          << " claims a bound below the exact optimum";
    }
  }
}

TEST(LadderTest, ExactRungMatchesProfileDpExactly) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const PathInstance inst = tiny_instance(seed);
    const SapExactResult exact = sap_exact_profile_dp(inst);
    ASSERT_TRUE(exact.proven_optimal);
    const cert::LadderResult ladder = cert::run_upper_bound_ladder(inst);
    ASSERT_TRUE(ladder.proven);
    EXPECT_EQ(ladder.best.rung, cert::UbRung::kExactDp);
    EXPECT_EQ(ladder.best.value, exact.weight);
  }
}

TEST(LadderTest, RungOrderingIsMonotone) {
  // Looser rungs never beat tighter ones: exact <= bnb <= lp <= sum w.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const PathInstance inst = tiny_instance(seed);
    Weight previous = -1;
    for (const cert::UbRung rung :
         {cert::UbRung::kExactDp, cert::UbRung::kUfppBnb,
          cert::UbRung::kLpDual, cert::UbRung::kTotalWeight}) {
      const cert::LadderResult ladder =
          run_upper_bound_ladder(inst, only_rung(rung));
      ASSERT_TRUE(ladder.proven);
      EXPECT_GE(ladder.best.value, previous)
          << "seed " << seed << ": rung " << cert::ub_rung_name(rung)
          << " is tighter than a tighter rung";
      previous = ladder.best.value;
    }
  }
}

TEST(LadderTest, AttemptsRecordEveryRungTried) {
  const PathInstance inst = tiny_instance(3);
  const cert::LadderResult ladder = cert::run_upper_bound_ladder(inst);
  ASSERT_TRUE(ladder.proven);
  ASSERT_FALSE(ladder.attempts.empty());
  // First rung that proves wins; on a tiny instance that is exact_dp, so
  // exactly one attempt is recorded and it proved.
  EXPECT_EQ(ladder.attempts.front().rung, cert::UbRung::kExactDp);
  EXPECT_TRUE(ladder.attempts.front().proved);
}

// An exact_dp rung that proves nothing solves the LP for its pruning; the
// lp_dual attempt that reuses it is still recorded in rung order.
TEST(LadderTest, AttemptsStayInRungOrder) {
  const cert::LadderResult stopped = cert::run_upper_bound_ladder(
      certify_cold_instance(CapacityProfile::kMountain, 24, 3));
  ASSERT_TRUE(stopped.proven);
  ASSERT_EQ(stopped.attempts.size(), 3u);
  EXPECT_EQ(stopped.attempts[0].rung, cert::UbRung::kExactDp);
  EXPECT_TRUE(stopped.attempts[0].applicable);
  EXPECT_FALSE(stopped.attempts[0].proved);
  EXPECT_EQ(stopped.attempts[1].rung, cert::UbRung::kUfppBnb);
  EXPECT_FALSE(stopped.attempts[1].applicable);  // 24 tasks: over its cap
  EXPECT_EQ(stopped.attempts[2].rung, cert::UbRung::kLpDual);
  EXPECT_TRUE(stopped.attempts[2].proved);

  // 30 tasks: past both exact rungs' task caps, so lp_dual fires.
  PathGenOptions gen = tiny_gen();
  gen.num_tasks = 30;
  Rng rng(5);
  const cert::LadderResult wide =
      cert::run_upper_bound_ladder(generate_path_instance(gen, rng));
  ASSERT_TRUE(wide.proven);
  ASSERT_GE(wide.attempts.size(), 3u);
  EXPECT_EQ(wide.attempts[0].rung, cert::UbRung::kExactDp);
  EXPECT_FALSE(wide.attempts[0].applicable);
  EXPECT_EQ(wide.attempts[1].rung, cert::UbRung::kUfppBnb);
  EXPECT_FALSE(wide.attempts[1].applicable);
  EXPECT_EQ(wide.attempts[2].rung, cert::UbRung::kLpDual);
}

// suffix_upper_bounds[k] bounds the optimum of the tasks that start at edge
// k or later, and the dual makes it tighter than the weight sums somewhere.
TEST(LadderTest, SuffixBoundCoversEverySuffixOptimum) {
  int tighter = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const PathInstance inst = tiny_instance(seed);
    const std::vector<Weight> bound =
        cert::suffix_upper_bounds(inst, lp_prices(inst));
    const std::vector<Weight> sums = weight_suffix_sums(inst);
    const std::size_t m = inst.num_edges();
    ASSERT_EQ(bound.size(), m + 1);
    EXPECT_EQ(bound[m], 0);
    for (std::size_t k = 0; k < m; ++k) {
      std::vector<TaskId> suffix;
      for (std::size_t j = 0; j < inst.num_tasks(); ++j) {
        if (static_cast<std::size_t>(inst.task(static_cast<TaskId>(j)).first) >=
            k) {
          suffix.push_back(static_cast<TaskId>(j));
        }
      }
      const Weight opt = sap_brute_force(inst, suffix).weight(inst);
      EXPECT_GE(bound[k], opt) << "seed " << seed << ", k " << k;
      EXPECT_LE(bound[k], sums[k]) << "seed " << seed << ", k " << k;
      if (bound[k] < sums[k]) ++tighter;
    }
  }
  EXPECT_GT(tighter, 0);
}

// Whatever sound floor the pruned DP is given (0, OPT - 1, or OPT, where
// the floor itself is what gets proven), a proven value is the brute-force
// optimum, and so is the ladder's exact_dp bound. (A floor needs only to be
// <= OPT to be sound, so OPT - 1 may be one no solution reaches.)
TEST(LadderTest, PrunedExactDpProvesOnlyTheBruteForceOptimum) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const PathInstance inst = tiny_instance(seed);
    const Weight opt = sap_brute_force(inst).weight(inst);
    const std::vector<Weight> bound =
        cert::suffix_upper_bounds(inst, lp_prices(inst));
    for (const Weight floor : {Weight{0}, std::max<Weight>(opt - 1, 0), opt}) {
      const SapExactResult r = sap_exact_profile_dp(
          inst, {.max_states = 100'000, .floor = floor, .suffix_bound = bound});
      ASSERT_TRUE(r.proven_optimal) << "seed " << seed << ", floor " << floor;
      EXPECT_EQ(r.weight, opt) << "seed " << seed << ", floor " << floor;
      if (!r.solution.empty()) {
        EXPECT_TRUE(verify_sap(inst, r.solution));
        EXPECT_EQ(r.solution.weight(inst), opt);
      }
    }
    const cert::LadderResult ladder = cert::run_upper_bound_ladder(inst);
    ASSERT_EQ(ladder.best.rung, cert::UbRung::kExactDp) << "seed " << seed;
    EXPECT_EQ(ladder.best.value, opt) << "seed " << seed;
  }
}

// Capacities of 2^62 and weights up to 2^62: the suffix bound's 128-bit
// arithmetic stays exact, hostile prices that overflow it fall back to the
// weight sums, and the pruned DP still proves the optimum, which a twin with
// every 2^62 scaled down to 64 gives by brute force (only differences from
// the capacity matter, and no task fits beside the near-full ones).
TEST(LadderTest, SuffixBoundSurvivesHugeWeightsAndCapacities) {
  constexpr Weight kSmall = Weight{1} << 58;
  const auto instance = [](Value cap) {
    return PathInstance({cap, cap, cap, 6, cap, cap},
                        {Task{0, 3, 3, kSmall + 1}, Task{2, 4, 2, kSmall + 2},
                         Task{3, 5, 1, kSmall + 3}, Task{3, 3, 1, kSmall + 4},
                         Task{0, 2, cap - 1, Weight{1} << 62},
                         Task{4, 5, cap - 16, kSmall + 5}});
  };
  const PathInstance twin = instance(64);
  const PathInstance huge = instance(Value{1} << 62);
  const Weight opt = sap_brute_force(twin).weight(twin);

  // Five edges of c_e * y_e ~ 2^125 each: the dual sum overflows 128 bits.
  cert::DualWitness hostile;
  hostile.scale = 1;
  hostile.edge_price.assign(huge.num_edges(),
                            std::numeric_limits<std::int64_t>::max());
  const std::vector<Weight> fallback =
      cert::suffix_upper_bounds(huge, hostile);
  EXPECT_EQ(fallback, weight_suffix_sums(huge));

  for (const std::vector<Weight>& bound :
       {cert::suffix_upper_bounds(huge, lp_prices(huge)), fallback}) {
    const SapExactResult r =
        sap_exact_profile_dp(huge, {.suffix_bound = bound});
    ASSERT_TRUE(r.proven_optimal);
    EXPECT_EQ(r.weight, opt);
  }
}

// The six sapbench certify_cold entries whose exact_dp attempt used to
// overflow its 100k-state beam. Pruning now proves two of them; the other
// four still stop at a truncated edge and fall through to lp_dual.
TEST(LadderTest, PinsTheBeamOverflowingCertifyColdCases) {
  struct Row {
    CapacityProfile profile;
    std::size_t n;
    std::size_t i;
    cert::UbRung rung;
    Weight ub;
  };
  const Row rows[] = {
      {CapacityProfile::kUniform, 24, 3, cert::UbRung::kLpDual, 735},
      {CapacityProfile::kMountain, 12, 0, cert::UbRung::kExactDp, 435},
      {CapacityProfile::kMountain, 24, 2, cert::UbRung::kExactDp, 703},
      {CapacityProfile::kMountain, 24, 3, cert::UbRung::kLpDual, 844},
      {CapacityProfile::kStaircase, 24, 3, cert::UbRung::kLpDual, 779},
      {CapacityProfile::kRandomWalk, 24, 3, cert::UbRung::kLpDual, 757},
  };
  for (const Row& row : rows) {
    const PathInstance inst = certify_cold_instance(row.profile, row.n, row.i);
    const cert::LadderResult ladder = cert::run_upper_bound_ladder(inst);
    ASSERT_TRUE(ladder.proven);
    EXPECT_EQ(ladder.best.rung, row.rung)
        << "n " << row.n << ", i " << row.i << ": "
        << cert::ub_rung_name(ladder.best.rung);
    EXPECT_EQ(ladder.best.value, row.ub) << "n " << row.n << ", i " << row.i;
  }
}

// The new 703 proof, cross-checked by a sweep that prunes nothing and whose
// beam is wide enough (its widest edge holds 129129 states).
TEST(LadderTest, MountainN24ProofMatchesAnUnprunedSweep) {
  const PathInstance inst =
      certify_cold_instance(CapacityProfile::kMountain, 24, 2);
  const SapExactResult unpruned =
      sap_exact_profile_dp(inst, {.max_states = 200'000});
  ASSERT_TRUE(unpruned.proven_optimal);
  EXPECT_EQ(unpruned.weight, 703);
  EXPECT_EQ(unpruned.peak_states, 129'129u);
}

TEST(LadderTest, RingLadderBoundsTheRingSolver) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RingInstance ring = tiny_ring(seed);
    const RingSapSolution sol = solve_ring_sap(ring);
    ASSERT_TRUE(verify_ring_sap(ring, sol)) << "seed " << seed;
    const cert::LadderResult ladder = cert::run_upper_bound_ladder(ring);
    ASSERT_TRUE(ladder.proven) << "seed " << seed;
    EXPECT_GE(ladder.best.value, ring.solution_weight(sol)) << "seed " << seed;
  }
}

// --- Producer + independent checker ----------------------------------------

TEST(CertifyTest, SolverProducedCertificatesPassTheChecker) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const PathInstance inst = tiny_instance(seed);
    SolverParams params;
    params.seed = seed;
    const SapSolution sol = solve_sap(inst, params);
    const cert::CertifyOutcome outcome = cert::certify_solution(inst, sol);
    ASSERT_TRUE(outcome.feasible) << "seed " << seed;
    ASSERT_TRUE(outcome.certified) << outcome.detail;
    const cert::CheckResult check =
        cert::check_certificate(inst, sol, outcome.cert);
    EXPECT_TRUE(check.valid) << "seed " << seed << ": " << check.reason;
    // The certified ratio is a real inequality: w * num >= ub * den.
    EXPECT_GE(outcome.cert.ub.value, outcome.cert.solution_weight);
  }
}

TEST(CertifyTest, EmptySolutionGetsNoFiniteRatio) {
  const PathInstance inst = tiny_instance(5);
  const SapSolution empty;
  const cert::CertifyOutcome outcome = cert::certify_solution(inst, empty);
  ASSERT_TRUE(outcome.certified) << outcome.detail;
  EXPECT_EQ(outcome.cert.solution_weight, 0);
  EXPECT_GT(outcome.cert.ub.value, 0);
  EXPECT_EQ(outcome.cert.alpha_den, 0);  // "no finite ratio"
  EXPECT_TRUE(cert::check_certificate(inst, empty, outcome.cert).valid);
}

TEST(CertifyTest, InfeasibleSolutionIsNotCertified) {
  const PathInstance inst = tiny_instance(5);
  SapSolution bogus;
  bogus.placements.push_back({0, Value{-1}});  // negative height
  const cert::CertifyOutcome outcome = cert::certify_solution(inst, bogus);
  EXPECT_FALSE(outcome.feasible);
  EXPECT_FALSE(outcome.certified);
  EXPECT_NE(outcome.detail.find("infeasible"), std::string::npos);
}

// --- Mutation rejection -----------------------------------------------------

/// Fixture holding one certified (instance, solution, certificate) triple;
/// each test mutates one aspect and expects rejection.
class MutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inst_ = tiny_instance(11);
    sol_ = solve_sap(inst_);
    const cert::CertifyOutcome outcome = cert::certify_solution(inst_, sol_);
    ASSERT_TRUE(outcome.certified) << outcome.detail;
    cert_ = outcome.cert;
    ASSERT_TRUE(cert::check_certificate(inst_, sol_, cert_).valid);

    // A second certificate pinned to the lp_dual rung, for dual-witness
    // mutations.
    cert::CertifyOptions lp_only;
    lp_only.ladder = only_rung(cert::UbRung::kLpDual);
    const cert::CertifyOutcome lp_outcome =
        cert::certify_solution(inst_, sol_, lp_only);
    ASSERT_TRUE(lp_outcome.certified) << lp_outcome.detail;
    ASSERT_EQ(lp_outcome.cert.ub.rung, cert::UbRung::kLpDual);
    lp_cert_ = lp_outcome.cert;
    ASSERT_TRUE(cert::check_certificate(inst_, sol_, lp_cert_).valid);
  }

  void expect_rejected(const cert::Certificate& cert, const char* what) {
    const cert::CheckResult check =
        cert::check_certificate(inst_, sol_, cert);
    EXPECT_FALSE(check.valid) << what << " was accepted";
    EXPECT_FALSE(check.reason.empty()) << what;
  }

  PathInstance inst_;
  SapSolution sol_;
  cert::Certificate cert_;
  cert::Certificate lp_cert_;
};

TEST_F(MutationTest, InflatedSolutionWeight) {
  cert::Certificate c = cert_;
  c.solution_weight += 1;
  expect_rejected(c, "inflated solution weight");
}

TEST_F(MutationTest, DeflatedSolutionWeight) {
  cert::Certificate c = cert_;
  c.solution_weight -= 1;
  expect_rejected(c, "deflated solution weight");
}

TEST_F(MutationTest, TamperedExactBound) {
  cert::Certificate c = cert_;
  ASSERT_EQ(c.ub.rung, cert::UbRung::kExactDp);
  c.ub.value += 1;  // no longer equals the recomputed exact optimum
  expect_rejected(c, "tampered exact_dp bound");
}

TEST_F(MutationTest, TamperedTotalWeightBound) {
  cert::Certificate c = cert_;
  c.ub.rung = cert::UbRung::kTotalWeight;
  c.ub.value += 12345;  // does not equal sum of weights
  expect_rejected(c, "tampered total_weight bound");
}

TEST_F(MutationTest, OverstatedRatioClaim) {
  cert::Certificate c = cert_;
  if (c.solution_weight == c.ub.value) GTEST_SKIP() << "solve was optimal";
  c.alpha_num = 1;
  c.alpha_den = 1;  // claims w(S) >= UB, which is false here
  expect_rejected(c, "overstated ratio claim");
}

TEST_F(MutationTest, MalformedRatioClaim) {
  cert::Certificate c = cert_;
  c.alpha_num = 0;
  c.alpha_den = 0;
  expect_rejected(c, "0/0 ratio claim");
  c = cert_;
  c.alpha_num = -1;
  expect_rejected(c, "negative ratio claim");
}

TEST_F(MutationTest, WrongKind) {
  cert::Certificate c = cert_;
  c.kind = cert::Certificate::Kind::kRing;
  expect_rejected(c, "ring certificate for a path instance");
}

TEST_F(MutationTest, TamperedDualBound) {
  cert::Certificate c = lp_cert_;
  c.ub.value -= 1;  // no longer matches the witness evaluation
  expect_rejected(c, "tampered lp_dual bound");
}

TEST_F(MutationTest, NegativeDualPrice) {
  cert::Certificate c = lp_cert_;
  ASSERT_FALSE(c.ub.dual.edge_price.empty());
  c.ub.dual.edge_price[0] = -1;
  expect_rejected(c, "negative dual price");
}

TEST_F(MutationTest, WrongDualPriceCount) {
  cert::Certificate c = lp_cert_;
  c.ub.dual.edge_price.pop_back();
  expect_rejected(c, "short dual price vector");
}

TEST_F(MutationTest, NonPositiveDualScale) {
  cert::Certificate c = lp_cert_;
  c.ub.dual.scale = 0;
  expect_rejected(c, "zero dual scale");
}

TEST_F(MutationTest, MutatedSolutionDuplicateTask) {
  ASSERT_FALSE(sol_.placements.empty());
  SapSolution bad = sol_;
  bad.placements.push_back(bad.placements.front());
  EXPECT_FALSE(cert::check_certificate(inst_, bad, cert_).valid);
}

TEST_F(MutationTest, MutatedSolutionNegativeHeight) {
  ASSERT_FALSE(sol_.placements.empty());
  SapSolution bad = sol_;
  bad.placements.front().height = -1;
  EXPECT_FALSE(cert::check_certificate(inst_, bad, cert_).valid);
}

TEST_F(MutationTest, MutatedSolutionAboveCapacity) {
  ASSERT_FALSE(sol_.placements.empty());
  SapSolution bad = sol_;
  bad.placements.front().height = Value{1} << 40;
  EXPECT_FALSE(cert::check_certificate(inst_, bad, cert_).valid);
}

TEST_F(MutationTest, MutatedSolutionOutOfRangeTask) {
  SapSolution bad = sol_;
  bad.placements.push_back(
      {static_cast<TaskId>(inst_.num_tasks()), Value{0}});
  EXPECT_FALSE(cert::check_certificate(inst_, bad, cert_).valid);
}

TEST(CheckTest, ExactRungBeyondVerifierBudgetIsUnverifiable) {
  const PathInstance inst = tiny_instance(4);
  const SapSolution sol = solve_sap(inst);
  const cert::CertifyOutcome outcome = cert::certify_solution(inst, sol);
  ASSERT_TRUE(outcome.certified);
  ASSERT_EQ(outcome.cert.ub.rung, cert::UbRung::kExactDp);
  cert::CheckOptions strict;
  strict.exact_recheck_max_tasks = 2;  // below this instance's task count
  const cert::CheckResult check =
      cert::check_certificate(inst, sol, outcome.cert, strict);
  EXPECT_FALSE(check.valid);
  EXPECT_NE(check.reason.find("unverifiable"), std::string::npos)
      << check.reason;
}

TEST(CheckTest, RingCertificateRejectsExactRungs) {
  const RingInstance ring = tiny_ring(3);
  const RingSapSolution sol = solve_ring_sap(ring);
  const cert::CertifyOutcome outcome = cert::certify_solution(ring, sol);
  ASSERT_TRUE(outcome.certified) << outcome.detail;
  cert::Certificate c = outcome.cert;
  c.ub.rung = cert::UbRung::kExactDp;
  EXPECT_FALSE(cert::check_certificate(ring, sol, c).valid);
}

TEST(CheckTest, RingMutationsAreRejected) {
  const RingInstance ring = tiny_ring(9);
  const RingSapSolution sol = solve_ring_sap(ring);
  const cert::CertifyOutcome outcome = cert::certify_solution(ring, sol);
  ASSERT_TRUE(outcome.certified) << outcome.detail;
  ASSERT_TRUE(cert::check_certificate(ring, sol, outcome.cert).valid);

  cert::Certificate c = outcome.cert;
  c.solution_weight += 1;
  EXPECT_FALSE(cert::check_certificate(ring, sol, c).valid);

  c = outcome.cert;
  c.kind = cert::Certificate::Kind::kPath;
  EXPECT_FALSE(cert::check_certificate(ring, sol, c).valid);

  if (!sol.placements.empty()) {
    RingSapSolution bad = sol;
    bad.placements.push_back(bad.placements.front());
    EXPECT_FALSE(cert::check_certificate(ring, bad, outcome.cert).valid);
  }
}

// --- Certificate text round-trip (producer -> io -> checker) ---------------

TEST(CertifyTest, CertificateSurvivesTextRoundTrip) {
  const PathInstance inst = tiny_instance(13);
  const SapSolution sol = solve_sap(inst);

  // Pin the lp_dual rung so the round-trip covers the dual witness too.
  cert::CertifyOptions lp_only;
  lp_only.ladder = only_rung(cert::UbRung::kLpDual);
  const cert::CertifyOutcome outcome =
      cert::certify_solution(inst, sol, lp_only);
  ASSERT_TRUE(outcome.certified) << outcome.detail;

  std::stringstream ss;
  write_certificate(ss, outcome.cert);
  const cert::Certificate parsed = read_certificate(ss);
  EXPECT_EQ(parsed.kind, outcome.cert.kind);
  EXPECT_EQ(parsed.solution_weight, outcome.cert.solution_weight);
  EXPECT_EQ(parsed.ub.rung, outcome.cert.ub.rung);
  EXPECT_EQ(parsed.ub.value, outcome.cert.ub.value);
  EXPECT_EQ(parsed.alpha_num, outcome.cert.alpha_num);
  EXPECT_EQ(parsed.alpha_den, outcome.cert.alpha_den);
  EXPECT_EQ(parsed.ub.dual.scale, outcome.cert.ub.dual.scale);
  EXPECT_EQ(parsed.ub.dual.edge_price, outcome.cert.ub.dual.edge_price);
  EXPECT_TRUE(cert::check_certificate(inst, sol, parsed).valid);
}

}  // namespace
}  // namespace sap
