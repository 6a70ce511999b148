// Certification subsystem tests: every ladder rung is a true upper bound on
// the exact optimum across a tiny-instance sweep, solver-produced
// certificates pass the independent checker, and hand-mutated certificates
// (wrong weights, tampered bounds, hostile dual witnesses, infeasible
// solutions, mismatched kinds) are rejected.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "src/cert/certify.hpp"
#include "src/cert/check.hpp"
#include "src/cert/ladder.hpp"
#include "src/core/ring_solver.hpp"
#include "src/core/sap_solver.hpp"
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

TEST(LadderTest, RingLadderBoundsTheRingSolver) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RingInstance ring = tiny_ring(seed);
    const RingSapSolution sol = solve_ring_sap(ring);
    ASSERT_TRUE(verify_ring_sap(ring, sol)) << "seed " << seed;
    const cert::LadderResult ladder = cert::run_ring_upper_bound_ladder(ring);
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
