// Golden byte-identical regression corpus.
//
// Every case pins a seeded instance (an E6-grid slice plus adversarial and
// paper constructions), runs the full solver (and, where marked, the
// certification ladder), and serializes instance + solution + stage report +
// certificate into one deterministic text blob. The blobs are checked in
// under tests/golden/ and the test fails on ANY byte difference — this is
// the lock that proves substrate refactors (arena allocation, flat
// tableaus, pricing rewires) change nothing observable.
//
// Regenerating fixtures (only when an *intentional* behavior change lands):
//   SAPKIT_GOLDEN_REGEN=1 ./golden_test
// rewrites every fixture in the source tree; review the diff like code.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cert/certify.hpp"
#include "src/core/ring_solver.hpp"
#include "src/core/sap_solver.hpp"
#include "src/exact/brute_force.hpp"
#include "src/gen/generators.hpp"
#include "src/gen/hardness.hpp"
#include "src/gen/paper_instances.hpp"
#include "src/harness/batch_runner.hpp"
#include "src/io/instance_io.hpp"
#include "src/model/verify.hpp"
#include "src/ufpp/branch_and_bound.hpp"
#include "src/util/telemetry.hpp"

#ifndef SAPKIT_GOLDEN_DIR
#error "SAPKIT_GOLDEN_DIR must point at the checked-in fixture directory"
#endif

namespace sap {
namespace {

const char* winner_name(SolverBranch winner) {
  switch (winner) {
    case SolverBranch::kSmall:
      return "small";
    case SolverBranch::kMedium:
      return "medium";
    case SolverBranch::kLarge:
      return "large";
  }
  return "?";
}

/// One corpus entry: a name (also the fixture file name), the instance, the
/// solver configuration, and whether the certification ladder runs too.
struct GoldenCase {
  std::string name;
  PathInstance instance;
  SolverParams params;
  bool certify = false;
};

PathInstance e6_instance(CapacityProfile profile, std::size_t n) {
  // Matches the bench_service / bench_full_solver E6 grid (seed index 0).
  Rng rng(batch_case_seed(5000 + n, 0));
  PathGenOptions gen;
  gen.num_edges = 12;
  gen.num_tasks = n;
  gen.profile = profile;
  gen.min_capacity = 8;
  gen.max_capacity = 48;
  gen.demand = DemandClass::kMixed;
  return generate_path_instance(gen, rng);
}

std::vector<GoldenCase> build_path_corpus() {
  std::vector<GoldenCase> corpus;
  const std::pair<CapacityProfile, const char*> profiles[] = {
      {CapacityProfile::kUniform, "uniform"},
      {CapacityProfile::kValley, "valley"},
      {CapacityProfile::kMountain, "mountain"},
      {CapacityProfile::kStaircase, "staircase"},
      {CapacityProfile::kRandomWalk, "walk"},
  };
  // The E6 grid slice: every profile at every size; certificates on the
  // small instances where the exact rungs stay cheap.
  for (const auto& [profile, name] : profiles) {
    for (const std::size_t n : {12u, 24u, 48u}) {
      GoldenCase c{std::string("e6_") + name + "_n" + std::to_string(n),
                   e6_instance(profile, n),
                   {},
                   /*certify=*/n == 12};
      corpus.push_back(std::move(c));
    }
  }

  // The LP-rounding small-task backend (exercises the simplex + randomized
  // rounding path that the default local-ratio backend skips).
  for (const auto* name : {"uniform", "valley"}) {
    const CapacityProfile profile = std::string(name) == "uniform"
                                        ? CapacityProfile::kUniform
                                        : CapacityProfile::kValley;
    GoldenCase c{std::string("lp_rounding_") + name + "_n24",
                 e6_instance(profile, 24),
                 {},
                 /*certify=*/false};
    c.params.small_backend = SmallTaskBackend::kLpRounding;
    corpus.push_back(std::move(c));
  }

  // Adversarial: the NP-hardness gadget, packable and unpackable.
  {
    const Value sizes_yes[] = {3, 3, 2, 2, 1, 1};
    corpus.push_back({"gadget_two_bin_packable",
                      two_bin_packing_gadget(sizes_yes, 6).instance,
                      {},
                      /*certify=*/true});
    const Value sizes_no[] = {5, 5, 5, 1};
    corpus.push_back({"gadget_two_bin_unpackable",
                      two_bin_packing_gadget(sizes_no, 8).instance,
                      {},
                      /*certify=*/true});
  }

  // Paper constructions: the UFPP-vs-SAP gap and the odd-cycle witness.
  corpus.push_back({"paper_fig1b", fig1b_instance(), {}, /*certify=*/true});
  corpus.push_back(
      {"paper_fig8", fig8_instance().instance, {}, /*certify=*/true});

  // Tall capacities: drives the medium stage into the grounded-heights
  // heuristic (capacities above medium_exact_capacity_limit).
  {
    Rng rng(batch_case_seed(9100, 0));
    PathGenOptions gen;
    gen.num_edges = 10;
    gen.num_tasks = 20;
    gen.min_capacity = 1 << 16;
    gen.max_capacity = 1 << 18;
    gen.demand = DemandClass::kMixed;
    corpus.push_back({"tall_capacities_n20",
                      generate_path_instance(gen, rng),
                      {},
                      /*certify=*/true});
  }

  // Area-weighted staircase: weights correlated with demand * span bias the
  // winner toward large/medium branches.
  {
    Rng rng(batch_case_seed(9200, 0));
    PathGenOptions gen;
    gen.num_edges = 12;
    gen.num_tasks = 24;
    gen.profile = CapacityProfile::kStaircase;
    gen.min_capacity = 8;
    gen.max_capacity = 48;
    gen.weight_by_area = true;
    corpus.push_back({"staircase_area_weighted_n24",
                      generate_path_instance(gen, rng),
                      {},
                      /*certify=*/false});
  }
  return corpus;
}

std::string render_path_case(const GoldenCase& c) {
  std::ostringstream os;
  os << "sap-golden v1\n";
  os << "case " << c.name << "\n";
  os << "-- instance\n";
  write_path_instance(os, c.instance);
  SolveReport report;
  const SapSolution sol = solve_sap(c.instance, c.params, &report);
  os << "-- solution\n";
  write_sap_solution(os, sol);
  os << "-- weights small " << report.small_weight << " medium "
     << report.medium_weight << " large " << report.large_weight
     << " winner " << winner_name(report.winner) << "\n";
  if (c.certify) {
    const cert::CertifyOutcome outcome = cert::certify_solution(c.instance, sol);
    os << "-- certificate feasible " << (outcome.feasible ? 1 : 0)
       << " certified " << (outcome.certified ? 1 : 0) << "\n";
    if (outcome.certified) write_certificate(os, outcome.cert);
  }
  os << "end-golden\n";
  return os.str();
}

struct RingGoldenCase {
  std::string name;
  RingInstance instance;
  bool certify = false;
};

std::vector<RingGoldenCase> build_ring_corpus() {
  std::vector<RingGoldenCase> corpus;
  for (const std::size_t n : {16u, 24u}) {
    Rng rng(batch_case_seed(9300 + n, 0));
    RingGenOptions gen;
    gen.num_edges = 10;
    gen.num_tasks = n;
    gen.min_capacity = 8;
    gen.max_capacity = 32;
    corpus.push_back({"ring_n" + std::to_string(n),
                      generate_ring_instance(gen, rng),
                      /*certify=*/true});
  }
  return corpus;
}

std::string render_ring_case(const RingGoldenCase& c) {
  std::ostringstream os;
  os << "sap-golden v1\n";
  os << "case " << c.name << "\n";
  os << "-- instance\n";
  write_ring_instance(os, c.instance);
  RingSolveReport report;
  const RingSapSolution sol = solve_ring_sap(c.instance, {}, &report);
  os << "-- solution\n";
  write_ring_solution(os, sol);
  os << "-- ring-report cut " << report.cut_edge << " path "
     << report.path_weight << " knapsack " << report.knapsack_weight
     << " winner "
     << (report.winner == RingBranch::kPath ? "path" : "through-cut") << "\n";
  if (c.certify) {
    const cert::CertifyOutcome outcome = cert::certify_solution(c.instance, sol);
    os << "-- certificate feasible " << (outcome.feasible ? 1 : 0)
       << " certified " << (outcome.certified ? 1 : 0) << "\n";
    if (outcome.certified) write_certificate(os, outcome.cert);
  }
  os << "end-golden\n";
  return os.str();
}

bool regen_requested() {
  const char* env = std::getenv("SAPKIT_GOLDEN_REGEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string fixture_path(const std::string& name) {
  return std::string(SAPKIT_GOLDEN_DIR) + "/" + name + ".txt";
}

/// Compares `rendered` against the checked-in fixture byte for byte; under
/// SAPKIT_GOLDEN_REGEN the fixture is rewritten instead. The failure message
/// pinpoints the first differing line so a diff is readable without tooling.
void check_against_fixture(const std::string& name,
                           const std::string& rendered) {
  SCOPED_TRACE(name);
  const std::string path = fixture_path(name);
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write fixture " << path;
    out << rendered;
    ASSERT_TRUE(out.good()) << "short write on fixture " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " (run with SAPKIT_GOLDEN_REGEN=1 to create)";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected == rendered) return;

  // Byte difference: report the first differing line, then fail hard.
  std::istringstream a(expected);
  std::istringstream b(rendered);
  std::string la;
  std::string lb;
  std::size_t line = 0;
  while (true) {
    ++line;
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    if (!ga || !gb || la != lb) {
      FAIL() << "golden mismatch in " << name << " at line " << line
             << "\n  fixture:  " << (ga ? la : std::string("<eof>"))
             << "\n  rendered: " << (gb ? lb : std::string("<eof>"));
    }
  }
  FAIL() << "golden mismatch in " << name
         << " (same lines, different bytes — check trailing whitespace)";
}

TEST(GoldenCorpusTest, PathCasesAreByteIdentical) {
  for (const GoldenCase& c : build_path_corpus()) {
    check_against_fixture(c.name, render_path_case(c));
  }
}

/// The instance of the corpus case `name` (one with default solver params).
PathInstance corpus_instance(const std::string& name) {
  for (GoldenCase& c : build_path_corpus()) {
    if (c.name == name) return std::move(c.instance);
  }
  throw std::logic_error(name + " is not in the corpus");
}

/// Re-solves a fixture case, checks that its solution is feasible and that
/// its certificate is an exact_dp bound of `ub` which the brute force
/// reaches. Returns the instance for further oracle checks.
PathInstance expect_exact_dp_bound_matches_brute_force(const std::string& name,
                                                       Weight ub) {
  SCOPED_TRACE(name);
  PathInstance inst = corpus_instance(name);
  const SapSolution sol = solve_sap(inst);
  const VerifyResult feasible = verify_sap(inst, sol);
  EXPECT_TRUE(feasible) << feasible.reason;
  const cert::CertifyOutcome outcome = cert::certify_solution(inst, sol);
  EXPECT_TRUE(outcome.certified);
  EXPECT_EQ(outcome.cert.ub.rung, cert::UbRung::kExactDp);
  EXPECT_EQ(outcome.cert.ub.value, ub);
  EXPECT_EQ(sap_brute_force(inst).weight(inst), ub);
  return inst;
}

// e6_mountain_n12's certificate moved from ufpp_bnb to exact_dp once the
// ladder's DP learned to prune (its unpruned sweep needs 104418 states at
// the widest edge, over the 100k beam). The re-blessed fixture is only
// trusted because two independent oracles agree on the bound it records.
// Its solution lines were re-blessed again when slot lifetimes were cut to
// the last start edge (an equal-weight tie broke the other way).
TEST(GoldenCorpusTest, MountainN12ExactDpBoundMatchesTheOracles) {
  const PathInstance inst =
      expect_exact_dp_bound_matches_brute_force("e6_mountain_n12", 435);
  const UfppExactResult ufpp = ufpp_exact(inst);
  ASSERT_TRUE(ufpp.proven_optimal);
  EXPECT_EQ(ufpp.weight, 435);
}

// paper_fig1b's solution lines were re-blessed with start-edge lifetimes
// (an equal-weight tie broke the other way): the new solution must still be
// feasible and the bound the brute-force optimum. UFPP packs all eight
// tasks, which is the figure's point: OPT_UFPP = 8 > OPT_SAP = 7.
TEST(GoldenCorpusTest, PaperFig1bExactDpBoundMatchesTheOracles) {
  const PathInstance inst =
      expect_exact_dp_bound_matches_brute_force("paper_fig1b", 7);
  const UfppExactResult ufpp = ufpp_exact(inst);
  ASSERT_TRUE(ufpp.proven_optimal);
  EXPECT_EQ(ufpp.weight, 8);
}

// A deterministic work ceiling on the one hot loop: the profile DP states
// created while solving the 15 E6 cases. It counts work, not time, so it
// holds on any machine; a change that makes the DP do more than 10% more
// work than the recorded figure fails here even if every byte above agrees.
TEST(GoldenCorpusTest, E6ProfileDpWorkStaysUnderCeiling) {
  constexpr std::int64_t kRecordedStatesExpanded = 57104;
  TelemetryReport report;
  {
    const TelemetrySession session(&report);
    for (const GoldenCase& c : build_path_corpus()) {
      if (c.name.rfind("e6_", 0) != 0) continue;
      static_cast<void>(solve_sap(c.instance, c.params));
    }
  }
  const std::int64_t expanded = report.count("dp.states.expanded");
  EXPECT_GT(expanded, 0);
  EXPECT_LE(expanded * 10, kRecordedStatesExpanded * 11)
      << "dp.states.expanded = " << expanded << ", recorded "
      << kRecordedStatesExpanded;
  EXPECT_EQ(report.count("dp.truncated"), 0);
}

TEST(GoldenCorpusTest, RingCasesAreByteIdentical) {
  for (const RingGoldenCase& c : build_ring_corpus()) {
    check_against_fixture(c.name, render_ring_case(c));
  }
}

// The corpus is only a lock if reruns are reproducible within one binary:
// a second render of a case must equal the first (catches hidden global
// state — static caches, leaked RNG state — that would make the fixture
// comparison flaky rather than meaningful).
TEST(GoldenCorpusTest, RenderingIsReproducibleWithinProcess) {
  const std::vector<GoldenCase> corpus = build_path_corpus();
  const GoldenCase& probe = corpus.front();
  EXPECT_EQ(render_path_case(probe), render_path_case(probe));
}

}  // namespace
}  // namespace sap
