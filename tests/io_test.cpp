// Tests for the plain-text instance/solution (de)serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "src/gen/generators.hpp"
#include "src/io/instance_io.hpp"
#include "src/model/verify.hpp"

namespace sap {
namespace {

TEST(InstanceIoTest, PathRoundTrip) {
  Rng rng(271);
  for (int trial = 0; trial < 10; ++trial) {
    PathGenOptions opt;
    opt.num_edges = 8;
    opt.num_tasks = 12;
    const PathInstance inst = generate_path_instance(opt, rng);
    const PathInstance back = path_instance_from_string(to_string(inst));
    ASSERT_EQ(back.num_edges(), inst.num_edges());
    ASSERT_EQ(back.num_tasks(), inst.num_tasks());
    EXPECT_EQ(back.capacities(), inst.capacities());
    EXPECT_EQ(back.tasks(), inst.tasks());
  }
}

TEST(InstanceIoTest, RingRoundTrip) {
  Rng rng(277);
  RingGenOptions opt;
  opt.num_edges = 8;
  opt.num_tasks = 10;
  const RingInstance ring = generate_ring_instance(opt, rng);
  std::stringstream buffer;
  write_ring_instance(buffer, ring);
  const RingInstance back = read_ring_instance(buffer);
  ASSERT_EQ(back.num_edges(), ring.num_edges());
  ASSERT_EQ(back.num_tasks(), ring.num_tasks());
  EXPECT_EQ(back.capacities(), ring.capacities());
  for (std::size_t j = 0; j < ring.num_tasks(); ++j) {
    EXPECT_EQ(back.task(static_cast<TaskId>(j)).start,
              ring.task(static_cast<TaskId>(j)).start);
    EXPECT_EQ(back.task(static_cast<TaskId>(j)).demand,
              ring.task(static_cast<TaskId>(j)).demand);
  }
}

TEST(InstanceIoTest, SolutionRoundTrip) {
  const SapSolution sol{{{3, 0}, {1, 7}, {0, 2}}};
  std::stringstream buffer;
  write_sap_solution(buffer, sol);
  const SapSolution back = read_sap_solution(buffer);
  EXPECT_EQ(back.placements, sol.placements);
}

TEST(InstanceIoTest, CommentsAndWhitespaceTolerated) {
  const std::string text = R"(# a header comment
sap-path v1
edges 2
# capacities follow
capacities 4    8
tasks 1
0 1 2 5
)";
  const PathInstance inst = path_instance_from_string(text);
  EXPECT_EQ(inst.num_edges(), 2u);
  EXPECT_EQ(inst.task(0).weight, 5);
}

TEST(InstanceIoTest, RingSolutionRoundTrip) {
  const RingSapSolution sol{{{2, 0, true}, {0, 5, false}, {1, 3, true}}};
  std::stringstream buffer;
  write_ring_solution(buffer, sol);
  const RingSapSolution back = read_ring_solution(buffer);
  ASSERT_EQ(back.placements.size(), sol.placements.size());
  for (std::size_t i = 0; i < sol.placements.size(); ++i) {
    EXPECT_EQ(back.placements[i].task, sol.placements[i].task);
    EXPECT_EQ(back.placements[i].height, sol.placements[i].height);
    EXPECT_EQ(back.placements[i].clockwise, sol.placements[i].clockwise);
  }
}

TEST(InstanceIoTest, ErrorsCarryLineNumbers) {
  try {
    (void)path_instance_from_string(
        "sap-path v1\nedges 2\ncapacities 4 8\ntasks 1\n0 1 oops 5\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 5"), std::string::npos)
        << error.what();
  }
  try {
    (void)path_instance_from_string("sap-path v1\nedges x\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }
}

TEST(InstanceIoTest, CountsCheckedAgainstLimitsBeforeAllocation) {
  ReadLimits limits;
  limits.max_tasks = 2;
  const std::string text =
      "sap-path v1\nedges 1\ncapacities 9\ntasks 3\n"
      "0 0 1 1\n0 0 1 1\n0 0 1 1\n";
  std::istringstream over(text);
  try {
    (void)read_path_instance(over, limits);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("exceeds limit"),
              std::string::npos)
        << error.what();
  }
  std::istringstream under(text);
  limits.max_tasks = 3;
  EXPECT_EQ(read_path_instance(under, limits).num_tasks(), 3u);
}

TEST(InstanceIoTest, OverflowingAndNegativeCountsRejected) {
  // A count that overflows int64 must be rejected, not wrapped.
  EXPECT_THROW(path_instance_from_string(
                   "sap-path v1\nedges 99999999999999999999999999\n"),
               std::invalid_argument);
  EXPECT_THROW(path_instance_from_string("sap-path v1\nedges -1\n"),
               std::invalid_argument);
  // An edge index outside EdgeId's 32-bit range must be rejected, not
  // silently narrowed.
  EXPECT_THROW(
      path_instance_from_string("sap-path v1\nedges 1\ncapacities 9\n"
                                "tasks 1\n0 4294967296 1 1\n"),
      std::invalid_argument);
}

TEST(InstanceIoTest, RejectsMalformedInput) {
  EXPECT_THROW(path_instance_from_string(""), std::invalid_argument);
  EXPECT_THROW(path_instance_from_string("sap-ring v1"),
               std::invalid_argument);
  EXPECT_THROW(path_instance_from_string("sap-path v2"),
               std::invalid_argument);
  EXPECT_THROW(
      path_instance_from_string("sap-path v1\nedges x\n"),
      std::invalid_argument);
  EXPECT_THROW(
      path_instance_from_string("sap-path v1\nedges 1\ncapacities 4\n"
                                "tasks 1\n0 0 2\n"),
      std::invalid_argument);  // truncated task line
  // Structural validation still applies after parsing.
  EXPECT_THROW(
      path_instance_from_string("sap-path v1\nedges 1\ncapacities 4\n"
                                "tasks 1\n0 0 9 1\n"),
      std::invalid_argument);  // demand exceeds bottleneck
}

cert::Certificate certificate_from_string(const std::string& text,
                                          const ReadLimits& limits = {}) {
  std::istringstream is(text);
  return read_certificate(is, limits);
}

TEST(InstanceIoTest, CertificateRoundTrip) {
  cert::Certificate cert;
  cert.kind = cert::Certificate::Kind::kRing;
  cert.solution_weight = 41;
  cert.ub.rung = cert::UbRung::kLpDual;
  cert.ub.value = 97;
  cert.alpha_num = 97;
  cert.alpha_den = 41;
  cert.ub.dual.scale = 1 << 20;
  cert.ub.dual.edge_price = {0, 5, 1048576, 3};
  std::stringstream ss;
  write_certificate(ss, cert);
  const cert::Certificate back = read_certificate(ss);
  EXPECT_EQ(back.kind, cert.kind);
  EXPECT_EQ(back.solution_weight, cert.solution_weight);
  EXPECT_EQ(back.ub.rung, cert.ub.rung);
  EXPECT_EQ(back.ub.value, cert.ub.value);
  EXPECT_EQ(back.alpha_num, cert.alpha_num);
  EXPECT_EQ(back.alpha_den, cert.alpha_den);
  EXPECT_EQ(back.ub.dual.scale, cert.ub.dual.scale);
  EXPECT_EQ(back.ub.dual.edge_price, cert.ub.dual.edge_price);
}

TEST(InstanceIoTest, CertificateWithoutPricesRoundTrips) {
  cert::Certificate cert;
  cert.solution_weight = 7;
  cert.ub.rung = cert::UbRung::kExactDp;
  cert.ub.value = 7;
  std::stringstream ss;
  write_certificate(ss, cert);
  const cert::Certificate back = read_certificate(ss);
  EXPECT_EQ(back.kind, cert::Certificate::Kind::kPath);
  EXPECT_EQ(back.ub.rung, cert::UbRung::kExactDp);
  EXPECT_TRUE(back.ub.dual.empty());
}

TEST(InstanceIoTest, HostileCertificatesRejected) {
  // Wrong magic / version.
  EXPECT_THROW(certificate_from_string("sap-path v1\n"),
               std::invalid_argument);
  EXPECT_THROW(certificate_from_string("sap-cert v2\n"),
               std::invalid_argument);
  // Unknown kind and unknown rung name.
  EXPECT_THROW(certificate_from_string("sap-cert v1\nkind tree\n"),
               std::invalid_argument);
  EXPECT_THROW(
      certificate_from_string("sap-cert v1\nkind path\nweight 1\n"
                              "rung psychic\n"),
      std::invalid_argument);
  // Price count over the read limit is rejected before allocation.
  ReadLimits tight;
  tight.max_edges = 4;
  EXPECT_THROW(
      certificate_from_string("sap-cert v1\nkind path\nweight 1\n"
                              "rung lp_dual\nub 2\nalpha 2 1\n"
                              "prices 1 5\n0 0 0 0 0\nend\n",
                              tight),
      std::invalid_argument);
  // Negative and overflowing counts.
  EXPECT_THROW(
      certificate_from_string("sap-cert v1\nkind path\nweight 1\n"
                              "rung lp_dual\nub 2\nalpha 2 1\n"
                              "prices 1 -1\nend\n"),
      std::invalid_argument);
  EXPECT_THROW(
      certificate_from_string("sap-cert v1\nkind path\nweight 1\n"
                              "rung lp_dual\nub 2\nalpha 2 1\n"
                              "prices 1 99999999999999999999\nend\n"),
      std::invalid_argument);
  // Truncated: missing the "end" terminator.
  EXPECT_THROW(
      certificate_from_string("sap-cert v1\nkind path\nweight 1\n"
                              "rung total_weight\nub 2\nalpha 2 1\n"
                              "prices 1 0\n"),
      std::invalid_argument);
}

}  // namespace
}  // namespace sap
