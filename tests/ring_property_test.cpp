// Parameterized property sweep for the ring pipeline: feasibility across
// ring sizes, capacity spreads and seeds, plus structural checks on the
// reduction (routes avoiding the cut edge, knapsack stack shape).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/ring_solver.hpp"
#include "src/gen/generators.hpp"

namespace sap {
namespace {

struct RingCase {
  std::size_t edges;
  std::size_t tasks;
  Value cap_lo;
  Value cap_hi;
  std::uint64_t seed;
};

// Built by appending: GCC 12 at -O3 reports a false -Wrestrict on
// "literal" + std::string.
std::string CaseName(const testing::TestParamInfo<RingCase>& info) {
  return std::string("m")
      .append(std::to_string(info.param.edges))
      .append("n")
      .append(std::to_string(info.param.tasks))
      .append("c")
      .append(std::to_string(info.param.cap_lo))
      .append("to")
      .append(std::to_string(info.param.cap_hi))
      .append("s")
      .append(std::to_string(info.param.seed));
}

class RingPropertyTest : public testing::TestWithParam<RingCase> {};

TEST_P(RingPropertyTest, SolverOutputFeasibleAndConsistent) {
  const RingCase& param = GetParam();
  Rng rng(param.seed * 4099 + 11);
  RingGenOptions opt;
  opt.num_edges = param.edges;
  opt.num_tasks = param.tasks;
  opt.min_capacity = param.cap_lo;
  opt.max_capacity = param.cap_hi;
  const RingInstance ring = generate_ring_instance(opt, rng);

  RingSolveReport report;
  const RingSapSolution sol = solve_ring_sap(ring, {}, &report);
  ASSERT_TRUE(verify_ring_sap(ring, sol))
      << verify_ring_sap(ring, sol).reason;

  // The cut edge really is a minimum-capacity edge.
  for (std::size_t e = 0; e < ring.num_edges(); ++e) {
    EXPECT_GE(ring.capacity(static_cast<EdgeId>(e)),
              ring.capacity(report.cut_edge));
  }

  if (report.winner == RingBranch::kPath) {
    // No selected route may use the cut edge.
    for (const RingPlacement& p : sol.placements) {
      const auto route = ring.route_edges(p.task, p.clockwise);
      EXPECT_EQ(std::ranges::find(route, report.cut_edge), route.end());
    }
  } else {
    // Through-cut branch: every route uses the cut edge and the stack is
    // gap-free from 0 (the knapsack packing).
    std::vector<std::pair<Value, Value>> spans;
    for (const RingPlacement& p : sol.placements) {
      const auto route = ring.route_edges(p.task, p.clockwise);
      EXPECT_NE(std::ranges::find(route, report.cut_edge), route.end());
      spans.emplace_back(p.height,
                         p.height + ring.task(p.task).demand);
    }
    std::ranges::sort(spans);
    Value expected = 0;
    for (const auto& [bottom, top] : spans) {
      EXPECT_EQ(bottom, expected);
      expected = top;
    }
    EXPECT_LE(expected, ring.capacity(report.cut_edge));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RingPropertyTest,
    testing::ValuesIn([] {
      std::vector<RingCase> cases;
      for (std::size_t edges : {4u, 8u, 16u}) {
        for (std::size_t tasks : {6u, 18u}) {
          for (auto [lo, hi] : {std::pair<Value, Value>{8, 8},
                                std::pair<Value, Value>{4, 32}}) {
            for (std::uint64_t seed : {1ULL, 2ULL}) {
              cases.push_back({edges, tasks, lo, hi, seed});
            }
          }
        }
      }
      return cases;
    }()),
    CaseName);

}  // namespace
}  // namespace sap
