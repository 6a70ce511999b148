// Ring-network scenario (Section 7): wavelength/frequency allocation on a
// SONET-like ring. Each connection picks a clockwise or counter-clockwise
// route and a contiguous frequency band that stays fixed along the route.
#include <cstdio>

#include "src/core/ring_solver.hpp"
#include "src/gen/generators.hpp"
#include "src/model/ring_instance.hpp"

int main() {
  using namespace sap;
  Rng rng(2013);

  RingGenOptions opt;
  opt.num_edges = 12;       // 12 stations around the ring
  opt.num_tasks = 40;       // connection requests
  opt.min_capacity = 16;    // frequency slots per fiber segment
  opt.max_capacity = 48;
  const RingInstance ring = generate_ring_instance(opt, rng);

  std::printf("ring with %zu segments, %zu connection requests\n",
              ring.num_edges(), ring.num_tasks());
  std::printf("segment capacities:");
  for (std::size_t e = 0; e < ring.num_edges(); ++e) {
    std::printf(" %lld", static_cast<long long>(ring.capacity(
                             static_cast<EdgeId>(e))));
  }
  std::printf("\n\n");

  RingSolveReport report;
  const RingSapSolution sol = solve_ring_sap(ring, {}, &report);
  const VerifyResult ok = verify_ring_sap(ring, sol);

  std::printf("cut edge: %d (capacity %lld)\n", report.cut_edge,
              static_cast<long long>(ring.capacity(report.cut_edge)));
  std::printf("path branch weight:       %lld\n",
              static_cast<long long>(report.path_weight));
  std::printf("through-cut (knapsack):   %lld\n",
              static_cast<long long>(report.knapsack_weight));
  std::printf("winner: %s\n",
              report.winner == RingBranch::kPath ? "path" : "through-cut");
  std::printf("accepted %zu connections, total weight %lld (feasible: %s)\n\n",
              sol.size(), static_cast<long long>(ring.solution_weight(sol)),
              ok ? "yes" : ok.reason.c_str());

  std::printf("connection  route  band\n");
  for (const RingPlacement& p : sol.placements) {
    const RingTask& t = ring.task(p.task);
    std::printf("  %3d  %d->%d  %-4s  [%lld, %lld)\n", p.task, t.start,
                t.end, p.clockwise ? "cw" : "ccw",
                static_cast<long long>(p.height),
                static_cast<long long>(p.height + t.demand));
  }
  return ok ? 0 : 1;
}
