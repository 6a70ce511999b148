// Unit tests for src/util/telemetry: per-solve scoping, nesting, isolation
// of concurrent collection, the disabled fast path, and JSON output.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "src/cert/certify.hpp"
#include "src/core/sap_solver.hpp"
#include "src/gen/generators.hpp"
#include "src/round/approx.hpp"
#include "src/round/exact.hpp"
#include "src/round/gen.hpp"
#include "src/util/telemetry.hpp"

namespace sap {
namespace {

TEST(TelemetryReportTest, CountersAccumulate) {
  TelemetryReport report;
  report.add_count("a", 2);
  report.add_count("a", 3);
  report.add_count("b", 1);
  EXPECT_EQ(report.count("a"), 5);
  EXPECT_EQ(report.count("b"), 1);
  EXPECT_EQ(report.count("never"), 0);
}

TEST(TelemetryReportTest, TimersAccumulate) {
  TelemetryReport report;
  report.add_time("t", 1, 0.5);
  report.add_time("t", 2, 0.25);
  EXPECT_EQ(report.timer("t").count, 3);
  EXPECT_DOUBLE_EQ(report.timer("t").seconds, 0.75);
  EXPECT_EQ(report.timer("never").count, 0);
}

TEST(TelemetryReportTest, MergeAddsEverything) {
  TelemetryReport a;
  a.add_count("x", 1);
  a.add_time("t", 1, 1.0);
  TelemetryReport b;
  b.add_count("x", 2);
  b.add_count("y", 7);
  b.add_time("t", 1, 0.5);
  a.merge(b);
  EXPECT_EQ(a.count("x"), 3);
  EXPECT_EQ(a.count("y"), 7);
  EXPECT_EQ(a.timer("t").count, 2);
  EXPECT_DOUBLE_EQ(a.timer("t").seconds, 1.5);
}

TEST(TelemetryReportTest, PeaksKeepTheMaximumAndMergeByMax) {
  TelemetryReport a;
  a.add_peak("p", 5);
  a.add_peak("p", 3);
  a.add_count("s", 5);
  EXPECT_EQ(a.count("p"), 5);
  TelemetryReport b;
  b.add_peak("p", 9);
  b.add_peak("q", 2);
  b.add_count("s", 3);
  a.merge(b);
  EXPECT_EQ(a.count("p"), 9);  // max, not 14
  EXPECT_EQ(a.count("q"), 2);
  EXPECT_EQ(a.count("s"), 8);  // plain counters still add
  // A peak first seen through merge() stays a peak in the merged report.
  TelemetryReport c;
  c.add_peak("q", 7);
  c.merge(a);
  EXPECT_EQ(c.count("q"), 7);
  a.merge(c);
  EXPECT_EQ(a.count("q"), 7);
  EXPECT_EQ(a.count("s"), 16);
}

TEST(TelemetryReportTest, DroppedPeaksComeBackAsPeaks) {
  TelemetryReport report;
  report.add_peak("alloc.peak", 4);
  report.drop_counters_with_prefix("alloc.");
  EXPECT_EQ(report.count("alloc.peak"), 0);
  report.add_peak("alloc.peak", 2);
  EXPECT_EQ(report.count("alloc.peak"), 2);
}

TEST(TelemetryReportTest, JsonCountersOnlyModeOmitsTimers) {
  TelemetryReport report;
  report.add_count("n", 4);
  report.add_time("t", 1, 0.5);
  std::ostringstream with_timers;
  report.write_json(with_timers, /*include_timers=*/true);
  std::ostringstream counters_only;
  report.write_json(counters_only, /*include_timers=*/false);
  EXPECT_NE(with_timers.str().find("\"timers\""), std::string::npos);
  EXPECT_EQ(counters_only.str().find("\"timers\""), std::string::npos);
  EXPECT_NE(counters_only.str().find("\"n\": 4"), std::string::npos);
}

TEST(TelemetrySessionTest, DisabledPathRecordsNothing) {
  ASSERT_FALSE(telemetry::enabled());
  telemetry::count("ghost", 42);
  { ScopedTimer timer("ghost.timer"); }
  // Installing a session afterwards must start from a clean slate: nothing
  // recorded above leaks into it.
  TelemetryReport report;
  {
    TelemetrySession session(&report);
    EXPECT_TRUE(telemetry::enabled());
  }
  EXPECT_TRUE(report.empty());
  EXPECT_FALSE(telemetry::enabled());
}

TEST(TelemetrySessionTest, CountsScopedToActiveSession) {
  TelemetryReport first;
  TelemetryReport second;
  {
    TelemetrySession session(&first);
    telemetry::count("hits");
  }
  {
    TelemetrySession session(&second);
    telemetry::count("hits", 2);
  }
  telemetry::count("hits", 100);  // no session: dropped
  EXPECT_EQ(first.count("hits"), 1);
  EXPECT_EQ(second.count("hits"), 2);
}

TEST(TelemetrySessionTest, NestedSessionsShadowAndRestore) {
  TelemetryReport outer;
  TelemetryReport inner;
  TelemetrySession outer_session(&outer);
  telemetry::count("n");
  {
    TelemetrySession inner_session(&inner);
    telemetry::count("n", 10);
  }
  telemetry::count("n");
  EXPECT_EQ(outer.count("n"), 2);
  EXPECT_EQ(inner.count("n"), 10);
}

// The batch harness's shape: an inner per-solve session, merged into an
// outer aggregate after each solve. Peaks stay peaks across that merge.
TEST(TelemetrySessionTest, NestedSessionPeaksMergeByMax) {
  TelemetryReport outer;
  TelemetrySession outer_session(&outer);
  telemetry::peak("states.peak", 4);
  for (const std::int64_t per_solve : {7, 3}) {
    TelemetryReport inner;
    {
      TelemetrySession inner_session(&inner);
      telemetry::peak("states.peak", per_solve);
      telemetry::peak("states.peak", 1);
      telemetry::count("runs");
    }
    EXPECT_EQ(inner.count("states.peak"), per_solve);
    outer.merge(inner);
  }
  EXPECT_EQ(outer.count("states.peak"), 7);
  EXPECT_EQ(outer.count("runs"), 2);
}

TEST(TelemetrySessionTest, ScopedTimerChargesCapturedSink) {
  TelemetryReport report;
  {
    TelemetrySession session(&report);
    for (int i = 0; i < 3; ++i) {
      ScopedTimer timer("loop");
    }
  }
  EXPECT_EQ(report.timer("loop").count, 3);
  EXPECT_GE(report.timer("loop").seconds, 0.0);
}

TEST(TelemetrySolveTest, PerSolveReportsAreDisjoint) {
  PathGenOptions opt;
  opt.num_edges = 6;
  opt.num_tasks = 8;
  opt.max_capacity = 12;
  Rng rng(19);
  const PathInstance a = generate_path_instance(opt, rng);
  const PathInstance b = generate_path_instance(opt, rng);

  TelemetryReport ra;
  TelemetryReport rb;
  {
    TelemetrySession session(&ra);
    (void)solve_sap(a);
  }
  {
    TelemetrySession session(&rb);
    (void)solve_sap(b);
  }
  for (const TelemetryReport* r : {&ra, &rb}) {
    EXPECT_EQ(r->timer("sap.solve").count, 1);
    EXPECT_EQ(r->count("sap.winner.small") + r->count("sap.winner.medium") +
                  r->count("sap.winner.large"),
              1);
  }
  EXPECT_EQ(ra.count("sap.tasks.small") + ra.count("sap.tasks.medium") +
                ra.count("sap.tasks.large"),
            static_cast<std::int64_t>(a.num_tasks()));
}

TEST(TelemetryAllocTest, WarmSolveAcquiresNoNewArenaChunks) {
  // The arena counters fire only on the slow paths (heap chunk acquisition,
  // spare-list reuse), so they directly observe the allocation contract: a
  // cold solve may grow the thread arena, but a warm repeat of the same
  // solve must run entirely out of the recycled footprint. Each entry point
  // runs on a fresh thread so its thread-local arena is guaranteed cold at
  // the first call.
  PathGenOptions opt;
  opt.num_edges = 8;
  opt.num_tasks = 14;
  opt.max_capacity = 16;
  Rng rng(77);
  const PathInstance inst = generate_path_instance(opt, rng);
  const SapSolution sol = solve_sap(inst);
  // Small enough for the Round-SAP oracle, and first fit overshoots the
  // lower bound here, so the oracle's DFS runs profile-DP probes.
  round::RoundGenOptions round_opt;
  round_opt.base = opt;
  round_opt.base.num_tasks = 8;
  Rng round_rng(4);
  const PathInstance round_inst =
      round::generate_round_instance(round_opt, round_rng);

  struct Entry {
    const char* name;
    std::function<void()> run;
    bool scratch = true;  ///< false: packs in caller-owned vectors only
  };
  const Entry entries[] = {
      {"solve_sap", [&] { (void)solve_sap(inst); }},
      {"certify_solution", [&] { (void)cert::certify_solution(inst, sol); }},
      {"solve_round_sap_approx",
       [&] { (void)round::solve_round_sap_approx(round_inst); }, false},
      {"solve_round_exact",
       [&] {
         (void)round::solve_round_exact(round_inst, round::RoundKind::kSap);
       }},
  };
  for (const Entry& entry : entries) {
    SCOPED_TRACE(entry.name);
    TelemetryReport cold;
    TelemetryReport warm;
    std::thread worker([&] {
      {
        TelemetrySession session(&cold);
        entry.run();
      }
      {
        TelemetrySession session(&warm);
        entry.run();
      }
    });
    worker.join();

    if (entry.scratch) {
      EXPECT_GT(cold.count("alloc.arena.chunks"), 0);
      EXPECT_GT(cold.count("alloc.arena.chunk_bytes"), 0);
    }
    // Geometric chunk growth keeps the heap trip count logarithmic in the
    // footprint; a solve this size must stay far under this ceiling.
    EXPECT_LE(cold.count("alloc.arena.chunks"), 32);

    EXPECT_EQ(warm.count("alloc.arena.chunks"), 0);
    EXPECT_EQ(warm.count("alloc.arena.chunk_bytes"), 0);
  }
}

TEST(TelemetrySolveTest, ConcurrentSolvesDoNotBleed) {
  // Each thread installs its own session and solves its own instance; every
  // report must describe exactly one solve of the right size.
  constexpr int kThreads = 4;
  std::vector<TelemetryReport> reports(kThreads);
  std::vector<PathInstance> instances;
  for (int i = 0; i < kThreads; ++i) {
    PathGenOptions opt;
    opt.num_edges = 6;
    opt.num_tasks = static_cast<std::size_t>(6 + 2 * i);
    opt.max_capacity = 12;
    Rng rng(100 + static_cast<std::uint64_t>(i));
    instances.push_back(generate_path_instance(opt, rng));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int repeat = 0; repeat < 3; ++repeat) {
        TelemetrySession session(&reports[static_cast<std::size_t>(i)]);
        (void)solve_sap(instances[static_cast<std::size_t>(i)]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    const TelemetryReport& r = reports[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.timer("sap.solve").count, 3) << "thread " << i;
    EXPECT_EQ(r.count("sap.tasks.small") + r.count("sap.tasks.medium") +
                  r.count("sap.tasks.large"),
              static_cast<std::int64_t>(
                  3 * instances[static_cast<std::size_t>(i)].num_tasks()))
        << "thread " << i;
  }
}

}  // namespace
}  // namespace sap
