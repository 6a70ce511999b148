// Tests for the parallel batch-solve harness: deterministic aggregate
// reports across thread counts, per-instance seeding, certified sweeps,
// exception propagation from a poisoned instance, and the empty-sweep edge
// case.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/harness/batch_runner.hpp"

namespace sap {
namespace {

PathBatchConfig tiny_path_config() {
  PathBatchConfig config;
  config.gen.num_edges = 6;
  config.gen.num_tasks = 8;
  config.gen.min_capacity = 4;
  config.gen.max_capacity = 12;
  return config;
}

std::string deterministic_json(const BatchReport& report) {
  std::ostringstream os;
  BatchJsonOptions options;
  options.include_timings = false;
  options.include_cases = true;
  write_batch_json(os, report, options);
  return os.str();
}

TEST(BatchRunnerTest, CaseSeedIsBaseXorIndex) {
  EXPECT_EQ(batch_case_seed(0, 5), 5u);
  EXPECT_EQ(batch_case_seed(0xFF, 0x0F), 0xF0u);
  ThreadPool pool(2);
  BatchOptions options;
  options.num_instances = 9;
  options.base_seed = 1234;
  std::vector<std::uint64_t> seeds(options.num_instances);
  const BatchReport report = run_batch(
      options,
      [&](std::size_t index, std::uint64_t seed) {
        seeds[index] = seed;
        return BatchCase{};
      },
      pool);
  EXPECT_EQ(report.num_instances, 9u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], 1234u ^ i);
  }
}

TEST(BatchRunnerTest, AggregateReportIdenticalAcrossThreadCounts) {
  BatchOptions options;
  options.num_instances = 10;
  options.base_seed = 77;
  const BatchCaseFn fn = make_path_batch_case(tiny_path_config());

  std::vector<std::string> reports;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    reports.push_back(deterministic_json(run_batch(options, fn, pool)));
  }
  EXPECT_FALSE(reports[0].empty());
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
  // And re-running on the same pool size reproduces the report exactly.
  ThreadPool pool(2);
  EXPECT_EQ(reports[0], deterministic_json(run_batch(options, fn, pool)));
}

TEST(BatchRunnerTest, DifferentBaseSeedChangesTheSweep) {
  const BatchCaseFn fn = make_path_batch_case(tiny_path_config());
  ThreadPool pool(2);
  BatchOptions options;
  options.num_instances = 10;
  options.base_seed = 77;
  const std::string a = deterministic_json(run_batch(options, fn, pool));
  options.base_seed = 78;
  const std::string b = deterministic_json(run_batch(options, fn, pool));
  EXPECT_NE(a, b);
}

TEST(BatchRunnerTest, PathSweepSolvesAndBoundsEveryInstance) {
  ThreadPool pool(4);
  BatchOptions options;
  options.num_instances = 12;
  options.base_seed = 5;
  const BatchReport report =
      run_batch(options, make_path_batch_case(tiny_path_config()), pool);
  EXPECT_EQ(report.solved, 12u);
  EXPECT_EQ(report.cases.size(), 12u);
  ASSERT_GT(report.ratio.count(), 0u);
  // The bound is an upper bound on OPT >= ALG, so every ratio is >= 1.
  EXPECT_GE(report.ratio.min(), 1.0);
  EXPECT_GE(report.ratio_p95, report.ratio_p50);
  // Tiny instances stay within the exact-oracle budget.
  EXPECT_EQ(report.bound_exact, 12u);
  // Telemetry reached the aggregate: one solve per instance.
  EXPECT_EQ(report.telemetry.timer("sap.solve").count, 12);
}

TEST(BatchRunnerTest, RingSweepSolvesEveryInstance) {
  RingBatchConfig config;
  config.gen.num_edges = 6;
  config.gen.num_tasks = 8;
  config.gen.min_capacity = 4;
  config.gen.max_capacity = 12;
  ThreadPool pool(2);
  BatchOptions options;
  options.num_instances = 6;
  options.base_seed = 11;
  const BatchReport report =
      run_batch(options, make_ring_batch_case(config), pool);
  EXPECT_EQ(report.solved, 6u);
  EXPECT_EQ(report.telemetry.count("ring.winner.path") +
                report.telemetry.count("ring.winner.cut"),
            6);
  EXPECT_GE(report.ratio.min(), 1.0);
}

/// A certified sweep certifies and independently checks every case, tallies
/// each certificate under exactly one rung, and stays byte-identical across
/// thread counts.
void expect_certified_sweep(const BatchCaseFn& fn, std::size_t count) {
  BatchOptions options;
  options.num_instances = count;
  options.base_seed = 42;
  ThreadPool serial(1);
  const BatchReport report = run_batch(options, fn, serial);
  ASSERT_EQ(report.cases.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(report.cases[i].certified) << "case " << i;
    EXPECT_TRUE(report.cases[i].cert_checked) << "case " << i;
  }
  EXPECT_EQ(report.certified, count);
  EXPECT_EQ(report.cert_checked, count);
  std::size_t rung_total = 0;
  for (const std::size_t n : report.cert_rungs) rung_total += n;
  EXPECT_EQ(rung_total, count);

  ThreadPool parallel(4);
  EXPECT_EQ(deterministic_json(report),
            deterministic_json(run_batch(options, fn, parallel)));
}

TEST(BatchRunnerTest, CertifiedPathSweepChecksEveryCertificate) {
  PathBatchConfig config = tiny_path_config();
  config.certify = true;
  expect_certified_sweep(make_path_batch_case(config), 10);
}

TEST(BatchRunnerTest, CertifiedRingSweepChecksEveryCertificate) {
  RingBatchConfig config;
  config.gen.num_edges = 6;
  config.gen.num_tasks = 8;
  config.gen.min_capacity = 4;
  config.gen.max_capacity = 12;
  config.certify = true;
  expect_certified_sweep(make_ring_batch_case(config), 10);
}

TEST(BatchRunnerTest, RoundSweepSolvesEveryInstanceOnBothKinds) {
  // Round solves run concurrently across the pool (thread arenas, the DSA
  // slab arm, the SAP-probe oracle), so this doubles as the TSan coverage
  // for src/round.
  for (const round::RoundKind kind :
       {round::RoundKind::kUfp, round::RoundKind::kSap}) {
    RoundBatchConfig config;
    config.gen.base.num_edges = 5;
    config.gen.base.num_tasks = 7;
    config.kind = kind;
    ThreadPool pool(4);
    BatchOptions options;
    options.num_instances = 8;
    options.base_seed = 21;
    const BatchReport report =
        run_batch(options, make_round_batch_case(config), pool);
    EXPECT_EQ(report.solved, 8u);
    EXPECT_GE(report.ratio.min(), 1.0);
  }
}

TEST(BatchRunnerTest, PoisonedInstancePropagatesException) {
  ThreadPool pool(4);
  BatchOptions options;
  options.num_instances = 16;
  options.base_seed = 3;
  const BatchCaseFn poisoned = [](std::size_t index, std::uint64_t) {
    if (index == 7) throw std::runtime_error("poisoned instance");
    return BatchCase{};
  };
  EXPECT_THROW((void)run_batch(options, poisoned, pool), std::runtime_error);
  // The pool survives a poisoned sweep and runs the next one.
  std::atomic<int> ran{0};
  const BatchCaseFn counting = [&](std::size_t, std::uint64_t) {
    ran.fetch_add(1);
    return BatchCase{};
  };
  const BatchReport report = run_batch(options, counting, pool);
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(report.num_instances, 16u);
}

TEST(BatchRunnerTest, EmptySweepProducesValidReport) {
  ThreadPool pool(2);
  BatchOptions options;
  options.num_instances = 0;
  options.base_seed = 9;
  const BatchCaseFn must_not_run = [](std::size_t, std::uint64_t) -> BatchCase {
    ADD_FAILURE() << "case fn called on an empty sweep";
    return {};
  };
  const BatchReport report = run_batch(options, must_not_run, pool);
  EXPECT_EQ(report.num_instances, 0u);
  EXPECT_EQ(report.solved, 0u);
  EXPECT_EQ(report.ratio.count(), 0u);
  EXPECT_TRUE(report.telemetry.empty());

  // The JSON writer handles the empty aggregate (NaN percentiles -> null)
  // and stays deterministic.
  const std::string json = deterministic_json(report);
  EXPECT_NE(json.find("\"instances\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  ThreadPool other(8);
  EXPECT_EQ(json, deterministic_json(run_batch(options, must_not_run, other)));
}

TEST(BatchRunnerTest, TelemetryCollectionCanBeDisabled) {
  ThreadPool pool(2);
  BatchOptions options;
  options.num_instances = 4;
  options.base_seed = 21;
  options.collect_telemetry = false;
  const BatchReport report =
      run_batch(options, make_path_batch_case(tiny_path_config()), pool);
  EXPECT_EQ(report.solved, 4u);
  EXPECT_TRUE(report.telemetry.empty());
}

TEST(BatchRunnerTest, InterruptedSweepResumesToIdenticalReport) {
  constexpr std::size_t kInstances = 16;
  constexpr std::size_t kKillAfter = 6;
  const BatchCaseFn fn = make_path_batch_case(tiny_path_config());

  BatchOptions options;
  options.num_instances = kInstances;
  options.base_seed = 404;

  // Reference: one uninterrupted sweep.
  ThreadPool pool(2);
  const std::string expected =
      deterministic_json(run_batch(options, fn, pool));

  // Interrupted sweep: after kKillAfter cases complete, every further case
  // dies (simulating a killed process mid-sweep). Completed cases persist
  // in the resume store.
  BatchResumeStore store;
  BatchOptions resumable = options;
  store.attach(resumable);
  std::atomic<std::size_t> completed{0};
  EXPECT_THROW(
      (void)run_batch(
          resumable,
          [&](std::size_t index, std::uint64_t seed) {
            if (completed.load() >= kKillAfter) {
              throw std::runtime_error("simulated kill");
            }
            BatchCase c = fn(index, seed);
            ++completed;
            return c;
          },
          pool),
      std::runtime_error);
  ASSERT_GT(store.size(), 0u);
  ASSERT_LT(store.size(), kInstances);
  const std::size_t already_done = store.size();

  // Resume: the second run recomputes only the missing cases, and the
  // aggregate (counters-only JSON, including per-case records) is
  // byte-identical to the uninterrupted reference.
  std::atomic<std::size_t> recomputed{0};
  const BatchReport resumed = run_batch(
      resumable,
      [&](std::size_t index, std::uint64_t seed) {
        ++recomputed;
        return fn(index, seed);
      },
      pool);
  EXPECT_EQ(recomputed.load(), kInstances - already_done);
  EXPECT_EQ(deterministic_json(resumed), expected);
  EXPECT_EQ(store.size(), kInstances);  // the resumed run checkpointed too
}

TEST(BatchRunnerTest, ResumeStoreSurvivesRepeatedInterruptions) {
  constexpr std::size_t kInstances = 12;
  const BatchCaseFn fn = make_path_batch_case(tiny_path_config());

  BatchOptions options;
  options.num_instances = kInstances;
  options.base_seed = 77;
  ThreadPool pool(1);
  const std::string expected =
      deterministic_json(run_batch(options, fn, pool));

  // Crash-loop: each attempt completes at most 3 more cases, then dies.
  BatchResumeStore store;
  BatchOptions resumable = options;
  store.attach(resumable);
  for (int attempt = 0; attempt < 16 && store.size() < kInstances; ++attempt) {
    std::atomic<std::size_t> budget{3};
    try {
      const BatchReport report = run_batch(
          resumable,
          [&](std::size_t index, std::uint64_t seed) {
            if (budget.fetch_sub(1) == 0) {
              throw std::runtime_error("simulated kill");
            }
            return fn(index, seed);
          },
          pool);
      EXPECT_EQ(deterministic_json(report), expected);
      break;
    } catch (const std::runtime_error&) {
      // progress persisted; loop around and "restart"
    }
  }
  EXPECT_EQ(store.size(), kInstances);
}

}  // namespace
}  // namespace sap
