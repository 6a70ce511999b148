// Service-level load benchmark: an in-process sapd server driven closed-loop
// by N concurrent clients over loopback TCP, reporting achieved QPS and
// client-observed latency percentiles.
//
// The instance pool uses the same generator configuration as
// bench_full_solver's E6 sweep (12 edges, capacities 8..48, mixed demand,
// all five capacity profiles, n in {12, 24, 48}), so service-level numbers
// are directly comparable with the in-process batch harness: the delta is
// the cost of framing + admission + scheduling, not different workloads.
//
// With --certify the same closed loop runs a second time with every request
// asking for a certificate ("certify 1"), so the report isolates the
// end-to-end latency cost of per-solve certification on identical traffic.
//
// With --deadline-ms B1,B2,... an additional pass runs per budget with every
// request carrying "deadline_ms B": the report shows the degraded-response
// rate and the tail-latency compression each budget buys (the server falls
// back to the budget-capped approximation instead of rejecting, so
// requests_ok should stay total while p95/p99/max collapse toward B).
//
// With --mixed an additional closed-loop pass interleaves the three request
// kinds round-robin by request index (path solve, round-ufp, round-sap) on
// the same pool, measuring the service under a heterogeneous workload where
// single-round and minimum-round solves share the queue and the cache key
// space (the kind is a digest lane, so same-instance requests of different
// kinds never collide).
//
// The remaining sections exercise the serving core (event loop + admission
// queue + solve cache) against a second, cache-enabled server:
//
//   --open-loop        paced load at --target-qps for --duration-s: every
//                      connection fires on a fixed absolute schedule
//                      regardless of when the previous response arrived, and
//                      latency is measured from the *scheduled* send time,
//                      so server-side queueing is charged to the tail
//                      (no coordinated omission). Small (n=12) instances,
//                      cache warmed first.
//   --sweep-clients    closed-loop pass per client count (e.g. 8,...,256)
//                      over the warmed cache: tail latency should stay flat
//                      as concurrency grows because hits never queue behind
//                      a solver.
//   --cache-sweep      open-loop passes at fixed rate with 100/50/0 percent
//                      of requests carrying a never-repeating seed (distinct
//                      cache key, forced miss): throughput and tail vs
//                      cache-hit rate.
//   --restart          crash-recovery cost: a persistent server (journal in
//                      a temp dir) serves the small pool cold, stops
//                      (flushing the journal), then a second server opens
//                      the same journal. Reports recovery-inclusive start()
//                      time, journal size, recovered-record count, and the
//                      time to re-serve the pool from the warmed cache vs
//                      the original cold pass (time-to-warm saved).
//
// Usage: bench_service [--clients C] [--requests N] [--threads T]
//                      [--certify] [--deadline-ms B1,B2,...] [--mixed]
//                      [--open-loop] [--target-qps Q] [--duration-s S]
//                      [--open-clients C] [--sweep-clients C1,C2,...]
//                      [--cache-sweep] [--restart]
//                      [--cache-entries E] [--out FILE.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/gen/generators.hpp"
#include "src/harness/batch_runner.hpp"
#include "src/harness/table.hpp"
#include "src/io/instance_io.hpp"
#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/util/stats.hpp"

using namespace sap;

namespace {

struct PooledInstance {
  std::string name;
  std::string text;
  std::uint64_t seed;
};

/// The E6 generator grid of bench_full_solver, 2 instances per cell.
std::vector<PooledInstance> build_instance_pool() {
  const std::pair<CapacityProfile, const char*> profiles[] = {
      {CapacityProfile::kUniform, "uniform"},
      {CapacityProfile::kValley, "valley"},
      {CapacityProfile::kMountain, "mountain"},
      {CapacityProfile::kStaircase, "staircase"},
      {CapacityProfile::kRandomWalk, "walk"},
  };
  std::vector<PooledInstance> pool;
  for (const auto& [profile, profile_name] : profiles) {
    for (const std::size_t n : {12u, 24u, 48u}) {
      for (std::size_t i = 0; i < 2; ++i) {
        const std::uint64_t seed = batch_case_seed(5000 + n, i);
        Rng rng(seed);
        PathGenOptions gen;
        gen.num_edges = 12;
        gen.num_tasks = n;
        gen.profile = profile;
        gen.min_capacity = 8;
        gen.max_capacity = 48;
        gen.demand = DemandClass::kMixed;
        PooledInstance entry;
        entry.name = std::string(profile_name) + "/n" + std::to_string(n);
        entry.text = to_string(generate_path_instance(gen, rng));
        entry.seed = seed;
        pool.push_back(std::move(entry));
      }
    }
  }
  return pool;
}

/// One closed-loop pass over the pool: every client issues its requests
/// back-to-back; client-observed latencies are collected per client and
/// merged afterwards.
struct PassResult {
  std::vector<double> all_ms;
  Summary latency;
  std::size_t errors = 0;
  std::size_t certificates = 0;  ///< responses carrying a certificate
  std::size_t degraded = 0;      ///< responses marked "degraded 1"
  std::size_t round_responses = 0;  ///< responses carrying a "rounds" line
  double wall_seconds = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double qps = 0.0;
};

PassResult run_pass(service::Server& server,
                    const std::vector<PooledInstance>& pool,
                    std::size_t clients, std::size_t requests_per_client,
                    bool certify, std::int64_t deadline_ms = 0,
                    bool mixed = false) {
  std::vector<std::vector<double>> per_client_ms(clients);
  std::vector<std::size_t> per_client_errors(clients, 0);
  std::vector<std::size_t> per_client_certs(clients, 0);
  std::vector<std::size_t> per_client_degraded(clients, 0);
  std::vector<std::size_t> per_client_rounds(clients, 0);
  const auto bench_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        service::Client client;
        client.connect("127.0.0.1", server.port());
        per_client_ms[c].reserve(requests_per_client);
        for (std::size_t r = 0; r < requests_per_client; ++r) {
          const PooledInstance& inst =
              pool[(c * requests_per_client + r) % pool.size()];
          service::SolveRequest request;
          if (mixed) {
            // Round-robin by global request index: path, round-ufp,
            // round-sap. Certificates are a single-round concept, so the
            // mixed pass never requests them.
            const std::size_t slot = (c * requests_per_client + r) % 3;
            request.kind = slot == 0
                               ? service::SolveRequest::Kind::kPath
                               : slot == 1
                                     ? service::SolveRequest::Kind::kRoundUfp
                                     : service::SolveRequest::Kind::kRoundSap;
          }
          request.eps = 0.5;
          request.seed = inst.seed;
          request.want_certificate = certify;
          request.deadline_ms = deadline_ms;
          request.instance_text = inst.text;
          const auto t0 = std::chrono::steady_clock::now();
          const service::Client::SolveOutcome outcome =
              client.solve(request);
          const auto t1 = std::chrono::steady_clock::now();
          if (outcome.ok) {
            per_client_ms[c].push_back(
                1e3 * std::chrono::duration<double>(t1 - t0).count());
            if (!outcome.response.certificate_text.empty()) {
              ++per_client_certs[c];
            }
            if (outcome.response.degraded) ++per_client_degraded[c];
            if (outcome.response.is_round) ++per_client_rounds[c];
          } else {
            ++per_client_errors[c];
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  PassResult out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  for (std::size_t c = 0; c < clients; ++c) {
    for (const double ms : per_client_ms[c]) {
      out.all_ms.push_back(ms);
      out.latency.add(ms);
    }
    out.errors += per_client_errors[c];
    out.certificates += per_client_certs[c];
    out.degraded += per_client_degraded[c];
    out.round_responses += per_client_rounds[c];
  }
  const std::size_t total = clients * requests_per_client;
  out.qps = static_cast<double>(total - out.errors) /
            std::max(out.wall_seconds, 1e-9);
  out.p50 = percentile(out.all_ms, 50.0);
  out.p95 = percentile(out.all_ms, 95.0);
  out.p99 = percentile(out.all_ms, 99.0);
  return out;
}

/// The n=12 slice of the pool: the "small cached instance" workload the
/// scale-out sections use (solves are cheap, so cached vs uncached is the
/// dominant effect being measured).
std::vector<PooledInstance> small_pool(
    const std::vector<PooledInstance>& pool) {
  std::vector<PooledInstance> out;
  for (const PooledInstance& entry : pool) {
    if (entry.name.size() >= 4 &&
        entry.name.compare(entry.name.size() - 4, 4, "/n12") == 0) {
      out.push_back(entry);
    }
  }
  return out;
}

/// Populate the solve cache: one client solves every pooled instance once.
void warm_cache(service::Server& server,
                const std::vector<PooledInstance>& pool) {
  service::Client client;
  client.connect("127.0.0.1", server.port());
  for (const PooledInstance& inst : pool) {
    service::SolveRequest request;
    request.eps = 0.5;
    request.seed = inst.seed;
    request.instance_text = inst.text;
    (void)client.solve(request);
  }
}

struct OpenLoopResult {
  std::size_t sent = 0;
  std::size_t errors = 0;
  std::size_t degraded = 0;     ///< ok responses marked "degraded 1"
  double degraded_rate = 0.0;   ///< degraded / completed-ok
  double wall_seconds = 0.0;
  double qps = 0.0;       ///< completed-ok per second of scheduled window
  double target_qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, max_ms = 0.0;
  std::uint64_t cache_hits = 0;       ///< delta over the pass
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_coalesced = 0;
  double hit_rate = 0.0;  ///< hits / (hits + misses), coalesced not counted
  double unique_fraction = 0.0;
};

/// Open-loop pass: `clients` connections share one absolute schedule firing
/// at `target_qps` aggregate (thread c owns ticks c, c+clients, ...). A
/// request whose connection is still busy when its tick arrives is sent
/// late, and its latency still counts from the tick — saturation shows up
/// as tail growth instead of silently throttling the load.
///
/// `unique_fraction` of requests carry a never-repeating seed, which is part
/// of the cache key, so those are guaranteed misses; the rest draw from the
/// (pre-warmed) pool and should hit.
OpenLoopResult run_open_loop(service::Server& server,
                             const std::vector<PooledInstance>& pool,
                             std::size_t clients, double target_qps,
                             double duration_s, double unique_fraction = 0.0) {
  const service::ServerStats before = server.stats_snapshot();
  const std::size_t total =
      static_cast<std::size_t>(target_qps * duration_s);
  const std::size_t per_client = total / std::max<std::size_t>(clients, 1);
  std::vector<std::vector<double>> per_client_ms(clients);
  std::vector<std::size_t> per_client_errors(clients, 0);
  std::vector<std::size_t> per_client_degraded(clients, 0);
  std::atomic<std::uint64_t> unique_seed{1ull << 40};
  // Every request whose global tick index t has (t % 1000) below this
  // threshold gets a unique seed: deterministic, evenly interleaved.
  const std::uint64_t unique_per_mille =
      static_cast<std::uint64_t>(unique_fraction * 1000.0);
  // Start slightly in the future so every thread connects before tick 0.
  const auto t0 = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(100);
  const double tick_ns = 1e9 / target_qps;
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        service::Client client;
        client.connect("127.0.0.1", server.port());
        per_client_ms[c].reserve(per_client);
        for (std::size_t k = 0; k < per_client; ++k) {
          const std::uint64_t tick = k * clients + c;
          const auto scheduled =
              t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       static_cast<double>(tick) * tick_ns));
          std::this_thread::sleep_until(scheduled);
          const PooledInstance& inst = pool[tick % pool.size()];
          service::SolveRequest request;
          request.eps = 0.5;
          request.seed = (tick % 1000) < unique_per_mille
                             ? unique_seed.fetch_add(1)
                             : inst.seed;
          request.instance_text = inst.text;
          const service::Client::SolveOutcome outcome =
              client.solve(request);
          const auto done = std::chrono::steady_clock::now();
          if (outcome.ok) {
            per_client_ms[c].push_back(
                1e3 *
                std::chrono::duration<double>(done - scheduled).count());
            if (outcome.response.degraded) ++per_client_degraded[c];
          } else {
            ++per_client_errors[c];
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  OpenLoopResult out;
  out.target_qps = target_qps;
  out.unique_fraction = unique_fraction;
  out.sent = per_client * clients;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::vector<double> all_ms;
  for (std::size_t c = 0; c < clients; ++c) {
    all_ms.insert(all_ms.end(), per_client_ms[c].begin(),
                  per_client_ms[c].end());
    out.errors += per_client_errors[c];
    out.degraded += per_client_degraded[c];
  }
  const std::size_t completed = out.sent - out.errors;
  out.degraded_rate = completed > 0 ? static_cast<double>(out.degraded) /
                                          static_cast<double>(completed)
                                    : 0.0;
  out.qps = static_cast<double>(completed) /
            std::max(out.wall_seconds, 1e-9);
  out.p50 = percentile(all_ms, 50.0);
  out.p95 = percentile(all_ms, 95.0);
  out.p99 = percentile(all_ms, 99.0);
  out.max_ms = all_ms.empty() ? 0.0 : *std::max_element(all_ms.begin(),
                                                        all_ms.end());
  const service::ServerStats after = server.stats_snapshot();
  out.cache_hits = after.cache_hits - before.cache_hits;
  out.cache_misses = after.cache_misses - before.cache_misses;
  out.cache_coalesced = after.cache_coalesced - before.cache_coalesced;
  const std::uint64_t keyed = out.cache_hits + out.cache_misses;
  out.hit_rate = keyed > 0 ? static_cast<double>(out.cache_hits) /
                                 static_cast<double>(keyed)
                           : 0.0;
  return out;
}

void write_open_loop_json(std::ostream& out, const OpenLoopResult& pass) {
  out << "{\n";
  out << "      \"target_qps\": " << pass.target_qps << ",\n";
  out << "      \"unique_fraction\": " << pass.unique_fraction << ",\n";
  out << "      \"requests_sent\": " << pass.sent << ",\n";
  out << "      \"requests_failed\": " << pass.errors << ",\n";
  out << "      \"degraded_returned\": " << pass.degraded << ",\n";
  out << "      \"degraded_rate\": " << pass.degraded_rate << ",\n";
  out << "      \"wall_seconds\": " << pass.wall_seconds << ",\n";
  out << "      \"achieved_qps\": " << pass.qps << ",\n";
  out << "      \"cache\": {\"hits\": " << pass.cache_hits
      << ", \"misses\": " << pass.cache_misses
      << ", \"coalesced\": " << pass.cache_coalesced
      << ", \"hit_rate\": " << pass.hit_rate << "},\n";
  out << "      \"latency_ms\": {\"p50\": " << pass.p50
      << ", \"p95\": " << pass.p95 << ", \"p99\": " << pass.p99
      << ", \"max\": " << pass.max_ms << "}\n";
  out << "    }";
}

struct RestartResult {
  std::size_t pool_size = 0;
  double cold_serve_seconds = 0.0;     ///< first server, all misses
  double flush_stop_seconds = 0.0;     ///< first server's stop() incl. fsync
  double restart_start_seconds = 0.0;  ///< second server's start() incl.
                                       ///< journal recovery + cache warm-up
  double warm_serve_seconds = 0.0;     ///< second server, same pool, hits
  std::uint64_t journal_bytes = 0;
  std::uint64_t recovered_records = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  double warm_hit_rate = 0.0;
};

/// Crash-recovery cost measurement: serve the pool cold on a persistent
/// server, stop (journal flushed), reopen the journal in a fresh server,
/// and serve the same pool again. The interesting deltas are start() time
/// (recovery is on the startup path) and warm-vs-cold serve time (what the
/// journal buys after a restart).
RestartResult run_restart(const std::vector<PooledInstance>& pool,
                          std::size_t threads, std::size_t cache_entries) {
  RestartResult out;
  out.pool_size = pool.size();
  char dir_template[] = "/tmp/sapkit_bench_restart_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed for --restart\n");
    std::exit(1);
  }
  const std::string journal = std::string(dir_template) + "/journal.bin";
  const auto make_options = [&] {
    service::ServerOptions options;
    options.solver_threads = threads;
    options.max_queue = 1024;
    options.cache_entries = cache_entries;
    options.cache_persist_path = journal;
    return options;
  };
  const auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  {
    service::Server first(make_options());
    first.start();
    const auto t0 = std::chrono::steady_clock::now();
    warm_cache(first, pool);
    out.cold_serve_seconds = seconds_since(t0);
    const auto t1 = std::chrono::steady_clock::now();
    first.stop();
    out.flush_stop_seconds = seconds_since(t1);
  }
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(journal, ec);
  out.journal_bytes = ec ? 0 : static_cast<std::uint64_t>(bytes);
  {
    service::Server second(make_options());
    const auto t0 = std::chrono::steady_clock::now();
    second.start();
    out.restart_start_seconds = seconds_since(t0);
    const service::ServerStats before = second.stats_snapshot();
    out.recovered_records = before.cache_recovered_records;
    const auto t1 = std::chrono::steady_clock::now();
    warm_cache(second, pool);
    out.warm_serve_seconds = seconds_since(t1);
    const service::ServerStats after = second.stats_snapshot();
    out.warm_hits = after.cache_hits - before.cache_hits;
    out.warm_misses = after.cache_misses - before.cache_misses;
    const std::uint64_t keyed = out.warm_hits + out.warm_misses;
    out.warm_hit_rate = keyed > 0 ? static_cast<double>(out.warm_hits) /
                                        static_cast<double>(keyed)
                                  : 0.0;
    second.stop();
  }
  std::filesystem::remove_all(dir_template, ec);
  return out;
}

void write_pass_json(std::ostream& out, const PassResult& pass,
                     std::size_t total) {
  out << "{\n";
  out << "      \"requests_ok\": " << (total - pass.errors) << ",\n";
  out << "      \"requests_failed\": " << pass.errors << ",\n";
  out << "      \"certificates_returned\": " << pass.certificates << ",\n";
  out << "      \"degraded_returned\": " << pass.degraded << ",\n";
  out << "      \"round_responses\": " << pass.round_responses << ",\n";
  out << "      \"wall_seconds\": " << pass.wall_seconds << ",\n";
  out << "      \"qps\": " << pass.qps << ",\n";
  out << "      \"latency_ms\": {\"p50\": " << pass.p50
      << ", \"p95\": " << pass.p95 << ", \"p99\": " << pass.p99
      << ", \"max\": " << pass.latency.max() << "}\n";
  out << "    }";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t clients = 8;
  std::size_t requests_per_client = 40;
  std::size_t threads = 0;
  bool certify = false;
  bool mixed = false;
  std::vector<std::int64_t> deadline_budgets;
  bool open_loop = false;
  double target_qps = 1500.0;
  double duration_s = 4.0;
  std::size_t open_clients = 64;
  std::vector<std::size_t> sweep_clients;
  bool cache_sweep = false;
  bool restart = false;
  std::size_t cache_entries = 1024;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--clients") {
      clients = std::stoull(next());
    } else if (arg == "--requests") {
      requests_per_client = std::stoull(next());
    } else if (arg == "--threads") {
      threads = std::stoull(next());
    } else if (arg == "--certify") {
      certify = true;
    } else if (arg == "--mixed") {
      mixed = true;
    } else if (arg == "--deadline-ms") {
      std::stringstream budgets(next());
      for (std::string item; std::getline(budgets, item, ',');) {
        const std::int64_t budget = std::stoll(item);
        if (budget <= 0) {
          std::fprintf(stderr, "--deadline-ms budgets must be positive\n");
          return 2;
        }
        deadline_budgets.push_back(budget);
      }
    } else if (arg == "--open-loop") {
      open_loop = true;
    } else if (arg == "--target-qps") {
      target_qps = std::stod(next());
      if (target_qps <= 0) {
        std::fprintf(stderr, "--target-qps must be positive\n");
        return 2;
      }
    } else if (arg == "--duration-s") {
      duration_s = std::stod(next());
    } else if (arg == "--open-clients") {
      open_clients = std::stoull(next());
    } else if (arg == "--sweep-clients") {
      std::stringstream counts(next());
      for (std::string item; std::getline(counts, item, ',');) {
        sweep_clients.push_back(std::stoull(item));
      }
    } else if (arg == "--cache-sweep") {
      cache_sweep = true;
    } else if (arg == "--restart") {
      restart = true;
    } else if (arg == "--cache-entries") {
      cache_entries = std::stoull(next());
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: bench_service [--clients C] [--requests N] "
                   "[--threads T] [--certify] [--deadline-ms B1,B2,...] "
                   "[--mixed] "
                   "[--open-loop] [--target-qps Q] [--duration-s S] "
                   "[--open-clients C] [--sweep-clients C1,C2,...] "
                   "[--cache-sweep] [--restart] [--cache-entries E] "
                   "[--out FILE]\n");
      return 2;
    }
  }

  std::printf("== sapd service load benchmark (closed loop) ==\n");
  const std::vector<PooledInstance> pool = build_instance_pool();
  std::printf("instance pool: %zu instances (E6 grid), %zu clients x %zu "
              "requests%s\n\n",
              pool.size(), clients, requests_per_client,
              certify ? ", plain + certified passes" : "");

  service::ServerOptions options;
  options.solver_threads = threads;
  options.max_queue = 256;
  service::Server server(std::move(options));
  server.start();

  const std::size_t total = clients * requests_per_client;
  const PassResult plain =
      run_pass(server, pool, clients, requests_per_client, /*certify=*/false);
  PassResult certified;
  if (certify) {
    certified =
        run_pass(server, pool, clients, requests_per_client, /*certify=*/true);
  }
  // Deadline sweep: same traffic, every request budget-capped. Largest
  // budget first so the sweep's own wall time shrinks as it tightens.
  std::vector<std::pair<std::int64_t, PassResult>> deadline_passes;
  std::sort(deadline_budgets.rbegin(), deadline_budgets.rend());
  for (const std::int64_t budget : deadline_budgets) {
    deadline_passes.emplace_back(
        budget, run_pass(server, pool, clients, requests_per_client,
                         /*certify=*/false, budget));
  }
  // Mixed-workload pass: path / round-ufp / round-sap interleaved 1:1:1.
  PassResult mixed_pass;
  if (mixed) {
    mixed_pass = run_pass(server, pool, clients, requests_per_client,
                          /*certify=*/false, /*deadline_ms=*/0,
                          /*mixed=*/true);
  }

  TablePrinter table(certify ? std::vector<std::string>{"metric", "plain",
                                                        "certified"}
                             : std::vector<std::string>{"metric", "value"});
  auto add_row = [&](const std::string& name, const std::string& a,
                     const std::string& b) {
    if (certify) {
      table.add_row({name, a, b});
    } else {
      table.add_row({name, a});
    }
  };
  add_row("requests ok", std::to_string(total - plain.errors),
          std::to_string(total - certified.errors));
  add_row("requests failed", std::to_string(plain.errors),
          std::to_string(certified.errors));
  add_row("certificates", std::to_string(plain.certificates),
          std::to_string(certified.certificates));
  add_row("wall seconds", fmt(plain.wall_seconds, 2),
          fmt(certified.wall_seconds, 2));
  add_row("achieved QPS", fmt(plain.qps, 1), fmt(certified.qps, 1));
  add_row("latency p50 ms", fmt(plain.p50, 2), fmt(certified.p50, 2));
  add_row("latency p95 ms", fmt(plain.p95, 2), fmt(certified.p95, 2));
  add_row("latency p99 ms", fmt(plain.p99, 2), fmt(certified.p99, 2));
  add_row("latency max ms", fmt(plain.latency.max(), 2),
          fmt(certified.latency.max(), 2));
  table.print(std::cout);
  if (certify) {
    std::printf("\ncertification overhead: p50 %+.2f ms (%+.1f%%), "
                "QPS %+.1f%%\n",
                certified.p50 - plain.p50,
                plain.p50 > 0 ? 1e2 * (certified.p50 - plain.p50) / plain.p50
                              : 0.0,
                plain.qps > 0 ? 1e2 * (certified.qps - plain.qps) / plain.qps
                              : 0.0);
  }

  if (mixed) {
    std::printf("\n== mixed workload (path : round-ufp : round-sap, "
                "1:1:1) ==\n");
    const std::size_t ok = total - mixed_pass.errors;
    std::printf("requests ok %zu (failed %zu), %zu round responses\n"
                "achieved %.1f qps, latency ms: p50 %.2f p95 %.2f p99 %.2f "
                "max %.2f\n",
                ok, mixed_pass.errors, mixed_pass.round_responses,
                mixed_pass.qps, mixed_pass.p50, mixed_pass.p95,
                mixed_pass.p99, mixed_pass.latency.max());
  }

  if (!deadline_passes.empty()) {
    std::printf("\n== deadline sweep (plain requests, budget-capped) ==\n");
    TablePrinter sweep({"budget ms", "ok", "degraded", "degraded %", "p50 ms",
                        "p95 ms", "p99 ms", "max ms"});
    for (const auto& [budget, pass] : deadline_passes) {
      const std::size_t ok = total - pass.errors;
      sweep.add_row({std::to_string(budget), std::to_string(ok),
                     std::to_string(pass.degraded),
                     fmt(ok > 0 ? 1e2 * static_cast<double>(pass.degraded) /
                                      static_cast<double>(ok)
                                : 0.0,
                         1),
                     fmt(pass.p50, 2), fmt(pass.p95, 2), fmt(pass.p99, 2),
                     fmt(pass.latency.max(), 2)});
    }
    sweep.print(std::cout);
  }

  const service::ServerStats stats = server.stats_snapshot();
  std::printf("\nserver side: ok=%llu bad=%llu overloaded=%llu "
              "degraded=%llu connections=%llu\n",
              static_cast<unsigned long long>(stats.requests_ok),
              static_cast<unsigned long long>(stats.requests_bad),
              static_cast<unsigned long long>(stats.requests_overloaded),
              static_cast<unsigned long long>(stats.requests_degraded),
              static_cast<unsigned long long>(stats.connections_accepted));
  server.stop();

  // Scale-out sections run against a second, cache-enabled server;
  // the closed-loop sections above keep the cache off so their numbers stay
  // comparable with sapkit-bench-service-v2 runs.
  const bool scale_out = open_loop || cache_sweep || !sweep_clients.empty();
  std::vector<PooledInstance> cached_pool;
  OpenLoopResult open_pass;
  std::vector<std::pair<std::size_t, PassResult>> client_sweep;
  std::vector<OpenLoopResult> cache_passes;
  if (scale_out) {
    service::ServerOptions cached_options;
    cached_options.solver_threads = threads;
    cached_options.max_queue = 1024;
    cached_options.cache_entries = cache_entries;
    service::Server cached_server(std::move(cached_options));
    cached_server.start();
    cached_pool = small_pool(pool);
    warm_cache(cached_server, cached_pool);

    if (open_loop) {
      std::printf("\n== open loop (%zu cache entries, %zu connections, "
                  "target %.0f qps, %.1fs) ==\n",
                  cache_entries, open_clients, target_qps, duration_s);
      open_pass = run_open_loop(cached_server, cached_pool, open_clients,
                                target_qps, duration_s);
      std::printf("achieved %.1f qps (%zu sent, %zu failed), hit rate "
                  "%.3f (%llu hits / %llu misses / %llu coalesced)\n"
                  "scheduled-send latency ms: p50 %.2f p95 %.2f p99 %.2f "
                  "max %.2f; degraded %zu (rate %.4f)\n",
                  open_pass.qps, open_pass.sent, open_pass.errors,
                  open_pass.hit_rate,
                  static_cast<unsigned long long>(open_pass.cache_hits),
                  static_cast<unsigned long long>(open_pass.cache_misses),
                  static_cast<unsigned long long>(open_pass.cache_coalesced),
                  open_pass.p50, open_pass.p95, open_pass.p99,
                  open_pass.max_ms, open_pass.degraded,
                  open_pass.degraded_rate);
    }

    if (!sweep_clients.empty()) {
      std::printf("\n== client sweep (closed loop over warm cache) ==\n");
      TablePrinter sweep({"clients", "qps", "p50 ms", "p95 ms", "p99 ms",
                          "max ms"});
      for (const std::size_t count : sweep_clients) {
        const PassResult pass = run_pass(cached_server, cached_pool, count,
                                         requests_per_client,
                                         /*certify=*/false);
        sweep.add_row({std::to_string(count), fmt(pass.qps, 1),
                       fmt(pass.p50, 2), fmt(pass.p95, 2), fmt(pass.p99, 2),
                       fmt(pass.latency.max(), 2)});
        client_sweep.emplace_back(count, pass);
      }
      sweep.print(std::cout);
    }

    if (cache_sweep) {
      std::printf("\n== cache-hit-rate sweep (open loop, fixed rate) ==\n");
      TablePrinter sweep({"unique %", "hit rate", "qps", "p50 ms", "p95 ms",
                          "p99 ms"});
      // Modest fixed rate so the all-miss pass is not itself saturated:
      // the variable under test is the hit rate, not the target rate.
      const double sweep_qps = std::min(target_qps, 400.0);
      for (const double unique_fraction : {1.0, 0.5, 0.0}) {
        const OpenLoopResult pass =
            run_open_loop(cached_server, cached_pool, open_clients,
                          sweep_qps, duration_s, unique_fraction);
        sweep.add_row({fmt(1e2 * unique_fraction, 0), fmt(pass.hit_rate, 3),
                       fmt(pass.qps, 1), fmt(pass.p50, 2), fmt(pass.p95, 2),
                       fmt(pass.p99, 2)});
        cache_passes.push_back(pass);
      }
      sweep.print(std::cout);
    }

    const service::ServerStats cached_stats = cached_server.stats_snapshot();
    std::printf("\ncached server: ok=%llu hits=%llu misses=%llu "
                "coalesced=%llu evictions=%llu\n",
                static_cast<unsigned long long>(cached_stats.requests_ok),
                static_cast<unsigned long long>(cached_stats.cache_hits),
                static_cast<unsigned long long>(cached_stats.cache_misses),
                static_cast<unsigned long long>(cached_stats.cache_coalesced),
                static_cast<unsigned long long>(
                    cached_stats.cache_evictions));
    cached_server.stop();
  }

  // Restart section: its own pair of servers sharing one journal file, so
  // the recovery path (not the live cache) is what start() pays for.
  RestartResult restart_pass;
  if (restart) {
    const std::vector<PooledInstance> persist_pool = small_pool(pool);
    std::printf("\n== restart (persistent journal, %zu cache entries, %zu "
                "instances) ==\n",
                cache_entries, persist_pool.size());
    restart_pass = run_restart(persist_pool, threads, cache_entries);
    std::printf("cold serve %.3fs, stop+flush %.3fs, journal %llu bytes\n"
                "restart start() %.3fs (recovered %llu records), warm serve "
                "%.3fs (hit rate %.3f: %llu hits / %llu misses)\n"
                "time-to-warm saved: %.3fs (%.1fx faster than cold)\n",
                restart_pass.cold_serve_seconds,
                restart_pass.flush_stop_seconds,
                static_cast<unsigned long long>(restart_pass.journal_bytes),
                restart_pass.restart_start_seconds,
                static_cast<unsigned long long>(
                    restart_pass.recovered_records),
                restart_pass.warm_serve_seconds, restart_pass.warm_hit_rate,
                static_cast<unsigned long long>(restart_pass.warm_hits),
                static_cast<unsigned long long>(restart_pass.warm_misses),
                restart_pass.cold_serve_seconds -
                    (restart_pass.restart_start_seconds +
                     restart_pass.warm_serve_seconds),
                restart_pass.warm_serve_seconds > 0
                    ? restart_pass.cold_serve_seconds /
                          restart_pass.warm_serve_seconds
                    : 0.0);
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << "{\n";
    out << "  \"schema\": \"sapkit-bench-service-v5\",\n";
    out << "  \"config\": {\n";
    out << "    \"clients\": " << clients << ",\n";
    out << "    \"requests_per_client\": " << requests_per_client << ",\n";
    out << "    \"instance_pool\": " << pool.size() << ",\n";
    out << "    \"certify\": " << (certify ? "true" : "false") << ",\n";
    out << "    \"mixed\": " << (mixed ? "true" : "false") << ",\n";
    out << "    \"restart\": " << (restart ? "true" : "false") << ",\n";
    out << "    \"deadline_budgets_ms\": [";
    for (std::size_t i = 0; i < deadline_passes.size(); ++i) {
      out << (i ? ", " : "") << deadline_passes[i].first;
    }
    out << "],\n";
    if (scale_out) {
      out << "    \"scale_out\": {\"cache_entries\": " << cache_entries
          << ", \"open_clients\": " << open_clients
          << ", \"target_qps\": " << target_qps
          << ", \"duration_s\": " << duration_s
          << ", \"cached_pool\": " << cached_pool.size() << "},\n";
    }
    out << "    \"generator\": \"bench_full_solver E6 grid (12 edges, caps "
           "8..48, mixed demand, 5 profiles, n in {12,24,48})\"\n";
    out << "  },\n";
    out << "  \"results\": {\n";
    out << "    \"plain\": ";
    write_pass_json(out, plain, total);
    if (certify) {
      out << ",\n    \"certified\": ";
      write_pass_json(out, certified, total);
      out << ",\n    \"certify_overhead\": {\"p50_ms\": "
          << (certified.p50 - plain.p50) << ", \"p95_ms\": "
          << (certified.p95 - plain.p95) << ", \"qps_ratio\": "
          << (plain.qps > 0 ? certified.qps / plain.qps : 0.0) << "}";
    }
    if (mixed) {
      out << ",\n    \"mixed\": ";
      write_pass_json(out, mixed_pass, total);
    }
    if (!deadline_passes.empty()) {
      out << ",\n    \"deadline_sweep\": [";
      for (std::size_t i = 0; i < deadline_passes.size(); ++i) {
        const auto& [budget, pass] = deadline_passes[i];
        out << (i ? ",\n      " : "\n      ");
        out << "{\"budget_ms\": " << budget << ", \"pass\": ";
        write_pass_json(out, pass, total);
        out << "}";
      }
      out << "\n    ]";
    }
    if (open_loop) {
      out << ",\n    \"open_loop\": ";
      write_open_loop_json(out, open_pass);
    }
    if (!client_sweep.empty()) {
      out << ",\n    \"client_sweep\": [";
      for (std::size_t i = 0; i < client_sweep.size(); ++i) {
        const auto& [count, pass] = client_sweep[i];
        out << (i ? ",\n      " : "\n      ");
        out << "{\"clients\": " << count << ", \"qps\": " << pass.qps
            << ", \"latency_ms\": {\"p50\": " << pass.p50
            << ", \"p95\": " << pass.p95 << ", \"p99\": " << pass.p99
            << ", \"max\": " << pass.latency.max() << "}}";
      }
      out << "\n    ]";
    }
    if (!cache_passes.empty()) {
      out << ",\n    \"cache_sweep\": [";
      for (std::size_t i = 0; i < cache_passes.size(); ++i) {
        out << (i ? ",\n      " : "\n      ");
        write_open_loop_json(out, cache_passes[i]);
      }
      out << "\n    ]";
    }
    if (restart) {
      out << ",\n    \"restart\": {\n";
      out << "      \"pool_size\": " << restart_pass.pool_size << ",\n";
      out << "      \"cold_serve_seconds\": "
          << restart_pass.cold_serve_seconds << ",\n";
      out << "      \"flush_stop_seconds\": "
          << restart_pass.flush_stop_seconds << ",\n";
      out << "      \"journal_bytes\": " << restart_pass.journal_bytes
          << ",\n";
      out << "      \"restart_start_seconds\": "
          << restart_pass.restart_start_seconds << ",\n";
      out << "      \"recovered_records\": "
          << restart_pass.recovered_records << ",\n";
      out << "      \"warm_serve_seconds\": "
          << restart_pass.warm_serve_seconds << ",\n";
      out << "      \"warm_cache\": {\"hits\": " << restart_pass.warm_hits
          << ", \"misses\": " << restart_pass.warm_misses
          << ", \"hit_rate\": " << restart_pass.warm_hit_rate << "}\n";
      out << "    }";
    }
    out << "\n  }\n";
    out << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  std::size_t sweep_errors = 0;
  sweep_errors += mixed_pass.errors;
  for (const auto& [budget, pass] : deadline_passes) {
    sweep_errors += pass.errors;
  }
  sweep_errors += open_pass.errors;
  for (const auto& [count, pass] : client_sweep) sweep_errors += pass.errors;
  for (const OpenLoopResult& pass : cache_passes) {
    sweep_errors += pass.errors;
  }
  return plain.errors + certified.errors + sweep_errors == 0 ? 0 : 1;
}
