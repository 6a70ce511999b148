#include "sapbench/workload.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/gen/generators.hpp"
#include "src/io/instance_io.hpp"
#include "src/util/rng.hpp"

namespace sapbench {
namespace {

using sap::service::SolveRequest;

constexpr sap::CapacityProfile kProfiles[] = {
    sap::CapacityProfile::kUniform,   sap::CapacityProfile::kValley,
    sap::CapacityProfile::kMountain,  sap::CapacityProfile::kStaircase,
    sap::CapacityProfile::kRandomWalk,
};
constexpr std::size_t kNumProfiles = std::size(kProfiles);

// Requests per second of --seconds each list is sized for: about --seconds
// of work on a 4-vCPU VM in its slower phases (105 and 14 qps were read
// there). Fixed constants: a faster program finishes the same list sooner
// instead of doing more work.
constexpr double kSolveColdRate = 105.0;
constexpr double kCertifyColdRate = 14.0;

// certify_cold corpus: the first 4 E6 seeds of each n <= 24 cell.
constexpr std::size_t kCertifyPerCell = 4;

// Hit pool: kPoolSize entries, kinds cycling path / round-ufp / round-sap,
// drawn from a constant seed so set-up is the same everywhere. Path entries
// have n=24 so that solving keeps sapd's threads busy during the warm-up:
// with n=12 it was bound by round trips, and on a shared 4-vCPU host its
// time swung 3x between runs.
constexpr std::size_t kPoolSize = 960;
constexpr std::uint64_t kPoolSeed = 0x5AB0001;

constexpr SolveRequest::Kind kKinds[] = {SolveRequest::Kind::kPath,
                                         SolveRequest::Kind::kRoundUfp,
                                         SolveRequest::Kind::kRoundSap};

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One E6-grid instance: 12 edges, capacities 8..48, mixed demand.
std::string e6_instance(sap::CapacityProfile profile, std::size_t n,
                        std::uint64_t generator_seed) {
  sap::PathGenOptions gen;
  gen.num_edges = 12;
  gen.num_tasks = n;
  gen.profile = profile;
  gen.min_capacity = 8;
  gen.max_capacity = 48;
  gen.demand = sap::DemandClass::kMixed;
  sap::Rng rng(generator_seed);
  return sap::to_string(sap::generate_path_instance(gen, rng));
}

template <typename T>
void shuffle(std::vector<T>& items, sap::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

BenchRequest make_request(std::string instance_text, SolveRequest::Kind kind,
                          bool certify, std::uint64_t solver_seed) {
  auto wire = std::make_shared<SolveRequest>();
  wire->kind = kind;
  wire->algo = "full";
  wire->seed = solver_seed;
  wire->want_certificate = certify;
  wire->instance_text = std::move(instance_text);
  BenchRequest out;
  out.wire = std::move(wire);
  return out;
}

void add_pool(Plan& plan) {
  for (std::size_t k = 0; k < kPoolSize; ++k) {
    BenchRequest r = make_request(
        e6_instance(kProfiles[(k / 3) % kNumProfiles],
                    kKinds[k % 3] == SolveRequest::Kind::kPath ? 24 : 12,
                    mix64(kPoolSeed ^ k)),
        kKinds[k % 3], false, 1);
    r.replay = true;
    plan.pool.push_back(std::move(r));
  }
}

/// One E6 corpus entry.
struct CorpusEntry {
  std::string text;
  std::size_t n = 0;
};

/// A closed loop over a fixed corpus in rounds: each round is one pass
/// over the whole corpus, so every round does the same work. Within a
/// round the instances go heaviest class first (n descending), shuffled by
/// the seed within each n, so that the round ends on small requests rather
/// than on one client waiting alone for a heavy one. Each request carries
/// its own solver seed, which is part of the server's cache key, so every
/// request misses the cache; the default solver pipeline does not read the
/// seed, so the work per request is that of its instance. Round 0 is the
/// replay subset: each instance once.
void add_corpus_loop(Plan& plan, const std::vector<CorpusEntry>& corpus,
                     bool certify, double rate, int seconds,
                     std::uint64_t seed) {
  const auto rounds = static_cast<std::size_t>(std::max(
      1.0, std::ceil(rate * seconds / static_cast<double>(corpus.size()))));
  plan.round_size = corpus.size();
  sap::Rng rng(mix64(seed));
  std::size_t i = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<std::size_t> order(corpus.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    shuffle(order, rng);
    std::stable_sort(order.begin(), order.end(),
                     [&corpus](std::size_t a, std::size_t b) {
                       return corpus[a].n > corpus[b].n;
                     });
    for (const std::size_t k : order) {
      BenchRequest r = make_request(corpus[k].text, SolveRequest::Kind::kPath,
                                    certify, mix64(seed ^ mix64(++i)));
      r.instance = k;
      r.replay = round == 0;
      plan.requests.push_back(std::move(r));
    }
  }
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "solve_cold") return Workload::kSolveCold;
  if (name == "certify_cold") return Workload::kCertifyCold;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (want solve_cold|certify_cold)");
}

Plan make_plan(Workload workload, std::uint64_t seed, int seconds,
               std::uint64_t corpus_seed) {
  if (seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  Plan plan;
  add_pool(plan);
  const bool certify = workload == Workload::kCertifyCold;
  std::vector<CorpusEntry> corpus;
  for (const sap::CapacityProfile profile : kProfiles) {
    for (const std::size_t n : {12u, 24u, 48u}) {
      if (certify && n > 24) continue;
      const std::size_t per_cell = certify ? kCertifyPerCell : 20;
      for (std::size_t i = 0; i < per_cell; ++i) {
        corpus.push_back({e6_instance(profile, n, (corpus_seed + n) ^ i), n});
      }
    }
  }
  add_corpus_loop(plan, corpus, certify,
                  certify ? kCertifyColdRate : kSolveColdRate, seconds, seed);
  return plan;
}

void parallel_for(
    std::size_t n,
    const std::function<void(std::size_t worker, std::size_t i)>& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kClients; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          fn(t, i);
        } catch (...) {
          const std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sapbench
