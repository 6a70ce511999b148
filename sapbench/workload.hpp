// The two sapbench workloads as seeded, fixed request lists (README.md
// explains why each exists). Every list is a pure function of
// (workload, seed, seconds, corpus seed), so two runs with the same
// arguments send byte-identical requests and do the same work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/service/protocol.hpp"

namespace sapbench {

enum class Workload { kSolveCold, kCertifyCold };

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload parse_workload(const std::string& name);

/// Connections the load generator opens (one per client thread), and the
/// threads the in-process replay and the correctness gate use.
inline constexpr std::size_t kClients = 4;

/// E6 corpus base seed: bench_full_solver's instances, (base + n) ^ i.
inline constexpr std::uint64_t kDefaultCorpusSeed = 5000;

struct BenchRequest {
  std::shared_ptr<const sap::service::SolveRequest> wire;
  bool replay = false;  ///< member of the traced replay subset
  std::size_t instance = 0;  ///< corpus index of a measured request
};

struct Plan {
  /// Set-up warm-up requests: the hit pool. Identical on every workload
  /// and seed, so set-up does the same work everywhere. The traced replay
  /// runs its round-kind entries, for the round layers.
  std::vector<BenchRequest> pool;
  /// The measured list, served by a closed loop in rounds of `round_size`
  /// requests: one pass over the workload's corpus each.
  std::vector<BenchRequest> requests;
  std::size_t round_size = 0;
};

[[nodiscard]] Plan make_plan(Workload workload, std::uint64_t seed,
                             int seconds, std::uint64_t corpus_seed);

/// Runs fn(worker, i) for every i in [0, n) on kClients threads (worker is
/// the thread's index), then rethrows the first exception a call threw.
void parallel_for(
    std::size_t n,
    const std::function<void(std::size_t worker, std::size_t i)>& fn);

}  // namespace sapbench
