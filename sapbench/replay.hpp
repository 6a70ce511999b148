// The traced replay: each replayed request goes through, in this process,
// what sapd does for it (envelope parse, canonical digest, instance parse,
// solve, certify, encode) and then what the correctness gate does (parse
// the answer, verify, bound, check). It runs three times over the same
// requests: twice untraced, calling solve_sap as sapd does (the first pass
// only warms up), and once traced, calling the pipeline's stages one by one
// inside spans. Every pass must produce the bytes sapd returned. The
// tracing overhead is the workload's summed request time in the traced
// pass over that in the second untraced pass; the pool is left out.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sapbench/workload.hpp"

namespace sapbench {

struct ReplayResult {
  bool correct = true;
  std::string reason;  ///< first mismatch or rejection
  /// Per-layer metrics (names as in BENCHMARK.json's per_layer list).
  std::map<std::string, double> metrics;
};

/// Replays the set-up pool's round-kind entries and every request with
/// `replay` set. `served`
/// holds the answer_hash of sapd's answer to each of plan.requests (empty
/// when it failed). Writes the spans and the self-time table to
/// `spans_path`.
[[nodiscard]] ReplayResult run_replay(
    const Plan& plan, const std::vector<std::optional<std::uint64_t>>& served,
    const std::string& spans_path);

}  // namespace sapbench
