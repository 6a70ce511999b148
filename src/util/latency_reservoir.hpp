// Thread-safe bounded reservoir of recent latency samples with percentile
// snapshots: one mutex-guarded ring, small enough to test (and TSan-check)
// in isolation from the sapd server that records into it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace sap {

class LatencyReservoir {
 public:
  struct Snapshot {
    std::size_t samples = 0;  ///< total ever recorded (not just retained)
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
  };

  /// Retains the most recent `capacity` samples (min 1).
  explicit LatencyReservoir(std::size_t capacity = 4096);

  LatencyReservoir(const LatencyReservoir&) = delete;
  LatencyReservoir& operator=(const LatencyReservoir&) = delete;

  void record(double ms);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<double> ring_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  double max_ms_ = 0.0;
};

}  // namespace sap
