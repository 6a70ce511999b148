#include "src/util/latency_reservoir.hpp"

#include <algorithm>

#include "src/util/stats.hpp"

namespace sap {

LatencyReservoir::LatencyReservoir(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void LatencyReservoir::record(double ms) {
  std::lock_guard lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(ms);
  } else {
    ring_[next_] = ms;
    next_ = (next_ + 1) % capacity_;
  }
  ++total_;
  if (ms > max_ms_) max_ms_ = ms;
}

LatencyReservoir::Snapshot LatencyReservoir::snapshot() const {
  Snapshot snap;
  std::vector<double> retained;
  {
    std::lock_guard lock(mutex_);
    retained = ring_;
    snap.samples = total_;
    snap.max_ms = max_ms_;
  }
  if (!retained.empty()) {
    snap.p50_ms = percentile(retained, 50.0);
    snap.p95_ms = percentile(retained, 95.0);
    snap.p99_ms = percentile(retained, 99.0);
  }
  return snap;
}

}  // namespace sap
