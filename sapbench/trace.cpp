#include "sapbench/trace.hpp"

#include <algorithm>
#include <chrono>

namespace sapbench {
namespace {

constexpr const char* kRungSpanNames[sap::cert::kNumUbRungs] = {
    "cert.rung.exact_dp", "cert.rung.ufpp_bnb", "cert.rung.lp_dual",
    "cert.rung.total_weight"};

}  // namespace

std::int64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::int32_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  stack_.push_back(id);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return id;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::record_ladder(const sap::cert::LadderResult& ladder) {
  const std::int64_t end = now_ns();
  const std::int64_t floor =
      stack_.empty() ? 0 : spans_[static_cast<std::size_t>(stack_.back())].start_ns;
  std::int64_t total = 0;
  for (const sap::cert::LadderRungAttempt& attempt : ladder.attempts) {
    if (attempt.applicable) {
      total += static_cast<std::int64_t>(attempt.seconds * 1e9);
    }
  }
  std::int64_t at = std::max(floor, end - total);
  for (const sap::cert::LadderRungAttempt& attempt : ladder.attempts) {
    if (!attempt.applicable) continue;
    const auto rung = static_cast<std::size_t>(attempt.rung);
    RungStats& stats = rungs_[rung];
    ++stats.attempts;
    stats.seconds += attempt.seconds;
    if (attempt.proved) {
      ++stats.proved;
    } else {
      stats.failed_seconds += attempt.seconds;
    }
    Span span;
    span.name = kRungSpanNames[rung];
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request_;
    span.start_ns = at;
    at = std::min(end, at + static_cast<std::int64_t>(attempt.seconds * 1e9));
    span.end_ns = at;
    spans_.push_back(span);
  }
}

std::map<std::string, LayerTime> layer_times(
    const std::vector<Tracer>& tracers) {
  std::map<std::string, LayerTime> out;
  for (const Tracer& tracer : tracers) {
    const std::vector<Span>& spans = tracer.spans();
    std::vector<std::int64_t> covered(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        covered[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      LayerTime& layer = out[spans[i].name];
      const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
      ++layer.calls;
      layer.total_ns += duration;
      layer.self_ns += duration - covered[i];
    }
  }
  return out;
}

void write_spans_json(std::ostream& os, const std::vector<Tracer>& tracers,
                      const std::map<std::string, LayerTime>& layers) {
  os << "{\"spans\": [";
  bool first = true;
  for (std::size_t thread = 0; thread < tracers.size(); ++thread) {
    for (const Span& span : tracers[thread].spans()) {
      os << (first ? "\n" : ",\n") << "[\"" << span.name << "\", " << thread
         << ", " << span.request << ", " << span.parent << ", "
         << span.start_ns / 1000 << ", " << span.end_ns / 1000 << "]";
      first = false;
    }
  }
  os << "],\n\"layers\": {";
  first = true;
  for (const auto& [name, layer] : layers) {
    os << (first ? "\n" : ",\n") << "\"" << name
       << "\": {\"calls\": " << layer.calls
       << ", \"self_ms\": " << static_cast<double>(layer.self_ns) / 1e6
       << ", \"total_ms\": " << static_cast<double>(layer.total_ns) / 1e6
       << "}";
    first = false;
  }
  os << "}}\n";
}

}  // namespace sapbench
