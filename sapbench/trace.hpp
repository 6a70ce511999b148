// Span recording for the traced replay. Spans are opened and closed by the
// benchmark's own code around calls into each layer's public functions; the
// library is not instrumented for this. One Tracer per thread, kept in
// memory and written out when the run ends. Every call site takes a
// nullable Tracer*, so the untraced replay runs the same code with
// recording off.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/cert/certificate.hpp"
#include "src/cert/ladder.hpp"
#include "src/util/telemetry.hpp"

namespace sapbench {

/// Nanoseconds on the steady clock since the first call in this process.
[[nodiscard]] std::int64_t now_ns() noexcept;

struct Span {
  const char* name = "";  ///< string literal; spans never own names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same thread's spans, -1 = root
  std::int32_t request = -1;
};

/// Per-rung totals taken from LadderResult::attempts.
struct RungStats {
  std::int64_t attempts = 0;  ///< applicable attempts
  std::int64_t proved = 0;
  double seconds = 0.0;
  double failed_seconds = 0.0;  ///< attempts that did not prove a bound
};

class Tracer {
 public:
  void set_request(std::int32_t request) noexcept { request_ = request; }
  std::int32_t open(const char* name);
  void close(std::int32_t id);
  /// Adds one child span per applicable rung attempt under the open span,
  /// laid end to end so they finish now, and folds them into rungs().
  void record_ladder(const sap::cert::LadderResult& ladder);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::array<RungStats, sap::cert::kNumUbRungs>& rungs()
      const noexcept {
    return rungs_;
  }
  /// Counters of the library's TelemetrySession, installed by the caller.
  sap::TelemetryReport counters;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int32_t request_ = -1;
  std::array<RungStats, sap::cert::kNumUbRungs> rungs_{};
};

/// RAII span; a no-op when `tracer` is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Calls and time per span name over every tracer. Self time is a span's
/// duration minus the part of it its child spans cover.
struct LayerTime {
  std::int64_t calls = 0;
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
};
[[nodiscard]] std::map<std::string, LayerTime> layer_times(
    const std::vector<Tracer>& tracers);

/// Writes every span as JSON: {"spans": [[name, thread, request, parent,
/// start_us, end_us], ...], "layers": {name: {calls, self_ms, total_ms}}}.
void write_spans_json(std::ostream& os, const std::vector<Tracer>& tracers,
                      const std::map<std::string, LayerTime>& layers);

}  // namespace sapbench
