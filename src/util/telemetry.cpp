#include "src/util/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace sap {
namespace {

thread_local TelemetryReport* g_sink = nullptr;

/// Minimal JSON string escape; telemetry names are plain identifiers, but a
/// correct writer costs little.
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        os << c;
    }
  }
  os << '"';
}

void write_indent(std::ostream& os, int spaces) {
  for (int i = 0; i < spaces; ++i) os << ' ';
}

}  // namespace

void TelemetryReport::add_count(std::string_view name, std::int64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void TelemetryReport::add_peak(std::string_view name, std::int64_t value) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), value);
    peaks_.emplace(name);
  } else {
    it->second = std::max(it->second, value);
  }
}

void TelemetryReport::add_time(std::string_view name, std::int64_t entries,
                               double seconds) {
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    timers_.emplace(std::string(name), TimerStat{entries, seconds});
  } else {
    it->second.count += entries;
    it->second.seconds += seconds;
  }
}

void TelemetryReport::merge(const TelemetryReport& other) {
  for (const auto& [name, value] : other.counters_) {
    if (other.peaks_.contains(name)) {
      add_peak(name, value);
    } else {
      add_count(name, value);
    }
  }
  for (const auto& [name, stat] : other.timers_) {
    add_time(name, stat.count, stat.seconds);
  }
}

void TelemetryReport::drop_counters_with_prefix(std::string_view prefix) {
  for (auto it = counters_.lower_bound(prefix); it != counters_.end();) {
    if (std::string_view(it->first).substr(0, prefix.size()) != prefix) break;
    peaks_.erase(it->first);
    it = counters_.erase(it);
  }
}

std::int64_t TelemetryReport::count(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

TimerStat TelemetryReport::timer(std::string_view name) const {
  const auto it = timers_.find(name);
  return it == timers_.end() ? TimerStat{} : it->second;
}

void TelemetryReport::clear() {
  counters_.clear();
  peaks_.clear();
  timers_.clear();
}

void TelemetryReport::write_json(std::ostream& os, bool include_timers,
                                 int indent) const {
  os << "{\n";
  write_indent(os, indent + 2);
  os << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "\n" : ",\n");
    first = false;
    write_indent(os, indent + 4);
    write_json_string(os, name);
    os << ": " << value;
  }
  if (!first) {
    os << "\n";
    write_indent(os, indent + 2);
  }
  os << "}";
  if (include_timers) {
    os << ",\n";
    write_indent(os, indent + 2);
    os << "\"timers\": {";
    first = true;
    for (const auto& [name, stat] : timers_) {
      os << (first ? "\n" : ",\n");
      first = false;
      write_indent(os, indent + 4);
      write_json_string(os, name);
      const double seconds = std::isfinite(stat.seconds) ? stat.seconds : 0.0;
      os << ": {\"count\": " << stat.count << ", \"seconds\": " << seconds
         << "}";
    }
    if (!first) {
      os << "\n";
      write_indent(os, indent + 2);
    }
    os << "}";
  }
  os << "\n";
  write_indent(os, indent);
  os << "}";
}

namespace telemetry {

TelemetryReport* sink() noexcept { return g_sink; }

void count(std::string_view name, std::int64_t delta) {
  if (g_sink != nullptr) g_sink->add_count(name, delta);
}

void peak(std::string_view name, std::int64_t value) {
  if (g_sink != nullptr) g_sink->add_peak(name, value);
}

}  // namespace telemetry

TelemetrySession::TelemetrySession(TelemetryReport* report) noexcept
    : previous_(g_sink) {
  g_sink = report;
}

TelemetrySession::~TelemetrySession() { g_sink = previous_; }

// sapkit-lint: begin-allow(determinism) -- ScopedTimer reads the monotonic
// clock to fill timer telemetry, which is declared nondeterministic and is
// excluded from deterministic (counters-only) reports.
ScopedTimer::ScopedTimer(const char* name) noexcept
    : name_(name), sink_(g_sink) {
  if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (sink_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  sink_->add_time(name_, 1,
                  std::chrono::duration<double>(elapsed).count());
}
// sapkit-lint: end-allow(determinism)

}  // namespace sap
