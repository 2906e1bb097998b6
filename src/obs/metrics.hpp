// Unified metrics registry (observability subsystem).
//
// Every layer of the stack used to keep its own ad-hoc `stats_` struct
// (TransportStats, ForwardingStats, NameServiceStats, …), which made
// "export everything this run measured" impossible without touching each
// component. The registry centralises that: components register named
// counters/gauges/histograms at construction and bump them on the hot path
// through stable pointers (one add on a pre-looked-up slot — no map lookup,
// no allocation, no formatting). Components expose a prefix-scoped
// `snapshot()` (obs/snapshot.hpp) as their point-in-time read surface; the
// ad-hoc structs and their `stats()` accessors are gone.
//
// Naming convention: dotted lowercase paths, `<layer>.<component>.<what>`,
// e.g. "transport.sent", "forwarding.cycles_refused",
// "ns.client.7.cache_hits" (per-instance components embed a unique id so
// two clients sharing one registry never collide).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace namecoh {

/// Monotonic event count. Pointer-stable once created (registry storage is
/// a node-based map), so hot paths cache `Counter*` and skip the name
/// lookup entirely.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time measurement (cache sizes, table entries, degrees).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Central registry of named instruments. Get-or-create semantics: asking
/// for an existing name returns the same instrument, so components that
/// outlive each other (or intentionally share a name) accumulate into one
/// slot. Not locked by design — the simulator thread owns it, and pool
/// workers never touch it (docs/PARALLELISM.md).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Boundaries are used only on first creation; later calls with the same
  /// name return the existing histogram unchanged.
  Histogram& histogram(const std::string& name,
                       std::vector<double> boundaries);

  /// Read-side lookups for tests and exporters; missing names read as zero
  /// rather than implicitly creating an instrument.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// One JSON object: {"counters":{…},"gauges":{…},"histograms":{…}} with
  /// per-histogram count/quantiles. Sorted by name (std::map order) so the
  /// export is diff-stable across runs.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Minimal JSON string escaping (quotes, backslashes, control characters);
/// shared by the metrics and chrome-trace exporters.
[[nodiscard]] std::string json_escape(std::string_view text);

}  // namespace namecoh
