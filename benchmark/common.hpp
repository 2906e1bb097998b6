// Shared pieces of the benchmark binary: arguments, scale, the report every
// workload fills in, and small numeric helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "system.hpp"
#include "trace.hpp"

namespace namecoh::bm {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Self-test: replace one measured answer with a wrong one before the
  /// oracle sees it; the run must then fail.
  bool corrupt = false;
};

/// Workload sizes. Full scale is the one claims are made on; smoke is about
/// 1/100 of it, for iteration and the determinism check.
struct Scale {
  FabricShape fabric;
  std::size_t queries;      ///< distinct in-sim queries, hottest first
  std::size_t flash_block;  ///< churn's flash-crowd queries
  std::size_t activities;   ///< closed-loop activities
  std::size_t warmup;       ///< lookups before measuring
  std::size_t setups;       ///< set-ups per run; setup_s is their median
  std::size_t wire_window;  ///< completed lookups per window
  std::size_t rebind_window;
  std::size_t churn_window;
  std::size_t churn_phase;  ///< lookups per churn phase
  std::size_t walk_queries;
  std::size_t walk_batch;
  std::size_t walk_ring;            ///< pre-generated batches, cycled
  std::size_t walk_window_batches;  ///< batches per local_walk window
  /// Windows measured at least; for fabric_wire and cache_rebind also the
  /// deterministic prefix that simulated-time results cover.
  std::size_t min_windows;
  std::size_t replay_walks;
  std::size_t replay_events;
  std::size_t replay_sends;
  std::size_t replay_batches;
  SimDuration restart_downtime;
  SimDuration restart_gap;
  SimDuration rename_interval;
  SimDuration partition_length;
  SimDuration churn_timeout;
  MembershipOptions membership;
};

[[nodiscard]] Scale scale_for(bool smoke);

/// Which clock a metric is read from. Simulated-time metrics and counts are
/// deterministic for a seed and compared exactly; wall and host metrics
/// carry a bound.
enum class Clock { kWall, kHost, kSim };

struct Metric {
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kSim;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t stale = 0;
  std::uint64_t query_digest = 0;
  std::uint64_t counter_digest = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  ///< first few oracle failures
  std::vector<std::string> table;   ///< printed before the result line

  void set(const std::string& name, double value, const char* unit,
           Clock clock) {
    metrics[name] = Metric{value, unit, clock};
  }
  void note_error(std::string message) {
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(message));
  }
};

Report run_insim(const Args& args, const Scale& scale, Spans& spans);
Report run_local_walk(const Args& args, const Scale& scale, Spans& spans);

// --- Helpers -----------------------------------------------------------------

/// Exact order statistic: the smallest value with at least q of the sample
/// at or below it; 0 for an empty sample.
template <typename T>
[[nodiscard]] double quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}
/// FNV-1a over 64-bit words, for the query-stream and counter digests.
[[nodiscard]] inline std::uint64_t fnv(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Median set-up split of `setups` runs: graph, cluster, warm-up seconds.
struct SetupTimes {
  std::vector<double> graph, cluster, warmup, total;
  void report(Report& report) const;
};

/// Replays shared by every workload, on the workload's own issued queries:
/// core walk, wire codec, transport, simulator event, exec seq vs par.
struct ReplayInputs {
  const NamingGraph* graph = nullptr;
  std::vector<EntityId> starts;           ///< issued queries, in issue order
  std::vector<const CompoundName*> names;
  std::size_t replicas = 1;  ///< replica list length in reply payloads
  bool lease = false;
  bool glue = false;
};
struct ReplayResult {
  double walk_ns = 0.0;
  double steps_per_walk = 0.0;
  double codec_ns = 0.0;
  double transport_ns = 0.0;
  double event_ns = 0.0;
  double seq_lookups_per_s = 0.0;
  double par_lookups_per_s = 0.0;
  double par_batch_us = 0.0;
};
ReplayResult run_replays(const ReplayInputs& inputs, const Scale& scale,
                         Spans& spans);

}  // namespace namecoh::bm
