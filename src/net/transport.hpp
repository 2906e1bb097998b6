// Message transport over the simulated internetwork.
//
// One-way datagram messaging with:
//   * pid-based addressing: the destination pid is resolved in the *sender's*
//     context (its current location), per §6 Example 1;
//   * embedded-pid remapping at delivery (the R(sender) rule): every kPid
//     field in the payload is rebased from the sender's context to the
//     receiver's. The remap can be disabled to reproduce the incoherence the
//     paper warns about;
//   * real frames: a payload is its encoded frame, which the transport
//     sends as is; the receiver gets it back through Payload::decode's
//     strict validate-and-index pass, so the codec is exercised by every
//     integration test and experiment without re-encoding on any hop;
//   * latency by locality (intra-machine / intra-network / inter-network)
//     and optional drop probability, all on the deterministic simulator.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "net/topology.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/tracer.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace namecoh {

/// An application message. `reply_to` is filled in by the transport at
/// delivery: it is the sender's pid *relative to the receiver*, so the
/// receiver can always answer (the client/server pattern of §4 case 2).
/// `trace_corr` is out-of-band observability metadata (like `type`, it is
/// carried alongside the encoded frame, never inside it): protocols that
/// already use correlation ids stamp it so the transport's send / drop /
/// deliver events attach to the owning resolution span.
struct Message {
  std::uint32_t type = 0;
  std::uint64_t trace_corr = 0;
  Pid reply_to;
  Payload payload;
};

struct TransportConfig {
  SimDuration intra_machine_latency = 5;
  SimDuration intra_network_latency = 50;
  SimDuration inter_network_latency = 500;
  /// Apply the R(sender) remap to embedded pids at delivery. Disabling it
  /// reproduces the paper's incoherence for exchanged pids.
  bool remap_embedded_pids = true;
  double drop_probability = 0.0;
};

class Transport {
 public:
  /// `metrics` attaches the transport to a shared registry ("transport.*"
  /// names); by default it owns a private one. Either way metrics() is the
  /// central registry for everything layered on this transport (name
  /// service, churn workload, …).
  Transport(Simulator& sim, Internetwork& net, TransportConfig config = {},
            std::uint64_t seed = 1, MetricsRegistry* metrics = nullptr);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  using Handler = std::function<void(EndpointId self, const Message&)>;

  /// Install the receive handler for an endpoint. Messages to endpoints
  /// without a handler are counted as delivered and discarded.
  void set_handler(EndpointId endpoint, Handler handler);
  void clear_handler(EndpointId endpoint);

  /// Resolve a destination pid in the context of `holder` (its current
  /// location) to the endpoint currently at that address.
  [[nodiscard]] Result<EndpointId> resolve_pid(EndpointId holder,
                                               const Pid& pid) const;

  /// Send `message` from `from` to the process denoted by `to` *in the
  /// sender's context*. Returns an error only for immediately detectable
  /// failures (dead sender, malformed pid, unresolvable address); delivery
  /// itself happens later on the simulator.
  Status send(EndpointId from, const Pid& to, Message message);

  /// Point-in-time copy of the transport's counters ("transport.*");
  /// index by bare field name, e.g. snapshot()["delivered"].
  [[nodiscard]] StatsSnapshot snapshot() const {
    return StatsSnapshot(*metrics_, "transport.");
  }

  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }
  [[nodiscard]] MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return *metrics_; }
  [[nodiscard]] const TransportConfig& config() const { return config_; }
  void set_remap_embedded_pids(bool enabled) {
    config_.remap_embedded_pids = enabled;
  }
  /// Tests use this to stage deterministic loss patterns mid-run (e.g.
  /// "first attempt lost, retry delivered").
  void set_drop_probability(double p) { config_.drop_probability = p; }

  /// Subject this transport to scripted faults (sim/faults.hpp). Fault
  /// keys are MachineId values. Once attached:
  ///   * a message from a crashed machine is dropped at send;
  ///   * a message to a machine that is crashed at delivery time is
  ///     dropped there (in-flight messages die with the receiver);
  ///   * a message whose (sender, receiver) machine edge is partitioned
  ///     at send time is dropped at send (one-way);
  ///   * inside a reorder window, delivery gains the window's extra delay.
  /// All four show up as "transport.fault.*" counters and kFault* trace
  /// events; injector state transitions (crash/restart/partition/heal)
  /// are traced through the observer this call installs. Pass nullptr to
  /// detach.
  void attach_faults(FaultInjector* faults);
  [[nodiscard]] FaultInjector* faults() const { return faults_; }

 private:
  SimDuration latency_between(const Location& a, const Location& b) const;
  void deliver(EndpointId intended, Location target, Location sender_at_send,
               std::vector<std::uint8_t> frame, std::uint32_t type,
               std::uint64_t trace_corr);

  Simulator& sim_;
  Internetwork& net_;
  TransportConfig config_;
  Rng rng_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  ///< when none was shared
  MetricsRegistry* metrics_;                        ///< never null
  Counter* sent_;
  Counter* delivered_;
  Counter* dropped_;
  Counter* unreachable_;
  Counter* misdelivered_;
  Counter* pids_remapped_;
  Counter* remap_failures_;
  Counter* bytes_sent_;
  Counter* fault_crash_drops_;
  Counter* fault_partition_drops_;
  Counter* fault_delays_;
  Tracer tracer_;
  FaultInjector* faults_ = nullptr;
  std::unordered_map<EndpointId, Handler> handlers_;
};

}  // namespace namecoh
