#include "net/transport.hpp"

#include "util/log.hpp"

namespace namecoh {

Transport::Transport(Simulator& sim, Internetwork& net,
                     TransportConfig config, std::uint64_t seed,
                     MetricsRegistry* metrics)
    : sim_(sim), net_(net), config_(config), rng_(seed) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  sent_ = &metrics_->counter("transport.sent");
  delivered_ = &metrics_->counter("transport.delivered");
  dropped_ = &metrics_->counter("transport.dropped");
  unreachable_ = &metrics_->counter("transport.unreachable");
  misdelivered_ = &metrics_->counter("transport.misdelivered");
  pids_remapped_ = &metrics_->counter("transport.pids_remapped");
  remap_failures_ = &metrics_->counter("transport.remap_failures");
  bytes_sent_ = &metrics_->counter("transport.bytes_sent");
  fault_crash_drops_ = &metrics_->counter("transport.fault.crash_drops");
  fault_partition_drops_ =
      &metrics_->counter("transport.fault.partition_drops");
  fault_delays_ = &metrics_->counter("transport.fault.delays");
  // Tracing is opt-in: the ring is only allocated on set_enabled(true).
}

void Transport::attach_faults(FaultInjector* faults) {
  faults_ = faults;
  if (faults_ == nullptr) return;
  faults_->set_observer([this](SimTime at, FaultTransition transition,
                               FaultKey a, FaultKey b) {
    EventKind kind = EventKind::kFaultCrash;
    const char* name = "transport.fault.crashes";
    switch (transition) {
      case FaultTransition::kCrash: break;
      case FaultTransition::kRestart:
        kind = EventKind::kFaultRestart;
        name = "transport.fault.restarts";
        break;
      case FaultTransition::kPartition:
        kind = EventKind::kFaultPartition;
        name = "transport.fault.partitions";
        break;
      case FaultTransition::kHeal:
        kind = EventKind::kFaultHeal;
        name = "transport.fault.heals";
        break;
    }
    metrics_->counter(name).inc();
    tracer_.record(at, kind, 0, a, b);
  });
}

void Transport::set_handler(EndpointId endpoint, Handler handler) {
  NAMECOH_CHECK(static_cast<bool>(handler), "null handler");
  handlers_[endpoint] = std::move(handler);
}

void Transport::clear_handler(EndpointId endpoint) {
  handlers_.erase(endpoint);
}

Result<EndpointId> Transport::resolve_pid(EndpointId holder,
                                          const Pid& pid) const {
  auto holder_loc = net_.location_of(holder);
  if (!holder_loc.is_ok()) return holder_loc.status();
  auto target = qualify(pid, holder_loc.value());
  if (!target.is_ok()) return target.status();
  return net_.endpoint_at(target.value());
}

SimDuration Transport::latency_between(const Location& a,
                                       const Location& b) const {
  if (a.same_machine(b)) return config_.intra_machine_latency;
  if (a.same_network(b)) return config_.intra_network_latency;
  return config_.inter_network_latency;
}

Status Transport::send(EndpointId from, const Pid& to, Message message) {
  auto from_loc = net_.location_of(from);
  if (!from_loc.is_ok()) {
    return failed_precondition_error("send from dead endpoint");
  }
  auto target_loc = qualify(to, from_loc.value());
  if (!target_loc.is_ok()) return target_loc.status();
  auto target = net_.endpoint_at(target_loc.value());
  if (!target.is_ok()) {
    unreachable_->inc();
    tracer_.record(sim_.now(), EventKind::kUnreachable, message.trace_corr,
                   from.value());
    return target.status();
  }

  sent_->inc();
  std::vector<std::uint8_t> frame = std::move(message.payload).take_frame();
  bytes_sent_->inc(frame.size());
  tracer_.record(sim_.now(), EventKind::kSend, message.trace_corr,
                 from.value(), frame.size());

  if (config_.drop_probability > 0.0 &&
      rng_.bernoulli(config_.drop_probability)) {
    dropped_->inc();
    tracer_.record(sim_.now(), EventKind::kDrop, message.trace_corr,
                   from.value());
    return Status::ok();  // fire-and-forget: the loss is observable later
  }

  SimDuration latency = latency_between(from_loc.value(), target_loc.value());
  if (faults_ != nullptr) {
    // Fault filtering at send: a crashed sender emits nothing, and a
    // one-way partition eats the (sender → receiver) direction only. Both
    // are silent to the caller, like random loss — failure is observable
    // only as missing replies.
    auto sender_machine = net_.machine_of(from);
    auto receiver_machine = net_.machine_of(target.value());
    if (sender_machine.is_ok() &&
        faults_->is_crashed(sender_machine.value().value())) {
      dropped_->inc();
      fault_crash_drops_->inc();
      tracer_.record(sim_.now(), EventKind::kFaultDropCrash,
                     message.trace_corr, sender_machine.value().value());
      return Status::ok();
    }
    if (sender_machine.is_ok() && receiver_machine.is_ok() &&
        faults_->is_partitioned(sender_machine.value().value(),
                                receiver_machine.value().value())) {
      dropped_->inc();
      fault_partition_drops_->inc();
      tracer_.record(sim_.now(), EventKind::kFaultDropPartition,
                     message.trace_corr, sender_machine.value().value(),
                     receiver_machine.value().value());
      return Status::ok();
    }
    const SimDuration extra = faults_->reorder_extra(sim_.now());
    if (extra > 0) {
      fault_delays_->inc();
      tracer_.record(sim_.now(), EventKind::kFaultDelay, message.trace_corr,
                     from.value(), extra);
      latency += extra;
    }
  }
  EndpointId intended = target.value();
  Location sender_at_send = from_loc.value();
  Location target_address = target_loc.value();
  std::uint32_t type = message.type;
  std::uint64_t trace_corr = message.trace_corr;
  sim_.schedule_in(latency, [this, intended, target_address, sender_at_send,
                             frame = std::move(frame), type,
                             trace_corr]() mutable {
    deliver(intended, target_address, sender_at_send, std::move(frame), type,
            trace_corr);
  });
  return Status::ok();
}

void Transport::deliver(EndpointId intended, Location target,
                        Location sender_at_send,
                        std::vector<std::uint8_t> frame, std::uint32_t type,
                        std::uint64_t trace_corr) {
  // Re-resolve the *address* at delivery time: renumbering mid-flight can
  // orphan the address or (with reuse) hand it to a different process.
  auto now_there = net_.endpoint_at(target);
  if (!now_there.is_ok()) {
    unreachable_->inc();
    tracer_.record(sim_.now(), EventKind::kUnreachable, trace_corr);
    return;
  }
  EndpointId receiver = now_there.value();
  if (faults_ != nullptr) {
    // A machine that is down *at delivery time* receives nothing: messages
    // in flight when the crash hit die here, exactly like a kernel losing
    // its socket buffers with the host.
    auto receiver_machine = net_.machine_of(receiver);
    if (receiver_machine.is_ok() &&
        faults_->is_crashed(receiver_machine.value().value())) {
      dropped_->inc();
      fault_crash_drops_->inc();
      tracer_.record(sim_.now(), EventKind::kFaultDropCrash, trace_corr,
                     receiver_machine.value().value());
      return;
    }
  }
  if (receiver != intended) {
    misdelivered_->inc();
    tracer_.record(sim_.now(), EventKind::kMisdeliver, trace_corr,
                   receiver.value());
  }

  auto payload = Payload::decode(std::move(frame));
  if (!payload.is_ok()) {
    NAMECOH_ERROR("wire decode failed: " << payload.status());
    return;
  }
  Message message;
  message.type = type;
  message.trace_corr = trace_corr;
  message.payload = std::move(payload).value();

  auto receiver_loc = net_.location_of(receiver);
  if (!receiver_loc.is_ok()) {
    unreachable_->inc();
    return;
  }

  // R(sender): rebase every embedded pid from the sender's context (at send
  // time) to the receiver's context. With the remap disabled, embedded pids
  // arrive verbatim and mean whatever they happen to mean at the receiver —
  // the §6 incoherence. The frame is rewritten only where a pid changes.
  if (config_.remap_embedded_pids) {
    Payload& fields = message.payload;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (fields.type_at(i) != FieldType::kPid) continue;
      const Pid sent = fields.pid_at(i);
      auto rebased = rebase(sent, sender_at_send, receiver_loc.value());
      if (rebased.is_ok()) {
        if (rebased.value() != sent) fields.set_pid(i, rebased.value());
        pids_remapped_->inc();
      } else {
        remap_failures_->inc();
      }
    }
  }

  // Let the receiver reply: the sender's pid relative to the receiver.
  message.reply_to = relativize(sender_at_send, receiver_loc.value());

  delivered_->inc();
  tracer_.record(sim_.now(), EventKind::kDeliver, trace_corr,
                 receiver.value());
  auto it = handlers_.find(receiver);
  if (it != handlers_.end()) it->second(receiver, message);
}

}  // namespace namecoh
