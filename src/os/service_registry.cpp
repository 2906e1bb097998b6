#include "os/service_registry.hpp"

namespace namecoh {

ServiceRegistry::ServiceRegistry(Internetwork& net, Transport& transport,
                                 MachineId machine)
    : net_(net),
      transport_(transport),
      endpoint_(net.add_endpoint(machine, "registry")) {
  transport_.set_handler(endpoint_,
                         [this](EndpointId self, const Message& message) {
                           handle(self, message);
                         });
}

std::optional<Pid> ServiceRegistry::stored_pid(
    const std::string& name) const {
  auto it = table_.find(name);
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

void ServiceRegistry::handle(EndpointId self, const Message& message) {
  switch (message.type) {
    case RegistryWire::kRegister: {
      if (message.payload.size() < 2 ||
          message.payload.type_at(0) != FieldType::kString ||
          message.payload.type_at(1) != FieldType::kPid) {
        return;
      }
      ++stats_.registers;
      // The pid arrived rebased into *our* context (R(sender) remap).
      table_[std::string(message.payload.string_at(0))] =
          message.payload.pid_at(1);
      break;
    }
    case RegistryWire::kUnregister: {
      if (message.payload.size() < 1 ||
          message.payload.type_at(0) != FieldType::kString) {
        return;
      }
      ++stats_.unregisters;
      table_.erase(std::string(message.payload.string_at(0)));
      break;
    }
    case RegistryWire::kLookup: {
      if (message.payload.size() < 2 ||
          message.payload.type_at(0) != FieldType::kString ||
          message.payload.type_at(1) != FieldType::kU64) {
        return;
      }
      ++stats_.lookups;
      auto it = table_.find(message.payload.string_at(0));
      Message reply;
      reply.type = RegistryWire::kReply;
      reply.payload.add_u64(message.payload.u64_at(1));  // token
      if (it == table_.end()) {
        ++stats_.misses;
        reply.payload.add_u64(0);
        reply.payload.add_pid(Pid::self());
      } else {
        ++stats_.hits;
        reply.payload.add_u64(1);
        // Embedded pid: the transport rebases it into the requester's
        // context on the way out.
        reply.payload.add_pid(it->second);
      }
      (void)transport_.send(self, message.reply_to, std::move(reply));
      break;
    }
    default:
      break;
  }
}

RegistryClient::RegistryClient(Internetwork& net, Transport& transport,
                               Simulator& sim,
                               const ServiceRegistry& registry)
    : net_(net), transport_(transport), sim_(sim), registry_(registry) {}

Result<Pid> RegistryClient::registry_pid_for(EndpointId from) const {
  auto from_loc = net_.location_of(from);
  if (!from_loc.is_ok()) return from_loc.status();
  auto reg_loc = net_.location_of(registry_.endpoint());
  if (!reg_loc.is_ok()) {
    return unreachable_error("registry endpoint is dead");
  }
  return relativize(reg_loc.value(), from_loc.value());
}

Status RegistryClient::announce(EndpointId from, const std::string& service,
                                EndpointId provider) {
  auto registry_pid = registry_pid_for(from);
  if (!registry_pid.is_ok()) return registry_pid.status();
  auto from_loc = net_.location_of(from);
  if (!from_loc.is_ok()) return from_loc.status();
  auto provider_loc = net_.location_of(provider);
  if (!provider_loc.is_ok()) return provider_loc.status();
  Message msg;
  msg.type = RegistryWire::kRegister;
  msg.payload.add_string(service);
  // The provider's pid in the *sender's* context; the transport rebases.
  msg.payload.add_pid(relativize(provider_loc.value(), from_loc.value()));
  return transport_.send(from, registry_pid.value(), std::move(msg));
}

Status RegistryClient::withdraw(EndpointId from, const std::string& service) {
  auto registry_pid = registry_pid_for(from);
  if (!registry_pid.is_ok()) return registry_pid.status();
  Message msg;
  msg.type = RegistryWire::kUnregister;
  msg.payload.add_string(service);
  return transport_.send(from, registry_pid.value(), std::move(msg));
}

Result<Pid> RegistryClient::locate(EndpointId requester,
                                   const std::string& service) {
  auto requester_loc = net_.location_of(requester);
  if (!requester_loc.is_ok()) return requester_loc.status();
  auto machine = net_.machine_of(requester);
  if (!machine.is_ok()) return machine.status();

  // A short-lived helper endpoint on the requester's machine receives the
  // reply so the requester's own message handler is not disturbed.
  EndpointId helper = net_.add_endpoint(machine.value(), "registry-client");
  struct Cleanup {
    Internetwork& net;
    Transport& transport;
    EndpointId helper;
    ~Cleanup() {
      transport.clear_handler(helper);
      (void)net.remove_endpoint(helper);
    }
  } cleanup{net_, transport_, helper};

  std::uint64_t token = next_token_++;
  bool got_reply = false;
  bool found = false;
  Pid provider_at_helper;
  transport_.set_handler(
      helper, [&](EndpointId, const Message& message) {
        if (message.type != RegistryWire::kReply ||
            message.payload.size() < 3 ||
            message.payload.u64_at(0) != token) {
          return;
        }
        got_reply = true;
        found = message.payload.u64_at(1) != 0;
        provider_at_helper = message.payload.pid_at(2);
      });

  auto registry_pid = registry_pid_for(helper);
  if (!registry_pid.is_ok()) return registry_pid.status();
  Message msg;
  msg.type = RegistryWire::kLookup;
  msg.payload.add_string(service);
  msg.payload.add_u64(token);
  Status sent = transport_.send(helper, registry_pid.value(), std::move(msg));
  if (!sent.is_ok()) return sent;
  while (!got_reply && sim_.pending() > 0) sim_.run(1);
  if (!got_reply) return unreachable_error("no reply from registry");
  if (!found) return not_found_error("service '" + service + "' unknown");

  // Shift the pid from the helper's context to the requester's (same
  // machine, so this is usually the identity).
  auto helper_loc = net_.location_of(helper);
  if (!helper_loc.is_ok()) return helper_loc.status();
  return rebase(provider_at_helper, helper_loc.value(),
                requester_loc.value());
}

}  // namespace namecoh
