// A service registry: well-known names → process identifiers, over the
// message layer.
//
// §7's example name spaces include "/services"; in Waterloo Port and V,
// services are located by asking a registry process. This implements that
// pattern on the messaging substrate, and it is a showcase for the paper's
// machinery because the registry stores *pids* — names whose meaning
// depends on the holder's context:
//
//   * a REGISTER message carries the provider's pid; the transport rebases
//     it into the registry's context (R(sender));
//   * the registry stores that pid (valid in *its* context);
//   * a LOOKUP reply embeds the stored pid; the transport rebases it again
//     into the *requester's* context.
//
// Two rebases, and the requester ends up with a pid that denotes the right
// process from where *it* stands — service-name coherence without any
// global addresses. Disable the transport remap and lookups hand out pids
// that lie (testable, and tested).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "os/process_manager.hpp"

namespace namecoh {

struct RegistryStats {
  std::uint64_t registers = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t unregisters = 0;
};

/// Wire protocol (Transport Message::type).
struct RegistryWire {
  static constexpr std::uint32_t kRegister = 200;   // [name, pid]
  static constexpr std::uint32_t kUnregister = 201; // [name]
  static constexpr std::uint32_t kLookup = 202;     // [name, token]
  static constexpr std::uint32_t kReply = 203;      // [token, found, pid]
};

/// The registry server: one endpoint, a name → pid table.
class ServiceRegistry {
 public:
  ServiceRegistry(Internetwork& net, Transport& transport,
                  MachineId machine);

  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  [[nodiscard]] const RegistryStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  /// Direct (non-message) inspection, for tests.
  [[nodiscard]] std::optional<Pid> stored_pid(const std::string& name) const;

 private:
  void handle(EndpointId self, const Message& message);

  Internetwork& net_;
  Transport& transport_;
  EndpointId endpoint_;
  RegistryStats stats_;
  // Pids valid in the registry's context; looked up by string_view.
  std::map<std::string, Pid, std::less<>> table_;
};

/// Client-side helpers: register/lookup on behalf of a process, driving the
/// simulator until the reply lands.
class RegistryClient {
 public:
  RegistryClient(Internetwork& net, Transport& transport, Simulator& sim,
                 const ServiceRegistry& registry);

  /// Announce `provider` (an endpoint) under `service` from `from`'s
  /// location. Typically from == provider ("register myself").
  Status announce(EndpointId from, const std::string& service,
                  EndpointId provider);
  Status withdraw(EndpointId from, const std::string& service);

  /// Look up a service for `requester`; the returned pid is valid in the
  /// requester's context.
  Result<Pid> locate(EndpointId requester, const std::string& service);

 private:
  Result<Pid> registry_pid_for(EndpointId from) const;

  Internetwork& net_;
  Transport& transport_;
  Simulator& sim_;
  const ServiceRegistry& registry_;
  std::uint64_t next_token_ = 1;
};

}  // namespace namecoh
