#include "os/process_manager.hpp"

#include "util/log.hpp"

namespace namecoh {

std::string_view remote_exec_policy_name(RemoteExecPolicy policy) {
  switch (policy) {
    case RemoteExecPolicy::kInvokerRoot:
      return "invoker-root";
    case RemoteExecPolicy::kExecutorRoot:
      return "executor-root";
    case RemoteExecPolicy::kPrivateAttach:
      return "private-attach";
  }
  return "?";
}

ProcessManager::ProcessManager(NamingGraph& graph, FileSystem& fs,
                               Internetwork& net, Transport& transport)
    : graph_(graph), fs_(fs), net_(net), transport_(transport) {}

const ProcessInfo& ProcessManager::checked(ProcessId process) const {
  NAMECOH_CHECK(process.valid() && process.value() < processes_.size(),
                "unknown process id");
  return processes_[process.value()];
}

ProcessInfo& ProcessManager::checked(ProcessId process) {
  NAMECOH_CHECK(process.valid() && process.value() < processes_.size(),
                "unknown process id");
  return processes_[process.value()];
}

void ProcessManager::install_handler(ProcessId process) {
  const ProcessInfo& info = checked(process);
  transport_.set_handler(
      info.endpoint, [this, process](EndpointId, const Message& message) {
        // Identify the sender by resolving reply_to in the receiver's
        // location context. A dead or renumbered-away sender yields an
        // invalid ProcessId; the record is still kept (the name arrived).
        ProcessId sender;
        const ProcessInfo& me = checked(process);
        auto sender_ep = transport_.resolve_pid(me.endpoint,
                                                message.reply_to);
        if (sender_ep.is_ok()) {
          auto sender_proc = by_endpoint(sender_ep.value());
          if (sender_proc.is_ok()) sender = sender_proc.value();
        }
        SimTime now = transport_.simulator().now();
        if (message.type == kMsgName) {
          for (std::size_t i : message.payload.name_indices()) {
            received_names_.push_back(ReceivedName{
                process, sender, std::string(message.payload.name_at(i)),
                now});
          }
        } else if (message.type == kMsgPid) {
          for (std::size_t i : message.payload.pid_indices()) {
            received_pids_.push_back(
                ReceivedPid{process, sender, message.payload.pid_at(i), now});
          }
        }
      });
}

ProcessId ProcessManager::spawn(MachineId machine, std::string label,
                                EntityId root, EntityId cwd) {
  NAMECOH_CHECK(graph_.is_context_object(root), "spawn: root not a directory");
  NAMECOH_CHECK(graph_.is_context_object(cwd), "spawn: cwd not a directory");
  ProcessInfo info;
  info.label = label;
  info.activity = graph_.add_activity(label);
  info.context_object = graph_.add_context_object("ctx:" + label);
  graph_.context(info.context_object) =
      FileSystem::make_process_context(root, cwd);
  info.endpoint = net_.add_endpoint(machine, label);
  info.machine = machine;
  processes_.push_back(std::move(info));
  ProcessId id(processes_.size() - 1);
  by_endpoint_[processes_.back().endpoint] = id;
  closures_.set_activity_context(processes_.back().activity,
                                 processes_.back().context_object);
  install_handler(id);
  return id;
}

ProcessId ProcessManager::fork_child(ProcessId parent, std::string label) {
  const ProcessInfo& p = checked(parent);
  NAMECOH_CHECK(p.alive, "fork from dead process");
  // Inherit by copying the parent's context bindings into a fresh context
  // object: coherent now, free to diverge later (§5.1).
  // Copy these out first: spawn() grows the process table, which can
  // reallocate it and invalidate `p`.
  const MachineId machine = p.machine;
  const EntityId parent_ctx = p.context_object;
  EntityId root = graph_.context(parent_ctx)(Name("/"));
  EntityId cwd = graph_.context(parent_ctx)(Name("."));
  NAMECOH_CHECK(root.valid() && cwd.valid(),
                "parent context missing '/' or '.'");
  ProcessId child = spawn(machine, std::move(label), root, cwd);
  // Copy any extra per-process attachments beyond "/" and ".".
  graph_.context(processes_[child.value()].context_object)
      .overlay(graph_.context(parent_ctx));
  processes_[child.value()].parent = parent;
  return child;
}

Result<ProcessId> ProcessManager::remote_exec(ProcessId parent,
                                              MachineId where,
                                              std::string label,
                                              RemoteExecPolicy policy,
                                              EntityId executor_root,
                                              const Name& attach_as) {
  const ProcessInfo& p = checked(parent);
  if (!p.alive) return failed_precondition_error("remote_exec: dead parent");
  EntityId parent_root = graph_.context(p.context_object)(Name("/"));
  if (!parent_root.valid()) {
    return failed_precondition_error("remote_exec: parent has no root");
  }
  if (!graph_.is_context_object(executor_root)) {
    return invalid_argument_error("remote_exec: executor_root not a dir");
  }

  ProcessId child;
  switch (policy) {
    case RemoteExecPolicy::kInvokerRoot:
      // §5.1: "the root directory of the remote child is bound … to the
      // root of the machine where the execution was invoked".
      child = spawn(where, std::move(label), parent_root, parent_root);
      break;
    case RemoteExecPolicy::kExecutorRoot:
      // "… or to the root of the machine where the child executes."
      child = spawn(where, std::move(label), executor_root, executor_root);
      break;
    case RemoteExecPolicy::kPrivateAttach: {
      // §6 II: a private root carrying the parent's entire view, plus the
      // executor's tree attached under a fresh name.
      EntityId private_root =
          graph_.add_context_object("view:" + label);
      graph_.context(private_root).bind(Name("."), private_root);
      graph_.context(private_root).bind(Name(".."), private_root);
      // Graft the parent's root bindings (minus its own dot entries).
      for (const auto& [name, target] :
           graph_.context(parent_root).bindings()) {
        if (name.is_cwd() || name.is_parent()) continue;
        graph_.context(private_root).bind(name, target);
      }
      if (graph_.context(private_root).contains(attach_as)) {
        return already_exists_error(
            "remote_exec: attach name '" + attach_as.text() +
            "' collides with a parent-root entry");
      }
      graph_.context(private_root).bind(attach_as, executor_root);
      child = spawn(where, std::move(label), private_root, private_root);
      break;
    }
  }
  processes_[child.value()].parent = parent;
  return child;
}

Status ProcessManager::kill(ProcessId process) {
  ProcessInfo& info = checked(process);
  if (!info.alive) return failed_precondition_error("kill: already dead");
  info.alive = false;
  transport_.clear_handler(info.endpoint);
  by_endpoint_.erase(info.endpoint);
  return net_.remove_endpoint(info.endpoint);
}

bool ProcessManager::alive(ProcessId process) const {
  return process.valid() && process.value() < processes_.size() &&
         processes_[process.value()].alive;
}

const ProcessInfo& ProcessManager::info(ProcessId process) const {
  return checked(process);
}

std::size_t ProcessManager::process_count() const {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (p.alive) ++n;
  }
  return n;
}

std::vector<ProcessId> ProcessManager::processes() const {
  std::vector<ProcessId> out;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i].alive) out.emplace_back(i);
  }
  return out;
}

Result<ProcessId> ProcessManager::by_endpoint(EndpointId endpoint) const {
  auto it = by_endpoint_.find(endpoint);
  if (it == by_endpoint_.end()) {
    return not_found_error("no process for endpoint");
  }
  return it->second;
}

Result<Location> ProcessManager::location_of(ProcessId process) const {
  return net_.location_of(checked(process).endpoint);
}

Status ProcessManager::set_root(ProcessId process, EntityId dir) {
  if (!graph_.is_context_object(dir)) {
    return invalid_argument_error("set_root: not a directory");
  }
  graph_.context(checked(process).context_object).bind(Name("/"), dir);
  return Status::ok();
}

Status ProcessManager::set_cwd(ProcessId process, EntityId dir) {
  if (!graph_.is_context_object(dir)) {
    return invalid_argument_error("set_cwd: not a directory");
  }
  graph_.context(checked(process).context_object).bind(Name("."), dir);
  return Status::ok();
}

Status ProcessManager::attach_in_context(ProcessId process, const Name& name,
                                         EntityId target) {
  if (!graph_.contains(target)) {
    return invalid_argument_error("attach_in_context: unknown target");
  }
  Context& ctx = graph_.context(checked(process).context_object);
  if (ctx.contains(name)) {
    return already_exists_error("attach_in_context: '" + name.text() +
                                "' already bound");
  }
  ctx.bind(name, target);
  return Status::ok();
}

Result<EntityId> ProcessManager::root_of(ProcessId process) const {
  EntityId root = graph_.context(checked(process).context_object)(Name("/"));
  if (!root.valid()) return not_found_error("process has no root binding");
  return root;
}

Result<EntityId> ProcessManager::cwd_of(ProcessId process) const {
  EntityId cwd = graph_.context(checked(process).context_object)(Name("."));
  if (!cwd.valid()) return not_found_error("process has no cwd binding");
  return cwd;
}

Resolution ProcessManager::resolve_internal(ProcessId process,
                                            std::string_view path) const {
  auto name = CompoundName::parse_path(path);
  if (!name.is_ok()) {
    Resolution res;
    res.status = name.status();
    return res;
  }
  return resolve(graph_, graph_.context(checked(process).context_object),
                 name.value());
}

Circumstance ProcessManager::internal_circumstance(ProcessId process) const {
  return Circumstance::internal(checked(process).activity);
}

Resolution ProcessManager::resolve_received(
    const ReceivedName& received, const ResolutionRule& rule) const {
  auto name = CompoundName::parse_path(received.path);
  if (!name.is_ok()) {
    Resolution res;
    res.status = name.status();
    return res;
  }
  if (!alive(received.receiver)) {
    Resolution res;
    res.status = failed_precondition_error("receiver is dead");
    return res;
  }
  EntityId receiver_activity = checked(received.receiver).activity;
  EntityId sender_activity =
      received.sender.valid() && received.sender.value() < processes_.size()
          ? processes_[received.sender.value()].activity
          : EntityId::invalid();
  Circumstance circumstance =
      Circumstance::from_message(receiver_activity, sender_activity);
  return resolve_with_rule(graph_, closures_, rule, circumstance,
                           name.value());
}

Status ProcessManager::send_name(ProcessId from, const Pid& to,
                                 std::string path) {
  const ProcessInfo& sender = checked(from);
  if (!sender.alive) return failed_precondition_error("send from dead proc");
  Message message;
  message.type = kMsgName;
  message.payload.add_name(std::move(path));
  return transport_.send(sender.endpoint, to, std::move(message));
}

Status ProcessManager::send_name_to(ProcessId from, ProcessId to,
                                    std::string path) {
  const ProcessInfo& receiver = checked(to);
  if (!receiver.alive) return failed_precondition_error("send to dead proc");
  auto from_loc = location_of(from);
  if (!from_loc.is_ok()) return from_loc.status();
  auto to_loc = net_.location_of(receiver.endpoint);
  if (!to_loc.is_ok()) return to_loc.status();
  return send_name(from, relativize(to_loc.value(), from_loc.value()),
                   std::move(path));
}

Status ProcessManager::send_pid_of(ProcessId from, ProcessId to,
                                   ProcessId subject) {
  auto from_loc = location_of(from);
  if (!from_loc.is_ok()) return from_loc.status();
  auto subject_loc = location_of(subject);
  if (!subject_loc.is_ok()) return subject_loc.status();
  return send_pid(from, to,
                  relativize(subject_loc.value(), from_loc.value()));
}

Status ProcessManager::send_pid(ProcessId from, ProcessId to, Pid pid) {
  const ProcessInfo& sender = checked(from);
  const ProcessInfo& receiver = checked(to);
  if (!sender.alive || !receiver.alive) {
    return failed_precondition_error("send_pid: dead endpoint");
  }
  auto from_loc = location_of(from);
  if (!from_loc.is_ok()) return from_loc.status();
  auto to_loc = net_.location_of(receiver.endpoint);
  if (!to_loc.is_ok()) return to_loc.status();
  Message message;
  message.type = kMsgPid;
  message.payload.add_pid(pid);
  return transport_.send(sender.endpoint,
                         relativize(to_loc.value(), from_loc.value()),
                         std::move(message));
}

void ProcessManager::settle() { transport_.simulator().run(); }

void ProcessManager::clear_inboxes() {
  received_names_.clear();
  received_pids_.clear();
}

Result<ProcessId> ProcessManager::resolve_received_pid(
    const ReceivedPid& received) const {
  if (!alive(received.receiver)) {
    return failed_precondition_error("receiver is dead");
  }
  auto endpoint = transport_.resolve_pid(checked(received.receiver).endpoint,
                                         received.pid);
  if (!endpoint.is_ok()) return endpoint.status();
  return by_endpoint(endpoint.value());
}

}  // namespace namecoh
