#include "core/closure.hpp"

namespace namecoh {

std::string_view name_source_name(NameSource source) {
  switch (source) {
    case NameSource::kInternal:
      return "internal";
    case NameSource::kFromActivity:
      return "from-activity";
    case NameSource::kFromObject:
      return "from-object";
  }
  return "?";
}

std::string_view rule_kind_name(RuleKind kind) {
  switch (kind) {
    case RuleKind::kByActivity:
      return "R(activity)";
    case RuleKind::kByReceiver:
      return "R(receiver)";
    case RuleKind::kBySender:
      return "R(sender)";
    case RuleKind::kByObject:
      return "R(object)";
    case RuleKind::kPerSource:
      return "R(per-source)";
  }
  return "?";
}

void ClosureTable::set_activity_context(EntityId activity,
                                        EntityId context_object) {
  NAMECOH_CHECK(activity.valid() && context_object.valid(),
                "closure assignment needs valid ids");
  activity_contexts_[activity] = context_object;
}

Result<EntityId> ClosureTable::activity_context(EntityId activity) const {
  auto it = activity_contexts_.find(activity);
  if (it == activity_contexts_.end()) {
    return not_found_error("activity has no assigned context");
  }
  return it->second;
}

bool ClosureTable::has_activity_context(EntityId activity) const {
  return activity_contexts_.contains(activity);
}

void ClosureTable::set_object_context(EntityId object,
                                      EntityId context_object) {
  NAMECOH_CHECK(object.valid() && context_object.valid(),
                "closure assignment needs valid ids");
  object_contexts_[object] = context_object;
}

Result<EntityId> ClosureTable::object_context(EntityId object) const {
  auto it = object_contexts_.find(object);
  if (it == object_contexts_.end()) {
    return not_found_error("object has no assigned context");
  }
  return it->second;
}

bool ClosureTable::has_object_context(EntityId object) const {
  return object_contexts_.contains(object);
}

void ClosureTable::clear() {
  activity_contexts_.clear();
  object_contexts_.clear();
}

Result<EntityId> ByActivityRule::select(const ClosureTable& table,
                                        const Circumstance& c) const {
  return table.activity_context(c.activity);
}

Result<EntityId> ByReceiverRule::select(const ClosureTable& table,
                                        const Circumstance& c) const {
  return table.activity_context(c.activity);
}

Result<EntityId> BySenderRule::select(const ClosureTable& table,
                                      const Circumstance& c) const {
  if (c.source == NameSource::kFromActivity && c.sender.valid()) {
    return table.activity_context(c.sender);
  }
  return table.activity_context(c.activity);
}

Result<EntityId> ByObjectRule::select(const ClosureTable& table,
                                      const Circumstance& c) const {
  if (c.source == NameSource::kFromObject && c.object.valid()) {
    return table.object_context(c.object);
  }
  return table.activity_context(c.activity);
}

PerSourceRule::PerSourceRule(
    std::shared_ptr<const ResolutionRule> internal_rule,
    std::shared_ptr<const ResolutionRule> message_rule,
    std::shared_ptr<const ResolutionRule> object_rule)
    : internal_(std::move(internal_rule)),
      message_(std::move(message_rule)),
      object_(std::move(object_rule)) {
  NAMECOH_CHECK(internal_ && message_ && object_,
                "PerSourceRule needs all three sub-rules");
}

Result<EntityId> PerSourceRule::select(const ClosureTable& table,
                                       const Circumstance& c) const {
  switch (c.source) {
    case NameSource::kInternal:
      return internal_->select(table, c);
    case NameSource::kFromActivity:
      return message_->select(table, c);
    case NameSource::kFromObject:
      return object_->select(table, c);
  }
  return internal_error("unknown name source");
}

std::shared_ptr<const ResolutionRule> make_rule(RuleKind kind) {
  static const auto by_activity = std::make_shared<const ByActivityRule>();
  static const auto by_receiver = std::make_shared<const ByReceiverRule>();
  static const auto by_sender = std::make_shared<const BySenderRule>();
  static const auto by_object = std::make_shared<const ByObjectRule>();
  switch (kind) {
    case RuleKind::kByActivity:
      return by_activity;
    case RuleKind::kByReceiver:
      return by_receiver;
    case RuleKind::kBySender:
      return by_sender;
    case RuleKind::kByObject:
      return by_object;
    case RuleKind::kPerSource:
      break;  // composite rules carry state; build via the other factory
  }
  NAMECOH_CHECK(false, "make_rule: kPerSource needs explicit sub-rules");
  return nullptr;  // unreachable
}

std::shared_ptr<const ResolutionRule> make_coherent_per_source_rule() {
  return std::make_shared<const PerSourceRule>(
      make_rule(RuleKind::kByActivity), make_rule(RuleKind::kBySender),
      make_rule(RuleKind::kByObject));
}

Resolution resolve_with_rule(const NamingGraph& graph,
                             const ClosureTable& table,
                             const ResolutionRule& rule,
                             const Circumstance& circumstance,
                             const CompoundName& name,
                             ResolveOptions options) {
  auto ctx = rule.select(table, circumstance);
  if (!ctx.is_ok()) {
    Resolution res;
    res.status = ctx.status();
    return res;
  }
  return resolve_from(graph, ctx.value(), name, options);
}

}  // namespace namecoh
