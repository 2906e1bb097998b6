// Closure mechanisms (§3): the implicit rules that select the context in
// which a name is resolved.
//
// A name never arrives alone; it arrives in a *circumstance* — who is
// resolving it and where it came from (Fig. 1's three sources: generated
// internally, received from another activity, read from an object). The
// paper models the choice as a resolution rule R ∈ [M → C] over the meta
// context M of circumstances. Here:
//
//   * Circumstance  — one element of M,
//   * ClosureTable  — the system-maintained assignments R(a) and R(o)
//                     (each activity's context, each object's context),
//   * ResolutionRule — a strategy choosing which assignment applies:
//       ByActivity  R(a):        always the resolver's own context
//       ByReceiver  R(receiver): synonym of ByActivity for message names,
//                                kept distinct so experiments can report it
//       BySender    R(sender):   for message names, the sender's context
//       ByObject    R(o):        for embedded names, the source object's
//                                context
//       PerSource   composite:   an independently chosen rule per source,
//                                the form real schemes take (§6)
//
// Contexts are identified by the context *object* holding them, so rules
// return an EntityId of a context object; resolve_with_rule() then runs the
// ordinary resolver in that context.
#pragma once

#include <memory>
#include <string_view>
#include <unordered_map>

#include "core/naming_graph.hpp"
#include "core/resolve.hpp"
#include "util/status.hpp"

namespace namecoh {

/// Where a name came from (Fig. 1).
enum class NameSource : std::uint8_t {
  kInternal,      ///< generated inside the resolving activity (or by a user)
  kFromActivity,  ///< received in a message from another activity
  kFromObject,    ///< read from a (data) object that contains the name
};

std::string_view name_source_name(NameSource source);

/// One element of the meta context M: the circumstances in which a name
/// occurs. Construct via the factories to keep the invariants (sender only
/// for message names, object only for embedded names) straight.
struct Circumstance {
  EntityId activity;       ///< the activity performing the resolution
  NameSource source = NameSource::kInternal;
  EntityId sender;         ///< valid iff source == kFromActivity
  EntityId object;         ///< valid iff source == kFromObject

  static Circumstance internal(EntityId activity) {
    return Circumstance{activity, NameSource::kInternal, {}, {}};
  }
  static Circumstance from_message(EntityId receiver, EntityId sender) {
    return Circumstance{receiver, NameSource::kFromActivity, sender, {}};
  }
  static Circumstance from_object(EntityId activity, EntityId object) {
    return Circumstance{activity, NameSource::kFromObject, {}, object};
  }
};

/// The system-maintained context assignments. The paper notes that R(a)
/// "does not mean that a separate context is stored for each activity" —
/// here multiple activities may share one context object.
class ClosureTable {
 public:
  /// Assign activity → context object (its R(a)).
  void set_activity_context(EntityId activity, EntityId context_object);
  [[nodiscard]] Result<EntityId> activity_context(EntityId activity) const;
  [[nodiscard]] bool has_activity_context(EntityId activity) const;

  /// Assign object → context object (its R(o)); e.g. the directory whose
  /// scope governs names embedded in a file.
  void set_object_context(EntityId object, EntityId context_object);
  [[nodiscard]] Result<EntityId> object_context(EntityId object) const;
  [[nodiscard]] bool has_object_context(EntityId object) const;

  void clear();

 private:
  std::unordered_map<EntityId, EntityId> activity_contexts_;
  std::unordered_map<EntityId, EntityId> object_contexts_;
};

// RuleKind (and rule_kind_name) are declared in core/resolve.hpp; this
// header re-exports them through its include of resolve.hpp.

/// A resolution rule R ∈ [M → C]. Stateless; the state lives in the
/// ClosureTable.
class ResolutionRule {
 public:
  virtual ~ResolutionRule() = default;

  /// Select the context object whose context resolves names occurring in
  /// the given circumstance.
  [[nodiscard]] virtual Result<EntityId> select(
      const ClosureTable& table, const Circumstance& circumstance) const = 0;

  [[nodiscard]] virtual RuleKind kind() const = 0;
  [[nodiscard]] std::string_view name() const {
    return rule_kind_name(kind());
  }
};

/// R(a): resolve in the context of the activity performing the resolution.
class ByActivityRule final : public ResolutionRule {
 public:
  [[nodiscard]] Result<EntityId> select(
      const ClosureTable& table, const Circumstance& c) const override;
  [[nodiscard]] RuleKind kind() const override {
    return RuleKind::kByActivity;
  }
};

/// R(receiver): identical selection to R(a); a distinct rule object so
/// reports can name the rule the paper discusses for exchanged names.
class ByReceiverRule final : public ResolutionRule {
 public:
  [[nodiscard]] Result<EntityId> select(
      const ClosureTable& table, const Circumstance& c) const override;
  [[nodiscard]] RuleKind kind() const override {
    return RuleKind::kByReceiver;
  }
};

/// R(sender): for names received in messages, resolve in the sender's
/// context; other sources fall back to the resolver's context.
class BySenderRule final : public ResolutionRule {
 public:
  [[nodiscard]] Result<EntityId> select(
      const ClosureTable& table, const Circumstance& c) const override;
  [[nodiscard]] RuleKind kind() const override { return RuleKind::kBySender; }
};

/// R(object): for names obtained from an object, resolve in the context
/// associated with that object; other sources fall back to the resolver's
/// context.
class ByObjectRule final : public ResolutionRule {
 public:
  [[nodiscard]] Result<EntityId> select(
      const ClosureTable& table, const Circumstance& c) const override;
  [[nodiscard]] RuleKind kind() const override { return RuleKind::kByObject; }
};

/// Composite rule with an independent choice per name source — the shape §6
/// recommends (R(a) for internal names, R(sender) for exchanged names,
/// R(object) for embedded names).
class PerSourceRule final : public ResolutionRule {
 public:
  PerSourceRule(std::shared_ptr<const ResolutionRule> internal_rule,
                std::shared_ptr<const ResolutionRule> message_rule,
                std::shared_ptr<const ResolutionRule> object_rule);

  [[nodiscard]] Result<EntityId> select(
      const ClosureTable& table, const Circumstance& c) const override;
  [[nodiscard]] RuleKind kind() const override {
    return RuleKind::kPerSource;
  }

 private:
  std::shared_ptr<const ResolutionRule> internal_;
  std::shared_ptr<const ResolutionRule> message_;
  std::shared_ptr<const ResolutionRule> object_;
};

/// Factory for the basic rules (shared, stateless singletons).
std::shared_ptr<const ResolutionRule> make_rule(RuleKind kind);

/// The paper's recommended composite: internal → R(a), message → R(sender),
/// embedded → R(object).
std::shared_ptr<const ResolutionRule> make_coherent_per_source_rule();

/// Resolve a name under a rule: select the context for the circumstance,
/// then run the ordinary resolver in it.
Resolution resolve_with_rule(const NamingGraph& graph,
                             const ClosureTable& table,
                             const ResolutionRule& rule,
                             const Circumstance& circumstance,
                             const CompoundName& name,
                             ResolveOptions options = {});

}  // namespace namecoh
