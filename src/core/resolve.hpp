// Compound-name resolution (§2).
//
// Implements the paper's recursive definition
//   c(n1 … nk) = σ(c(n1))(n2 … nk)   when σ(c(n1)) ∈ C
//              = ⊥E                   otherwise
// as an iterative traversal of the naming graph, with a depth limit that
// guards against pathological graphs (the naming graph is a general directed
// graph and may contain cycles, e.g. the "." and ".." bindings of a file
// system).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/context.hpp"
#include "core/name.hpp"
#include "core/naming_graph.hpp"
#include "util/status.hpp"

namespace namecoh {

class Tracer;

/// Which closure rule selects the context a name is resolved in (§3); the
/// rule objects themselves live in core/closure.hpp.
enum class RuleKind : std::uint8_t {
  kByActivity,
  kByReceiver,
  kBySender,
  kByObject,
  kPerSource,
};

std::string_view rule_kind_name(RuleKind kind);

/// Limits of the local walk (resolve/resolve_from and resolve_with_rule).
/// The distributed ResolverClient keeps its own referral limit in
/// ResolverClientConfig: no limit is shared between the two layers
/// (DESIGN.md "each layer's limits live in its own config").
struct ResolveOptions {
  /// Maximum number of resolution steps (compound-name components
  /// processed). Generous default: real paths are far shorter.
  std::size_t max_steps = 256;
  /// Optional observability sink: when set and enabled, each resolution is
  /// one span with a kResolveStep event per component consumed. Local
  /// resolution has no clock, so events are stamped at t=0.
  Tracer* tracer = nullptr;
};

/// The outcome of resolving one compound name, with the traversal trail for
/// diagnostics and path-length statistics.
struct Resolution {
  Status status;            ///< OK, NOT_FOUND, NOT_A_CONTEXT, DEPTH_EXCEEDED
  EntityId entity;          ///< valid iff status OK; else ⊥E (invalid)
  std::vector<EntityId> trail;  ///< context objects traversed, in order
  std::size_t steps = 0;    ///< components consumed

  [[nodiscard]] bool ok() const { return status.is_ok(); }

  /// Two resolutions denote the same entity (both OK, equal ids).
  [[nodiscard]] bool same_entity(const Resolution& other) const {
    return ok() && other.ok() && entity == other.entity;
  }
};

/// Resolve `name` starting from an explicit context value. `name` is a
/// borrowed slice (a CompoundName converts implicitly); it must be
/// non-empty and outlive the call.
Resolution resolve(const NamingGraph& graph, const Context& start,
                   NameSlice name, ResolveOptions options = {});

/// Resolve `name` starting from the context of a context object.
Resolution resolve_from(const NamingGraph& graph, EntityId start_context,
                        NameSlice name, ResolveOptions options = {});

}  // namespace namecoh
