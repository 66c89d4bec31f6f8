#ifndef PRODB_RETE_TOKEN_H_
#define PRODB_RETE_TOKEN_H_

#include <memory>
#include <span>
#include <vector>

#include "common/tuple.h"

namespace prodb {

/// A shared, immutable handle to a WM tuple's values. The network makes
/// one per inserted delta of a class some token memory can hold, before
/// any shard sees the delta; every token and memory entry that holds the
/// tuple then shares that one payload (Rete/UL's "WME reference" instead
/// of OPS5's copy per token). Deletes, and classes no memory holds, get a
/// non-owning alias of the delta's own tuple: such a handle only lives
/// while the delta is being propagated and is never stored.
using TupleRef = std::shared_ptr<const Tuple>;

/// One level of a token: the WM tuple's id and its handle.
struct TokenSlot {
  TupleId id;
  TupleRef tuple;
};

/// A Rete token: a sequence of WM tuples that together satisfy a prefix
/// of a rule's condition elements. Tuples are tagged "+" or "−" when
/// flowing through the network (§3.1); the sign travels alongside the
/// token rather than inside it. The variable binding a token induces is
/// not stored: join nodes read bound values straight from the token's
/// (level, attribute) positions, and the production node derives the
/// binding once per instantiation.
///
/// Slots are indexed by join-order *level* (slot k = the CE the chain
/// joins k-th), not by textual CE position — so a chain compiled under a
/// planner-chosen order stores the same tokens as the identically-ordered
/// prefix of any other rule, which is what makes beta-prefix sharing
/// independent of LHS slot numbering. A token that has joined k positive
/// CEs has width k (negated levels never widen it). The production node
/// remaps levels back to textual CE slots when instantiations are
/// emitted.
///
/// In flight a token is a std::vector<TokenSlot>; the memories store
/// slots in place and hand out views.
using TokenView = std::span<const TokenSlot>;

}  // namespace prodb

#endif  // PRODB_RETE_TOKEN_H_
