#ifndef PRODB_DB_PREDICATE_H_
#define PRODB_DB_PREDICATE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/tuple.h"
#include "common/value.h"

namespace prodb {

/// Comparison operators of OPS5 condition tests: { <, >, <=, >=, =, <> }.
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

/// Applies `lhs op rhs`. Cross-type comparisons follow Value::Compare.
bool EvalCompare(const Value& lhs, CompareOp op, const Value& rhs);

/// `attribute op constant` — the test performed by a Rete one-input node.
struct ConstantTest {
  int attr = 0;
  CompareOp op = CompareOp::kEq;
  Value constant;

  bool Matches(const Tuple& t) const {
    return EvalCompare(t[static_cast<size_t>(attr)], op, constant);
  }
  std::string ToString() const;
};

/// Conjunction of constant tests over one relation (a selection).
struct Selection {
  std::vector<ConstantTest> tests;

  bool Matches(const Tuple& t) const {
    for (const ConstantTest& c : tests) {
      if (!c.Matches(t)) return false;
    }
    return true;
  }
  std::string ToString() const;
};

/// Occurrence of a variable in a condition element: the tuple attribute
/// `attr` must stand in relation `op` to the variable's bound value. For
/// the binding occurrence of a variable op is kEq.
struct VarUse {
  int attr = 0;
  int var = 0;  // dense variable id within the rule
  CompareOp op = CompareOp::kEq;
};

/// One condition element of a conjunctive query / rule LHS, resolved
/// against a relation by name.
struct ConditionSpec {
  std::string relation;
  std::vector<ConstantTest> constant_tests;
  std::vector<VarUse> var_uses;
  bool negated = false;

  std::string ToString() const;
};

/// A conjunctive query: the relational reading of a rule LHS (§3.2:
/// "LHS's are equivalent to retrieval operations in a DBMS context").
struct ConjunctiveQuery {
  std::vector<ConditionSpec> conditions;
  int num_vars = 0;

  std::string ToString() const;
};

/// Variable binding during conjunctive-query evaluation; unbound slots
/// are nullopt.
using Binding = std::vector<std::optional<Value>>;

}  // namespace prodb

#endif  // PRODB_DB_PREDICATE_H_
