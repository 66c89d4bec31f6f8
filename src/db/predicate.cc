#include "db/predicate.h"

namespace prodb {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

bool EvalCompare(const Value& lhs, CompareOp op, const Value& rhs) {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs.Compare(rhs) < 0;
    case CompareOp::kLe: return lhs.Compare(rhs) <= 0;
    case CompareOp::kGt: return lhs.Compare(rhs) > 0;
    case CompareOp::kGe: return lhs.Compare(rhs) >= 0;
  }
  return false;
}

std::string ConstantTest::ToString() const {
  return "$" + std::to_string(attr) + " " + CompareOpName(op) + " " +
         constant.ToString();
}

std::string Selection::ToString() const {
  std::string out;
  for (size_t i = 0; i < tests.size(); ++i) {
    if (i) out += " and ";
    out += tests[i].ToString();
  }
  return out.empty() ? "true" : out;
}

std::string ConditionSpec::ToString() const {
  std::string out = negated ? "-(" : "(";
  out += relation;
  for (const ConstantTest& c : constant_tests) {
    out += " " + c.ToString();
  }
  for (const VarUse& v : var_uses) {
    out += " $" + std::to_string(v.attr) + " " + CompareOpName(v.op) + " ?" +
           std::to_string(v.var);
  }
  out += ")";
  return out;
}

std::string ConjunctiveQuery::ToString() const {
  std::string out;
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (i) out += " & ";
    out += conditions[i].ToString();
  }
  return out;
}

}  // namespace prodb
