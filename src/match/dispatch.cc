#include "match/dispatch.h"

#include <algorithm>
#include <numeric>

#include "db/executor.h"

namespace prodb {

uint32_t DispatchCandidates(const DiscriminationIndex& index, size_t n,
                            bool discriminate, const Tuple& t,
                            MatcherStats* stats, std::vector<uint32_t>* out) {
  out->clear();
  uint32_t nominated = 0;
  if (discriminate) {
    index.Lookup(t, out);
    nominated = static_cast<uint32_t>(out->size());
    stats->candidates_visited += nominated;
  } else {
    out->resize(n);
    std::iota(out->begin(), out->end(), 0u);
  }
  stats->alpha_tests_evaluated += out->size();
  return nominated;
}

DeletedTuples::DeletedTuples(const ChangeSet& batch) {
  for (const Delta& d : batch) {
    if (d.is_delete()) sorted_.emplace_back(d.id, &d.relation);
  }
  std::sort(sorted_.begin(), sorted_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

void CeDispatch::Add(int rule, int ce, const ConditionSpec& c) {
  (c.negated ? negative_ : positive_)[c.relation].Add(CeRef{rule, ce},
                                                      c.constant_tests);
}

const std::vector<CeRef>& CeDispatch::Candidates(
    bool negated, const std::string& rel, const Tuple& t,
    MatcherStats* stats, std::vector<uint32_t>* out) const {
  static const std::vector<CeRef> kNone;
  const DispatchMap<CeRef>& map = negated ? negative_ : positive_;
  auto it = map.find(rel);
  if (it == map.end()) {
    out->clear();
    return kNone;
  }
  it->second.Candidates(t, discriminate_, stats, out);
  return it->second.entries;
}

void CeDispatch::RetireDeleted(const DeletedTuples& deleted,
                               ConflictSet* cs) const {
  if (deleted.empty()) return;
  cs->RemoveIf([&](const Instantiation& inst) {
    const Rule& rule = (*rules_)[static_cast<size_t>(inst.rule_index)];
    for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
      const ConditionSpec& c = rule.lhs.conditions[ce];
      if (!c.negated && deleted.Contains(c.relation, inst.tuple_ids[ce])) {
        return true;
      }
    }
    return false;
  });
}

void CeDispatch::RetireBlocked(const ChangeSet& batch, MatcherStats* stats,
                               ConflictSet* cs) const {
  std::vector<uint32_t> cands;
  std::vector<std::pair<const Tuple*, const CeRef*>> blockers;
  for (const Delta& d : batch) {
    if (!d.is_insert()) continue;
    const std::vector<CeRef>& ces =
        Candidates(/*negated=*/true, d.relation, d.tuple, stats, &cands);
    for (uint32_t pos : cands) blockers.emplace_back(&d.tuple, &ces[pos]);
  }
  if (blockers.empty()) return;
  cs->RemoveIf([&](const Instantiation& inst) {
    for (const auto& [tuple, ref] : blockers) {
      if (ref->rule != inst.rule_index) continue;
      const ConditionSpec& ce =
          (*rules_)[static_cast<size_t>(ref->rule)]
              .lhs.conditions[static_cast<size_t>(ref->ce)];
      Binding b = inst.binding;
      if (TupleConsistent(ce, *tuple, &b)) return true;
    }
    return false;
  });
}

size_t CeDispatch::FootprintBytes() const {
  size_t total = 0;
  for (const DispatchMap<CeRef>* map : {&positive_, &negative_}) {
    for (const auto& [name, dispatch] : *map) {
      total += name.size() + dispatch.entries.size() * (sizeof(CeRef) + 16);
    }
  }
  return total;
}

Status DeclareEqualityIndexes(const ConditionSpec& c, Relation* rel) {
  std::vector<int> attrs;
  for (const VarUse& u : c.var_uses) {
    if (u.op == CompareOp::kEq) attrs.push_back(u.attr);
  }
  for (const ConstantTest& t : c.constant_tests) {
    if (t.op == CompareOp::kEq) attrs.push_back(t.attr);
  }
  for (int attr : attrs) {
    if (!rel->HasHashIndex(attr)) {
      PRODB_RETURN_IF_ERROR(rel->CreateHashIndex(attr));
    }
  }
  return Status::OK();
}

}  // namespace prodb
