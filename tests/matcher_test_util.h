#ifndef PRODB_TESTS_MATCHER_TEST_UTIL_H_
#define PRODB_TESTS_MATCHER_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "core/matcher_spec.h"
#include "engine/working_memory.h"
#include "lang/analyzer.h"
#include "match/matcher.h"

namespace prodb {

/// The configuration a spec name (core/matcher_spec.h) names; a name the
/// parser rejects fails the calling test.
inline MatcherSpec NamedSpec(const std::string& name) {
  MatcherSpec spec;
  Status st = MatcherSpec::Parse(name, &spec);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return spec;
}

/// The matcher a spec name names over `catalog`.
inline std::unique_ptr<Matcher> MakeNamedMatcher(const std::string& name,
                                                 Catalog* catalog) {
  return MakeMatcher(NamedSpec(name), catalog);
}

/// gtest parameter name for a suite parameterized over matcher spec
/// names: the name with '-' spelled '_' ("rete_dbms").
inline std::string SpecParamName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// Canonical view of a conflict set for cross-matcher comparison: the set
/// of (rule name, matched tuple *values* per positive CE). Tuple ids are
/// matcher-independent only within one catalog, so value-level comparison
/// is used when comparing matchers running on separate catalogs.
inline std::multiset<std::string> CanonicalConflictSet(Matcher& m) {
  std::multiset<std::string> out;
  for (const Instantiation& inst : m.conflict_set().Snapshot()) {
    std::string key = inst.rule_name + ":";
    const Rule& rule = m.rules()[static_cast<size_t>(inst.rule_index)];
    for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
      key += rule.lhs.conditions[ce].negated ? "[-]"
                                             : inst.tuples[ce].ToString();
    }
    out.insert(std::move(key));
  }
  return out;
}

/// A matcher plus its own catalog and WM facade, loaded from an OPS5-like
/// program source.
struct MatcherHarness {
  std::unique_ptr<Catalog> catalog;
  std::vector<Rule> rules;
  std::unique_ptr<Matcher> matcher;
  std::unique_ptr<WorkingMemory> wm;

  Status Init(const std::string& source,
              std::function<std::unique_ptr<Matcher>(Catalog*)> factory) {
    catalog = std::make_unique<Catalog>();
    PRODB_RETURN_IF_ERROR(LoadProgram(source, catalog.get(), &rules));
    matcher = factory(catalog.get());
    for (const Rule& r : rules) {
      PRODB_RETURN_IF_ERROR(matcher->AddRule(r));
    }
    wm = std::make_unique<WorkingMemory>(catalog.get(), matcher.get());
    return Status::OK();
  }

  /// As above, with the matcher a spec name names.
  Status Init(const std::string& source, const std::string& spec_name) {
    return Init(source,
                [&](Catalog* c) { return MakeNamedMatcher(spec_name, c); });
  }
};

}  // namespace prodb

#endif  // PRODB_TESTS_MATCHER_TEST_UTIL_H_
