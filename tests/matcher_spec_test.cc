#include "core/matcher_spec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace prodb {
namespace {

TEST(MatcherSpecTest, NamesRoundTrip) {
  // The 22 configurations of the equivalence suite, the 10 names the
  // E-series benchmarks use, then the unshared Rete networks.
  const std::vector<std::string> names = {
      "query", "pattern", "rete", "rete-dbms", "query-scan", "pattern-scan",
      "rete-scan", "rete-dbms-scan", "query-nodisc", "pattern-nodisc",
      "rete-nodisc", "rete-dbms-nodisc", "query-shard4", "pattern-shard4",
      "rete-shard4", "rete-shard4", "rete-dbms-shard4", "query-plan",
      "rete-plan", "rete-dbms-plan", "query-plan-shard8", "rete-plan-shard8",
      "rete", "rete-dbms", "query", "pattern", "rete-plan", "query-plan",
      "query-scan", "pattern-scan", "rete-scan", "rete-dbms-scan",
      "rete-noshare", "rete-dbms-noshare-plan"};
  for (const std::string& name : names) {
    MatcherSpec spec, again;
    ASSERT_TRUE(MatcherSpec::Parse(name, &spec).ok()) << name;
    EXPECT_EQ(spec.Name(), name);
    ASSERT_TRUE(MatcherSpec::Parse(spec.Name(), &again).ok()) << name;
    EXPECT_EQ(again, spec) << name;
  }
}

TEST(MatcherSpecTest, ParsesToTheConfigurationItNames) {
  MatcherSpec s;
  ASSERT_TRUE(MatcherSpec::Parse("rete-dbms-scan", &s).ok());
  EXPECT_EQ(s.kind, MatcherKind::kReteDbms);
  EXPECT_FALSE(s.indexes);
  EXPECT_FALSE(s.discriminate);
  EXPECT_FALSE(s.planner.enable);
  EXPECT_FALSE(s.sharding.enabled());

  ASSERT_TRUE(MatcherSpec::Parse("pattern-nodisc", &s).ok());
  EXPECT_EQ(s.kind, MatcherKind::kPattern);
  EXPECT_TRUE(s.indexes);
  EXPECT_FALSE(s.discriminate);

  ASSERT_TRUE(MatcherSpec::Parse("query-plan-shard8", &s).ok());
  EXPECT_EQ(s.kind, MatcherKind::kQuery);
  EXPECT_TRUE(s.indexes && s.discriminate && s.planner.enable);
  EXPECT_EQ(s.sharding.num_shards, 8u);
  EXPECT_EQ(s.sharding.threads, 8u);

  // Mods parse in any order; Name() prints the canonical one.
  ASSERT_TRUE(MatcherSpec::Parse("rete-shard256-plan-nodisc", &s).ok());
  EXPECT_EQ(s.Name(), "rete-nodisc-plan-shard256");
}

TEST(MatcherSpecTest, RejectsMalformedNamesByToken) {
  for (const char* name :
       {"", "reet", "Rete", "dbms", "query-dbms", "rete-fast",
        "rete-plan-plan", "rete-shard2-shard4", "rete-scan-nodisc",
        "query-nodisc-scan", "rete-shard", "rete-shard0", "rete-shard1",
        "rete-shard257", "rete-shardx", "rete-shard+4", "rete-shard4x",
        "rete-", "rete--plan", "pattern-plan", "query-noshare",
        "pattern-noshare", "rete-noshare-noshare"}) {
    MatcherSpec s;
    EXPECT_TRUE(MatcherSpec::Parse(name, &s).IsInvalidArgument())
        << "\"" << name << "\"";
  }
  MatcherSpec s;
  Status st = MatcherSpec::Parse("rete-plan-shard257", &s);
  EXPECT_NE(st.ToString().find("\"shard257\""), std::string::npos)
      << st.ToString();
}

TEST(MatcherSpecTest, MakeMatcherShardsAsNamed) {
  for (const auto& [name, shards] :
       std::vector<std::pair<std::string, size_t>>{
           {"rete-shard8", 8}, {"query-shard4", 4}, {"rete", 0}}) {
    Catalog catalog;
    MatcherSpec spec;
    ASSERT_TRUE(MatcherSpec::Parse(name, &spec).ok()) << name;
    EXPECT_EQ(MakeMatcher(spec, &catalog)->ShardStatsSnapshot().size(),
              shards)
        << name;
  }
}

}  // namespace
}  // namespace prodb
