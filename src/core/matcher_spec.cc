#include "core/matcher_spec.h"

#include <charconv>
#include <set>
#include <vector>

#include "match/pattern_matcher.h"
#include "match/query_matcher.h"
#include "rete/network.h"

namespace prodb {

namespace {

Status BadToken(const std::string& name, const std::string& token,
                const std::string& why) {
  return Status::InvalidArgument("matcher spec \"" + name +
                                 "\": bad token \"" + token + "\" (" +
                                 why + ")");
}

}  // namespace

Status MatcherSpec::Parse(const std::string& name, MatcherSpec* out) {
  std::vector<std::string> tokens;
  size_t start = 0;
  for (size_t dash; (dash = name.find('-', start)) != std::string::npos;
       start = dash + 1) {
    tokens.push_back(name.substr(start, dash - start));
  }
  tokens.push_back(name.substr(start));

  MatcherSpec spec;
  size_t next = 1;
  if (tokens[0] == "rete") {
    if (tokens.size() > 1 && tokens[1] == "dbms") {
      spec.kind = MatcherKind::kReteDbms;
      next = 2;
    }
  } else if (tokens[0] == "query") {
    spec.kind = MatcherKind::kQuery;
  } else if (tokens[0] == "pattern") {
    spec.kind = MatcherKind::kPattern;
  } else {
    return BadToken(name, tokens[0], "unknown architecture");
  }

  std::set<std::string> seen;
  for (; next < tokens.size(); ++next) {
    const std::string& tok = tokens[next];
    const bool is_shard = tok.rfind("shard", 0) == 0;
    if (!seen.insert(is_shard ? "shard" : tok).second) {
      return BadToken(name, tok, "repeated modifier");
    }
    if (tok == "scan" || tok == "nodisc") {
      if (seen.count("scan") + seen.count("nodisc") > 1) {
        return BadToken(name, tok, "scan and nodisc exclude each other");
      }
      spec.indexes = tok != "scan";
      spec.discriminate = false;
    } else if (tok == "noshare") {
      if (spec.kind == MatcherKind::kQuery ||
          spec.kind == MatcherKind::kPattern) {
        return BadToken(name, tok, "only a Rete network shares nodes");
      }
      spec.share = false;
    } else if (tok == "plan") {
      if (spec.kind == MatcherKind::kPattern) {
        return BadToken(name, tok, "the pattern matcher has no join planner");
      }
      spec.planner.enable = true;
    } else if (is_shard) {
      const char* last = tok.data() + tok.size();
      size_t shards = 0;
      auto [end, ec] = std::from_chars(tok.data() + 5, last, shards);
      if (ec != std::errc() || end != last || shards < 2 ||
          shards > kMaxThreads) {
        return BadToken(name, tok,
                        "shard count must be 2.." +
                            std::to_string(kMaxThreads));
      }
      spec.sharding.num_shards = shards;
      spec.sharding.threads = shards;
    } else {
      return BadToken(name, tok, "unknown modifier");
    }
  }
  *out = std::move(spec);
  return Status::OK();
}

std::string MatcherSpec::Name() const {
  static const char* const kArch[] = {"rete", "rete-dbms", "query",
                                      "pattern"};
  std::string name = kArch[static_cast<int>(kind)];
  if (!indexes) {
    name += "-scan";
  } else if (!discriminate) {
    name += "-nodisc";
  }
  if (!share) name += "-noshare";
  if (planner.enable) name += "-plan";
  if (sharding.enabled()) {
    name += "-shard" + std::to_string(sharding.num_shards);
  }
  return name;
}

std::unique_ptr<Matcher> MakeMatcher(const MatcherSpec& spec,
                                     Catalog* catalog,
                                     StorageKind aux_storage) {
  switch (spec.kind) {
    case MatcherKind::kRete:
    case MatcherKind::kReteDbms:
      return std::make_unique<ReteNetwork>(catalog, spec, aux_storage);
    case MatcherKind::kQuery:
      return std::make_unique<QueryMatcher>(catalog, spec);
    case MatcherKind::kPattern:
      return std::make_unique<PatternMatcher>(catalog, spec, aux_storage);
  }
  return nullptr;
}

}  // namespace prodb
