#ifndef PRODB_BENCH_BENCH_UTIL_H_
#define PRODB_BENCH_BENCH_UTIL_H_

#include <memory>

#include "common/rng.h"
#include "core/matcher_spec.h"
#include "engine/working_memory.h"
#include "match/pattern_matcher.h"
#include "match/query_matcher.h"
#include "rete/network.h"
#include "workload/generator.h"

namespace prodb {
namespace bench {

/// A catalog + matcher + WM facade assembled from a WorkloadSpec.
/// Aborts on error (benchmarks have no error channel worth wiring).
struct Setup {
  std::unique_ptr<Catalog> catalog;
  std::vector<Rule> rules;
  std::unique_ptr<Matcher> matcher;
  std::unique_ptr<WorkingMemory> wm;
  WorkloadGenerator gen;

  explicit Setup(WorkloadSpec spec) : gen(spec) {}
};

inline void Abort(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "bench setup failed (%s): %s\n", what,
                 st.ToString().c_str());
    std::abort();
  }
}

template <typename MatcherFactory>
std::unique_ptr<Setup> MakeSetup(WorkloadSpec spec,
                                 MatcherFactory&& factory) {
  auto setup = std::make_unique<Setup>(spec);
  setup->catalog = std::make_unique<Catalog>();
  Abort(setup->gen.CreateClasses(setup->catalog.get()), "classes");
  setup->rules = setup->gen.GenerateRules();
  setup->matcher = factory(setup->catalog.get());
  for (const Rule& r : setup->rules) {
    Abort(setup->matcher->AddRule(r), "rule");
  }
  setup->wm = std::make_unique<WorkingMemory>(setup->catalog.get(),
                                              setup->matcher.get());
  return setup;
}

/// Parses a matcher spec name (src/core/matcher_spec.h: the four
/// architectures, "-scan" / "-nodisc" / "-noshare" ablations, "-plan",
/// "-shard<N>");
/// aborts on a name the parser rejects.
inline MatcherSpec ParseSpec(const std::string& name) {
  MatcherSpec spec;
  Abort(MatcherSpec::Parse(name, &spec), "matcher spec");
  return spec;
}

inline std::unique_ptr<Matcher> MakeMatcherByName(const std::string& name,
                                                  Catalog* catalog) {
  return MakeMatcher(ParseSpec(name), catalog);
}

/// Preloads `n` random tuples per class.
inline void Preload(Setup& setup, size_t n, uint64_t seed = 99) {
  Rng rng(seed);
  for (size_t c = 0; c < setup.gen.spec().num_classes; ++c) {
    for (size_t i = 0; i < n; ++i) {
      Abort(setup.wm->Insert(setup.gen.ClassName(c),
                             setup.gen.RandomTuple(&rng)),
            "preload");
    }
  }
}

}  // namespace bench
}  // namespace prodb

#endif  // PRODB_BENCH_BENCH_UTIL_H_
