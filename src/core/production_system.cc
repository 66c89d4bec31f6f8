#include "core/production_system.h"

namespace prodb {

ProductionSystem::ProductionSystem(ProductionSystemOptions options)
    : options_(options) {
  CatalogOptions copts;
  copts.default_storage = options_.wm_storage;
  copts.buffer_pool_frames = options_.buffer_pool_frames;
  copts.db_path = options_.db_path;
  copts.open_existing = options_.open_existing;
  copts.enable_wal = options_.enable_wal;
  copts.durable_directory = options_.durable_directory;
  catalog_ = std::make_unique<Catalog>(copts);

  MatcherSpec spec;
  spec.kind = options_.matcher;
  spec.sharding = options_.sharding;
  spec.planner = options_.planner;
  matcher_ = MakeMatcher(spec, catalog_.get(), options_.wm_storage);

  SequentialEngineOptions sopts;
  sopts.strategy = options_.strategy;
  sopts.seed = options_.seed;
  sopts.max_firings = options_.max_firings;
  engine_ = std::make_unique<SequentialEngine>(catalog_.get(), matcher_.get(),
                                               sopts);

  locks_ = std::make_unique<LockManager>();
  ConcurrentEngineOptions ccopts;
  ccopts.workers = options_.workers;
  ccopts.strategy = options_.strategy;
  ccopts.seed = options_.seed;
  ccopts.max_firings = options_.max_firings;
  concurrent_engine_ = std::make_unique<ConcurrentEngine>(
      catalog_.get(), matcher_.get(), locks_.get(), ccopts);

  rulebase_index_ = std::make_unique<RuleBaseQueryIndex>(catalog_.get());
}

ProductionSystem::~ProductionSystem() = default;

Status ProductionSystem::LoadString(const std::string& source) {
  std::vector<Rule> rules;
  PRODB_RETURN_IF_ERROR(LoadProgram(source, catalog_.get(), &rules));
  for (Rule& rule : rules) {
    PRODB_RETURN_IF_ERROR(AddRule(rule));
  }
  return Status::OK();
}

Status ProductionSystem::DeclareClass(const Schema& schema) {
  Relation* rel;
  return catalog_->CreateDurableRelation(schema, &rel);
}

Status ProductionSystem::ReseedMatcher() {
  // One batch over every durable class, classes in name order, tuples in
  // scan (= id) order — deterministic, so two processes recovering the
  // same image reseed to identical matcher state.
  ChangeSet batch;
  for (const std::string& cls : catalog_->DurableClasses()) {
    Relation* rel = catalog_->Get(cls);
    if (rel == nullptr) continue;  // declared by a rules file not yet loaded
    PRODB_RETURN_IF_ERROR(rel->Scan([&](TupleId id, const Tuple& t) {
      batch.AddInsert(cls, t, id);
      return Status::OK();
    }));
  }
  if (batch.empty()) return Status::OK();
  return matcher_->OnBatch(batch);
}

Status ProductionSystem::AddRule(const Rule& rule) {
  int rule_id = static_cast<int>(matcher_->rules().size());
  PRODB_RETURN_IF_ERROR(matcher_->AddRule(rule));
  return rulebase_index_->AddRule(rule_id, rule);
}

Status ProductionSystem::Insert(const std::string& cls, const Tuple& t,
                                TupleId* id) {
  return engine_->working_memory().Insert(cls, t, id);
}

Status ProductionSystem::Delete(const std::string& cls, TupleId id) {
  return engine_->working_memory().Delete(cls, id);
}

Status ProductionSystem::Modify(const std::string& cls, TupleId id,
                                const Tuple& t, TupleId* new_id) {
  return engine_->working_memory().Modify(cls, id, t, new_id);
}

Status ProductionSystem::Run(EngineRunResult* result) {
  EngineRunResult local;
  return engine_->Run(result == nullptr ? &local : result);
}

Status ProductionSystem::Step(bool* fired) {
  EngineRunResult result;
  return engine_->Step(fired, &result);
}

Status ProductionSystem::RunConcurrent(ConcurrentRunResult* result) {
  ConcurrentRunResult local;
  return concurrent_engine_->Run(result == nullptr ? &local : result);
}

void ProductionSystem::RegisterFunction(const std::string& name,
                                        ExternalFn fn) {
  engine_->functions().Register(name, fn);
  concurrent_engine_->functions().Register(name, std::move(fn));
}

Status ProductionSystem::RulesForTuple(const std::string& cls, const Tuple& t,
                                       std::vector<std::string>* names) const {
  names->clear();
  std::vector<int> ids;
  PRODB_RETURN_IF_ERROR(rulebase_index_->RulesMatchingTuple(cls, t, &ids));
  for (int id : ids) {
    names->push_back(matcher_->rules()[static_cast<size_t>(id)].name);
  }
  return Status::OK();
}

Status ProductionSystem::RulesFor(const std::string& cls,
                                  const std::string& attr, CompareOp op,
                                  double value,
                                  std::vector<std::string>* names) const {
  names->clear();
  Relation* rel = catalog_->Get(cls);
  if (rel == nullptr) return Status::NotFound("relation " + cls);
  int attr_idx = rel->schema().IndexOf(attr);
  if (attr_idx < 0) {
    return Status::InvalidArgument(cls + " has no attribute " + attr);
  }
  std::vector<int> ids;
  PRODB_RETURN_IF_ERROR(
      rulebase_index_->RulesMatchingConstraint(cls, attr_idx, op, value, &ids));
  for (int id : ids) {
    names->push_back(matcher_->rules()[static_cast<size_t>(id)].name);
  }
  return Status::OK();
}

}  // namespace prodb
