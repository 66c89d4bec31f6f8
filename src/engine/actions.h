#ifndef PRODB_ENGINE_ACTIONS_H_
#define PRODB_ENGINE_ACTIONS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "lang/rule.h"
#include "match/conflict_set.h"

namespace prodb {

/// Builds the tuple a `make` action produces under a binding.
Tuple BuildMakeTuple(const CompiledAction& action, const Binding& binding);

/// Builds the post-image of a `modify` action: `old` with masked
/// attributes replaced by the action's values resolved under `binding`.
Tuple BuildModifyTuple(const CompiledAction& action, const Tuple& old,
                       const Binding& binding);

/// Host function invoked by `call` actions (§3.1 lists call among the
/// possible statements; OPS5 uses it for I/O and external procedures).
using ExternalFn = std::function<Status(const std::vector<Value>& args)>;

/// Name -> ExternalFn registry shared by the engines.
class FunctionRegistry {
 public:
  void Register(const std::string& name, ExternalFn fn) {
    fns_[name] = std::move(fn);
  }
  Status Invoke(const std::string& name,
                const std::vector<Value>& args) const {
    auto it = fns_.find(name);
    if (it == fns_.end()) {
      return Status::NotFound("no function '" + name + "' registered");
    }
    return it->second(args);
  }
  bool Has(const std::string& name) const { return fns_.count(name) > 0; }

 private:
  std::map<std::string, ExternalFn> fns_;
};

/// True when every positive CE's tuple of `inst` is still in working
/// memory, unchanged: the check both engines make before firing, since a
/// concurrent commit (or a caller writing relations directly) may have
/// deleted or replaced a matched tuple since the match. Each tuple is
/// compared where it is stored (Relation::Contains). Ids are never
/// reused and a modify is a delete then an insert, so a live id's tuple
/// never changes; the comparison stays as the defensive check.
bool MatchedTuplesUnchanged(const Catalog& catalog, const Rule& rule,
                            const Instantiation& inst);

/// The one RHS interpreter (§2.1's Act step, and the body of §5's
/// transaction): runs every action of `rule` under `inst` through
/// `writer`, the WorkingMemory of the serial cycle or the Transaction of
/// a concurrent firing — both offer Insert/Delete/Modify. A firing is
/// its whole RHS: a `(halt)` sets *halt and the actions after it still
/// run. A `modify` moves its CE's tuple to a new id, which later actions
/// on that CE use. A `call` is a wait of the transaction's TxnWaiter, when
/// it has one. Stops at the first failing action.
template <typename Writer>
Status ExecuteRhs(const Rule& rule, const Instantiation& inst,
                  const FunctionRegistry& functions, Writer* writer,
                  bool* halt);

}  // namespace prodb

#endif  // PRODB_ENGINE_ACTIONS_H_
