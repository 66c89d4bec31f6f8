#include "engine/actions.h"

#include "engine/working_memory.h"
#include "txn/transaction.h"

namespace prodb {

namespace {
// Where a writer's blocking waits are reported: a transaction's waiter,
// when it has one. Nothing runs beside the serial cycle's writer.
TxnWaiter* WaiterOf(Transaction* txn) { return txn->waiter(); }
TxnWaiter* WaiterOf(WorkingMemory*) { return nullptr; }
}  // namespace

Tuple BuildMakeTuple(const CompiledAction& action, const Binding& binding) {
  std::vector<Value> values;
  values.reserve(action.values.size());
  for (const CompiledValue& cv : action.values) {
    values.push_back(cv.Resolve(binding));
  }
  return Tuple(std::move(values));
}

Tuple BuildModifyTuple(const CompiledAction& action, const Tuple& old,
                       const Binding& binding) {
  std::vector<Value> values = old.values();
  for (size_t i = 0; i < action.set_mask.size() && i < values.size(); ++i) {
    if (action.set_mask[i]) {
      values[i] = action.values[i].Resolve(binding);
    }
  }
  return Tuple(std::move(values));
}

bool MatchedTuplesUnchanged(const Catalog& catalog, const Rule& rule,
                            const Instantiation& inst) {
  for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
    const ConditionSpec& cond = rule.lhs.conditions[ce];
    if (cond.negated) continue;
    Relation* rel = catalog.Get(cond.relation);
    if (rel == nullptr ||
        !rel->Contains(inst.tuple_ids[ce], inst.tuples[ce])) {
      return false;
    }
  }
  return true;
}

template <typename Writer>
Status ExecuteRhs(const Rule& rule, const Instantiation& inst,
                  const FunctionRegistry& functions, Writer* writer,
                  bool* halt) {
  std::vector<TupleId> current = inst.tuple_ids;
  std::vector<Tuple> current_tuples = inst.tuples;
  for (const CompiledAction& action : rule.actions) {
    const size_t ce = static_cast<size_t>(action.ce_index);
    switch (action.kind) {
      case ActionKind::kMake: {
        TupleId id;
        PRODB_RETURN_IF_ERROR(writer->Insert(
            action.target, BuildMakeTuple(action, inst.binding), &id));
        break;
      }
      case ActionKind::kRemove:
        PRODB_RETURN_IF_ERROR(
            writer->Delete(rule.lhs.conditions[ce].relation, current[ce]));
        break;
      case ActionKind::kModify: {
        Tuple next =
            BuildModifyTuple(action, current_tuples[ce], inst.binding);
        TupleId id;
        PRODB_RETURN_IF_ERROR(writer->Modify(
            rule.lhs.conditions[ce].relation, current[ce], next, &id));
        current[ce] = id;
        current_tuples[ce] = std::move(next);
        break;
      }
      case ActionKind::kHalt:
        *halt = true;
        break;
      case ActionKind::kCall: {
        std::vector<Value> args;
        args.reserve(action.args.size());
        for (const CompiledValue& cv : action.args) {
          args.push_back(cv.Resolve(inst.binding));
        }
        // An external procedure may block (I/O, a remote service), so it
        // runs as a wait: other firings run meanwhile.
        Status called;
        {
          WaitScope wait(WaiterOf(writer));
          called = functions.Invoke(action.target, args);
        }
        PRODB_RETURN_IF_ERROR(called);
        break;
      }
    }
  }
  return Status::OK();
}

template Status ExecuteRhs<WorkingMemory>(const Rule&, const Instantiation&,
                                          const FunctionRegistry&,
                                          WorkingMemory*, bool*);
template Status ExecuteRhs<Transaction>(const Rule&, const Instantiation&,
                                        const FunctionRegistry&,
                                        Transaction*, bool*);

}  // namespace prodb
