// ChangeSet semantics and the WorkingMemory batch pipeline: delta
// ordering, modify pairing, Inverse round-trips (the §5 deadlock
// compensation primitive), and deferred matcher notification.

#include "common/change_set.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "engine/working_memory.h"

namespace prodb {
namespace {

// Records every delta it is handed, in order, as "+rel:values" /
// "-rel:values" strings, and counts the batches they arrive in.
class RecordingMatcher : public Matcher {
 public:
  Status AddRule(const Rule& rule) override {
    rules_.push_back(rule);
    return Status::OK();
  }
  Status OnBatch(const ChangeSet& batch) override {
    ++stats_.batches;
    for (const Delta& d : batch) {
      events.push_back((d.is_insert() ? "+" : "-") + d.relation + ":" +
                       d.tuple.ToString());
    }
    return Status::OK();
  }
  ConflictSet& conflict_set() override { return conflict_set_; }
  size_t AuxiliaryFootprintBytes() const override { return 0; }
  const MatcherStats& stats() const override { return stats_; }
  const std::vector<Rule>& rules() const override { return rules_; }

  std::vector<std::string> events;

 private:
  ConflictSet conflict_set_;
  MatcherStats stats_;
  std::vector<Rule> rules_;
};

std::multiset<std::string> Fingerprint(Relation* rel) {
  std::multiset<std::string> out;
  EXPECT_TRUE(rel->Scan([&](TupleId, const Tuple& t) {
                   out.insert(t.ToString());
                   return Status::OK();
                 })
                  .ok());
  return out;
}

class ChangeSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateRelation(Schema("R", {{"a", ValueType::kInt},
                                                 {"b", ValueType::kInt}}),
                                    &rel_)
                    .ok());
    wm_ = std::make_unique<WorkingMemory>(&catalog_, &matcher_);
  }

  Catalog catalog_;
  Relation* rel_ = nullptr;
  RecordingMatcher matcher_;
  std::unique_ptr<WorkingMemory> wm_;
};

TEST_F(ChangeSetTest, RecordsDeltasInOrder) {
  ChangeSet cs;
  cs.AddInsert("R", Tuple{Value(1), Value(2)});
  cs.AddDelete("R", TupleId{0, 7}, Tuple{Value(3), Value(4)});
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_TRUE(cs[0].is_insert());
  EXPECT_TRUE(cs[1].is_delete());
  EXPECT_EQ(cs[0].id, Delta::kUnassigned);
  EXPECT_EQ(cs.InsertCount(), 1u);
  EXPECT_EQ(cs.DeleteCount(), 1u);
  EXPECT_FALSE(cs[0].is_modify_half());
}

TEST_F(ChangeSetTest, ModifyIsDeleteThenInsertPair) {
  ChangeSet cs;
  size_t ins = cs.AddModify("R", TupleId{0, 3}, Tuple{Value(1), Value(2)},
                            Tuple{Value(1), Value(9)});
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(ins, 1u);
  // Delete strictly precedes insert — OPS5 modify semantics (§3.1).
  EXPECT_TRUE(cs[0].is_delete());
  EXPECT_TRUE(cs[1].is_insert());
  // The halves are cross-linked as one logical event.
  EXPECT_EQ(cs[0].modify_partner, 1);
  EXPECT_EQ(cs[1].modify_partner, 0);
}

TEST_F(ChangeSetTest, InverseFlipsKindsAndReversesOrder) {
  ChangeSet cs;
  cs.AddInsert("R", Tuple{Value(1), Value(1)}, TupleId{0, 0});
  cs.AddModify("R", TupleId{0, 1}, Tuple{Value(2), Value(2)},
               Tuple{Value(2), Value(3)}, TupleId{0, 2});
  ChangeSet inv = cs.Inverse();
  ASSERT_EQ(inv.size(), 3u);
  // Reversed: [delete new, insert old, delete first-insert].
  EXPECT_TRUE(inv[0].is_delete());
  EXPECT_EQ(inv[0].id, (TupleId{0, 2}));
  EXPECT_TRUE(inv[1].is_insert());
  EXPECT_EQ(inv[1].id, (TupleId{0, 1}));  // re-insert restores the old id
  EXPECT_TRUE(inv[2].is_delete());
  EXPECT_EQ(inv[2].id, (TupleId{0, 0}));
  // Modify pairing survives mirrored.
  EXPECT_EQ(inv[0].modify_partner, 1);
  EXPECT_EQ(inv[1].modify_partner, 0);
  EXPECT_EQ(inv[2].modify_partner, Delta::kNoPartner);
}

TEST_F(ChangeSetTest, ApplyThenInverseRestoresRelations) {
  TupleId keep, doomed;
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(1), Value(1)}, &keep).ok());
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(2), Value(2)}, &doomed).ok());
  auto before = Fingerprint(rel_);

  ChangeSet cs;
  cs.AddInsert("R", Tuple{Value(3), Value(3)});
  cs.AddDelete("R", doomed);
  ASSERT_TRUE(wm_->Apply(&cs).ok());
  // Apply resolved ids and old-tuple values in place.
  EXPECT_NE(cs[0].id, Delta::kUnassigned);
  EXPECT_EQ(cs[1].tuple, (Tuple{Value(2), Value(2)}));
  EXPECT_NE(Fingerprint(rel_), before);

  ChangeSet inv = cs.Inverse();
  ASSERT_TRUE(wm_->Apply(&inv).ok());
  EXPECT_EQ(Fingerprint(rel_), before);
  // The undone delete restored the tuple under its original id, not a
  // fresh one — references recorded before the round-trip stay valid.
  Tuple back;
  ASSERT_TRUE(rel_->Get(doomed, &back).ok());
  EXPECT_EQ(back, (Tuple{Value(2), Value(2)}));
}

TEST_F(ChangeSetTest, RelationOnlyCompensationLeavesMatcherUntouched) {
  // The concurrent engine's deadlock path: the matcher never saw the
  // transaction's delta, so compensation applies the inverse straight to
  // the relations and the matcher's event log stays empty.
  ChangeSet delta;
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(5), Value(5)}, &id).ok());
  auto before = Fingerprint(rel_);
  size_t events_before = matcher_.events.size();

  // Forward: a make + a remove, relations only (as txn->Insert/Delete do).
  TupleId made;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(6), Value(6)}, &made).ok());
  delta.AddInsert("R", Tuple{Value(6), Value(6)}, made);
  Tuple old;
  ASSERT_TRUE(rel_->Get(id, &old).ok());
  ASSERT_TRUE(rel_->Delete(id).ok());
  delta.AddDelete("R", id, old);

  ChangeSet inv = delta.Inverse();
  for (size_t i = 0; i < inv.size(); ++i) {
    Delta& d = inv[i];
    if (d.is_insert()) {
      ASSERT_TRUE(rel_->Restore(d.id, d.tuple).ok());
    } else {
      ASSERT_TRUE(rel_->Delete(d.id).ok());
    }
  }
  EXPECT_EQ(Fingerprint(rel_), before);
  EXPECT_EQ(matcher_.events.size(), events_before);
  // Identity, not just value, is restored: the deleted tuple is live
  // again under the id the matcher knew it by before the transaction.
  Tuple back;
  EXPECT_TRUE(rel_->Get(id, &back).ok());
}

TEST_F(ChangeSetTest, ModifyWithEqualTupleStillPropagates) {
  // Regression: a modify that rewrites a tuple to its identical value is
  // still a WM event (refraction depends on it) and must reach the
  // matcher as delete-before-insert.
  TupleId id;
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(1), Value(2)}, &id).ok());
  matcher_.events.clear();
  TupleId nid;
  ASSERT_TRUE(wm_->Modify("R", id, Tuple{Value(1), Value(2)}, &nid).ok());
  ASSERT_EQ(matcher_.events.size(), 2u);
  EXPECT_EQ(matcher_.events[0][0], '-');
  EXPECT_EQ(matcher_.events[1][0], '+');
  EXPECT_EQ(matcher_.events[0].substr(1), matcher_.events[1].substr(1));
}

TEST_F(ChangeSetTest, BatchDefersNotificationUntilCommit) {
  uint64_t batches_before = matcher_.stats().batches.load();
  wm_->BeginBatch();
  EXPECT_TRUE(wm_->in_batch());
  TupleId a, b;
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(1), Value(1)}, &a).ok());
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(2), Value(2)}, &b).ok());
  ASSERT_TRUE(wm_->Delete("R", a).ok());
  // Relations are mutated eagerly; the matcher has heard nothing.
  EXPECT_EQ(rel_->Count(), 1u);
  EXPECT_TRUE(matcher_.events.empty());
  EXPECT_EQ(wm_->pending().size(), 3u);

  ASSERT_TRUE(wm_->CommitBatch().ok());
  EXPECT_FALSE(wm_->in_batch());
  // One batch, all three deltas, original order preserved.
  EXPECT_EQ(matcher_.stats().batches.load(), batches_before + 1);
  ASSERT_EQ(matcher_.events.size(), 3u);
  EXPECT_EQ(matcher_.events[0][0], '+');
  EXPECT_EQ(matcher_.events[1][0], '+');
  EXPECT_EQ(matcher_.events[2][0], '-');
}

TEST_F(ChangeSetTest, BatchedModifyKeepsDeleteBeforeInsert) {
  TupleId id;
  ASSERT_TRUE(wm_->Insert("R", Tuple{Value(1), Value(1)}, &id).ok());
  matcher_.events.clear();
  wm_->BeginBatch();
  TupleId nid;
  ASSERT_TRUE(wm_->Modify("R", id, Tuple{Value(1), Value(9)}, &nid).ok());
  const ChangeSet& pending = wm_->pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_TRUE(pending[0].is_delete());
  EXPECT_TRUE(pending[1].is_insert());
  EXPECT_TRUE(pending[0].is_modify_half());
  ASSERT_TRUE(wm_->CommitBatch().ok());
  ASSERT_EQ(matcher_.events.size(), 2u);
  EXPECT_EQ(matcher_.events[0], "-R:" + Tuple({Value(1), Value(1)}).ToString());
  EXPECT_EQ(matcher_.events[1], "+R:" + Tuple({Value(1), Value(9)}).ToString());
}

TEST_F(ChangeSetTest, ToStringShowsSignsAndModifyMarks) {
  ChangeSet cs;
  cs.AddInsert("R", Tuple{Value(1), Value(1)}, TupleId{0, 0});
  cs.AddModify("R", TupleId{0, 1}, Tuple{Value(2), Value(2)},
               Tuple{Value(2), Value(3)});
  std::string s = cs.ToString();
  EXPECT_NE(s.find("+R"), std::string::npos);
  EXPECT_NE(s.find("-R"), std::string::npos);
}

}  // namespace
}  // namespace prodb
