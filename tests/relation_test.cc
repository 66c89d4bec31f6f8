#include "db/relation.h"

#include <gtest/gtest.h>

#include "db/catalog.h"

namespace prodb {
namespace {

Schema EmpSchema() {
  return Schema("Emp", {{"name", ValueType::kSymbol},
                        {"age", ValueType::kInt},
                        {"salary", ValueType::kInt},
                        {"dno", ValueType::kInt}});
}

class RelationTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  void SetUp() override {
    catalog_ = std::make_unique<Catalog>();
    ASSERT_TRUE(catalog_->CreateRelation(EmpSchema(), GetParam(), &rel_).ok());
  }
  Tuple Emp(const std::string& name, int age, int salary, int dno) {
    return Tuple{Value(name), Value(age), Value(salary), Value(dno)};
  }
  std::unique_ptr<Catalog> catalog_;
  Relation* rel_ = nullptr;
};

TEST_P(RelationTest, InsertGetDelete) {
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Emp("Mike", 32, 50000, 1), &id).ok());
  Tuple out;
  ASSERT_TRUE(rel_->Get(id, &out).ok());
  EXPECT_EQ(out[0], Value("Mike"));
  EXPECT_EQ(rel_->Count(), 1u);
  ASSERT_TRUE(rel_->Delete(id).ok());
  EXPECT_TRUE(rel_->Get(id, &out).IsNotFound());
  EXPECT_EQ(rel_->Count(), 0u);
}

TEST_P(RelationTest, ArityMismatchRejected) {
  TupleId id;
  EXPECT_TRUE(rel_->Insert(Tuple{Value(1)}, &id).IsInvalidArgument());
}

TEST_P(RelationTest, SelectWithConstantTests) {
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Emp("Mike", 32, 50000, 1), &id).ok());
  ASSERT_TRUE(rel_->Insert(Emp("Sam", 45, 60000, 1), &id).ok());
  ASSERT_TRUE(rel_->Insert(Emp("Ann", 29, 55000, 2), &id).ok());
  Selection sel;
  sel.tests.push_back(ConstantTest{3, CompareOp::kEq, Value(1)});
  sel.tests.push_back(ConstantTest{2, CompareOp::kGt, Value(52000)});
  std::vector<std::pair<TupleId, Tuple>> out;
  ASSERT_TRUE(rel_->Select(sel, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].second[0], Value("Sam"));
}

TEST_P(RelationTest, HashIndexMaintainedOnMutations) {
  ASSERT_TRUE(rel_->CreateHashIndex(3).ok());
  TupleId a, b;
  ASSERT_TRUE(rel_->Insert(Emp("Mike", 32, 50000, 7), &a).ok());
  ASSERT_TRUE(rel_->Insert(Emp("Sam", 45, 60000, 7), &b).ok());
  std::vector<TupleId> ids;
  ASSERT_TRUE(rel_->LookupEq(3, Value(7), &ids).ok());
  EXPECT_EQ(ids.size(), 2u);
  ASSERT_TRUE(rel_->Delete(a).ok());
  ASSERT_TRUE(rel_->LookupEq(3, Value(7), &ids).ok());
  EXPECT_EQ(ids.size(), 1u);
  // A modify (delete, then insert) moves the key.
  TupleId b2;
  ASSERT_TRUE(rel_->Delete(b).ok());
  ASSERT_TRUE(rel_->Insert(Emp("Sam", 45, 60000, 9), &b2).ok());
  ASSERT_TRUE(rel_->LookupEq(3, Value(7), &ids).ok());
  EXPECT_TRUE(ids.empty());
  ASSERT_TRUE(rel_->LookupEq(3, Value(9), &ids).ok());
  EXPECT_EQ(ids.size(), 1u);
}

TEST_P(RelationTest, IndexBuiltOverExistingData) {
  TupleId id;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(rel_->Insert(Emp("E" + std::to_string(i), i, 0, i % 3), &id).ok());
  }
  ASSERT_TRUE(rel_->CreateBTreeIndex(3).ok());
  std::vector<TupleId> ids;
  ASSERT_TRUE(rel_->LookupEq(3, Value(1), &ids).ok());
  EXPECT_EQ(ids.size(), 7u);  // i % 3 == 1 for 7 of 20
  EXPECT_TRUE(rel_->CreateBTreeIndex(3).IsAlreadyExists());
  EXPECT_TRUE(rel_->CreateBTreeIndex(99).IsInvalidArgument());
}

TEST_P(RelationTest, SelectUsesIndexProbe) {
  ASSERT_TRUE(rel_->CreateHashIndex(0).ok());
  TupleId id;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        rel_->Insert(Emp("E" + std::to_string(i), i, i * 100, 0), &id).ok());
  }
  Selection sel;
  sel.tests.push_back(ConstantTest{0, CompareOp::kEq, Value("E7")});
  std::vector<std::pair<TupleId, Tuple>> out;
  ASSERT_TRUE(rel_->Select(sel, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].second[1], Value(7));
}

TEST_P(RelationTest, RestoreRevivesOriginalId) {
  ASSERT_TRUE(rel_->CreateHashIndex(3).ok());
  TupleId doomed, other;
  ASSERT_TRUE(rel_->Insert(Emp("Mike", 32, 50000, 1), &doomed).ok());
  ASSERT_TRUE(rel_->Insert(Emp("Sam", 45, 60000, 2), &other).ok());
  ASSERT_TRUE(rel_->Delete(doomed).ok());
  // Churn after the delete so the restore is not just an append-undo.
  TupleId tmp;
  ASSERT_TRUE(rel_->Insert(Emp("Ann", 29, 55000, 3), &tmp).ok());

  ASSERT_TRUE(rel_->Restore(doomed, Emp("Mike", 32, 50000, 1)).ok());
  Tuple out;
  ASSERT_TRUE(rel_->Get(doomed, &out).ok());
  EXPECT_EQ(out[0], Value("Mike"));
  EXPECT_EQ(rel_->Count(), 3u);
  // Secondary indexes were maintained through the delete/restore cycle.
  std::vector<TupleId> ids;
  ASSERT_TRUE(rel_->LookupEq(3, Value(1), &ids).ok());
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], doomed);
  // A live id cannot be restored over.
  EXPECT_TRUE(
      rel_->Restore(doomed, Emp("Mike", 32, 50000, 1)).IsAlreadyExists());
}

INSTANTIATE_TEST_SUITE_P(Backends, RelationTest,
                         ::testing::Values(StorageKind::kMemory,
                                           StorageKind::kPaged),
                         [](const auto& info) {
                           return info.param == StorageKind::kMemory
                                      ? "Memory"
                                      : "Paged";
                         });

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  Relation* rel;
  ASSERT_TRUE(catalog.CreateRelation(EmpSchema(), &rel).ok());
  EXPECT_TRUE(catalog.CreateRelation(EmpSchema(), &rel).IsAlreadyExists());
  EXPECT_NE(catalog.Get("Emp"), nullptr);
  EXPECT_EQ(catalog.Get("Nope"), nullptr);
  EXPECT_EQ(catalog.RelationCount(), 1u);
  ASSERT_TRUE(catalog.Drop("Emp").ok());
  EXPECT_TRUE(catalog.Drop("Emp").IsNotFound());
}

TEST(CatalogTest, PagedDefaultStorage) {
  CatalogOptions opts;
  opts.default_storage = StorageKind::kPaged;
  opts.buffer_pool_frames = 8;
  Catalog catalog(opts);
  Relation* rel;
  ASSERT_TRUE(catalog.CreateRelation(EmpSchema(), &rel).ok());
  EXPECT_EQ(rel->storage_kind(), StorageKind::kPaged);
  TupleId id;
  ASSERT_TRUE(rel->Insert(Tuple{Value("A"), Value(1), Value(2), Value(3)}, &id).ok());
  EXPECT_EQ(rel->Count(), 1u);
  EXPECT_GT(catalog.FootprintBytes(), 0u);
}

}  // namespace
}  // namespace prodb
