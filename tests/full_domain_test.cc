// Direct tests for anonymize/full_domain.h (SuppressionBudget, ProxyLoss)
// and for the string-path reference node evaluator the encoded one is
// checked against (oracle::EvaluateNode, tests/oracle/evaluation.h).

#include "anonymize/full_domain.h"

#include <gtest/gtest.h>

#include "oracle/evaluation.h"
#include "paper/paper_data.h"

namespace mdc {
namespace {

HierarchySet Hierarchies() {
  auto set = paper::HierarchySetA();
  MDC_CHECK(set.ok());
  return std::move(set).value();
}

TEST(SuppressionBudgetTest, MaxRowsRounding) {
  EXPECT_EQ(SuppressionBudget{0.0}.MaxRows(100), 0u);
  EXPECT_EQ(SuppressionBudget{0.05}.MaxRows(100), 5u);
  EXPECT_EQ(SuppressionBudget{0.05}.MaxRows(99), 4u);  // Floors.
  EXPECT_EQ(SuppressionBudget{1.0}.MaxRows(7), 7u);
}

TEST(EvaluateNodeTest, BottomNodeIsRawData) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto eval = oracle::EvaluateNode(*data, Hierarchies(), {0, 0, 0}, 1, {}, "test");
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval->feasible);  // k=1 always holds.
  EXPECT_EQ(eval->suppressed_count, 0u);
  // Zips 13053 x2 pattern: all rows distinct on full QI -> 10 classes.
  EXPECT_EQ(eval->partition.class_count(), 10u);
}

TEST(EvaluateNodeTest, InfeasibleWithoutBudgetLeavesRawPartition) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  // k=3 at the bottom: every class has size 1, all 10 rows undersized,
  // budget 0 -> infeasible, nothing suppressed.
  auto eval = oracle::EvaluateNode(*data, Hierarchies(), {0, 0, 0}, 3, {}, "test");
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval->feasible);
  EXPECT_EQ(eval->suppressed_count, 0u);
  EXPECT_EQ(eval->anonymization.SuppressedCount(), 0u);
}

TEST(EvaluateNodeTest, BudgetSuppressesUndersizedClasses) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  // T3a's node with k=4: classes sized 3,3,4 -> 6 rows undersized.
  SuppressionBudget budget{0.6};
  auto eval = oracle::EvaluateNode(*data, Hierarchies(), {1, 1, 1}, 4, budget,
                           "test");
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval->feasible);
  EXPECT_EQ(eval->suppressed_count, 6u);
  // Suppressed rows carry '*' in all QI cells.
  for (size_t r = 0; r < 10; ++r) {
    if (!eval->anonymization.suppressed[r]) continue;
    for (size_t column : eval->anonymization.qi_columns) {
      EXPECT_EQ(eval->anonymization.release.cell(r, column).AsString(), "*");
    }
  }
  // The partition was recomputed after suppression: the suppressed rows
  // now share one all-star class of size 6.
  size_t star_class =
      eval->partition.ClassOfRow(0);  // Row 1 was in a 3-class.
  EXPECT_EQ(eval->partition.ClassSize(star_class), 6u);
}

TEST(EvaluateNodeTest, BudgetTooSmallStaysInfeasible) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  SuppressionBudget budget{0.5};  // 5 rows; we would need 6.
  auto eval = oracle::EvaluateNode(*data, Hierarchies(), {1, 1, 1}, 4, budget,
                           "test");
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval->feasible);
  EXPECT_EQ(eval->suppressed_count, 0u);
}

TEST(EvaluateNodeTest, TopNodeOneClass) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto eval = oracle::EvaluateNode(*data, Hierarchies(), {5, 3, 2}, 10, {}, "test");
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(eval->feasible);
  EXPECT_EQ(eval->partition.class_count(), 1u);
}

TEST(EvaluateNodeTest, RejectsBadK) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(oracle::EvaluateNode(*data, Hierarchies(), {0, 0, 0}, 0, {}, "test")
                   .ok());
}

TEST(ProxyLossTest, TracksGeneralizationAndSuppression) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto low = oracle::EvaluateNode(*data, Hierarchies(), {1, 1, 1}, 3, {}, "test");
  auto high = oracle::EvaluateNode(*data, Hierarchies(), {2, 2, 1}, 3, {}, "test");
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  double low_loss = ProxyLoss(low->anonymization, low->partition);
  double high_loss = ProxyLoss(high->anonymization, high->partition);
  EXPECT_LT(low_loss, high_loss);  // Heights 3 vs 5.
  EXPECT_DOUBLE_EQ(low_loss, 3.0);

  SuppressionBudget budget{1.0};
  auto suppressed = oracle::EvaluateNode(*data, Hierarchies(), {1, 1, 1}, 4, budget,
                                 "test");
  ASSERT_TRUE(suppressed.ok());
  // Same height, 6/10 suppressed: loss = 3 + 0.6.
  EXPECT_DOUBLE_EQ(
      ProxyLoss(suppressed->anonymization, suppressed->partition), 3.6);
}

}  // namespace
}  // namespace mdc
