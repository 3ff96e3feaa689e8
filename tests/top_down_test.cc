// Tests for anonymize/top_down.h (TDS [3] and BUG [20] baselines).

#include "anonymize/top_down.h"

#include <gtest/gtest.h>

#include "anonymize/optimal_lattice.h"
#include "datagen/census_generator.h"
#include "oracle/evaluation.h"
#include "paper/paper_data.h"
#include "privacy/k_anonymity.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace {

LossFn LmLoss() {
  return [](const Anonymization& anon, const EquivalencePartition&) {
    auto loss = LossMetric::TotalLoss(anon);
    MDC_CHECK(loss.ok());
    return *loss;
  };
}

TEST(TopDownSpecializeTest, AchievesKAndIsMinimal) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  GreedyWalkConfig config;
  config.k = 3;
  auto result = TopDownSpecialize(*data, *hierarchies, config, LmLoss());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->evaluation.feasible);
  EXPECT_TRUE(KAnonymity(3).Satisfies(result->evaluation.anonymization,
                                      result->evaluation.partition));
  EXPECT_GT(result->steps, 0);
  // Greedy TDS ends at a node none of whose specializations is feasible.
  auto lattice = Lattice::ForHierarchies(*hierarchies);
  ASSERT_TRUE(lattice.ok());
  for (const LatticeNode& pred : lattice->Predecessors(result->node)) {
    auto eval = oracle::EvaluateNode(*data, *hierarchies, pred, config.k,
                             config.suppression, "test");
    ASSERT_TRUE(eval.ok());
    double walk_loss = LmLoss()(result->evaluation.anonymization,
                                result->evaluation.partition);
    if (eval->feasible) {
      // Any feasible specialization must not have strictly lower loss
      // (else the walk would have taken it).
      double pred_loss = LmLoss()(eval->anonymization, eval->partition);
      EXPECT_GE(pred_loss + 1e-9, walk_loss);
    }
  }
}

TEST(TopDownSpecializeTest, NoWorseThanTopAndNoBetterThanOptimal) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  GreedyWalkConfig config;
  config.k = 3;
  auto tds = TopDownSpecialize(*data, *hierarchies, config, LmLoss());
  ASSERT_TRUE(tds.ok());
  OptimalSearchConfig optimal_config;
  optimal_config.k = 3;
  auto optimal =
      OptimalLatticeSearch(*data, *hierarchies, optimal_config, LmLoss());
  ASSERT_TRUE(optimal.ok());
  double tds_loss =
      LmLoss()(tds->evaluation.anonymization, tds->evaluation.partition);
  EXPECT_GE(tds_loss + 1e-9, optimal->best_loss);  // Greedy can't beat
                                                   // the exact optimum.
}

TEST(BottomUpGeneralizeTest, AchievesK) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  GreedyWalkConfig config;
  config.k = 3;
  auto result = BottomUpGeneralize(*data, *hierarchies, config, LmLoss());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->evaluation.feasible);
  EXPECT_TRUE(KAnonymity(3).Satisfies(result->evaluation.anonymization,
                                      result->evaluation.partition));
  EXPECT_GT(result->steps, 0);
}

TEST(BottomUpGeneralizeTest, K1NeedsNoSteps) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  GreedyWalkConfig config;
  config.k = 1;
  auto result = BottomUpGeneralize(*data, *hierarchies, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->steps, 0);
  EXPECT_EQ(result->node, (LatticeNode{0, 0, 0}));
}

TEST(GreedyWalksTest, InfeasibleDetected) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  GreedyWalkConfig config;
  config.k = 11;
  EXPECT_EQ(TopDownSpecialize(*data, *hierarchies, config).status().code(),
            StatusCode::kInfeasible);
  EXPECT_EQ(BottomUpGeneralize(*data, *hierarchies, config).status().code(),
            StatusCode::kInfeasible);
}

TEST(GreedyWalksTest, InvalidArguments) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  GreedyWalkConfig config;
  config.k = 0;
  EXPECT_FALSE(TopDownSpecialize(*data, *hierarchies, config).ok());
  EXPECT_FALSE(BottomUpGeneralize(nullptr, *hierarchies, config).ok());
}

TEST(GreedyWalksTest, BothWorkOnCensus) {
  CensusConfig census_config;
  census_config.rows = 250;
  census_config.seed = 9;
  census_config.with_occupation = false;
  auto census = GenerateCensus(census_config);
  ASSERT_TRUE(census.ok());
  GreedyWalkConfig config;
  config.k = 5;
  config.suppression.max_fraction = 0.02;
  auto tds =
      TopDownSpecialize(census->data, census->hierarchies, config, LmLoss());
  auto bug =
      BottomUpGeneralize(census->data, census->hierarchies, config, LmLoss());
  ASSERT_TRUE(tds.ok()) << tds.status().ToString();
  ASSERT_TRUE(bug.ok()) << bug.status().ToString();
  EXPECT_TRUE(KAnonymity(5).Satisfies(tds->evaluation.anonymization,
                                      tds->evaluation.partition));
  EXPECT_TRUE(KAnonymity(5).Satisfies(bug->evaluation.anonymization,
                                      bug->evaluation.partition));
  // The two greedy directions generally land on different nodes; the
  // framework is what compares them (no assertion on which is better).
}

}  // namespace
}  // namespace mdc
