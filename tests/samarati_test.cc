// Tests for anonymize/samarati.h.

#include "anonymize/samarati.h"

#include <gtest/gtest.h>

#include "datagen/census_generator.h"
#include "oracle/evaluation.h"
#include "paper/paper_data.h"
#include "privacy/k_anonymity.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace {

TEST(SamaratiTest, FindsMinimalHeightOnPaperData) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  SamaratiConfig config;
  config.k = 3;
  auto result = SamaratiAnonymize(*data, *hierarchies, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->best.feasible);
  EXPECT_FALSE(result->minimal_nodes.empty());
  EXPECT_TRUE(KAnonymity(3).Satisfies(result->best.anonymization,
                                      result->best.partition));
  // T3a = <1,1,1> (height 3) is 3-anonymous, so minimal height <= 3.
  EXPECT_LE(result->minimal_height, 3);
  // Every reported minimal node must actually sit at the minimal height.
  auto lattice = Lattice::ForHierarchies(*hierarchies);
  ASSERT_TRUE(lattice.ok());
  for (const LatticeNode& node : result->minimal_nodes) {
    EXPECT_EQ(lattice->Height(node), result->minimal_height);
  }
}

TEST(SamaratiTest, NoShorterHeightIsFeasible) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  SamaratiConfig config;
  config.k = 3;
  auto result = SamaratiAnonymize(*data, *hierarchies, config);
  ASSERT_TRUE(result.ok());
  // Exhaustively verify minimality against brute force.
  auto lattice = Lattice::ForHierarchies(*hierarchies);
  ASSERT_TRUE(lattice.ok());
  for (int h = 0; h < result->minimal_height; ++h) {
    for (const LatticeNode& node : lattice->NodesAtHeight(h)) {
      auto eval = oracle::EvaluateNode(*data, *hierarchies, node, config.k,
                               config.suppression, "test");
      ASSERT_TRUE(eval.ok());
      EXPECT_FALSE(eval->feasible)
          << "node " << Lattice::ToString(node) << " at height " << h
          << " is feasible below the reported minimal height";
    }
  }
}

TEST(SamaratiTest, LossFunctionSelectsBest) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  SamaratiConfig config;
  config.k = 2;
  LossFn lm_loss = [](const Anonymization& anon,
                      const EquivalencePartition&) {
    auto loss = LossMetric::TotalLoss(anon);
    MDC_CHECK(loss.ok());
    return *loss;
  };
  auto result = SamaratiAnonymize(*data, *hierarchies, config, lm_loss);
  ASSERT_TRUE(result.ok());
  // The chosen node's LM loss is minimal among the k-minimal nodes.
  auto best_loss = LossMetric::TotalLoss(result->best.anonymization);
  ASSERT_TRUE(best_loss.ok());
  for (const LatticeNode& node : result->minimal_nodes) {
    auto eval = oracle::EvaluateNode(*data, *hierarchies, node, config.k,
                             config.suppression, "test");
    ASSERT_TRUE(eval.ok());
    auto loss = LossMetric::TotalLoss(eval->anonymization);
    ASSERT_TRUE(loss.ok());
    EXPECT_LE(*best_loss, *loss + 1e-9);
  }
}

TEST(SamaratiTest, InfeasibleDetected) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  SamaratiConfig config;
  config.k = 11;
  auto result = SamaratiAnonymize(*data, *hierarchies, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(SamaratiTest, MatchesDataflyFeasibilityOnCensus) {
  CensusConfig census_config;
  census_config.rows = 200;
  census_config.seed = 21;
  census_config.with_occupation = false;  // Keep the lattice small.
  auto census = GenerateCensus(census_config);
  ASSERT_TRUE(census.ok());
  SamaratiConfig config;
  config.k = 4;
  config.suppression.max_fraction = 0.05;
  auto result = SamaratiAnonymize(census->data, census->hierarchies, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(KAnonymity(4).Satisfies(result->best.anonymization,
                                      result->best.partition));
}

}  // namespace
}  // namespace mdc
