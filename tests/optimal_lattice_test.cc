// Tests for anonymize/optimal_lattice.h.

#include "anonymize/optimal_lattice.h"

#include <gtest/gtest.h>

#include "datagen/census_generator.h"
#include "oracle/evaluation.h"
#include "paper/paper_data.h"
#include "privacy/k_anonymity.h"
#include "privacy/l_diversity.h"
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

TEST(OptimalLatticeTest, FindsTrueOptimumOnPaperData) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  OptimalSearchConfig config;
  config.k = 3;
  auto result = OptimalLatticeSearch(*data, *hierarchies, config, LmLoss());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->best.feasible);
  EXPECT_TRUE(KAnonymity(3).Satisfies(result->best.anonymization,
                                      result->best.partition));

  // Brute force: no feasible node anywhere in the lattice has lower loss
  // than the minimum over minimal nodes... the optimum over minimal nodes
  // must at least beat every feasible node's loss or be a minimal
  // predecessor of it (monotone loss).
  auto lattice = Lattice::ForHierarchies(*hierarchies);
  ASSERT_TRUE(lattice.ok());
  double best_anywhere = 0.0;
  bool found = false;
  for (const LatticeNode& node : lattice->AllNodesByHeight()) {
    auto eval = oracle::EvaluateNode(*data, *hierarchies, node, config.k,
                             config.suppression, "test");
    ASSERT_TRUE(eval.ok());
    if (!eval->feasible) continue;
    double loss = LmLoss()(eval->anonymization, eval->partition);
    if (!found || loss < best_anywhere) {
      best_anywhere = loss;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_NEAR(result->best_loss, best_anywhere, 1e-9);
}

TEST(OptimalLatticeTest, MinimalNodesHaveNoSatisfyingPredecessor) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  OptimalSearchConfig config;
  config.k = 3;
  auto result = OptimalLatticeSearch(*data, *hierarchies, config);
  ASSERT_TRUE(result.ok());
  auto lattice = Lattice::ForHierarchies(*hierarchies);
  ASSERT_TRUE(lattice.ok());
  for (const LatticeNode& node : result->minimal_nodes) {
    for (const LatticeNode& pred : lattice->Predecessors(node)) {
      auto eval = oracle::EvaluateNode(*data, *hierarchies, pred, config.k,
                               config.suppression, "test");
      ASSERT_TRUE(eval.ok());
      EXPECT_FALSE(eval->feasible);
    }
  }
}

TEST(OptimalLatticeTest, PruningSavesEvaluations) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  OptimalSearchConfig config;
  config.k = 2;
  auto result = OptimalLatticeSearch(*data, *hierarchies, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->nodes_evaluated, result->lattice_size);
}

TEST(OptimalLatticeTest, ExtraPredicateLDiversity) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  OptimalSearchConfig config;
  config.k = 2;
  config.extra_predicate = [](const Anonymization& anon,
                              const EquivalencePartition& partition) {
    return DistinctLDiversity(2, paper::kMaritalColumn)
        .Satisfies(anon, partition);
  };
  config.verify_monotonicity = true;
  auto result = OptimalLatticeSearch(*data, *hierarchies, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(DistinctLDiversity(2, paper::kMaritalColumn)
                  .Satisfies(result->best.anonymization,
                             result->best.partition));
}

TEST(OptimalLatticeTest, NonMonotonePredicateDetected) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  OptimalSearchConfig config;
  config.k = 1;
  // Pathological predicate: satisfied only at exactly height 1 — not
  // monotone, must be flagged.
  config.extra_predicate = [](const Anonymization& anon,
                              const EquivalencePartition&) {
    return anon.scheme.has_value() && anon.scheme->TotalLevel() == 1;
  };
  config.verify_monotonicity = true;
  auto result = OptimalLatticeSearch(*data, *hierarchies, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OptimalLatticeTest, InfeasibleConstraintsReported) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  OptimalSearchConfig config;
  config.k = 2;
  config.extra_predicate = [](const Anonymization&,
                              const EquivalencePartition&) { return false; };
  auto result = OptimalLatticeSearch(*data, *hierarchies, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(OptimalLatticeTest, BeatsOrMatchesDataflyOnCensus) {
  CensusConfig census_config;
  census_config.rows = 150;
  census_config.seed = 5;
  census_config.with_occupation = false;
  auto census = GenerateCensus(census_config);
  ASSERT_TRUE(census.ok());
  OptimalSearchConfig config;
  config.k = 3;
  config.suppression.max_fraction = 0.05;
  auto result = OptimalLatticeSearch(census->data, census->hierarchies,
                                     config, LmLoss());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->best.feasible);
}

}  // namespace
}  // namespace mdc
