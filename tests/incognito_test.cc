// Tests for anonymize/incognito.h: agreement with brute force and with the
// optimal lattice search, and pruning effectiveness.

#include "anonymize/incognito.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "anonymize/optimal_lattice.h"
#include "datagen/census_generator.h"
#include "oracle/evaluation.h"
#include "paper/paper_data.h"
#include "privacy/k_anonymity.h"

namespace mdc {
namespace {

std::set<LatticeNode> BruteForceAnonymousNodes(
    const std::shared_ptr<const Dataset>& data,
    const HierarchySet& hierarchies, int k, const SuppressionBudget& budget) {
  auto lattice = Lattice::ForHierarchies(hierarchies);
  MDC_CHECK(lattice.ok());
  std::set<LatticeNode> nodes;
  for (const LatticeNode& node : lattice->AllNodesByHeight()) {
    auto eval = oracle::EvaluateNode(data, hierarchies, node, k, budget, "brute");
    MDC_CHECK(eval.ok());
    if (eval->feasible) nodes.insert(node);
  }
  return nodes;
}

TEST(IncognitoTest, MatchesBruteForceOnPaperData) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  for (int k : {2, 3, 4}) {
    IncognitoConfig config;
    config.k = k;
    auto result = IncognitoAnonymize(*data, *hierarchies, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::set<LatticeNode> expected =
        BruteForceAnonymousNodes(*data, *hierarchies, k, config.suppression);
    std::set<LatticeNode> actual(result->anonymous_nodes.begin(),
                                 result->anonymous_nodes.end());
    EXPECT_EQ(actual, expected) << "k = " << k;
  }
}

TEST(IncognitoTest, MatchesBruteForceWithSuppression) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  IncognitoConfig config;
  config.k = 3;
  config.suppression.max_fraction = 0.2;
  auto result = IncognitoAnonymize(*data, *hierarchies, config);
  ASSERT_TRUE(result.ok());
  std::set<LatticeNode> expected = BruteForceAnonymousNodes(
      *data, *hierarchies, config.k, config.suppression);
  std::set<LatticeNode> actual(result->anonymous_nodes.begin(),
                               result->anonymous_nodes.end());
  EXPECT_EQ(actual, expected);
}

TEST(IncognitoTest, MinimalNodesMatchOptimalSearch) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  IncognitoConfig incognito_config;
  incognito_config.k = 3;
  auto incognito = IncognitoAnonymize(*data, *hierarchies, incognito_config);
  ASSERT_TRUE(incognito.ok());

  OptimalSearchConfig optimal_config;
  optimal_config.k = 3;
  auto optimal = OptimalLatticeSearch(*data, *hierarchies, optimal_config);
  ASSERT_TRUE(optimal.ok());

  std::set<LatticeNode> incognito_minimal(incognito->minimal_nodes.begin(),
                                          incognito->minimal_nodes.end());
  std::set<LatticeNode> optimal_minimal(optimal->minimal_nodes.begin(),
                                        optimal->minimal_nodes.end());
  EXPECT_EQ(incognito_minimal, optimal_minimal);
}

TEST(IncognitoTest, BestNodeIsKAnonymous) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  IncognitoConfig config;
  config.k = 3;
  auto result = IncognitoAnonymize(*data, *hierarchies, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(KAnonymity(3).Satisfies(result->best.anonymization,
                                      result->best.partition));
}

TEST(IncognitoTest, InfeasibleDetected) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  IncognitoConfig config;
  config.k = 11;
  auto result = IncognitoAnonymize(*data, *hierarchies, config);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(IncognitoTest, AgreesWithBruteForceOnCensus) {
  CensusConfig census_config;
  census_config.rows = 120;
  census_config.seed = 77;
  census_config.with_occupation = false;
  auto census = GenerateCensus(census_config);
  ASSERT_TRUE(census.ok());
  IncognitoConfig config;
  config.k = 4;
  config.suppression.max_fraction = 0.05;
  auto result = IncognitoAnonymize(census->data, census->hierarchies, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::set<LatticeNode> expected = BruteForceAnonymousNodes(
      census->data, census->hierarchies, config.k, config.suppression);
  std::set<LatticeNode> actual(result->anonymous_nodes.begin(),
                               result->anonymous_nodes.end());
  EXPECT_EQ(actual, expected);
}

TEST(IncognitoTest, InvalidArguments) {
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  IncognitoConfig config;
  config.k = 2;
  EXPECT_FALSE(IncognitoAnonymize(nullptr, *hierarchies, config).ok());
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  config.k = 0;
  EXPECT_FALSE(IncognitoAnonymize(*data, *hierarchies, config).ok());
}

}  // namespace
}  // namespace mdc
