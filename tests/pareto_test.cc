// Tests for core/pareto.h and anonymize/pareto_lattice.h (§7 extension).

#include "core/pareto.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "anonymize/pareto_lattice.h"
#include "oracle/comparison.h"
#include "paper/paper_data.h"

namespace mdc {
namespace {

PropertyVector V(std::vector<double> values) {
  return PropertyVector("v", std::move(values));
}

// The production fronts, each checked against the serial reference.
std::vector<size_t> ScalarFront(
    const std::vector<std::vector<double>>& points) {
  auto front = ParetoFrontScalar(points, ParetoOptions{});
  MDC_CHECK(front.ok());
  EXPECT_EQ(*front, oracle::ParetoFrontScalar(points));
  return *front;
}

std::vector<size_t> SetFront(const std::vector<PropertySet>& candidates) {
  auto front = ParetoFront(candidates, ParetoOptions{});
  MDC_CHECK(front.ok());
  EXPECT_EQ(*front, oracle::ParetoFront(candidates));
  return *front;
}

TEST(ParetoFrontScalarTest, BasicFront) {
  // Points: (privacy, utility). (3,1) and (1,3) trade off; (2,2) also
  // non-dominated; (1,1) dominated by all.
  std::vector<std::vector<double>> points = {
      {3, 1}, {1, 3}, {2, 2}, {1, 1}};
  std::vector<size_t> front = ScalarFront(points);
  EXPECT_EQ(front, (std::vector<size_t>{0, 1, 2}));
}

TEST(ParetoFrontScalarTest, DuplicatesSurvive) {
  std::vector<std::vector<double>> points = {{2, 2}, {2, 2}, {1, 1}};
  std::vector<size_t> front = ScalarFront(points);
  EXPECT_EQ(front, (std::vector<size_t>{0, 1}));
}

TEST(ParetoFrontScalarTest, SinglePoint) {
  EXPECT_EQ(ScalarFront({{5, 5}}), (std::vector<size_t>{0}));
  EXPECT_TRUE(ScalarFront({}).empty());
}

TEST(ParetoFrontTest, SetDominanceFront) {
  // Candidate property sets over 2 tuples and 2 properties.
  PropertySet a = {V({3, 3}), V({1, 1})};
  PropertySet b = {V({2, 2}), V({2, 2})};  // Trade-off with a.
  PropertySet c = {V({2, 2}), V({1, 1})};  // Dominated by both a-ish... by b.
  std::vector<size_t> front = SetFront({a, b, c});
  EXPECT_EQ(front, (std::vector<size_t>{0, 1}));
}

TEST(ParetoFrontTest, VectorFrontRetainsScalarTies) {
  // The paper's key: identical scalar min (3 = 3) but incomparable
  // vectors — both stay on the vector front.
  PropertySet t3a_like = {paper::ExpectedClassSizesT3a()};
  PropertySet t4_like = {paper::ExpectedClassSizesT4()};
  std::vector<size_t> front = SetFront({t3a_like, t4_like});
  // T4 strongly dominates T3a, so only T4 stays...
  EXPECT_EQ(front, (std::vector<size_t>{1}));
  PropertySet t3b_like = {paper::ExpectedClassSizesT3b()};
  front = SetFront({t3b_like, t4_like});
  // T3b || T4: both survive.
  EXPECT_EQ(front, (std::vector<size_t>{0, 1}));
}

TEST(KneePointTest, PicksBalancedPoint) {
  std::vector<std::vector<double>> points = {
      {10, 0}, {0, 10}, {8, 8}, {5, 5}};
  auto knee = KneePoint(points);
  ASSERT_TRUE(knee.ok());
  EXPECT_EQ(*knee, 2u);  // (8,8) is closest to the normalized ideal.
}

TEST(KneePointTest, Validation) {
  EXPECT_FALSE(KneePoint({}).ok());
  EXPECT_FALSE(KneePoint({{1, 2}, {1}}).ok());
  auto degenerate = KneePoint({{1, 1}, {1, 1}});
  ASSERT_TRUE(degenerate.ok());  // Constant coordinates normalize to 0.
  EXPECT_EQ(*degenerate, 0u);
}

TEST(ParetoLatticeTest, PaperLatticeFronts) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  auto result = ParetoLatticeSearch(*data, *hierarchies);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->candidates.size(), 72u);  // 6*4*3 lattice nodes.
  EXPECT_FALSE(result->vector_front.empty());
  EXPECT_FALSE(result->scalar_front.empty());

  // The bottom node (no generalization) maximizes utility: it must be on
  // both fronts.
  size_t bottom_index = 0;
  for (size_t i = 0; i < result->candidates.size(); ++i) {
    if (result->candidates[i].node == LatticeNode{0, 0, 0}) {
      bottom_index = i;
    }
  }
  EXPECT_NE(std::find(result->scalar_front.begin(),
                      result->scalar_front.end(), bottom_index),
            result->scalar_front.end());

  // Scalar-front sanity: no front member dominates another on (k, U).
  for (size_t i : result->scalar_front) {
    for (size_t j : result->scalar_front) {
      if (i == j) continue;
      const ParetoCandidate& a = result->candidates[i];
      const ParetoCandidate& b = result->candidates[j];
      bool dominates = a.min_class_size >= b.min_class_size &&
                       a.total_utility >= b.total_utility &&
                       (a.min_class_size > b.min_class_size ||
                        a.total_utility > b.total_utility);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(ParetoLatticeTest, VectorFrontIsSupersetOfScalarIntuition) {
  // Every scalar-front member's property set is not strongly dominated,
  // so it appears on the vector front too... not necessarily (scalar
  // aggregates lose information both ways). Instead check the defining
  // property of the vector front directly.
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetB();
  ASSERT_TRUE(hierarchies.ok());
  auto result = ParetoLatticeSearch(*data, *hierarchies);
  ASSERT_TRUE(result.ok());
  for (size_t i : result->vector_front) {
    for (size_t j = 0; j < result->candidates.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(StronglyDominates(result->candidates[j].properties,
                                     result->candidates[i].properties));
    }
  }
}

TEST(ParetoLatticeTest, NullInputRejected) {
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  EXPECT_FALSE(ParetoLatticeSearch(nullptr, *hierarchies).ok());
}

}  // namespace
}  // namespace mdc
