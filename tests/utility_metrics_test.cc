// Tests for utility/: LossMetric, ClassSpreadLoss, Discernibility,
// AvgClassSize, Precision, EntropyLoss.

#include <gtest/gtest.h>

#include <algorithm>

#include "anonymize/equivalence.h"
#include "oracle/evaluation.h"
#include "paper/paper_data.h"
#include "utility/avg_class_size.h"
#include "utility/discernibility.h"
#include "utility/entropy_loss.h"
#include "utility/loss_metric.h"
#include "utility/precision.h"

namespace mdc {
namespace {

struct Fixture {
  Anonymization anonymization;
  EquivalencePartition partition;
};

Fixture Make(StatusOr<Anonymization> (*factory)()) {
  auto anon = factory();
  MDC_CHECK(anon.ok());
  EquivalencePartition partition =
      EquivalencePartition::FromAnonymization(*anon);
  return Fixture{std::move(anon).value(), std::move(partition)};
}

// ------------------------------------------------------------ LossMetric --

TEST(LossMetricTest, LabelLossPresentValueSemantics) {
  Fixture t3a = Make(&paper::MakeT3a);
  // "1305*" covers present zips {13052, 13053}: (2-1)/(6-1) = 0.2.
  auto zip_loss = oracle::LabelLoss(t3a.anonymization, 0, "1305*");
  ASSERT_TRUE(zip_loss.ok());
  EXPECT_NEAR(*zip_loss, 0.2, 1e-12);
  // "(25,35]" covers present ages {26, 28, 31}: (3-1)/(10-1).
  auto age_loss = oracle::LabelLoss(t3a.anonymization, 1, "(25,35]");
  ASSERT_TRUE(age_loss.ok());
  EXPECT_NEAR(*age_loss, 2.0 / 9.0, 1e-12);
  // "Married" covers 2 of 6 present marital values: 0.2.
  auto marital_loss = oracle::LabelLoss(t3a.anonymization, 2, "Married");
  ASSERT_TRUE(marital_loss.ok());
  EXPECT_NEAR(*marital_loss, 0.2, 1e-12);
  // "*" covers everything: loss 1.
  auto star_loss = oracle::LabelLoss(t3a.anonymization, 2, "*");
  ASSERT_TRUE(star_loss.ok());
  EXPECT_NEAR(*star_loss, 1.0, 1e-12);
}

TEST(LossMetricTest, PaperStructureRows148EqualAcrossT3aT3b) {
  // The §5.5 example: rows 1, 4, 8 have IDENTICAL utility in T3a and T3b;
  // every other row is strictly better in T3a. Hence P_cov(u_a, u_b) = 1
  // and P_cov(u_b, u_a) = 0.3 as the paper reports.
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  auto u_a = LossMetric::PerTupleUtility(t3a.anonymization);
  auto u_b = LossMetric::PerTupleUtility(t3b.anonymization);
  ASSERT_TRUE(u_a.ok());
  ASSERT_TRUE(u_b.ok());
  for (size_t i : {0u, 3u, 7u}) {
    EXPECT_NEAR((*u_a)[i], (*u_b)[i], 1e-12) << "row " << i + 1;
  }
  for (size_t i : {1u, 2u, 4u, 5u, 6u, 8u, 9u}) {
    EXPECT_GT((*u_a)[i], (*u_b)[i]) << "row " << i + 1;
  }
}

TEST(LossMetricTest, UtilityPlusLossIsQiCount) {
  Fixture t3a = Make(&paper::MakeT3a);
  auto loss = LossMetric::PerTupleLoss(t3a.anonymization);
  auto utility = LossMetric::PerTupleUtility(t3a.anonymization);
  ASSERT_TRUE(loss.ok());
  ASSERT_TRUE(utility.ok());
  for (size_t i = 0; i < loss->size(); ++i) {
    EXPECT_NEAR((*loss)[i] + (*utility)[i], 3.0, 1e-12);
  }
}

TEST(LossMetricTest, MoreGeneralizationMoreLoss) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  Fixture t4 = Make(&paper::MakeT4);
  auto loss_a = LossMetric::TotalLoss(t3a.anonymization);
  auto loss_b = LossMetric::TotalLoss(t3b.anonymization);
  auto loss_4 = LossMetric::TotalLoss(t4.anonymization);
  ASSERT_TRUE(loss_a.ok());
  ASSERT_TRUE(loss_b.ok());
  ASSERT_TRUE(loss_4.ok());
  EXPECT_LT(*loss_a, *loss_b);  // T3a is less generalized than T3b.
  EXPECT_LT(*loss_b, *loss_4);  // T4 suppresses marital entirely.
}

TEST(LossMetricTest, SuppressedRowChargedFully) {
  Fixture t3a = Make(&paper::MakeT3a);
  ASSERT_TRUE(Generalizer::SuppressRows(t3a.anonymization, {2}).ok());
  auto loss = LossMetric::PerTupleLoss(t3a.anonymization);
  ASSERT_TRUE(loss.ok());
  EXPECT_NEAR((*loss)[2], 3.0, 1e-12);
}

// ------------------------------------------------------- ClassSpreadLoss --

TEST(ClassSpreadLossTest, AgreesWithIntuitionOnT3a) {
  Fixture t3a = Make(&paper::MakeT3a);
  auto loss = ClassSpreadLoss::PerTupleLoss(t3a.anonymization,
                                            t3a.partition);
  ASSERT_TRUE(loss.ok());
  // Class {1,4,8}: zips {13052,13053} -> 1/5; ages 26..31 -> 5/29;
  // marital {CF-Spouse, Spouse Present} -> 1/5.
  double expected = 0.2 + 5.0 / 29.0 + 0.2;
  EXPECT_NEAR((*loss)[0], expected, 1e-9);
  EXPECT_NEAR((*loss)[3], expected, 1e-9);
  EXPECT_NEAR((*loss)[7], expected, 1e-9);
}

TEST(ClassSpreadLossTest, UtilityComplement) {
  Fixture t3b = Make(&paper::MakeT3b);
  auto loss =
      ClassSpreadLoss::PerTupleLoss(t3b.anonymization, t3b.partition);
  auto utility =
      ClassSpreadLoss::PerTupleUtility(t3b.anonymization, t3b.partition);
  ASSERT_TRUE(loss.ok());
  ASSERT_TRUE(utility.ok());
  for (size_t i = 0; i < loss->size(); ++i) {
    EXPECT_NEAR((*loss)[i] + (*utility)[i], 3.0, 1e-12);
  }
}

// --------------------------------------------------------- Discernibility --

TEST(DiscernibilityTest, PenaltiesAreClassSizes) {
  Fixture t3a = Make(&paper::MakeT3a);
  PropertyVector penalty =
      Discernibility::PerTuplePenalty(t3a.anonymization, t3a.partition);
  EXPECT_EQ(penalty.values(), paper::ExpectedClassSizesT3a().values());
  // DM total = 3*3 + 3*3 + 4*4 = 34.
  EXPECT_DOUBLE_EQ(
      Discernibility::Total(t3a.anonymization, t3a.partition), 34.0);
}

TEST(DiscernibilityTest, SuppressedChargedN) {
  Fixture t3a = Make(&paper::MakeT3a);
  ASSERT_TRUE(Generalizer::SuppressRows(t3a.anonymization, {0}).ok());
  EquivalencePartition partition =
      EquivalencePartition::FromAnonymization(t3a.anonymization);
  PropertyVector penalty =
      Discernibility::PerTuplePenalty(t3a.anonymization, partition);
  EXPECT_DOUBLE_EQ(penalty[0], 10.0);
}

TEST(DiscernibilityTest, UtilityIsNegated) {
  Fixture t3a = Make(&paper::MakeT3a);
  PropertyVector utility =
      Discernibility::PerTupleUtility(t3a.anonymization, t3a.partition);
  EXPECT_DOUBLE_EQ(utility[0], -3.0);
}

// ----------------------------------------------------------- AvgClassSize --

TEST(AvgClassSizeTest, PaperPSAvg) {
  Fixture t3a = Make(&paper::MakeT3a);
  // P_s-avg = (3*3 + 3*3 + 4*4)/10 = 3.4 (§3 of the paper).
  EXPECT_DOUBLE_EQ(AvgClassSize::PerTupleAverage(t3a.partition), 3.4);
}

TEST(AvgClassSizeTest, Normalized) {
  Fixture t3a = Make(&paper::MakeT3a);
  auto c_avg = AvgClassSize::Normalized(t3a.partition, 3);
  ASSERT_TRUE(c_avg.ok());
  // N=10, 3 classes, k=3: (10/3)/3.
  EXPECT_NEAR(*c_avg, 10.0 / 9.0, 1e-12);
  EXPECT_FALSE(AvgClassSize::Normalized(t3a.partition, 0).ok());
}

// -------------------------------------------------------------- Precision --

TEST(PrecisionTest, LevelsOverHeights) {
  Fixture t3a = Make(&paper::MakeT3a);
  auto precision = Precision::PerTuplePrecision(t3a.anonymization);
  ASSERT_TRUE(precision.ok());
  // Charges: zip 1/5, age 1/3, marital 1/2 -> Prec = 1 - (avg).
  double expected = 1.0 - (1.0 / 5 + 1.0 / 3 + 1.0 / 2) / 3.0;
  for (size_t i = 0; i < precision->size(); ++i) {
    EXPECT_NEAR((*precision)[i], expected, 1e-12);
  }
  auto overall = Precision::Overall(t3a.anonymization);
  ASSERT_TRUE(overall.ok());
  EXPECT_NEAR(*overall, expected, 1e-12);
}

TEST(PrecisionTest, SuppressedRowHasZeroPrecision) {
  Fixture t3a = Make(&paper::MakeT3a);
  ASSERT_TRUE(Generalizer::SuppressRows(t3a.anonymization, {4}).ok());
  auto precision = Precision::PerTuplePrecision(t3a.anonymization);
  ASSERT_TRUE(precision.ok());
  EXPECT_NEAR((*precision)[4], 0.0, 1e-12);
}

TEST(PrecisionTest, T4LowerThanT3a) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t4 = Make(&paper::MakeT4);
  auto p3a = Precision::Overall(t3a.anonymization);
  auto p4 = Precision::Overall(t4.anonymization);
  ASSERT_TRUE(p3a.ok());
  ASSERT_TRUE(p4.ok());
  EXPECT_GT(*p3a, *p4);
}

// ------------------------------------------------------------ EntropyLoss --

TEST(EntropyLossTest, BoundsAndOrdering) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  auto loss_a = EntropyLoss::PerTupleLoss(t3a.anonymization);
  auto loss_b = EntropyLoss::PerTupleLoss(t3b.anonymization);
  ASSERT_TRUE(loss_a.ok());
  ASSERT_TRUE(loss_b.ok());
  for (size_t i = 0; i < loss_a->size(); ++i) {
    EXPECT_GE((*loss_a)[i], 0.0);
    EXPECT_LE((*loss_a)[i], 1.0);
    EXPECT_LE((*loss_a)[i], (*loss_b)[i] + 1e-12);  // T3a is finer.
  }
}

TEST(EntropyLossTest, IdentityReleaseHasZeroLoss) {
  auto data = paper::Table1();
  ASSERT_TRUE(data.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  auto scheme = GeneralizationScheme::Create(*hierarchies, {0, 0, 0});
  ASSERT_TRUE(scheme.ok());
  auto anon = Generalizer::Apply(*data, *scheme);
  ASSERT_TRUE(anon.ok());
  auto loss = EntropyLoss::TotalLoss(*anon);
  ASSERT_TRUE(loss.ok());
  EXPECT_NEAR(*loss, 0.0, 1e-12);
}

TEST(EntropyLossTest, UtilityComplement) {
  Fixture t4 = Make(&paper::MakeT4);
  auto loss = EntropyLoss::PerTupleLoss(t4.anonymization);
  auto utility = EntropyLoss::PerTupleUtility(t4.anonymization);
  ASSERT_TRUE(loss.ok());
  ASSERT_TRUE(utility.ok());
  for (size_t i = 0; i < loss->size(); ++i) {
    EXPECT_NEAR((*loss)[i] + (*utility)[i], 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace mdc
