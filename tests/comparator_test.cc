// Tests for core/comparator.h and core/report.h.

#include "core/comparator.h"

#include <gtest/gtest.h>

#include "anonymize/datafly.h"
#include "anonymize/equivalence.h"
#include "anonymize/mondrian.h"
#include "common/rng.h"
#include "core/dominance.h"
#include "core/quality_index.h"
#include "core/report.h"
#include "datagen/census_generator.h"
#include "oracle/comparison.h"
#include "paper/paper_data.h"

namespace mdc {
namespace {

PropertyVector V(std::vector<double> values) {
  return PropertyVector("v", std::move(values));
}

TEST(ComparatorTest, DominanceComparatorOutcomes) {
  auto comparator = MakeDominanceComparator();
  EXPECT_EQ(comparator->Name(), "dominance");
  EXPECT_EQ(comparator->Compare(V({2, 2}), V({1, 1})),
            ComparatorOutcome::kFirstBetter);
  EXPECT_EQ(comparator->Compare(V({1, 1}), V({2, 2})),
            ComparatorOutcome::kSecondBetter);
  EXPECT_EQ(comparator->Compare(V({1, 2}), V({2, 1})),
            ComparatorOutcome::kIncomparable);
  EXPECT_EQ(comparator->Compare(V({1, 2}), V({1, 2})),
            ComparatorOutcome::kEquivalent);
}

TEST(ComparatorTest, MinComparatorIsTheScalarPractice) {
  auto comparator = MakeMinComparator();
  // The §5.3 example where min prefers the 3-anonymous vector...
  PropertyVector three_anon =
      V({3, 3, 3, 5, 5, 5, 5, 5, 3, 3, 3, 4, 4, 4, 4});
  PropertyVector two_anon = V({2, 2, 6, 6, 6, 6, 6, 6, 3, 3, 3, 4, 4, 4, 4});
  EXPECT_EQ(comparator->Compare(three_anon, two_anon),
            ComparatorOutcome::kFirstBetter);
  // ...while spread prefers the 2-anonymous one: comparator disagreement
  // is the point of the framework.
  EXPECT_EQ(MakeSpreadComparator()->Compare(two_anon, three_anon),
            ComparatorOutcome::kFirstBetter);
}

TEST(ComparatorTest, RankComparatorWithEpsilon) {
  auto comparator = MakeRankComparator(V({10, 10}), 0.5);
  EXPECT_EQ(comparator->Compare(V({9, 9}), V({5, 5})),
            ComparatorOutcome::kFirstBetter);
  // Within epsilon: equivalent.
  EXPECT_EQ(comparator->Compare(V({9, 9}), V({9, 8.9})),
            ComparatorOutcome::kEquivalent);
}

TEST(ComparatorTest, CoverageAndHypervolume) {
  PropertyVector s = paper::ExpectedClassSizesT3a();
  PropertyVector t = paper::ExpectedClassSizesT3b();
  EXPECT_EQ(MakeCoverageComparator()->Compare(t, s),
            ComparatorOutcome::kFirstBetter);
  EXPECT_EQ(MakeHypervolumeComparator()->Compare(t, s),
            ComparatorOutcome::kFirstBetter);
}

TEST(ComparatorTest, StandardBatteryComposition) {
  EXPECT_EQ(oracle::StandardComparators().size(), 4u);  // No rank, no hv.
  EXPECT_EQ(oracle::StandardComparators(V({1, 1})).size(), 5u);
  EXPECT_EQ(oracle::StandardComparators(V({1, 1}), true).size(), 6u);
}

// Randomized large-N coverage: the original tests stop at N = 15, far
// below the blocked-kernel sizes. Every comparator outcome must agree
// with the underlying scalar index at vector lengths in the thousands,
// under both tie-heavy (small-int) and continuous values.
TEST(ComparatorTest, RandomizedLargeNAgreesWithScalarIndices) {
  Rng rng(20260807);
  for (size_t n : {1000u, 4096u, 5000u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const bool tie_heavy = trial % 2 == 0;
      std::vector<double> v1(n);
      std::vector<double> v2(n);
      for (size_t i = 0; i < n; ++i) {
        if (tie_heavy) {
          v1[i] = static_cast<double>(rng.NextInt(1, 5));
          v2[i] = static_cast<double>(rng.NextInt(1, 5));
        } else {
          v1[i] = rng.NextDouble() * 50.0 + 1.0;
          v2[i] = rng.NextDouble() * 50.0 + 1.0;
        }
      }
      PropertyVector a("a", v1);
      PropertyVector b("b", v2);
      SCOPED_TRACE("n=" + std::to_string(n) + " trial=" +
                   std::to_string(trial));

      EXPECT_EQ(MakeDominanceComparator()->Compare(a, b) ==
                    ComparatorOutcome::kIncomparable,
                NonDominated(a, b));
      auto expect_matches = [&](const char* name,
                                ComparatorOutcome outcome, double first,
                                double second) {
        if (first > second) {
          EXPECT_EQ(outcome, ComparatorOutcome::kFirstBetter) << name;
        } else if (second > first) {
          EXPECT_EQ(outcome, ComparatorOutcome::kSecondBetter) << name;
        } else {
          EXPECT_EQ(outcome, ComparatorOutcome::kEquivalent) << name;
        }
      };
      expect_matches("min", MakeMinComparator()->Compare(a, b), MinIndex(a),
                     MinIndex(b));
      expect_matches("cov", MakeCoverageComparator()->Compare(a, b),
                     CoverageIndex(a, b), CoverageIndex(b, a));
      expect_matches("spr", MakeSpreadComparator()->Compare(a, b),
                     SpreadIndex(a, b), SpreadIndex(b, a));
      expect_matches("hv", MakeHypervolumeComparator()->Compare(a, b),
                     HypervolumeIndex(a, b), HypervolumeIndex(b, a));
      PropertyVector ideal("ideal", std::vector<double>(n, 60.0));
      // Rank: smaller distance to the ideal is better.
      expect_matches("rank",
                     MakeRankComparator(ideal, 0.0)->Compare(a, b),
                     -RankIndex(a, ideal), -RankIndex(b, ideal));
    }
  }
}

// Tie-heavy edge cases the original suite missed: fully tied vectors must
// come out equivalent under every comparator in the battery.
TEST(ComparatorTest, FullyTiedVectorsAreEquivalentEverywhere) {
  Rng rng(99);
  std::vector<double> values(2048);
  for (double& v : values) v = static_cast<double>(rng.NextInt(1, 9));
  PropertyVector a("a", values);
  PropertyVector b("b", values);
  PropertyVector ideal("ideal", std::vector<double>(values.size(), 10.0));
  for (const auto& comparator :
       oracle::StandardComparators(ideal, /*include_hypervolume=*/true)) {
    EXPECT_EQ(comparator->Compare(a, b), ComparatorOutcome::kEquivalent)
        << comparator->Name();
  }
}

TEST(ComparatorTest, OutcomeNames) {
  EXPECT_STREQ(ComparatorOutcomeName(ComparatorOutcome::kFirstBetter),
               "first better");
  EXPECT_STREQ(ComparatorOutcomeName(ComparatorOutcome::kIncomparable),
               "incomparable");
}

// ------------------------------------------------------------- report --

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

TEST(ReportTest, T3aVsT3bRunsAllComparators) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  ComparisonOptions options;
  options.sensitive_column = paper::kMaritalColumn;
  auto report = CompareAnonymizations(t3a.anonymization, t3a.partition,
                                      t3b.anonymization, t3b.partition,
                                      options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->first_name, "paper-T3a");
  EXPECT_EQ(report->second_name, "paper-T3b");
  // Three properties (class size, sensitive rarity, utility).
  EXPECT_EQ(report->properties.size(), 3u);
  EXPECT_FALSE(report->verdicts.empty());
  // T3b wins privacy comparators; T3a wins utility: net score defined.
  std::string text = report->ToText();
  EXPECT_NE(text.find("equivalence-class-size"), std::string::npos);
  EXPECT_NE(text.find("net score"), std::string::npos);
}

TEST(ReportTest, PrivacyVerdictsFavorT3b) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  ComparisonOptions options;
  options.sensitive_column = paper::kMaritalColumn;
  options.include_utility = false;
  auto report = CompareAnonymizations(t3b.anonymization, t3b.partition,
                                      t3a.anonymization, t3a.partition,
                                      options);
  ASSERT_TRUE(report.ok());
  int t3b_size_wins = 0;
  int t3a_rarity_wins = 0;
  for (const ComparatorVerdict& verdict : report->verdicts) {
    if (verdict.property == "equivalence-class-size" &&
        verdict.outcome == ComparatorOutcome::kFirstBetter) {
      ++t3b_size_wins;
    }
    if (verdict.property == "sensitive-rarity" &&
        verdict.outcome == ComparatorOutcome::kSecondBetter) {
      ++t3a_rarity_wins;
    }
  }
  // Dominance, cov, spr, rank all favor T3b on class sizes; min ties
  // (both k=3).
  EXPECT_GE(t3b_size_wins, 4);
  // But T3a wins sensitive rarity (its smaller classes repeat sensitive
  // values less) — the two privacy properties genuinely disagree, which
  // is the paper's multi-property motivation. Net: a wash.
  EXPECT_GE(t3a_rarity_wins, 4);
  EXPECT_EQ(report->net_score, 0);
}

TEST(ReportTest, SizeMismatchRejected) {
  Fixture t3a = Make(&paper::MakeT3a);
  // Build a tiny second release.
  auto schema = Schema::Create(
      {{"x", AttributeType::kInt, AttributeRole::kQuasiIdentifier}});
  ASSERT_TRUE(schema.ok());
  auto tiny = std::make_shared<Dataset>(*schema);
  ASSERT_TRUE(tiny->AppendRow({Value(int64_t{1})}).ok());
  Anonymization small{tiny, *tiny, {0}, {false}, std::nullopt, "small"};
  EquivalencePartition partition =
      EquivalencePartition::FromColumns(small.release, {0});
  auto report = CompareAnonymizations(t3a.anonymization, t3a.partition,
                                      small, partition);
  EXPECT_FALSE(report.ok());
}

// Differential contract at the report level: the packed battery must
// produce the scalar reference battery's report — verdict for verdict,
// byte for byte — at every thread count. Two pairs: the paper's T3a/T3b,
// and a census Datafly release (LM utility) against a Mondrian one
// (class-spread utility).
TEST(ReportTest, PackedReportMatchesScalarReference) {
  CensusConfig census_config;
  census_config.rows = 200;
  census_config.seed = 7;
  auto census = GenerateCensus(census_config);
  ASSERT_TRUE(census.ok());
  auto datafly = DataflyAnonymize(census->data, census->hierarchies,
                                  DataflyConfig{5, {0.02}});
  ASSERT_TRUE(datafly.ok());
  auto mondrian = MondrianAnonymize(census->data, MondrianConfig{5});
  ASSERT_TRUE(mondrian.ok());

  struct Case {
    Fixture first;
    Fixture second;
    ComparisonOptions options;
  };
  std::vector<Case> cases;
  cases.push_back({Make(&paper::MakeT3a), Make(&paper::MakeT3b), {}});
  cases.back().options.sensitive_column = paper::kMaritalColumn;
  cases.push_back({{datafly->evaluation.anonymization,
                    datafly->evaluation.partition},
                   {mondrian->anonymization, mondrian->partition},
                   {}});
  cases.back().options.sensitive_column = census->sensitive_column;

  for (Case& c : cases) {
    SCOPED_TRACE(c.first.anonymization.algorithm + " vs " +
                 c.second.anonymization.algorithm);
    auto scalar = oracle::CompareAnonymizationsScalar(
        c.first.anonymization, c.first.partition, c.second.anonymization,
        c.second.partition, c.options);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    for (int threads : {1, 2, 4, 0}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      c.options.threads = threads;
      auto packed = CompareAnonymizations(
          c.first.anonymization, c.first.partition, c.second.anonymization,
          c.second.partition, c.options);
      ASSERT_TRUE(packed.ok());
      EXPECT_EQ(packed->net_score, scalar->net_score);
      ASSERT_EQ(packed->verdicts.size(), scalar->verdicts.size());
      for (size_t i = 0; i < packed->verdicts.size(); ++i) {
        EXPECT_EQ(packed->verdicts[i].property, scalar->verdicts[i].property);
        EXPECT_EQ(packed->verdicts[i].comparator,
                  scalar->verdicts[i].comparator);
        EXPECT_EQ(packed->verdicts[i].outcome, scalar->verdicts[i].outcome);
      }
      EXPECT_EQ(packed->ToText(), scalar->ToText());
    }
  }
}

TEST(ReportTest, BiasFieldsPopulated) {
  Fixture t3a = Make(&paper::MakeT3a);
  Fixture t3b = Make(&paper::MakeT3b);
  ComparisonOptions options;
  options.sensitive_column = paper::kMaritalColumn;
  auto report = CompareAnonymizations(t3a.anonymization, t3a.partition,
                                      t3b.anonymization, t3b.partition,
                                      options);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->first_bias.mean, 3.4);
  EXPECT_DOUBLE_EQ(report->second_bias.mean, 5.8);  // (3*3 + 7*7)/10.
}

}  // namespace
}  // namespace mdc
