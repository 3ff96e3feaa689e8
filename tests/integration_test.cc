// Cross-module integration: run the full pipeline — generate census data,
// anonymize with every algorithm, evaluate privacy models, extract
// property vectors, and compare with the paper's framework.

#include <gtest/gtest.h>

#include "anonymize/datafly.h"
#include "anonymize/mondrian.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "core/bias.h"
#include "core/dominance.h"
#include "core/multi_property.h"
#include "core/properties.h"
#include "core/quality_index.h"
#include "datagen/census_generator.h"
#include "hierarchy/interval_hierarchy.h"
#include "hierarchy/suffix_hierarchy.h"
#include "privacy/k_anonymity.h"
#include "privacy/l_diversity.h"
#include "privacy/t_closeness.h"
#include "utility/discernibility.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace {

struct NamedRelease {
  std::string name;
  Anonymization anonymization;
  EquivalencePartition partition;
};

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CensusConfig config;
    config.rows = 400;
    config.seed = 2026;
    config.with_occupation = false;
    auto census = GenerateCensus(config);
    MDC_CHECK(census.ok());
    census_ = new CensusData(std::move(census).value());

    releases_ = new std::vector<NamedRelease>();
    const int k = 4;
    SuppressionBudget budget{0.02};

    DataflyConfig datafly_config{k, budget};
    auto datafly =
        DataflyAnonymize(census_->data, census_->hierarchies, datafly_config);
    MDC_CHECK(datafly.ok());
    releases_->push_back({"datafly",
                          std::move(datafly->evaluation.anonymization),
                          std::move(datafly->evaluation.partition)});

    SamaratiConfig samarati_config{.k = k, .suppression = budget};
    auto samarati = SamaratiAnonymize(census_->data, census_->hierarchies,
                                      samarati_config);
    MDC_CHECK(samarati.ok());
    releases_->push_back({"samarati", std::move(samarati->best.anonymization),
                          std::move(samarati->best.partition)});

    OptimalSearchConfig optimal_config;
    optimal_config.k = k;
    optimal_config.suppression = budget;
    auto optimal = OptimalLatticeSearch(census_->data, census_->hierarchies,
                                        optimal_config);
    MDC_CHECK(optimal.ok());
    releases_->push_back({"optimal", std::move(optimal->best.anonymization),
                          std::move(optimal->best.partition)});

    MondrianConfig mondrian_config{k};
    auto mondrian = MondrianAnonymize(census_->data, mondrian_config);
    MDC_CHECK(mondrian.ok());
    releases_->push_back({"mondrian", std::move(mondrian->anonymization),
                          std::move(mondrian->partition)});

    StochasticConfig stochastic_config;
    stochastic_config.k = k;
    stochastic_config.suppression = budget;
    stochastic_config.seed = 3;
    auto stochastic = StochasticAnonymize(census_->data, census_->hierarchies,
                                          stochastic_config);
    MDC_CHECK(stochastic.ok());
    releases_->push_back({"stochastic",
                          std::move(stochastic->best.anonymization),
                          std::move(stochastic->best.partition)});
  }

  static void TearDownTestSuite() {
    delete releases_;
    delete census_;
    releases_ = nullptr;
    census_ = nullptr;
  }

  static CensusData* census_;
  static std::vector<NamedRelease>* releases_;
};

CensusData* PipelineTest::census_ = nullptr;
std::vector<NamedRelease>* PipelineTest::releases_ = nullptr;

TEST_F(PipelineTest, EveryAlgorithmSatisfiesK) {
  for (const NamedRelease& release : *releases_) {
    EXPECT_TRUE(
        KAnonymity(4).Satisfies(release.anonymization, release.partition))
        << release.name;
  }
}

TEST_F(PipelineTest, ReleasesKeepAllRows) {
  for (const NamedRelease& release : *releases_) {
    EXPECT_EQ(release.anonymization.row_count(), 400u) << release.name;
    EXPECT_EQ(release.partition.row_count(), 400u) << release.name;
  }
}

TEST_F(PipelineTest, PropertyVectorsExtractEverywhere) {
  for (const NamedRelease& release : *releases_) {
    PropertyVector sizes = EquivalenceClassSizeVector(release.partition);
    EXPECT_EQ(sizes.size(), 400u);
    auto counts =
        SensitiveCountVector(release.anonymization, release.partition,
                             census_->sensitive_column);
    ASSERT_TRUE(counts.ok()) << release.name;
    auto loss = ClassSpreadLoss::PerTupleLoss(release.anonymization,
                                              release.partition);
    ASSERT_TRUE(loss.ok()) << release.name;
  }
}

TEST_F(PipelineTest, ScalarEqualVectorDifferent) {
  // The paper's motivation at scale: algorithms achieving the same k
  // produce different per-tuple distributions.
  std::vector<PropertyVector> size_vectors;
  for (const NamedRelease& release : *releases_) {
    size_vectors.push_back(EquivalenceClassSizeVector(release.partition));
  }
  bool any_differ = false;
  for (size_t i = 1; i < size_vectors.size(); ++i) {
    if (!(size_vectors[i] == size_vectors[0])) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST_F(PipelineTest, MondrianCovBeatsFullDomainOnClassSizesOrConverse) {
  // Coverage comparisons are total over these releases; just verify the
  // comparator gives a coherent (asymmetric) answer on a real pair.
  PropertyVector datafly_sizes =
      EquivalenceClassSizeVector((*releases_)[0].partition);
  PropertyVector mondrian_sizes =
      EquivalenceClassSizeVector((*releases_)[3].partition);
  double forward = CoverageIndex(datafly_sizes, mondrian_sizes);
  double backward = CoverageIndex(mondrian_sizes, datafly_sizes);
  EXPECT_GE(forward + backward, 1.0);  // Ties count both ways.
}

TEST_F(PipelineTest, OptimalNoWorseThanDataflyOnProxyLoss) {
  const NamedRelease& datafly = (*releases_)[0];
  const NamedRelease& optimal = (*releases_)[2];
  double datafly_loss = ProxyLoss(datafly.anonymization, datafly.partition);
  double optimal_loss = ProxyLoss(optimal.anonymization, optimal.partition);
  EXPECT_LE(optimal_loss, datafly_loss + 1e-9);
}

TEST_F(PipelineTest, DiversityAndClosenessEvaluate) {
  for (const NamedRelease& release : *releases_) {
    DistinctLDiversity ldiv(2, census_->sensitive_column);
    double l = ldiv.Measure(release.anonymization, release.partition);
    EXPECT_GE(l, 1.0) << release.name;
    TCloseness tclose(1.0, GroundDistance::kEqual,
                      census_->sensitive_column);
    double t = tclose.Measure(release.anonymization, release.partition);
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
}

TEST_F(PipelineTest, MultiPropertyComparisonRuns) {
  const NamedRelease& a = (*releases_)[0];
  const NamedRelease& b = (*releases_)[3];
  auto loss_a =
      ClassSpreadLoss::PerTupleUtility(a.anonymization, a.partition);
  auto loss_b =
      ClassSpreadLoss::PerTupleUtility(b.anonymization, b.partition);
  ASSERT_TRUE(loss_a.ok());
  ASSERT_TRUE(loss_b.ok());
  PropertySet set_a = {EquivalenceClassSizeVector(a.partition), *loss_a};
  PropertySet set_b = {EquivalenceClassSizeVector(b.partition), *loss_b};
  auto wtd = WtdBetter(set_a, set_b, {0.5, 0.5}, {MakeCoverageIndex()});
  ASSERT_TRUE(wtd.ok());
  auto lex = LexBetter(set_a, set_b, {0.05}, {MakeCoverageIndex()});
  ASSERT_TRUE(lex.ok());
  auto goal =
      GoalBetter(set_a, set_b, {1.0, 1.0}, {MakeCoverageIndex()});
  ASSERT_TRUE(goal.ok());
}

TEST_F(PipelineTest, BiasReportsDiffer) {
  BiasReport datafly_bias = ComputeBias(
      EquivalenceClassSizeVector((*releases_)[0].partition));
  BiasReport mondrian_bias = ComputeBias(
      EquivalenceClassSizeVector((*releases_)[3].partition));
  // Mondrian's strict partitioning keeps classes near k: lower mean.
  EXPECT_LT(mondrian_bias.mean, datafly_bias.mean + 1e-9);
}

TEST(CsvPipelineTest, AnonymizeFromCsvRoundTrip) {
  // Ingest CSV, anonymize, export CSV — a downstream user's happy path.
  const char* csv =
      "zip,age,disease\n"
      "13053,28,Flu\n13268,41,Cold\n13268,39,Flu\n13053,26,Flu\n"
      "13253,50,Cold\n13253,55,Flu\n13250,49,Cold\n13052,31,Flu\n"
      "13269,42,Cold\n13250,47,Flu\n";
  auto schema = Schema::Create({
      {"zip", AttributeType::kString, AttributeRole::kQuasiIdentifier},
      {"age", AttributeType::kInt, AttributeRole::kQuasiIdentifier},
      {"disease", AttributeType::kString, AttributeRole::kSensitive},
  });
  ASSERT_TRUE(schema.ok());
  auto data = Dataset::FromCsv(*schema, csv);
  ASSERT_TRUE(data.ok());
  auto shared = std::make_shared<Dataset>(std::move(data).value());

  HierarchySet hierarchies;
  auto zip = SuffixHierarchy::Create(5);
  ASSERT_TRUE(zip.ok());
  ASSERT_TRUE(hierarchies
                  .Bind(0, std::make_shared<const SuffixHierarchy>(
                               std::move(zip).value()))
                  .ok());
  auto age = IntervalHierarchy::Create({{5.0, 10.0}, {15.0, 20.0}});
  ASSERT_TRUE(age.ok());
  ASSERT_TRUE(hierarchies
                  .Bind(1, std::make_shared<const IntervalHierarchy>(
                               std::move(age).value()))
                  .ok());

  DataflyConfig config;
  config.k = 3;
  auto result = DataflyAnonymize(shared, hierarchies, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string out = result->evaluation.anonymization.release.ToCsv();
  EXPECT_NE(out.find("zip,age,disease"), std::string::npos);
  // Sensitive column passes through unchanged.
  EXPECT_NE(out.find("Flu"), std::string::npos);
}

}  // namespace
}  // namespace mdc
