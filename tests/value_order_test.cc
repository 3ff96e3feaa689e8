// Differential oracle for the rank-order kernel (common/value_order.h).
//
// StableValueOrder must give exactly the order `std::stable_sort` of the
// row indices by `values[a] < values[b]` gives, on every column shape the
// permutation paradigm can meet: ties, signed zeros, subnormals,
// infinities, the extremes of the double range and values one ULP apart.
// Its three callers must match reference copies of their stable_sort
// versions byte for byte, and PermutationModelFor's one-sweep extraction
// must match the per-column NumericReleaseColumn path it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "anonymize/datafly.h"
#include "anonymize/equivalence.h"
#include "anonymize/mondrian.h"
#include "anonymize/perturb/perturb.h"
#include "common/rng.h"
#include "common/value_order.h"
#include "core/permutation_metrics.h"
#include "datagen/census_generator.h"
#include "table/dataset.h"
#include "table/schema.h"

namespace mdc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Reference copies of the stable_sort implementations the kernel replaced.

std::vector<uint32_t> ReferenceOrder(const std::vector<double>& values) {
  std::vector<uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  return order;
}

std::vector<uint32_t> ReferenceRanks(const std::vector<double>& values) {
  const std::vector<uint32_t> order = ReferenceOrder(values);
  std::vector<uint32_t> ranks(values.size());
  for (size_t r = 0; r < order.size(); ++r) {
    ranks[order[r]] = static_cast<uint32_t>(r);
  }
  return ranks;
}

std::vector<double> ReferenceMicroaggregate(const std::vector<double>& values,
                                            int k) {
  const size_t n = values.size();
  std::vector<double> out(values);
  if (n == 0 || k <= 1) return out;
  const std::vector<uint32_t> order = ReferenceOrder(values);
  const size_t group = static_cast<size_t>(k);
  size_t lo = 0;
  size_t hi = n;
  auto emit = [&](size_t begin, size_t end) {
    double mean = 0.0;
    for (size_t i = begin; i < end; ++i) mean += values[order[i]];
    mean /= static_cast<double>(end - begin);
    for (size_t i = begin; i < end; ++i) out[order[i]] = mean;
  };
  while (hi - lo >= 2 * group) {
    if (hi - lo >= 3 * group) {
      emit(lo, lo + group);
      emit(hi - group, hi);
      lo += group;
      hi -= group;
    } else {
      emit(lo, lo + group);
      lo += group;
    }
  }
  if (hi > lo) emit(lo, hi);
  return out;
}

// The rank-swap sweep as specified: the stable_sort order, then the
// linear scan over the unswapped ranks in (r, r + w] that the
// production Fenwick tree reproduces.
std::vector<double> ReferenceRankSwap(const std::vector<double>& values,
                                      double window, uint64_t seed) {
  const size_t n = values.size();
  std::vector<double> out(values);
  if (n < 2) return out;
  const std::vector<uint32_t> row_of_rank = ReferenceOrder(values);
  const size_t w = std::max<size_t>(
      1, static_cast<size_t>(window * static_cast<double>(n)));
  Rng rng(seed);
  std::vector<bool> swapped(n, false);
  for (size_t r = 0; r < n; ++r) {
    if (swapped[r]) continue;
    const size_t hi = std::min(n - 1, r + w);
    std::vector<size_t> candidates;
    for (size_t j = r + 1; j <= hi; ++j) {
      if (!swapped[j]) candidates.push_back(j);
    }
    swapped[r] = true;
    if (candidates.empty()) continue;
    const size_t partner = candidates[rng.NextBelow(candidates.size())];
    std::swap(out[row_of_rank[r]], out[row_of_rank[partner]]);
    swapped[partner] = true;
  }
  return out;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                           0);
}

// ---------------------------------------------------------------------------
// Columns.

// Reals in [0, 100) with a quarter of the rows age-like integers (exact
// ties), the distribution the `rank` workload sorts; some negated.
std::vector<double> MixedColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    v = rng.NextBool(0.25) ? static_cast<double>(rng.NextInt(18, 90))
                           : rng.NextDouble() * 100.0;
    if (rng.NextBool(0.2)) v = -v;
  }
  return values;
}

struct NamedColumn {
  std::string name;
  std::vector<double> values;
};

std::vector<NamedColumn> ShapedColumns() {
  const size_t n = 2000;
  std::vector<NamedColumn> columns;
  Rng rng(7);
  auto make = [&](const std::string& name, auto value_of) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = value_of(i);
    columns.push_back({name, std::move(values)});
  };
  make("all-equal", [](size_t) { return 42.5; });
  make("heavy-ties", [&](size_t) {
    return static_cast<double>(rng.NextInt(18, 90));
  });
  make("negatives", [&](size_t) { return -rng.NextDouble() * 1e6; });
  make("signed-zeros", [&](size_t) {
    switch (rng.NextBelow(4)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return rng.NextBool(0.5) ? 1e-300 : -1e-300;
      default: return rng.NextDouble() - 0.5;
    }
  });
  make("subnormals", [&](size_t) {
    const double v = std::numeric_limits<double>::denorm_min() *
                     static_cast<double>(rng.NextBelow(64));
    return rng.NextBool(0.5) ? -v : v;
  });
  make("infinities", [&](size_t) {
    switch (rng.NextBelow(5)) {
      case 0: return kInf;
      case 1: return -kInf;
      case 2: return 0.0;
      default: return (rng.NextDouble() - 0.5) * 1e300;
    }
  });
  make("double-extremes", [&](size_t) {
    switch (rng.NextBelow(5)) {
      case 0: return DBL_MAX;
      case 1: return -DBL_MAX;
      case 2: return DBL_MIN;
      case 3: return -DBL_MIN;
      default: return (rng.NextDouble() - 0.5) * DBL_MAX;
    }
  });
  make("one-ulp-apart", [&](size_t) {
    double v = rng.NextBool(0.5) ? 1.0 : -1.0;
    for (uint64_t s = rng.NextBelow(8); s > 0; --s) {
      v = std::nextafter(v, kInf);
    }
    return v;
  });
  make("sorted", [](size_t i) { return static_cast<double>(i) * 0.5 - 300; });
  make("reversed", [](size_t i) { return 1e3 - static_cast<double>(i); });
  make("mixed", [&](size_t) {
    double v = rng.NextBool(0.25) ? static_cast<double>(rng.NextInt(18, 90))
                                  : rng.NextDouble() * 100.0;
    return rng.NextBool(0.3) ? -v : v;
  });
  return columns;
}

// ---------------------------------------------------------------------------
// The kernel.

TEST(ValueOrderTest, MatchesStableSortAtEverySize) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{300}, size_t{2000},
                   size_t{200000}}) {
    for (uint64_t seed : {1u, 20261017u}) {
      const std::vector<double> values = MixedColumn(n, seed);
      EXPECT_TRUE(SameBytes(StableValueOrder(values), ReferenceOrder(values)))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(ValueOrderTest, MatchesStableSortOnEveryColumnShape) {
  for (const NamedColumn& column : ShapedColumns()) {
    EXPECT_TRUE(SameBytes(StableValueOrder(column.values),
                          ReferenceOrder(column.values)))
        << column.name;
    // A short prefix too: few rows leave most digits constant.
    const std::vector<double> prefix(column.values.begin(),
                                     column.values.begin() + 17);
    EXPECT_TRUE(SameBytes(StableValueOrder(prefix), ReferenceOrder(prefix)))
        << column.name << " prefix";
  }
}

TEST(ValueOrderTest, SignedZerosTieAndKeepRowOrder) {
  const std::vector<double> values = {0.0, -0.0, -1.0, 0.0, -0.0, 1.0};
  EXPECT_EQ(StableValueOrder(values),
            (std::vector<uint32_t>{2, 0, 1, 3, 4, 5}));
}

TEST(ValueOrderTest, NaNIsARejectedPrecondition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<double> values = {1.0, std::nan(""), 0.0};
  EXPECT_DEATH(StableValueOrder(values), "NaN");
}

// ---------------------------------------------------------------------------
// The callers against their stable_sort versions.

TEST(ValueOrderTest, RankVectorMatchesStableSortVersion) {
  for (const NamedColumn& column : ShapedColumns()) {
    EXPECT_TRUE(SameBytes(RankVector(column.values),
                          ReferenceRanks(column.values)))
        << column.name;
  }
  const std::vector<double> large = MixedColumn(200000, 3);
  EXPECT_TRUE(SameBytes(RankVector(large), ReferenceRanks(large)));
}

TEST(ValueOrderTest, MicroaggregationMatchesStableSortVersion) {
  for (const NamedColumn& column : ShapedColumns()) {
    for (int k : {2, 3, 5, 10, 20}) {
      EXPECT_TRUE(SameBytes(PerturbColumnMicroaggregate(column.values, k),
                            ReferenceMicroaggregate(column.values, k)))
          << column.name << " k=" << k;
    }
  }
  for (uint64_t seed : {1u, 20261017u}) {
    const std::vector<double> values = MixedColumn(20000, seed);
    for (int k : {3, 20}) {
      EXPECT_TRUE(SameBytes(PerturbColumnMicroaggregate(values, k),
                            ReferenceMicroaggregate(values, k)))
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(ValueOrderTest, RankSwapMatchesStableSortVersion) {
  for (const NamedColumn& column : ShapedColumns()) {
    for (double window : {0.001, 0.01, 0.05, 0.2}) {
      for (uint64_t seed : {1u, 13u, 20261017u}) {
        EXPECT_TRUE(
            SameBytes(PerturbColumnRankSwap(column.values, window, seed),
                      ReferenceRankSwap(column.values, window, seed)))
            << column.name << " window=" << window << " seed=" << seed;
      }
    }
  }
  const std::vector<double> values = MixedColumn(20000, 5);
  for (double window : {0.001, 0.01}) {
    EXPECT_TRUE(SameBytes(PerturbColumnRankSwap(values, window, 9),
                          ReferenceRankSwap(values, window, 9)))
        << "window=" << window;
  }
}

// ---------------------------------------------------------------------------
// Model extraction: one row-major sweep == the per-column path.

// The extraction PermutationModelFor did before the one-sweep gather: the
// original read cell by cell, the release through NumericReleaseColumn,
// one column at a time.
StatusOr<PermutationModel> ReferenceModelFor(
    const Anonymization& anonymization,
    const EquivalencePartition* partition) {
  const Schema& schema = anonymization.original->schema();
  std::vector<std::vector<double>> original_columns;
  std::vector<std::vector<double>> anonymized_columns;
  std::vector<std::string> names;
  for (size_t qi : schema.QuasiIdentifierIndices()) {
    const AttributeType type = schema.attribute(qi).type;
    if (type != AttributeType::kInt && type != AttributeType::kReal) continue;
    MDC_ASSIGN_OR_RETURN(std::vector<double> released,
                         NumericReleaseColumn(anonymization, partition, qi));
    std::vector<double> originals(anonymization.original->row_count());
    for (size_t r = 0; r < originals.size(); ++r) {
      originals[r] = anonymization.original->cell(r, qi).AsNumber();
    }
    original_columns.push_back(std::move(originals));
    anonymized_columns.push_back(std::move(released));
    names.push_back(schema.attribute(qi).name);
  }
  return BuildPermutationModel(original_columns, anonymized_columns, names);
}

void ExpectSameModel(const PermutationModel& got, const PermutationModel& want,
                     const std::string& what) {
  ASSERT_EQ(got.rows, want.rows) << what;
  ASSERT_EQ(got.attributes.size(), want.attributes.size()) << what;
  for (size_t a = 0; a < want.attributes.size(); ++a) {
    const PermutationAttributeModel& g = got.attributes[a];
    const PermutationAttributeModel& w = want.attributes[a];
    EXPECT_EQ(g.name, w.name) << what;
    EXPECT_TRUE(SameBytes(g.original_ranks, w.original_ranks)) << what;
    EXPECT_TRUE(SameBytes(g.anonymized_ranks, w.anonymized_ranks)) << what;
    EXPECT_TRUE(SameBytes(g.permutation, w.permutation)) << what;
    EXPECT_TRUE(SameBytes(g.rank_distance, w.rank_distance)) << what;
    EXPECT_EQ(std::memcmp(&g.footrule, &w.footrule, sizeof(double)), 0)
        << what;
  }
  EXPECT_TRUE(SameBytes(got.privacy.values(), want.privacy.values())) << what;
  EXPECT_TRUE(SameBytes(got.utility.values(), want.utility.values())) << what;
}

CensusData Census(size_t rows, uint64_t seed) {
  CensusConfig config;
  config.rows = rows;
  config.seed = seed;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  return std::move(census).value();
}

TEST(ValueOrderTest, ModelOfGeneralizationReleaseMatchesPerColumnPath) {
  for (uint64_t seed : {1u, 20261017u}) {
    // The census mixes string and numeric quasi-identifiers, and its
    // generalized numeric columns hold only labels.
    const CensusData census = Census(600, seed);
    DataflyConfig datafly;
    datafly.k = 5;
    auto generalized = DataflyAnonymize(census.data, census.hierarchies,
                                        datafly);
    ASSERT_TRUE(generalized.ok()) << generalized.status().ToString();
    const Anonymization& release = generalized->evaluation.anonymization;
    const EquivalencePartition& partition = generalized->evaluation.partition;
    auto got = PermutationModelFor(release, &partition);
    auto want = ReferenceModelFor(release, &partition);
    ASSERT_TRUE(got.ok() && want.ok()) << got.status().ToString();
    ExpectSameModel(*got, *want, "datafly seed=" + std::to_string(seed));

    // Without the partition both paths refuse the labels the same way.
    auto got_missing = PermutationModelFor(release, nullptr);
    auto want_missing = ReferenceModelFor(release, nullptr);
    ASSERT_FALSE(got_missing.ok());
    EXPECT_EQ(got_missing.status().ToString(),
              want_missing.status().ToString());

    MondrianConfig mondrian;
    mondrian.k = 4;
    auto partitioned = MondrianAnonymize(census.data, mondrian);
    ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
    got = PermutationModelFor(partitioned->anonymization,
                              &partitioned->partition);
    want = ReferenceModelFor(partitioned->anonymization,
                             &partitioned->partition);
    ASSERT_TRUE(got.ok() && want.ok()) << got.status().ToString();
    ExpectSameModel(*got, *want, "mondrian seed=" + std::to_string(seed));
  }
}

TEST(ValueOrderTest, ModelOfMixedCellReleaseMatchesPerColumnPath) {
  // A perturbative release of the census (numeric cells) in which some
  // rows of the age column carry a label: that column goes through the
  // reverse mapping, the others are read as they are.
  const CensusData census = Census(600, 3);
  PerturbConfig config;
  config.mechanism = PerturbMechanism::kRankSwap;
  config.swap_window = 0.05;
  auto perturbed = PerturbAnonymize(census.data, config);
  ASSERT_TRUE(perturbed.ok()) << perturbed.status().ToString();
  Anonymization release = perturbed->anonymization;
  ASSERT_FALSE(perturbed->perturbed_columns.empty());
  const size_t labeled = perturbed->perturbed_columns.front();
  for (size_t r = 0; r < release.release.row_count(); r += 7) {
    release.release.set_cell(r, labeled, Value("*"));
  }
  const EquivalencePartition partition =
      EquivalencePartition::FromAnonymization(release);
  auto got = PermutationModelFor(release, &partition);
  auto want = ReferenceModelFor(release, &partition);
  ASSERT_TRUE(got.ok() && want.ok()) << got.status().ToString();
  ExpectSameModel(*got, *want, "mixed cells");

  // Untouched, the perturbative release needs no partition.
  got = PermutationModelFor(perturbed->anonymization, nullptr);
  want = ReferenceModelFor(perturbed->anonymization, nullptr);
  ASSERT_TRUE(got.ok() && want.ok()) << got.status().ToString();
  ExpectSameModel(*got, *want, "perturbative");
}

// Both waves sort on pool workers: the perturb wave per column, the model
// wave per attribute. Their bytes must not depend on the worker count.
TEST(ValueOrderTest, WavesAreThreadInvariant) {
  std::vector<AttributeDef> attributes;
  for (int c = 0; c < 6; ++c) {
    AttributeDef attr;
    attr.name = "c" + std::to_string(c);
    attr.type = AttributeType::kReal;
    attr.role = AttributeRole::kQuasiIdentifier;
    attributes.push_back(attr);
  }
  auto schema = Schema::Create(std::move(attributes));
  ASSERT_TRUE(schema.ok());
  Dataset table(*schema);
  for (size_t r = 0; r < 5000; ++r) {
    Dataset::Row row;
    for (int c = 0; c < 6; ++c) {
      row.emplace_back(MixedColumn(1, r * 6 + c).front());
    }
    ASSERT_TRUE(table.AppendRow(std::move(row)).ok());
  }
  auto data = std::make_shared<const Dataset>(std::move(table));
  for (PerturbMechanism mechanism :
       {PerturbMechanism::kRankSwap, PerturbMechanism::kMicroaggregation}) {
    PerturbConfig config;
    config.mechanism = mechanism;
    config.threads = 1;
    auto serial = PerturbAnonymize(data, config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    auto serial_model = PermutationModelFor(serial->anonymization, nullptr);
    ASSERT_TRUE(serial_model.ok());
    for (int threads : {2, 4}) {
      config.threads = threads;
      auto parallel = PerturbAnonymize(data, config);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(parallel->anonymization.release.ToCsv(),
                serial->anonymization.release.ToCsv());
      PermutationMetricsOptions options;
      options.threads = threads;
      auto model =
          PermutationModelFor(parallel->anonymization, nullptr, options);
      ASSERT_TRUE(model.ok());
      ExpectSameModel(*model, *serial_model,
                      std::string(PerturbMechanismName(mechanism)) +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST(ValueOrderTest, GatherNumericReadsEveryColumnInOneSweep) {
  const CensusData census = Census(50, 4);
  const Dataset& data = *census.data;
  std::vector<size_t> columns;
  for (size_t c = 0; c < data.column_count(); ++c) columns.push_back(c);
  const Dataset::NumericColumns gathered = data.GatherNumeric(columns);
  ASSERT_EQ(gathered.values.size(), columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    const bool is_string =
        data.schema().attribute(columns[i]).type == AttributeType::kString;
    EXPECT_EQ(gathered.has_string[i], is_string) << i;
    if (is_string) continue;
    for (size_t r = 0; r < data.row_count(); ++r) {
      EXPECT_EQ(gathered.values[i][r], data.cell(r, columns[i]).AsNumber());
    }
  }
}

// ---------------------------------------------------------------------------
// Non-finite input: every mechanism refuses it before running.

TEST(ValueOrderTest, PerturbationRejectsNonFiniteCells) {
  AttributeDef value_column;
  value_column.name = "x";
  value_column.type = AttributeType::kReal;
  value_column.role = AttributeRole::kQuasiIdentifier;
  auto schema = Schema::Create({value_column});
  ASSERT_TRUE(schema.ok());
  auto data = Dataset::FromCsv(*schema, "x\n3\nnan\n1\ninf\n2\n5\n4\n-inf\n");
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_TRUE(std::isnan(data->cell(1, 0).AsNumber()));
  auto shared = std::make_shared<const Dataset>(std::move(data).value());
  for (PerturbMechanism mechanism :
       {PerturbMechanism::kNoise, PerturbMechanism::kRankSwap,
        PerturbMechanism::kMicroaggregation}) {
    PerturbConfig config;
    config.mechanism = mechanism;
    config.k = 2;
    config.swap_window = 0.5;
    auto result = PerturbAnonymize(shared, config);
    ASSERT_FALSE(result.ok()) << PerturbMechanismName(mechanism);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("'x'"), std::string::npos)
        << result.status().ToString();
  }
}

}  // namespace
}  // namespace mdc
