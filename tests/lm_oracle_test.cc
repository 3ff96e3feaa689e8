// LM coverage oracle. Label coverage is counted once per column
// (CountLabelCoverage, LevelCodeTable::label_coverage) instead of testing
// Covers per label; every consumer of those counts must agree bit for bit
// with a reference built from the Covers-based LossMetric::LabelLoss:
//   - LossMetric::PerTupleLoss on a string release,
//   - EntropyLoss::PerTupleLoss on a string release,
//   - the code-space LossMetric::PerTupleUtility, alone and inside
//     EncodedNodeEvaluator::Score(),
//   - ParetoLatticeSearch, which scores every node in code space.
// Workloads: every node of the 972-node census lattice at 60 and 300 rows
// on two seeds, raw and with suppression; the paper's Table 3 releases; a
// hand-built unbalanced taxonomy; and a taxonomy whose root is not "*".

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anonymize/encoded_eval.h"
#include "anonymize/equivalence.h"
#include "anonymize/full_domain.h"
#include "anonymize/generalizer.h"
#include "anonymize/pareto_lattice.h"
#include "common/metrics.h"
#include "common/run_context.h"
#include "core/pareto.h"
#include "core/properties.h"
#include "datagen/census_generator.h"
#include "hierarchy/suffix_hierarchy.h"
#include "hierarchy/taxonomy_hierarchy.h"
#include "paper/paper_data.h"
#include "table/schema.h"
#include "utility/entropy_loss.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Covers-based reference over the releases of one original dataset,
// memoized per (column, label) so a full lattice sweep stays fast.
class Reference {
 public:
  // Per-tuple LM loss from LossMetric::LabelLoss charges, summed in
  // qi_columns order from 0.0.
  StatusOr<std::vector<double>> LmLoss(const Anonymization& release) {
    std::vector<double> loss(release.row_count(), 0.0);
    for (size_t column : release.qi_columns) {
      for (size_t r = 0; r < release.row_count(); ++r) {
        const std::string& label = release.release.cell(r, column).AsString();
        auto key = std::make_pair(column, label);
        auto it = label_loss_.find(key);
        if (it == label_loss_.end()) {
          it = label_loss_
                   .emplace(key, LossMetric::LabelLoss(release, column, label))
                   .first;
        }
        if (!it->second.ok()) return it->second.status();
        loss[r] += *it->second;
      }
    }
    return loss;
  }

  StatusOr<std::vector<double>> LmUtility(const Anonymization& release) {
    MDC_ASSIGN_OR_RETURN(std::vector<double> loss, LmLoss(release));
    const double qi = static_cast<double>(release.qi_columns.size());
    for (double& value : loss) value = qi - value;
    return loss;
  }

  // Per-tuple entropy loss with each label's coverage found by Covers over
  // every present value (EntropyLoss as it was before counted coverage).
  StatusOr<std::vector<double>> EntropyLoss(const Anonymization& release) {
    const size_t qi = release.qi_columns.size();
    std::vector<double> loss(release.row_count(), 0.0);
    for (size_t column : release.qi_columns) {
      const ValueHierarchy* hierarchy =
          release.scheme->hierarchies().ForColumn(column);
      std::vector<Value> distinct = release.original->DistinctValues(column);
      if (distinct.size() <= 1) continue;
      const double denom = std::log2(static_cast<double>(distinct.size()));
      for (size_t r = 0; r < release.row_count(); ++r) {
        const std::string& label = release.release.cell(r, column).AsString();
        auto key = std::make_pair(column, label);
        auto it = covered_.find(key);
        if (it == covered_.end()) {
          size_t covered = 0;
          for (const Value& v : distinct) {
            if (hierarchy->Covers(label, v)) ++covered;
          }
          it = covered_.emplace(key, covered).first;
        }
        if (it->second == 0) {
          return Status::Internal("label '" + label +
                                  "' covers no present value");
        }
        double charge = std::log2(static_cast<double>(it->second)) / denom;
        loss[r] += charge / static_cast<double>(qi);
      }
    }
    return loss;
  }

 private:
  std::map<std::pair<size_t, std::string>, StatusOr<double>> label_loss_;
  std::map<std::pair<size_t, std::string>, size_t> covered_;
};

template <typename T, typename U>
void ExpectSameOutcome(const StatusOr<T>& expected, const StatusOr<U>& actual,
                       const char* what) {
  ASSERT_EQ(expected.ok(), actual.ok())
      << what << ": expected "
      << (expected.ok() ? "ok" : expected.status().ToString()) << ", got "
      << (actual.ok() ? "ok" : actual.status().ToString());
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().ToString(), actual.status().ToString())
        << what;
  }
}

// The code-space LM of `release`, the release of `node`: its label codes
// gathered from the codec tables, suppressed rows starred.
StatusOr<PropertyVector> CodeSpaceUtility(const EncodedNodeEvaluator& evaluator,
                                          const LatticeNode& node,
                                          const Anonymization& release) {
  const size_t rows = evaluator.row_count();
  std::vector<std::vector<uint32_t>> label_codes(node.size());
  for (size_t pos = 0; pos < node.size(); ++pos) {
    const LevelCodeTable& table = evaluator.codec().table(pos, node[pos]);
    for (size_t r = 0; r < rows; ++r) {
      label_codes[pos].push_back(
          release.suppressed[r]
              ? table.star_code
              : table.value_to_label[evaluator.view().codes(pos)[r]]);
    }
  }
  return LossMetric::PerTupleUtility(evaluator.codec(), node, label_codes,
                                     rows);
}

// Checks every counted-coverage path on `release`, the release of `node`
// over `evaluator`'s dataset, against the reference.
void ExpectMatchesReference(Reference& reference,
                            const EncodedNodeEvaluator& evaluator,
                            const LatticeNode& node,
                            const Anonymization& release) {
  StatusOr<std::vector<double>> expected_loss = reference.LmLoss(release);
  StatusOr<std::vector<double>> expected_utility =
      reference.LmUtility(release);
  StatusOr<std::vector<double>> expected_entropy =
      reference.EntropyLoss(release);

  auto string_loss = LossMetric::PerTupleLoss(release);
  auto code_utility = CodeSpaceUtility(evaluator, node, release);
  auto entropy = EntropyLoss::PerTupleLoss(release);

  ExpectSameOutcome(expected_loss, string_loss, "string PerTupleLoss");
  ExpectSameOutcome(expected_utility, code_utility, "code-space utility");
  ExpectSameOutcome(expected_entropy, entropy, "EntropyLoss");
  if (expected_loss.ok() && string_loss.ok()) {
    EXPECT_TRUE(SameBits(*expected_loss, string_loss->values()));
  }
  if (expected_utility.ok() && code_utility.ok()) {
    EXPECT_TRUE(SameBits(*expected_utility, code_utility->values()));
    EXPECT_EQ(code_utility->name(), "lm-utility");
  }
  if (release.SuppressedCount() == 0) {
    // What the Pareto sweep scores the raw release by.
    auto scored = evaluator.Score(node);
    ASSERT_TRUE(scored.ok()) << scored.status().ToString();
    ASSERT_TRUE(expected_utility.ok());
    EXPECT_TRUE(SameBits(*expected_utility, scored->lm_utility.values()));
  }
  if (expected_entropy.ok() && entropy.ok()) {
    EXPECT_TRUE(SameBits(*expected_entropy, entropy->values()));
  }
}

// Sweeps every node of `hierarchies`' lattice over `data`: the raw release
// (Evaluate at k = 1, then Materialize) and, where Evaluate at `k` within
// `budget` suppresses rows, the suppressed release. Returns the number of
// suppressed releases checked.
size_t SweepLattice(const std::shared_ptr<const Dataset>& data,
                    const HierarchySet& hierarchies, int k,
                    SuppressionBudget budget, size_t expected_nodes) {
  auto lattice = Lattice::ForHierarchies(hierarchies);
  MDC_CHECK(lattice.ok());
  EXPECT_EQ(lattice->NodeCount(), expected_nodes);
  auto evaluator = EncodedNodeEvaluator::Build(data, hierarchies);
  MDC_CHECK(evaluator.ok());
  Reference reference;
  size_t suppressed_releases = 0;
  for (const LatticeNode& node : lattice->AllNodesByHeight()) {
    auto raw = evaluator->Evaluate(node, 1, SuppressionBudget{});
    MDC_CHECK(raw.ok());
    auto raw_release = evaluator->Materialize(node, *raw, "oracle");
    MDC_CHECK(raw_release.ok());
    ExpectMatchesReference(reference, *evaluator, node,
                           raw_release->anonymization);

    auto evaluation = evaluator->Evaluate(node, k, budget);
    MDC_CHECK(evaluation.ok());
    if (evaluation->suppressed_count == 0) continue;
    ++suppressed_releases;
    auto release = evaluator->Materialize(node, *evaluation, "oracle");
    MDC_CHECK(release.ok());
    ExpectMatchesReference(reference, *evaluator, node,
                           release->anonymization);
  }
  return suppressed_releases;
}

CensusData Census(size_t rows, uint64_t seed) {
  CensusConfig config;
  config.rows = rows;
  config.seed = seed;
  config.with_occupation = true;  // 5 QIs: the 972-node lattice.
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  return std::move(census).value();
}

TEST(LmOracleTest, CensusLatticeRawAndSuppressed) {
  struct Case {
    size_t rows;
    uint64_t seed;
    size_t suppressed_releases = 0;
  };
  std::vector<Case> cases = {{60, 1}, {60, 20261017}, {300, 1},
                             {300, 20261017}};
  // The four sweeps are independent; run them side by side to keep the
  // test short (the string paths are pure, the code path thread-safe).
  std::vector<std::thread> workers;
  for (Case& c : cases) {
    workers.emplace_back([&c] {
      SCOPED_TRACE("rows=" + std::to_string(c.rows) +
                   " seed=" + std::to_string(c.seed));
      CensusData census = Census(c.rows, c.seed);
      c.suppressed_releases = SweepLattice(
          census.data, census.hierarchies, 5, SuppressionBudget{0.1}, 972);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const Case& c : cases) EXPECT_GT(c.suppressed_releases, 0u) << c.rows;
}

TEST(LmOracleTest, PaperTable3Releases) {
  for (auto factory : {&paper::MakeT3a, &paper::MakeT3b, &paper::MakeT4}) {
    auto release = factory();
    ASSERT_TRUE(release.ok());
    auto evaluator = EncodedNodeEvaluator::Build(
        release->original, release->scheme->hierarchies());
    ASSERT_TRUE(evaluator.ok());
    Reference reference;
    ExpectMatchesReference(reference, *evaluator, release->scheme->levels(),
                           *release);
  }
}

// One QI column over `tree` (string values `values`, one per row) plus a
// 3-digit suffix-coded QI column.
struct SmallWorkload {
  std::shared_ptr<const Dataset> data;
  HierarchySet hierarchies;
};

SmallWorkload MakeSmall(const TaxonomyHierarchy& tree,
                        const std::vector<std::string>& values) {
  auto schema = ParseSchemaSpec("kind:string:qi,code:string:qi");
  MDC_CHECK(schema.ok());
  auto data = std::make_shared<Dataset>(*schema);
  const char* codes[] = {"123", "124", "135", "246"};
  for (size_t r = 0; r < values.size(); ++r) {
    MDC_CHECK(
        data->AppendRow({Value(values[r]), Value(std::string(codes[r % 4]))})
            .ok());
  }
  SmallWorkload workload;
  workload.data = data;
  MDC_CHECK(workload.hierarchies
                .Bind(0, std::make_shared<TaxonomyHierarchy>(tree))
                .ok());
  auto suffix = SuffixHierarchy::Create(3);
  MDC_CHECK(suffix.ok());
  MDC_CHECK(workload.hierarchies
                .Bind(1, std::make_shared<SuffixHierarchy>(*suffix))
                .ok());
  return workload;
}

// Leaves at depths 1, 2 and 3. The shallow leaf "c" reaches the root "*"
// at level 1, two levels below height() = 3, so "*" at level 1 covers the
// other leaves too although no level-1 label of theirs is "*". Likewise
// "B" at level 1 (from "b3") covers "b1" and "b2", whose level-1 label is
// "B1".
TaxonomyHierarchy UnbalancedTree() {
  auto tree = TaxonomyHierarchy::Builder()
                  .Add("A", "*")
                  .Add("B", "*")
                  .Add("c", "*")
                  .Add("a1", "A")
                  .Add("a2", "A")
                  .Add("B1", "B")
                  .Add("b3", "B")
                  .Add("b1", "B1")
                  .Add("b2", "B1")
                  .Build();
  MDC_CHECK(tree.ok());
  return std::move(tree).value();
}

TEST(LmOracleTest, UnbalancedTaxonomy) {
  TaxonomyHierarchy tree = UnbalancedTree();
  ASSERT_EQ(tree.height(), 3);
  SmallWorkload workload =
      MakeSmall(tree, {"a1", "a2", "b1", "b2", "c", "a1", "b1", "c", "a2",
                       "b2", "a1", "c", "b3", "b3"});
  // 4 x 4 levels; k = 3 within 40% suppresses rows at low nodes.
  size_t suppressed = SweepLattice(workload.data, workload.hierarchies, 3,
                                   SuppressionBudget{0.4}, 16);
  EXPECT_GT(suppressed, 0u);

  // The level-1 table counts "*" over all six present leaves and "B" over
  // its three.
  auto evaluator = EncodedNodeEvaluator::Build(workload.data,
                                               workload.hierarchies);
  ASSERT_TRUE(evaluator.ok());
  const LevelCodeTable& level1 = evaluator->codec().table(0, 1);
  EXPECT_EQ(level1.label_coverage[level1.star_code], 6u);
  auto b = std::lower_bound(level1.labels.begin(), level1.labels.end(), "B");
  ASSERT_TRUE(b != level1.labels.end() && *b == "B");
  EXPECT_EQ(level1.label_coverage[static_cast<size_t>(
                b - level1.labels.begin())],
            3u);
}

// CountLabelCoverage against a direct Covers count for every label any
// level produces, on every hierarchy type.
TEST(LmOracleTest, CountLabelCoverageEqualsCoversCount) {
  std::vector<std::pair<const ValueHierarchy*, std::vector<Value>>> cases;
  CensusData census = Census(300, 1);
  for (size_t pos = 0; pos < census.hierarchies.size(); ++pos) {
    cases.emplace_back(
        &census.hierarchies.At(pos),
        census.data->DistinctValues(census.hierarchies.columns()[pos]));
  }
  TaxonomyHierarchy tree = UnbalancedTree();
  cases.emplace_back(&tree,
                     std::vector<Value>{Value("a1"), Value("b2"), Value("c"),
                                        Value("b1"), Value("b3")});
  for (const auto& [hierarchy, values] : cases) {
    SCOPED_TRACE(hierarchy->Describe());
    auto coverage = CountLabelCoverage(*hierarchy, values);
    size_t labels_seen = 0;
    for (int level = 0; level <= hierarchy->height(); ++level) {
      for (const Value& value : values) {
        auto label = hierarchy->Generalize(value, level);
        ASSERT_TRUE(label.ok());
        size_t covered = 0;
        for (const Value& v : values) {
          if (hierarchy->Covers(*label, v)) ++covered;
        }
        EXPECT_EQ(coverage[*label], covered) << *label;
        ++labels_seen;
      }
    }
    EXPECT_GT(labels_seen, 0u);
  }
}

// A root other than "*": a suppressed row's "*" covers nothing, so every
// path must fail with LabelLoss's Internal status.
TEST(LmOracleTest, SuppressedStarUnderNonStarRootFails) {
  auto tree = TaxonomyHierarchy::Builder("ANY")
                  .Add("x", "ANY")
                  .Add("y", "ANY")
                  .Add("z", "ANY")
                  .Build();
  ASSERT_TRUE(tree.ok());
  SmallWorkload workload = MakeSmall(*tree, {"x", "x", "y", "y", "z"});
  auto evaluator = EncodedNodeEvaluator::Build(workload.data,
                                               workload.hierarchies);
  ASSERT_TRUE(evaluator.ok());
  const LatticeNode node = {0, 3};  // Codes fully generalized.
  auto evaluation = evaluator->Evaluate(node, 2, SuppressionBudget{0.2});
  ASSERT_TRUE(evaluation.ok());
  ASSERT_EQ(evaluation->suppressed_count, 1u);
  auto release = evaluator->Materialize(node, *evaluation, "oracle");
  ASSERT_TRUE(release.ok());

  auto oracle = LossMetric::LabelLoss(release->anonymization, 0, "*");
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kInternal);
  auto string_loss = LossMetric::PerTupleLoss(release->anonymization);
  ASSERT_FALSE(string_loss.ok());
  EXPECT_EQ(string_loss.status().ToString(), oracle.status().ToString());
  auto code_utility =
      CodeSpaceUtility(*evaluator, node, release->anonymization);
  ASSERT_FALSE(code_utility.ok());
  EXPECT_EQ(code_utility.status().ToString(), oracle.status().ToString());

  Reference reference;
  ExpectMatchesReference(reference, *evaluator, node,
                         release->anonymization);
  auto entropy = EntropyLoss::PerTupleLoss(release->anonymization);
  ASSERT_FALSE(entropy.ok());
  EXPECT_EQ(entropy.status().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------ pareto sweep

uint64_t MaterializedCount() {
  return metrics::Snapshot().counters["eval.materialized"];
}

// The sweep as it was before code-space scoring: every node materialized
// through Generalizer::Apply and scored by the string LM path.
std::vector<ParetoCandidate> StringPathCandidates(const CensusData& census) {
  auto lattice = Lattice::ForHierarchies(census.hierarchies);
  MDC_CHECK(lattice.ok());
  std::vector<ParetoCandidate> candidates;
  for (const LatticeNode& node : lattice->AllNodesByHeight()) {
    auto scheme = GeneralizationScheme::Create(census.hierarchies, node);
    MDC_CHECK(scheme.ok());
    auto release = Generalizer::Apply(census.data, *scheme, "pareto");
    MDC_CHECK(release.ok());
    PropertyVector sizes = EquivalenceClassSizeVector(
        EquivalencePartition::FromAnonymization(*release));
    auto utility = LossMetric::PerTupleUtility(*release);
    MDC_CHECK(utility.ok());
    ParetoCandidate candidate;
    candidate.node = node;
    candidate.min_class_size = sizes.Min();
    candidate.total_utility = utility->Sum();
    candidate.properties = {std::move(sizes), std::move(utility).value()};
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

void ExpectSameCandidates(const std::vector<ParetoCandidate>& expected,
                          const std::vector<ParetoCandidate>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].node, actual[i].node) << i;
    EXPECT_TRUE(SameBits({expected[i].min_class_size,
                          expected[i].total_utility},
                         {actual[i].min_class_size, actual[i].total_utility}))
        << i;
    ASSERT_EQ(expected[i].properties.size(), actual[i].properties.size());
    for (size_t p = 0; p < expected[i].properties.size(); ++p) {
      EXPECT_EQ(expected[i].properties[p].name(),
                actual[i].properties[p].name());
      EXPECT_TRUE(SameBits(expected[i].properties[p].values(),
                           actual[i].properties[p].values()))
          << i << "/" << p;
    }
  }
}

TEST(LmOracleTest, ParetoSweepMatchesStringPathReference) {
  CensusData census = Census(60, 1);
  const std::vector<ParetoCandidate> reference = StringPathCandidates(census);
  ASSERT_EQ(reference.size(), 972u);
  std::vector<PropertySet> sets;
  std::vector<std::vector<double>> points;
  for (const ParetoCandidate& candidate : reference) {
    sets.push_back(candidate.properties);
    points.push_back({candidate.min_class_size, candidate.total_utility});
  }
  const std::vector<size_t> vector_front = ParetoFront(sets);
  const std::vector<size_t> scalar_front = ParetoFrontScalar(points);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParetoLatticeConfig config;
    config.threads = threads;
    const uint64_t materialized_before = MaterializedCount();
    auto result = ParetoLatticeSearch(census.data, census.hierarchies, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(MaterializedCount(), materialized_before);
    ExpectSameCandidates(reference, result->candidates);
    EXPECT_EQ(result->vector_front, vector_front);
    EXPECT_EQ(result->scalar_front, scalar_front);

    // A truncated sweep checkpoints the reference's prefix, byte for byte,
    // with the utility vectors still named "lm-utility".
    RunContext run;
    run.set_max_steps(300);
    ParetoLatticeCheckpoint checkpoint;
    auto truncated = ParetoLatticeSearch(census.data, census.hierarchies,
                                         config, &run, &checkpoint);
    ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
    ASSERT_TRUE(truncated->run_stats.truncated);
    ASSERT_TRUE(checkpoint.captured);
    ASSERT_GT(checkpoint.next_index, 0u);
    ASSERT_LT(checkpoint.next_index, reference.size());
    ParetoLatticeCheckpoint expected;
    expected.next_index = checkpoint.next_index;
    expected.candidates.assign(
        reference.begin(),
        reference.begin() + static_cast<std::ptrdiff_t>(checkpoint.next_index));
    expected.captured = true;
    auto expected_bytes = expected.SaveCheckpoint();
    auto bytes = checkpoint.SaveCheckpoint();
    ASSERT_TRUE(expected_bytes.ok());
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*expected_bytes, *bytes);
    EXPECT_NE(bytes->find("lm-utility"), std::string::npos);
    EXPECT_EQ(checkpoint.candidates.front().properties[1].name(),
              "lm-utility");
  }
}

}  // namespace
}  // namespace mdc
