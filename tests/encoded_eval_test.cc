// Encoded-evaluation oracle: the columnar EncodedNodeEvaluator must be
// observationally identical to the legacy string-path EvaluateNode — same
// partitions (class order, members, ClassOfRow), same feasibility and
// suppression decisions, same released tables — across randomized census
// datasets (interval, suffix, and taxonomy hierarchies), the paper's
// Table 1, and every node of each lattice.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/encoded_eval.h"
#include "anonymize/equivalence.h"
#include "anonymize/full_domain.h"
#include "common/rng.h"
#include "datagen/census_generator.h"
#include "oracle/evaluation.h"
#include "paper/paper_data.h"

namespace mdc {
namespace {

struct Workload {
  std::string name;
  std::shared_ptr<const Dataset> data;
  HierarchySet hierarchies;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  auto table1 = paper::Table1();
  MDC_CHECK(table1.ok());
  auto set_a = paper::HierarchySetA();
  MDC_CHECK(set_a.ok());
  out.push_back({"table1", *table1, std::move(set_a).value()});

  // Randomized census workloads: vary size, seed, zip fan-out and QI
  // count so every hierarchy type is exercised over several dictionaries.
  struct CensusCase {
    size_t rows;
    uint64_t seed;
    int zip_regions;
    bool with_occupation;
  };
  for (const CensusCase& census_case :
       {CensusCase{60, 7, 3, false}, CensusCase{120, 1234, 6, true},
        CensusCase{200, 99, 8, true}}) {
    CensusConfig config;
    config.rows = census_case.rows;
    config.seed = census_case.seed;
    config.zip_regions = census_case.zip_regions;
    config.with_occupation = census_case.with_occupation;
    auto census = GenerateCensus(config);
    MDC_CHECK(census.ok());
    out.push_back({"census_rows" + std::to_string(census_case.rows) +
                       "_seed" + std::to_string(census_case.seed),
                   census->data, std::move(census->hierarchies)});
  }
  return out;
}

void ExpectSamePartition(const EquivalencePartition& legacy,
                         const EquivalencePartition& encoded) {
  ASSERT_EQ(legacy.row_count(), encoded.row_count());
  ASSERT_EQ(legacy.class_count(), encoded.class_count());
  // classes() carries the full structure: class order AND member order.
  EXPECT_EQ(legacy.classes(), encoded.classes());
  for (size_t row = 0; row < legacy.row_count(); ++row) {
    ASSERT_EQ(legacy.ClassOfRow(row), encoded.ClassOfRow(row)) << row;
  }
  EXPECT_EQ(legacy.MinClassSize(), encoded.MinClassSize());
}

// Every node of every workload's lattice, at several (k, suppression)
// policies: Evaluate() must reproduce oracle::EvaluateNode()'s partition,
// suppression count and feasibility verdict, and Materialize() the full
// release, cell for cell.
TEST(EncodedEvalOracleTest, MatchesLegacyEvaluateNodeEverywhere) {
  for (const Workload& workload : Workloads()) {
    SCOPED_TRACE(workload.name);
    auto lattice = Lattice::ForHierarchies(workload.hierarchies);
    ASSERT_TRUE(lattice.ok());
    auto evaluator =
        EncodedNodeEvaluator::Build(workload.data, workload.hierarchies);
    ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();

    struct Policy {
      int k;
      double max_fraction;
    };
    for (const Policy& policy :
         {Policy{2, 0.0}, Policy{3, 0.05}, Policy{5, 0.2}}) {
      SCOPED_TRACE("k=" + std::to_string(policy.k) +
                   " supp=" + std::to_string(policy.max_fraction));
      SuppressionBudget budget{policy.max_fraction};
      for (const LatticeNode& node : lattice->AllNodesByHeight()) {
        auto legacy = oracle::EvaluateNode(workload.data, workload.hierarchies, node,
                                   policy.k, budget, "test");
        ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
        auto encoded = evaluator->Evaluate(node, policy.k, budget);
        ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();

        EXPECT_EQ(legacy->feasible, encoded->feasible);
        EXPECT_EQ(legacy->suppressed_count, encoded->suppressed_count);
        ExpectSamePartition(legacy->partition, encoded->partition);

        auto materialized = evaluator->Materialize(node, *encoded, "test");
        ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
        EXPECT_EQ(legacy->anonymization.release.ToCsv(),
                  materialized->anonymization.release.ToCsv());
        EXPECT_EQ(legacy->anonymization.suppressed,
                  materialized->anonymization.suppressed);
        ExpectSamePartition(legacy->partition, materialized->partition);
      }
    }
  }
}

// With nothing suppressed (k = 1), Evaluate + Materialize must equal the
// raw Generalizer::Apply release and its partition, and Score() that same
// partition (the Pareto search's input).
TEST(EncodedEvalOracleTest, UnsuppressedMaterializeMatchesApply) {
  for (const Workload& workload : Workloads()) {
    SCOPED_TRACE(workload.name);
    auto lattice = Lattice::ForHierarchies(workload.hierarchies);
    ASSERT_TRUE(lattice.ok());
    auto evaluator =
        EncodedNodeEvaluator::Build(workload.data, workload.hierarchies);
    ASSERT_TRUE(evaluator.ok());
    for (const LatticeNode& node : lattice->AllNodesByHeight()) {
      auto scheme = GeneralizationScheme::Create(workload.hierarchies, node);
      ASSERT_TRUE(scheme.ok());
      auto applied = Generalizer::Apply(workload.data, *scheme, "test");
      ASSERT_TRUE(applied.ok());
      EquivalencePartition legacy =
          EquivalencePartition::FromAnonymization(*applied);

      auto evaluation = evaluator->Evaluate(node, 1, SuppressionBudget{});
      ASSERT_TRUE(evaluation.ok()) << evaluation.status().ToString();
      ASSERT_EQ(evaluation->suppressed_count, 0u);
      auto materialized = evaluator->Materialize(node, *evaluation, "test");
      ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
      EXPECT_EQ(applied->release.ToCsv(),
                materialized->anonymization.release.ToCsv());
      ExpectSamePartition(legacy, materialized->partition);

      auto scored = evaluator->Score(node);
      ASSERT_TRUE(scored.ok()) << scored.status().ToString();
      ExpectSamePartition(legacy, scored->partition);
    }
  }
}

// Bad node vectors must fail with the same Status text as the legacy
// scheme validation.
TEST(EncodedEvalOracleTest, ValidationErrorsMatchLegacy) {
  auto table1 = paper::Table1();
  ASSERT_TRUE(table1.ok());
  auto hierarchies = paper::HierarchySetA();
  ASSERT_TRUE(hierarchies.ok());
  auto evaluator = EncodedNodeEvaluator::Build(*table1, *hierarchies);
  ASSERT_TRUE(evaluator.ok());

  for (const LatticeNode& bad :
       {LatticeNode{0}, LatticeNode{0, 0, 99}, LatticeNode{-1, 0, 0}}) {
    auto legacy =
        oracle::EvaluateNode(*table1, *hierarchies, bad, 2, {}, "test");
    auto encoded = evaluator->Evaluate(bad, 2, {});
    ASSERT_FALSE(legacy.ok());
    ASSERT_FALSE(encoded.ok());
    EXPECT_EQ(legacy.status().ToString(), encoded.status().ToString());
  }
  auto legacy_k = oracle::EvaluateNode(*table1, *hierarchies, {0, 0, 0}, 0, {}, "t");
  auto encoded_k = evaluator->Evaluate({0, 0, 0}, 0, {});
  ASSERT_FALSE(legacy_k.ok());
  ASSERT_FALSE(encoded_k.ok());
  EXPECT_EQ(legacy_k.status().ToString(), encoded_k.status().ToString());
}

// FromCodeColumns' three key widths — one word, two words (__int128), and
// the map fallback — must group identically. Reference grouping computed
// with an ordered map over the full tuples.
TEST(FromCodeColumnsTest, AllKeyWidthsMatchReferenceGrouping) {
  struct Shape {
    size_t columns;
    uint32_t cardinality;  // Same for every column.
  };
  // 4 cols * 5 bits = 20 bits (uint64_t); 9 cols * 11 bits = 99 bits
  // (__int128); 12 cols * 11 bits = 132 bits (map fallback).
  for (const Shape& shape :
       {Shape{4, 20}, Shape{9, 1100}, Shape{12, 1100}}) {
    SCOPED_TRACE(std::to_string(shape.columns) + " cols, card " +
                 std::to_string(shape.cardinality));
    const size_t rows = 500;
    Rng rng(shape.columns * 1000 + shape.cardinality);
    std::vector<std::vector<uint32_t>> code_columns(
        shape.columns, std::vector<uint32_t>(rows));
    std::vector<uint32_t> cardinalities(shape.columns, shape.cardinality);
    for (auto& column : code_columns) {
      for (uint32_t& code : column) {
        // Small draw range so collisions (multi-row classes) are common.
        code = static_cast<uint32_t>(rng.NextBelow(7)) *
               (shape.cardinality / 8);
      }
    }

    std::map<std::vector<uint32_t>, std::vector<size_t>> reference;
    for (size_t row = 0; row < rows; ++row) {
      std::vector<uint32_t> key(shape.columns);
      for (size_t c = 0; c < shape.columns; ++c) {
        key[c] = code_columns[c][row];
      }
      reference[std::move(key)].push_back(row);
    }

    EquivalencePartition partition = EquivalencePartition::FromCodeColumns(
        rows, code_columns, cardinalities);
    ASSERT_EQ(partition.class_count(), reference.size());
    size_t class_id = 0;
    for (const auto& [key, members] : reference) {
      EXPECT_EQ(partition.class_members(class_id), members)
          << "class " << class_id;
      ++class_id;
    }
  }
}

}  // namespace
}  // namespace mdc
