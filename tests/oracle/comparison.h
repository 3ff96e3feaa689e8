// Reference implementations of the comparison layer, for tests and
// benchmarks only (libmdc never links this library).
//
// libmdc scores every Table-4 relation and §5 index through the packed
// engine (core/compare_engine.h), the report battery (core/report.h) and
// the packed Pareto fronts (core/pareto.h). The functions here compute the
// same results element at a time through the scalar primitives of
// core/{dominance,quality_index,comparator}.h, serially and without
// budgets or counters. The differential tests require the production
// paths to equal them exactly (double ==).

#ifndef MDC_TESTS_ORACLE_COMPARISON_H_
#define MDC_TESTS_ORACLE_COMPARISON_H_

#include <memory>
#include <vector>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "common/status.h"
#include "core/comparator.h"
#include "core/compare_engine.h"
#include "core/dominance.h"
#include "core/property_matrix.h"
#include "core/report.h"

namespace mdc::oracle {

// Rows i and j of `rows` scored by the per-element scalar code. The rank
// fields are left at zero (AllPairsCompareScalar fills them).
PairComparison ComparePairScalar(const PropertySet& rows, size_t i, size_t j,
                                 bool include_hypervolume);

// Reference all-pairs: AllPairsCompare's result with every pair from
// ComparePairScalar and every rank from RankIndex. Rejects the same
// invalid inputs with InvalidArgument; `threads` and `block` are ignored.
StatusOr<AllPairsResult> AllPairsCompareScalar(const PropertyMatrix& matrix,
                                               const AllPairsOptions& options);

// The full §4-§5 battery, in report order: dominance, min, rank (only
// when `d_max` is non-empty), coverage, spread, hypervolume (only when
// `include_hypervolume`; the product overflows past ~1000 entries).
std::vector<std::unique_ptr<Comparator>> StandardComparators(
    PropertyVector d_max = PropertyVector(),
    bool include_hypervolume = false);

// CompareAnonymizations with every property scored by the
// StandardComparators battery, serially. Charges `run` one step per
// property; `options.threads` is ignored and no counters are touched.
StatusOr<ComparisonReport> CompareAnonymizationsScalar(
    const Anonymization& first, const EquivalencePartition& first_partition,
    const Anonymization& second,
    const EquivalencePartition& second_partition,
    const ComparisonOptions& options = {}, RunContext* run = nullptr);

// Serial Pareto fronts: indices of candidates not strongly dominated
// (set-level, Table 4) by any other; duplicates all survive. Aborts on
// misaligned candidates.
std::vector<size_t> ParetoFront(const std::vector<PropertySet>& candidates);

// Same over scalar objective tuples (higher is better everywhere).
std::vector<size_t> ParetoFrontScalar(
    const std::vector<std::vector<double>>& points);

}  // namespace mdc::oracle

#endif  // MDC_TESTS_ORACLE_COMPARISON_H_
