#include "oracle/comparison.h"

#include <string>

#include "core/bias.h"
#include "core/properties.h"
#include "core/quality_index.h"
#include "privacy/privacy_model.h"
#include "utility/loss_metric.h"

namespace mdc::oracle {
namespace {

// Strong dominance for scalar objective tuples.
bool Dominates(const std::vector<double>& a, const std::vector<double>& b) {
  MDC_CHECK_EQ(a.size(), b.size());
  bool strict = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return false;
    if (a[i] > b[i]) strict = true;
  }
  return strict;
}

template <typename DominatesFn>
std::vector<size_t> SerialFront(size_t count, const DominatesFn& dominates) {
  std::vector<size_t> front;
  for (size_t i = 0; i < count; ++i) {
    bool dominated = false;
    for (size_t j = 0; j < count; ++j) {
      if (i != j && dominates(j, i)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

struct NamedProperty {
  std::string name;
  PropertyVector first;
  PropertyVector second;
};

StatusOr<PropertyVector> UtilityVector(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) {
  if (anonymization.scheme.has_value()) {
    return LossMetric::PerTupleUtility(anonymization);
  }
  return ClassSpreadLoss::PerTupleUtility(anonymization, partition);
}

}  // namespace

PairComparison ComparePairScalar(const PropertySet& rows, size_t i, size_t j,
                                 bool include_hypervolume) {
  PairComparison pair;
  pair.first = i;
  pair.second = j;
  const PropertyVector& d1 = rows[i];
  const PropertyVector& d2 = rows[j];
  pair.relation = CompareDominance(d1, d2);
  pair.cov12 = CoverageIndex(d1, d2);
  pair.cov21 = CoverageIndex(d2, d1);
  pair.binary12 = StrictlyBetterCount(d1, d2);
  pair.binary21 = StrictlyBetterCount(d2, d1);
  pair.spr12 = SpreadIndex(d1, d2);
  pair.spr21 = SpreadIndex(d2, d1);
  pair.min1 = MinIndex(d1);
  pair.min2 = MinIndex(d2);
  if (include_hypervolume) {
    pair.hv12 = HypervolumeIndex(d1, d2);
    pair.hv21 = HypervolumeIndex(d2, d1);
  }
  return pair;
}

StatusOr<AllPairsResult> AllPairsCompareScalar(const PropertyMatrix& matrix,
                                               const AllPairsOptions& options) {
  if (matrix.empty()) {
    return Status::InvalidArgument("empty property matrix");
  }
  const bool with_rank = !options.d_max.empty();
  if (with_rank && options.d_max.size() != matrix.cols()) {
    return Status::InvalidArgument("rank ideal size does not match matrix");
  }
  const PropertySet rows = matrix.ToSet();
  if (options.include_hypervolume) {
    for (const PropertyVector& row : rows) {
      for (double value : row.values()) {
        if (!(value > 0.0)) {
          return Status::InvalidArgument(
              "hypervolume indices require strictly positive entries");
        }
      }
    }
  }
  AllPairsResult result;
  result.rows = matrix.rows();
  result.cols = matrix.cols();
  if (with_rank) {
    for (const PropertyVector& row : rows) {
      result.ranks.push_back(RankIndex(row, options.d_max, options.rank_p));
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      PairComparison pair =
          ComparePairScalar(rows, i, j, options.include_hypervolume);
      if (with_rank) {
        pair.rank1 = result.ranks[i];
        pair.rank2 = result.ranks[j];
      }
      result.pairs.push_back(pair);
    }
  }
  return result;
}

std::vector<std::unique_ptr<Comparator>> StandardComparators(
    PropertyVector d_max, bool include_hypervolume) {
  std::vector<std::unique_ptr<Comparator>> battery;
  battery.push_back(MakeDominanceComparator());
  battery.push_back(MakeMinComparator());
  if (!d_max.empty()) {
    battery.push_back(MakeRankComparator(std::move(d_max)));
  }
  battery.push_back(MakeCoverageComparator());
  battery.push_back(MakeSpreadComparator());
  if (include_hypervolume) {
    battery.push_back(MakeHypervolumeComparator());
  }
  return battery;
}

StatusOr<ComparisonReport> CompareAnonymizationsScalar(
    const Anonymization& first, const EquivalencePartition& first_partition,
    const Anonymization& second,
    const EquivalencePartition& second_partition,
    const ComparisonOptions& options, RunContext* run) {
  MDC_RETURN_IF_ERROR(RunContext::Check(run));
  if (first.row_count() != second.row_count()) {
    return Status::InvalidArgument(
        "anonymizations cover data sets of different sizes");
  }
  if (first.row_count() == 0) {
    return Status::InvalidArgument("empty anonymizations");
  }

  std::vector<NamedProperty> properties;
  PropertyVector first_sizes = EquivalenceClassSizeVector(first_partition);
  PropertyVector second_sizes = EquivalenceClassSizeVector(second_partition);
  properties.push_back({"equivalence-class-size", first_sizes, second_sizes});

  auto sensitive_column = ResolveSensitiveColumn(
      first.original->schema(), options.sensitive_column);
  if (sensitive_column.ok()) {
    MDC_ASSIGN_OR_RETURN(
        PropertyVector first_counts,
        SensitiveCountVector(first, first_partition, *sensitive_column));
    MDC_ASSIGN_OR_RETURN(
        PropertyVector second_counts,
        SensitiveCountVector(second, second_partition, *sensitive_column));
    properties.push_back({"sensitive-rarity",
                          first_counts.Negated("sensitive-rarity"),
                          second_counts.Negated("sensitive-rarity")});
  } else if (options.sensitive_column.has_value()) {
    return sensitive_column.status();
  }

  if (options.include_utility) {
    MDC_ASSIGN_OR_RETURN(PropertyVector first_utility,
                         UtilityVector(first, first_partition));
    MDC_ASSIGN_OR_RETURN(PropertyVector second_utility,
                         UtilityVector(second, second_partition));
    properties.push_back({"per-tuple-utility", std::move(first_utility),
                          std::move(second_utility)});
  }

  ComparisonReport report;
  report.first_name = first.algorithm.empty() ? "first" : first.algorithm;
  report.second_name = second.algorithm.empty() ? "second" : second.algorithm;
  if (report.first_name == report.second_name) {
    report.first_name += "#1";
    report.second_name += "#2";
  }
  report.first_bias = ComputeBias(first_sizes);
  report.second_bias = ComputeBias(second_sizes);

  PropertyVector d_max;
  if (options.include_rank) {
    d_max = PropertyVector(
        "ideal", std::vector<double>(first.row_count(),
                                     static_cast<double>(first.row_count())));
  }
  for (const NamedProperty& property : properties) {
    MDC_RETURN_IF_ERROR(RunContext::Check(run));
    report.properties.push_back(property.name);
    // The rank ideal only makes sense for the class-size property.
    PropertyVector ideal =
        property.name == "equivalence-class-size" ? d_max : PropertyVector();
    for (const auto& comparator :
         StandardComparators(std::move(ideal), /*include_hypervolume=*/false)) {
      ComparatorOutcome outcome =
          comparator->Compare(property.first, property.second);
      if (outcome == ComparatorOutcome::kFirstBetter) ++report.net_score;
      if (outcome == ComparatorOutcome::kSecondBetter) --report.net_score;
      report.verdicts.push_back({property.name, comparator->Name(), outcome});
    }
  }
  return report;
}

std::vector<size_t> ParetoFront(const std::vector<PropertySet>& candidates) {
  return SerialFront(candidates.size(), [&](size_t j, size_t i) {
    return StronglyDominates(candidates[j], candidates[i]);
  });
}

std::vector<size_t> ParetoFrontScalar(
    const std::vector<std::vector<double>>& points) {
  return SerialFront(points.size(), [&](size_t j, size_t i) {
    return Dominates(points[j], points[i]);
  });
}

}  // namespace mdc::oracle
