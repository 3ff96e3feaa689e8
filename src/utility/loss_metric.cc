#include "utility/loss_metric.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>

#include "hierarchy/hierarchy.h"

namespace mdc {
namespace {

Status RequireScheme(const Anonymization& anonymization) {
  if (!anonymization.scheme.has_value()) {
    return Status::FailedPrecondition(
        "LossMetric requires a full-domain scheme (use ClassSpreadLoss for "
        "multidimensional releases)");
  }
  return Status::Ok();
}

// The LM charge of `label`, which covers `covered` of its column's `total`
// distinct present values: (covered-1)/(M-1). Every path computes its
// charges here. A column with at most one present value charges nothing.
StatusOr<double> Charge(size_t covered, size_t total,
                        const std::string& label) {
  if (total <= 1) return 0.0;
  if (covered == 0) {
    return Status::Internal("label '" + label +
                            "' covers no present value of its column");
  }
  return static_cast<double>(covered - 1) / static_cast<double>(total - 1);
}

std::vector<double> UtilityFromLoss(size_t qi_count,
                                    const std::vector<double>& loss) {
  const double qi = static_cast<double>(qi_count);
  std::vector<double> utility(loss.size());
  for (size_t i = 0; i < loss.size(); ++i) utility[i] = qi - loss[i];
  return utility;
}

}  // namespace

StatusOr<double> LossMetric::LabelLoss(const Anonymization& anonymization,
                                       size_t column,
                                       const std::string& label) {
  MDC_RETURN_IF_ERROR(RequireScheme(anonymization));
  const ValueHierarchy* hierarchy =
      anonymization.scheme->hierarchies().ForColumn(column);
  if (hierarchy == nullptr) {
    return Status::InvalidArgument("column has no hierarchy in the scheme");
  }
  std::vector<Value> distinct = anonymization.original->DistinctValues(column);
  size_t covered = 0;
  for (const Value& v : distinct) {
    if (hierarchy->Covers(label, v)) ++covered;
  }
  return Charge(covered, distinct.size(), label);
}

StatusOr<PropertyVector> LossMetric::PerTupleLoss(
    const Anonymization& anonymization) {
  MDC_RETURN_IF_ERROR(RequireScheme(anonymization));
  const size_t rows = anonymization.row_count();
  std::vector<double> loss(rows, 0.0);
  for (size_t column : anonymization.qi_columns) {
    const ValueHierarchy* hierarchy =
        anonymization.scheme->hierarchies().ForColumn(column);
    if (hierarchy == nullptr) {
      return Status::InvalidArgument("column has no hierarchy in the scheme");
    }
    const std::vector<Value> distinct =
        anonymization.original->DistinctValues(column);
    if (distinct.size() <= 1) continue;  // Every charge is 0.
    const std::unordered_map<std::string, size_t> coverage =
        CountLabelCoverage(*hierarchy, distinct);
    // Charge per label; full-domain releases have few labels.
    std::unordered_map<std::string, double> label_loss;
    for (size_t r = 0; r < rows; ++r) {
      const std::string& label =
          anonymization.release.cell(r, column).AsString();
      auto it = label_loss.find(label);
      if (it == label_loss.end()) {
        auto covered = coverage.find(label);
        MDC_ASSIGN_OR_RETURN(
            double charge,
            Charge(covered == coverage.end() ? 0 : covered->second,
                   distinct.size(), label));
        it = label_loss.emplace(label, charge).first;
      }
      loss[r] += it->second;
    }
  }
  return PropertyVector("lm-loss", std::move(loss));
}

StatusOr<PropertyVector> LossMetric::PerTupleUtility(
    const Anonymization& anonymization) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss, PerTupleLoss(anonymization));
  return PropertyVector(
      "lm-utility",
      UtilityFromLoss(anonymization.qi_columns.size(), loss.values()));
}

StatusOr<PropertyVector> LossMetric::PerTupleUtility(
    const LevelCodec& codec, const LatticeNode& node,
    const std::vector<std::vector<uint32_t>>& label_codes, size_t rows) {
  // Pool workers call this once per lattice node; reuse the charge table.
  static thread_local std::vector<double> charges;
  std::vector<double> loss(rows, 0.0);
  for (size_t pos = 0; pos < label_codes.size(); ++pos) {
    const LevelCodeTable& table = codec.table(pos, node[pos]);
    const size_t total = table.value_to_label.size();
    // A negative charge marks a label that covers nothing: an error only
    // where a row carries it, exactly like the string path.
    charges.resize(table.labels.size());
    for (size_t code = 0; code < table.labels.size(); ++code) {
      StatusOr<double> charge =
          Charge(table.label_coverage[code], total, table.labels[code]);
      charges[code] = charge.ok() ? *charge : -1.0;
    }
    const std::vector<uint32_t>& codes = label_codes[pos];
    for (size_t r = 0; r < rows; ++r) {
      const double charge = charges[codes[r]];
      if (charge < 0.0) {
        return Charge(0, total, table.labels[codes[r]]).status();
      }
      loss[r] += charge;
    }
  }
  return PropertyVector("lm-utility",
                        UtilityFromLoss(label_codes.size(), loss));
}

StatusOr<double> LossMetric::TotalLoss(const Anonymization& anonymization) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss, PerTupleLoss(anonymization));
  return loss.Sum();
}

StatusOr<PropertyVector> ClassSpreadLoss::PerTupleLoss(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) {
  const Dataset& original = *anonymization.original;
  const Schema& schema = original.schema();
  const size_t rows = anonymization.row_count();
  if (partition.row_count() != rows) {
    return Status::InvalidArgument("partition arity mismatch");
  }
  std::vector<double> loss(rows, 0.0);

  for (size_t column : anonymization.qi_columns) {
    const bool is_string =
        schema.attribute(column).type == AttributeType::kString;
    double global_spread = 1.0;
    size_t global_distinct = original.DistinctValues(column).size();
    if (!is_string) {
      MDC_ASSIGN_OR_RETURN(auto range, original.NumericRange(column));
      global_spread = range.second - range.first;
    }

    for (size_t class_id = 0; class_id < partition.class_count();
         ++class_id) {
      ClassSpan members = partition.class_members(class_id);
      double charge = 0.0;
      bool class_suppressed = true;
      for (size_t row : members) {
        if (!anonymization.suppressed[row]) {
          class_suppressed = false;
          break;
        }
      }
      if (class_suppressed) {
        charge = 1.0;
      } else if (is_string) {
        std::map<std::string, bool> distinct;
        for (size_t row : members) {
          distinct[original.cell(row, column).AsString()] = true;
        }
        charge = global_distinct <= 1
                     ? 0.0
                     : static_cast<double>(distinct.size() - 1) /
                           static_cast<double>(global_distinct - 1);
      } else {
        double lo = original.cell(members[0], column).AsNumber();
        double hi = lo;
        for (size_t row : members) {
          double v = original.cell(row, column).AsNumber();
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        charge = global_spread <= 0.0 ? 0.0 : (hi - lo) / global_spread;
      }
      for (size_t row : members) loss[row] += charge;
    }
  }
  return PropertyVector("class-spread-loss", std::move(loss));
}

StatusOr<PropertyVector> ClassSpreadLoss::PerTupleUtility(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss,
                       PerTupleLoss(anonymization, partition));
  const double qi = static_cast<double>(anonymization.qi_columns.size());
  std::vector<double> utility(loss.size());
  for (size_t i = 0; i < loss.size(); ++i) utility[i] = qi - loss[i];
  return PropertyVector("class-spread-utility", std::move(utility));
}

StatusOr<double> ClassSpreadLoss::TotalLoss(
    const Anonymization& anonymization,
    const EquivalencePartition& partition) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss,
                       PerTupleLoss(anonymization, partition));
  return loss.Sum();
}

}  // namespace mdc
