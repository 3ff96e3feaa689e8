#include "utility/entropy_loss.h"

#include <cmath>
#include <unordered_map>

#include "hierarchy/hierarchy.h"

namespace mdc {

StatusOr<PropertyVector> EntropyLoss::PerTupleLoss(
    const Anonymization& anonymization) {
  if (!anonymization.scheme.has_value()) {
    return Status::FailedPrecondition(
        "EntropyLoss requires a full-domain scheme");
  }
  const size_t rows = anonymization.row_count();
  const size_t qi = anonymization.qi_columns.size();
  if (qi == 0) {
    return Status::FailedPrecondition("no quasi-identifier columns");
  }
  std::vector<double> loss(rows, 0.0);
  for (size_t column : anonymization.qi_columns) {
    const ValueHierarchy* hierarchy =
        anonymization.scheme->hierarchies().ForColumn(column);
    if (hierarchy == nullptr) {
      return Status::InvalidArgument("column has no hierarchy in the scheme");
    }
    std::vector<Value> distinct =
        anonymization.original->DistinctValues(column);
    const double total = static_cast<double>(distinct.size());
    if (total <= 1.0) continue;  // A constant column loses nothing.
    const double denom = std::log2(total);

    const std::unordered_map<std::string, size_t> coverage =
        CountLabelCoverage(*hierarchy, distinct);
    std::unordered_map<std::string, double> label_charge;
    for (size_t r = 0; r < rows; ++r) {
      const std::string& label =
          anonymization.release.cell(r, column).AsString();
      auto it = label_charge.find(label);
      if (it == label_charge.end()) {
        auto covered = coverage.find(label);
        if (covered == coverage.end()) {
          return Status::Internal("label '" + label +
                                  "' covers no present value");
        }
        double charge =
            std::log2(static_cast<double>(covered->second)) / denom;
        it = label_charge.emplace(label, charge).first;
      }
      loss[r] += it->second / static_cast<double>(qi);
    }
  }
  return PropertyVector("entropy-loss", std::move(loss));
}

StatusOr<PropertyVector> EntropyLoss::PerTupleUtility(
    const Anonymization& anonymization) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss, PerTupleLoss(anonymization));
  std::vector<double> utility(loss.size());
  for (size_t i = 0; i < loss.size(); ++i) utility[i] = 1.0 - loss[i];
  return PropertyVector("entropy-utility", std::move(utility));
}

StatusOr<double> EntropyLoss::TotalLoss(const Anonymization& anonymization) {
  MDC_ASSIGN_OR_RETURN(PropertyVector loss, PerTupleLoss(anonymization));
  return loss.Sum();
}

}  // namespace mdc
