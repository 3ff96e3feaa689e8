#include "oracle/evaluation.h"

#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "hierarchy/hierarchy.h"

namespace mdc::oracle {

StatusOr<NodeEvaluation> EvaluateNode(std::shared_ptr<const Dataset> original,
                                      const HierarchySet& hierarchies,
                                      const LatticeNode& node, int k,
                                      const SuppressionBudget& budget,
                                      std::string algorithm,
                                      RunContext* run) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  MDC_RETURN_IF_ERROR(RunContext::Check(run));
  MDC_FAILPOINT("full_domain.evaluate");
  MDC_METRIC_INC("eval.nodes_legacy");
  MDC_ASSIGN_OR_RETURN(GeneralizationScheme scheme,
                       GeneralizationScheme::Create(hierarchies, node));
  MDC_ASSIGN_OR_RETURN(
      Anonymization anonymization,
      Generalizer::Apply(std::move(original), scheme, std::move(algorithm)));

  EquivalencePartition partition =
      EquivalencePartition::FromAnonymization(anonymization);

  // Rows of classes smaller than k are suppression candidates.
  std::vector<size_t> to_suppress;
  for (ClassSpan members : partition.classes()) {
    if (members.size() < static_cast<size_t>(k)) {
      to_suppress.insert(to_suppress.end(), members.begin(), members.end());
    }
  }

  NodeEvaluation evaluation{std::move(anonymization), std::move(partition), 0,
                            false};
  const size_t max_rows =
      budget.MaxRows(evaluation.anonymization.row_count());
  if (to_suppress.size() > max_rows) {
    // Infeasible at this node; report without suppressing so callers can
    // still inspect the raw partition.
    return evaluation;
  }
  if (!to_suppress.empty()) {
    MDC_RETURN_IF_ERROR(
        Generalizer::SuppressRows(evaluation.anonymization, to_suppress));
    evaluation.partition =
        EquivalencePartition::FromAnonymization(evaluation.anonymization);
    evaluation.suppressed_count = to_suppress.size();
  }
  size_t min_size = evaluation.partition.MinClassSizeExempting(
      evaluation.anonymization.suppressed);
  // min_size == 0 means every row is suppressed; that only satisfies k if
  // nothing remains to protect.
  evaluation.feasible =
      min_size >= static_cast<size_t>(k) ||
      evaluation.suppressed_count == evaluation.anonymization.row_count();
  return evaluation;
}

StatusOr<double> LabelLoss(const Anonymization& anonymization, size_t column,
                           const std::string& label) {
  if (!anonymization.scheme.has_value()) {
    return Status::FailedPrecondition(
        "LossMetric requires a full-domain scheme (use ClassSpreadLoss for "
        "multidimensional releases)");
  }
  const ValueHierarchy* hierarchy =
      anonymization.scheme->hierarchies().ForColumn(column);
  if (hierarchy == nullptr) {
    return Status::InvalidArgument("column has no hierarchy in the scheme");
  }
  std::vector<Value> distinct = anonymization.original->DistinctValues(column);
  if (distinct.size() <= 1) return 0.0;
  size_t covered = 0;
  for (const Value& v : distinct) {
    if (hierarchy->Covers(label, v)) ++covered;
  }
  if (covered == 0) {
    return Status::Internal("label '" + label +
                            "' covers no present value of its column");
  }
  return static_cast<double>(covered - 1) /
         static_cast<double>(distinct.size() - 1);
}

}  // namespace mdc::oracle
