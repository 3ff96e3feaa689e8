// Reference implementations of node evaluation and the LM label charge,
// for tests and benchmarks only (libmdc never links this library).
//
// Every lattice search evaluates nodes through EncodedNodeEvaluator
// (anonymize/encoded_eval.h), and LossMetric (utility/loss_metric.h)
// charges labels from counted coverage. The functions here do the same on
// the string path: EvaluateNode generalizes every cell through its
// hierarchy and groups rows by label strings; LabelLoss tests
// Covers(label, v) on every present value. The oracle suites require the
// production paths to match them bit for bit.

#ifndef MDC_TESTS_ORACLE_EVALUATION_H_
#define MDC_TESTS_ORACLE_EVALUATION_H_

#include <memory>
#include <string>

#include "anonymize/full_domain.h"
#include "common/run_context.h"
#include "common/status.h"

namespace mdc::oracle {

// Applies `node` over `hierarchies`, suppresses undersized classes within
// budget, and reports whether the result is k-anonymous (suppressed rows
// exempt). `k` must be >= 1. A non-null `run` is charged one work-step per
// call; an exhausted budget returns the budget Status before any work.
// Passes the `full_domain.evaluate` failpoint, like
// EncodedNodeEvaluator::Evaluate, and counts `eval.nodes_legacy`.
StatusOr<NodeEvaluation> EvaluateNode(std::shared_ptr<const Dataset> original,
                                      const HierarchySet& hierarchies,
                                      const LatticeNode& node, int k,
                                      const SuppressionBudget& budget,
                                      std::string algorithm,
                                      RunContext* run = nullptr);

// LM charge of a single label for `column` of a full-domain release:
// (covered-1)/(M-1) over the M distinct present values, with `covered`
// found by testing Covers(label, v) on every present value. 0 when M <= 1;
// Internal when the label covers no present value.
StatusOr<double> LabelLoss(const Anonymization& anonymization, size_t column,
                           const std::string& label);

}  // namespace mdc::oracle

#endif  // MDC_TESTS_ORACLE_EVALUATION_H_
