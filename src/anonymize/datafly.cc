#include "anonymize/datafly.h"

#include <cstdint>
#include <string>
#include <vector>

#include "anonymize/encoded_eval.h"
#include "common/failpoint.h"

namespace mdc {

StatusOr<DataflyResult> DataflyAnonymize(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const DataflyConfig& config, RunContext* run) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  MDC_RETURN_IF_ERROR(
      hierarchies.CoversQuasiIdentifiers(original->schema()));

  MDC_ASSIGN_OR_RETURN(Lattice lattice,
                       Lattice::ForHierarchies(hierarchies));
  MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator evaluator,
                       EncodedNodeEvaluator::Build(original, hierarchies, run));
  LatticeNode node = lattice.Bottom();
  int steps = 0;

  while (true) {
    MDC_FAILPOINT("datafly.step");
    MDC_ASSIGN_OR_RETURN(
        EncodedNodeEvaluator::Evaluation evaluation,
        evaluator.Evaluate(node, config.k, config.suppression, run));
    if (evaluation.feasible) {
      MDC_ASSIGN_OR_RETURN(NodeEvaluation release,
                           evaluator.Materialize(node, evaluation, "datafly"));
      return DataflyResult{std::move(release), node, steps,
                           RunContext::Stats(run)};
    }

    // Generalize the attribute whose labels are currently most diverse,
    // among attributes that can still be generalized. An infeasible node
    // suppresses nothing, so a column's distinct released labels are the
    // distinct label codes its present values map to.
    size_t best_pos = hierarchies.size();
    size_t best_distinct = 0;
    std::vector<char> seen;
    for (size_t pos = 0; pos < hierarchies.size(); ++pos) {
      if (node[pos] >= hierarchies.At(pos).height()) continue;
      const LevelCodeTable& table = evaluator.codec().table(pos, node[pos]);
      seen.assign(table.labels.size(), 0);
      size_t distinct = 0;
      for (uint32_t label : table.value_to_label) {
        if (seen[label] == 0) {
          seen[label] = 1;
          ++distinct;
        }
      }
      if (best_pos == hierarchies.size() || distinct > best_distinct) {
        best_pos = pos;
        best_distinct = distinct;
      }
    }
    if (best_pos == hierarchies.size()) {
      // Everything is fully generalized and the table is still infeasible.
      return Status::Infeasible(
          "Datafly: table cannot be made " + std::to_string(config.k) +
          "-anonymous even at full generalization");
    }
    ++node[best_pos];
    ++steps;
  }
}

}  // namespace mdc
