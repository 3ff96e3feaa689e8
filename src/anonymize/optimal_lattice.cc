#include "anonymize/optimal_lattice.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "anonymize/encoded_eval.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace mdc {
namespace {

constexpr uint32_t kOptimalPayloadVersion = 1;

}  // namespace

StatusOr<std::string> OptimalLatticeCheckpoint::SaveCheckpoint() const {
  if (!captured) {
    return Status::FailedPrecondition("optimal checkpoint: no state");
  }
  SnapshotWriter writer(SnapshotKind::kOptimalLattice, kOptimalPayloadVersion);
  writer.WriteU64(next_index);
  writer.WriteString(satisfying);
  WriteLatticeNodeVec(writer, minimal_nodes);
  WriteLatticeNode(writer, best_node);
  writer.WriteDouble(best_loss);
  writer.WriteU64(nodes_evaluated);
  return writer.Finish();
}

Status OptimalLatticeCheckpoint::ResumeFrom(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kOptimalLattice,
                           kOptimalPayloadVersion));
  OptimalLatticeCheckpoint loaded;
  MDC_ASSIGN_OR_RETURN(loaded.next_index, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(loaded.satisfying, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(loaded.minimal_nodes, ReadLatticeNodeVec(reader));
  MDC_ASSIGN_OR_RETURN(loaded.best_node, ReadLatticeNode(reader));
  MDC_ASSIGN_OR_RETURN(loaded.best_loss, reader.ReadDouble());
  MDC_ASSIGN_OR_RETURN(loaded.nodes_evaluated, reader.ReadU64());
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  loaded.captured = true;
  *this = std::move(loaded);
  return Status::Ok();
}

StatusOr<OptimalSearchResult> OptimalLatticeSearch(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const OptimalSearchConfig& config, const LossFn& loss, RunContext* run,
    OptimalLatticeCheckpoint* checkpoint) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  TRACE_SPAN("optimal/search");
  MDC_METRIC_INC("search.optimal.runs");
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator evaluator,
                       EncodedNodeEvaluator::Build(original, hierarchies, run,
                                                   config.encoded));
  const int threads = ThreadPool::ResolveThreadCount(config.threads);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  OptimalSearchResult result;
  result.lattice_size = lattice.NodeCount();

  // satisfying[index] records nodes known to satisfy (directly evaluated or
  // implied by monotonicity from a predecessor).
  std::vector<char> satisfying(result.lattice_size, 0);
  RunContext::ChargeMemory(run, satisfying.size() * sizeof(char));

  const std::vector<LatticeNode> all_nodes = lattice.AllNodesByHeight();
  size_t start_index = 0;
  if (checkpoint != nullptr && checkpoint->captured) {
    if (checkpoint->satisfying.size() != satisfying.size() ||
        checkpoint->next_index > all_nodes.size()) {
      return Status::InvalidArgument(
          "optimal checkpoint: does not match this lattice");
    }
    std::copy(checkpoint->satisfying.begin(), checkpoint->satisfying.end(),
              satisfying.begin());
    start_index = static_cast<size_t>(checkpoint->next_index);
    result.minimal_nodes = checkpoint->minimal_nodes;
    result.nodes_evaluated = static_cast<size_t>(checkpoint->nodes_evaluated);
    if (!result.minimal_nodes.empty()) {
      // Re-derive the best evaluation: node evaluation is deterministic,
      // so this reproduces exactly what the interrupted run held in memory.
      result.best_node = checkpoint->best_node;
      result.best_loss = checkpoint->best_loss;
      MDC_ASSIGN_OR_RETURN(
          EncodedNodeEvaluator::Evaluation best,
          evaluator.Evaluate(result.best_node, config.k, config.suppression));
      MDC_ASSIGN_OR_RETURN(result.best, evaluator.Materialize(
                                            result.best_node, best, "optimal"));
    }
  }

  // Captures the sweep position for resume; `next_index` is the node the
  // interrupted run did not finish evaluating.
  auto capture = [&](size_t next_index) {
    if (checkpoint == nullptr) return;
    checkpoint->next_index = next_index;
    checkpoint->satisfying.assign(satisfying.begin(), satisfying.end());
    checkpoint->minimal_nodes = result.minimal_nodes;
    checkpoint->best_node = result.best_node;
    checkpoint->best_loss = result.best_loss;
    checkpoint->nodes_evaluated = result.nodes_evaluated;
    checkpoint->captured = true;
  };

  // Commits one evaluated node in deterministic sweep order: feasible nodes
  // are materialized (release + loss) and recorded as minimal.
  auto commit = [&](const LatticeNode& node, size_t index,
                    const EncodedNodeEvaluator::Evaluation& evaluation)
      -> Status {
    ++result.nodes_evaluated;
    MDC_METRIC_INC("search.optimal.nodes_evaluated");
    if (!evaluation.feasible) return Status::Ok();
    MDC_ASSIGN_OR_RETURN(NodeEvaluation full,
                         evaluator.Materialize(node, evaluation, "optimal"));
    if (config.extra_predicate &&
        !config.extra_predicate(full.anonymization, full.partition)) {
      return Status::Ok();
    }
    MDC_METRIC_INC("search.optimal.satisfying_nodes");
    satisfying[index] = 1;
    result.minimal_nodes.push_back(node);
    double node_loss = loss(full.anonymization, full.partition);
    if (result.minimal_nodes.size() == 1 || node_loss < result.best_loss) {
      result.best_loss = node_loss;
      result.best_node = node;
      result.best = std::move(full);
    }
    return Status::Ok();
  };

  bool truncated = false;
  if (!pool.has_value()) {
    for (size_t node_index = start_index; node_index < all_nodes.size();
         ++node_index) {
      const LatticeNode& node = all_nodes[node_index];
      size_t index = lattice.IndexOf(node);
      bool implied = false;
      for (const LatticeNode& pred : lattice.Predecessors(node)) {
        if (satisfying[lattice.IndexOf(pred)] != 0) {
          implied = true;
          break;
        }
      }
      if (implied) {
        satisfying[index] = 1;
        MDC_METRIC_INC("search.optimal.implied_pruned");
        continue;  // Not minimal; skip evaluation entirely.
      }
      MDC_FAILPOINT("optimal.node");
      auto evaluation_or =
          evaluator.Evaluate(node, config.k, config.suppression, run);
      if (!evaluation_or.ok()) {
        if (evaluation_or.status().IsBudgetError()) {
          capture(node_index);
          // Degrade to the minimal nodes already found; each is sound. With
          // nothing found yet, the budget error propagates.
          if (!result.minimal_nodes.empty()) {
            truncated = true;
            break;
          }
        }
        return evaluation_or.status();
      }
      MDC_RETURN_IF_ERROR(
          commit(node, index, std::move(evaluation_or).value()));
    }
  } else {
    // Wave-parallel sweep. Monotonicity pruning only consults nodes one
    // height below, so nodes of one height are independent: a wave admits
    // nodes of a single height, replaying the failpoint + budget sequence
    // per node in sweep order BEFORE dispatch (a step budget expires at
    // exactly the node a serial sweep would stop at), then evaluates the
    // wave concurrently and commits results in sweep order.
    const size_t wave = static_cast<size_t>(pool->thread_count()) * 4;
    size_t node_index = start_index;
    while (node_index < all_nodes.size() && !truncated) {
      const int height = lattice.Height(all_nodes[node_index]);
      Status admit_error;  // First failpoint/budget error, at `node_index`.
      std::vector<LatticeNode> batch;
      std::vector<size_t> batch_lattice_index;
      std::vector<size_t> batch_sweep_index;
      while (node_index < all_nodes.size() && batch.size() < wave &&
             lattice.Height(all_nodes[node_index]) == height) {
        const LatticeNode& node = all_nodes[node_index];
        size_t index = lattice.IndexOf(node);
        bool implied = false;
        for (const LatticeNode& pred : lattice.Predecessors(node)) {
          if (satisfying[lattice.IndexOf(pred)] != 0) {
            implied = true;
            break;
          }
        }
        if (implied) {
          satisfying[index] = 1;
          MDC_METRIC_INC("search.optimal.implied_pruned");
          ++node_index;
          continue;
        }
        admit_error = MDC_FAILPOINT_STATUS("optimal.node");
        if (admit_error.ok()) admit_error = RunContext::Check(run);
        if (!admit_error.ok()) break;
        batch.push_back(node);
        batch_lattice_index.push_back(index);
        batch_sweep_index.push_back(node_index);
        ++node_index;
      }
      auto results =
          EvaluateBatch(evaluator, batch, config.k, config.suppression, *pool);
      for (size_t j = 0; j < batch.size() && !truncated; ++j) {
        StatusOr<EncodedNodeEvaluator::Evaluation>& eval_or = *results[j];
        if (!eval_or.ok()) {
          // Workers run without `run`, but injected faults may still carry
          // a budget code; mirror the serial degrade path.
          if (eval_or.status().IsBudgetError()) {
            capture(batch_sweep_index[j]);
            if (!result.minimal_nodes.empty()) {
              truncated = true;
              continue;
            }
          }
          return eval_or.status();
        }
        MDC_RETURN_IF_ERROR(commit(batch[j], batch_lattice_index[j],
                                   std::move(eval_or).value()));
      }
      if (truncated) break;
      if (!admit_error.ok()) {
        if (admit_error.IsBudgetError()) {
          capture(node_index);
          if (!result.minimal_nodes.empty()) {
            truncated = true;
            break;
          }
        }
        return admit_error;
      }
    }
  }

  if (result.minimal_nodes.empty()) {
    return Status::Infeasible(
        "optimal lattice search: no node satisfies the privacy constraints");
  }

  result.run_stats = RunContext::Stats(run, truncated);

  if (config.verify_monotonicity && !truncated) {
    for (const LatticeNode& node : result.minimal_nodes) {
      for (const LatticeNode& succ : lattice.Successors(node)) {
        MDC_ASSIGN_OR_RETURN(
            EncodedNodeEvaluator::Evaluation evaluation,
            evaluator.Evaluate(succ, config.k, config.suppression));
        bool satisfies = evaluation.feasible;
        if (satisfies && config.extra_predicate) {
          MDC_ASSIGN_OR_RETURN(
              NodeEvaluation full,
              evaluator.Materialize(succ, evaluation, "optimal"));
          satisfies =
              config.extra_predicate(full.anonymization, full.partition);
        }
        if (!satisfies) {
          return Status::FailedPrecondition(
              "privacy predicate is not monotone: " +
              Lattice::ToString(node) + " satisfies but its successor " +
              Lattice::ToString(succ) + " does not");
        }
      }
    }
  }
  return result;
}

}  // namespace mdc
