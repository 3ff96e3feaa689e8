#include "anonymize/incognito.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "anonymize/encoded_eval.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "table/gather_kernels.h"

namespace mdc {
namespace {

// Frequency check: rows in classes smaller than k, over the projection of
// the data onto `subset` at `node` levels. Feasible iff the count fits in
// the suppression budget. The projection's label codes are gathered from
// the evaluator's tables and grouped by the kernel Evaluate() uses.
bool ProjectionFeasible(const EncodedNodeEvaluator& evaluator,
                        const std::vector<size_t>& subset,
                        const std::vector<int>& node, int k,
                        size_t max_suppressed) {
  // Per-thread scratch: the wave sweep runs checks on pool workers.
  thread_local std::vector<std::vector<uint32_t>> label_cols;
  thread_local std::vector<uint32_t> cards;
  const size_t rows = evaluator.row_count();
  const GatherKernels& kernels = ActiveGatherKernels();
  label_cols.resize(subset.size());
  cards.resize(subset.size());
  for (size_t i = 0; i < subset.size(); ++i) {
    const LevelCodeTable& table = evaluator.codec().table(subset[i], node[i]);
    cards[i] = static_cast<uint32_t>(table.labels.size());
    label_cols[i].resize(rows);
    if (rows > 0) {
      kernels.gather_u32(evaluator.view().codes(subset[i]).data(), rows,
                         table.value_to_label.data(), label_cols[i].data());
    }
  }
  EquivalencePartition partition =
      EquivalencePartition::FromCodeColumns(rows, label_cols, cards);
  size_t undersized = 0;
  for (ClassSpan members : partition.classes()) {
    if (members.size() < static_cast<size_t>(k)) undersized += members.size();
  }
  return undersized <= max_suppressed;
}

// Enumerates the nodes of the sub-lattice spanned by `subset`, by height.
void EnumerateSubLattice(const std::vector<int>& max_levels,
                         std::vector<std::vector<int>>& out) {
  // Mixed-radix count-up, then stable-sort by height for monotone sweeps.
  std::vector<int> node(max_levels.size(), 0);
  while (true) {
    out.push_back(node);
    size_t i = 0;
    while (i < node.size() && node[i] == max_levels[i]) {
      node[i] = 0;
      ++i;
    }
    if (i == node.size()) break;
    ++node[i];
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const std::vector<int>& a, const std::vector<int>& b) {
                     int ha = 0;
                     int hb = 0;
                     for (int v : a) ha += v;
                     for (int v : b) hb += v;
                     return ha < hb;
                   });
}

constexpr uint32_t kIncognitoPayloadVersion = 1;

}  // namespace

StatusOr<std::string> IncognitoCheckpoint::SaveCheckpoint() const {
  if (!captured) {
    return Status::FailedPrecondition("incognito checkpoint: no state");
  }
  SnapshotWriter writer(SnapshotKind::kIncognito, kIncognitoPayloadVersion);
  writer.WriteU64(next_subset);
  writer.WriteU64(next_node);
  writer.WriteU64(frequency_evaluations);
  writer.WriteU64(satisfying.size());
  for (const auto& [subset, nodes] : satisfying) {
    writer.WriteU64Vec(std::vector<uint64_t>(subset.begin(), subset.end()));
    writer.WriteU64(nodes.size());
    for (const std::vector<int>& node : nodes) writer.WriteI32Vec(node);
  }
  return writer.Finish();
}

Status IncognitoCheckpoint::ResumeFrom(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kIncognito,
                           kIncognitoPayloadVersion));
  IncognitoCheckpoint loaded;
  MDC_ASSIGN_OR_RETURN(loaded.next_subset, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(loaded.next_node, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(loaded.frequency_evaluations, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(uint64_t map_size, reader.ReadU64());
  if (map_size > reader.remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument("incognito checkpoint: map size exceeds data");
  }
  for (uint64_t i = 0; i < map_size; ++i) {
    MDC_ASSIGN_OR_RETURN(std::vector<uint64_t> subset_u64,
                         reader.ReadU64Vec());
    std::vector<size_t> subset(subset_u64.begin(), subset_u64.end());
    MDC_ASSIGN_OR_RETURN(uint64_t set_size, reader.ReadU64());
    if (set_size > reader.remaining() / sizeof(uint64_t)) {
      return Status::InvalidArgument(
          "incognito checkpoint: set size exceeds data");
    }
    std::set<std::vector<int>>& nodes = loaded.satisfying[std::move(subset)];
    for (uint64_t j = 0; j < set_size; ++j) {
      MDC_ASSIGN_OR_RETURN(std::vector<int> node, reader.ReadI32Vec());
      nodes.insert(std::move(node));
    }
  }
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  loaded.captured = true;
  *this = std::move(loaded);
  return Status::Ok();
}

StatusOr<IncognitoResult> IncognitoAnonymize(
    std::shared_ptr<const Dataset> original, const HierarchySet& hierarchies,
    const IncognitoConfig& config, const LossFn& loss, RunContext* run,
    IncognitoCheckpoint* checkpoint) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  TRACE_SPAN("incognito/search");
  MDC_METRIC_INC("search.incognito.runs");
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  MDC_ASSIGN_OR_RETURN(EncodedNodeEvaluator evaluator,
                       EncodedNodeEvaluator::Build(original, hierarchies, run));
  const int threads = ThreadPool::ResolveThreadCount(config.threads);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  IncognitoResult result;
  result.lattice_size = lattice.NodeCount();
  const size_t m = hierarchies.size();
  const size_t max_suppressed =
      config.suppression.MaxRows(original->row_count());
  const std::vector<int> all_max = hierarchies.MaxLevels();

  // satisfying[subset] = set of satisfying level vectors over that subset.
  std::map<std::vector<size_t>, std::set<std::vector<int>>> satisfying;

  // Resume: restore accumulated verdicts and the iteration position.
  size_t start_subset = 0;
  size_t start_node = 0;
  if (checkpoint != nullptr && checkpoint->captured) {
    satisfying = checkpoint->satisfying;
    result.frequency_evaluations = checkpoint->frequency_evaluations;
    start_subset = static_cast<size_t>(checkpoint->next_subset);
    start_node = static_cast<size_t>(checkpoint->next_node);
  }

  // Subsets of {0..m-1} in order of increasing size.
  std::vector<std::vector<size_t>> subsets;
  for (uint64_t mask = 1; mask < (uint64_t{1} << m); ++mask) {
    std::vector<size_t> subset;
    for (size_t i = 0; i < m; ++i) {
      if (mask & (uint64_t{1} << i)) subset.push_back(i);
    }
    subsets.push_back(std::move(subset));
  }
  std::stable_sort(subsets.begin(), subsets.end(),
                   [](const std::vector<size_t>& a,
                      const std::vector<size_t>& b) {
                     return a.size() < b.size();
                   });

  // Full-QI subset = the last one (all positions).
  std::vector<size_t> full(m);
  for (size_t i = 0; i < m; ++i) full[i] = i;

  if (start_subset > subsets.size()) {
    return Status::InvalidArgument("incognito checkpoint: subset index out of range");
  }

  bool truncated = false;
  Status budget_status = Status::Ok();
  for (size_t subset_idx = start_subset; subset_idx < subsets.size();
       ++subset_idx) {
    if (!budget_status.ok()) break;
    const std::vector<size_t>& subset = subsets[subset_idx];
    std::vector<int> max_levels;
    for (size_t pos : subset) max_levels.push_back(all_max[pos]);
    std::vector<std::vector<int>> nodes;
    EnumerateSubLattice(max_levels, nodes);

    size_t first_node = subset_idx == start_subset ? start_node : 0;
    if (first_node > nodes.size()) {
      return Status::InvalidArgument("incognito checkpoint: node index out of range");
    }
    std::set<std::vector<int>>& sat = satisfying[subset];

    // Subset pruning: every (|S|-1)-projection must satisfy.
    auto subset_pruned = [&](const std::vector<int>& node) {
      if (subset.size() <= 1) return false;
      for (size_t drop = 0; drop < subset.size(); ++drop) {
        std::vector<size_t> sub_subset;
        std::vector<int> sub_node;
        for (size_t i = 0; i < subset.size(); ++i) {
          if (i == drop) continue;
          sub_subset.push_back(subset[i]);
          sub_node.push_back(node[i]);
        }
        if (satisfying[sub_subset].count(sub_node) == 0) return true;
      }
      return false;
    };
    // Generalization pruning: a satisfying direct predecessor implies the
    // node satisfies.
    auto implied_by_predecessor = [&](const std::vector<int>& node) {
      for (size_t i = 0; i < node.size(); ++i) {
        if (node[i] > 0) {
          std::vector<int> pred = node;
          --pred[i];
          if (sat.count(pred) != 0) return true;
        }
      }
      return false;
    };
    // Budget expiry at `node_idx`: capture the position, then degrade to
    // whatever the full-QI subset has accumulated so far — it is sound
    // (every node passed the frequency check) — or report the error.
    auto handle_budget = [&](size_t node_idx, const Status& status) {
      if (checkpoint != nullptr) {
        checkpoint->next_subset = subset_idx;
        checkpoint->next_node = node_idx;
        checkpoint->frequency_evaluations = result.frequency_evaluations;
        checkpoint->satisfying = satisfying;
        checkpoint->captured = true;
      }
      if (satisfying[full].empty()) return false;
      budget_status = status;
      truncated = true;
      return true;
    };

    if (!pool.has_value()) {
      for (size_t node_idx = first_node; node_idx < nodes.size();
           ++node_idx) {
        const std::vector<int>& node = nodes[node_idx];
        if (Status status = RunContext::Check(run); !status.ok()) {
          if (!handle_budget(node_idx, status)) return status;
          break;
        }
        MDC_FAILPOINT("incognito.node");
        if (subset_pruned(node)) {
          MDC_METRIC_INC("search.incognito.subset_pruned");
          continue;
        }
        if (implied_by_predecessor(node)) {
          MDC_METRIC_INC("search.incognito.implied_pruned");
          sat.insert(node);
          continue;
        }
        ++result.frequency_evaluations;
        MDC_METRIC_INC("search.incognito.frequency_checks");
        if (ProjectionFeasible(evaluator, subset, node, config.k,
                               max_suppressed)) {
          sat.insert(node);
        }
      }
    } else {
      // Wave-parallel sweep of the sub-lattice. Both prunings only consult
      // smaller subsets (complete) or nodes one height down, so nodes of
      // one height are independent: a wave admits nodes of a single height
      // — replaying the budget + failpoint sequence per node in sweep
      // order, resolving prunes inline — then runs the frequency checks
      // concurrently and commits verdicts in sweep order.
      auto height_of = [](const std::vector<int>& node) {
        int h = 0;
        for (int v : node) h += v;
        return h;
      };
      const size_t wave = static_cast<size_t>(pool->thread_count()) * 4;
      size_t node_idx = first_node;
      while (node_idx < nodes.size() && budget_status.ok()) {
        const int height = height_of(nodes[node_idx]);
        Status admit_error;  // Budget/failpoint error, at `node_idx`.
        bool admit_error_is_budget = false;
        std::vector<size_t> batch;  // Indices into `nodes`.
        while (node_idx < nodes.size() && batch.size() < wave &&
               height_of(nodes[node_idx]) == height) {
          const std::vector<int>& node = nodes[node_idx];
          admit_error = RunContext::Check(run);
          if (!admit_error.ok()) {
            admit_error_is_budget = true;
            break;
          }
          admit_error = MDC_FAILPOINT_STATUS("incognito.node");
          if (!admit_error.ok()) break;
          if (subset_pruned(node)) {
            MDC_METRIC_INC("search.incognito.subset_pruned");
            ++node_idx;
            continue;
          }
          if (implied_by_predecessor(node)) {
            MDC_METRIC_INC("search.incognito.implied_pruned");
            sat.insert(node);
            ++node_idx;
            continue;
          }
          batch.push_back(node_idx);
          ++node_idx;
        }
        std::vector<char> feasible(batch.size(), 0);
        pool->ParallelFor(batch.size(), [&](size_t j) {
          feasible[j] =
              ProjectionFeasible(evaluator, subset, nodes[batch[j]],
                                 config.k, max_suppressed)
                  ? 1
                  : 0;
        });
        for (size_t j = 0; j < batch.size(); ++j) {
          ++result.frequency_evaluations;
          MDC_METRIC_INC("search.incognito.frequency_checks");
          if (feasible[j] != 0) sat.insert(nodes[batch[j]]);
        }
        if (!admit_error.ok()) {
          // A budget error degrades exactly as in the serial sweep; an
          // injected failpoint error propagates as-is.
          if (!admit_error_is_budget) return admit_error;
          if (!handle_budget(node_idx, admit_error)) return admit_error;
        }
      }
    }
  }

  const std::set<std::vector<int>>& full_sat = satisfying[full];
  if (full_sat.empty()) {
    return Status::Infeasible(
        "Incognito: no k-anonymous full-domain generalization within the "
        "suppression budget");
  }
  result.anonymous_nodes.assign(full_sat.begin(), full_sat.end());

  // Minimal frontier: satisfying nodes with no satisfying predecessor.
  for (const std::vector<int>& node : result.anonymous_nodes) {
    bool minimal = true;
    for (size_t i = 0; i < node.size() && minimal; ++i) {
      if (node[i] > 0) {
        std::vector<int> pred = node;
        --pred[i];
        if (full_sat.count(pred) != 0) minimal = false;
      }
    }
    if (minimal) result.minimal_nodes.push_back(node);
  }

  bool have_best = false;
  for (const LatticeNode& node : result.minimal_nodes) {
    MDC_ASSIGN_OR_RETURN(
        EncodedNodeEvaluator::Evaluation encoded,
        evaluator.Evaluate(node, config.k, config.suppression));
    MDC_ASSIGN_OR_RETURN(NodeEvaluation evaluation,
                         evaluator.Materialize(node, encoded, "incognito"));
    MDC_CHECK_MSG(evaluation.feasible,
                  "Incognito-satisfying node fails full evaluation");
    double node_loss = loss(evaluation.anonymization, evaluation.partition);
    if (!have_best || node_loss < result.best_loss) {
      result.best_loss = node_loss;
      result.best_node = node;
      result.best = std::move(evaluation);
      have_best = true;
    }
  }
  result.run_stats = RunContext::Stats(run, truncated);
  return result;
}

}  // namespace mdc
