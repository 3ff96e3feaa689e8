// Differential oracle for the lattice searches' node evaluation.
//
// Every search evaluates lattice nodes through EncodedNodeEvaluator; the
// string-path EvaluateNode survives only as the reference. This suite
// keeps reference copies of the string-path Datafly, top-down and
// bottom-up loops and of Incognito's map-grouped frequency check (run by
// a serial reference Incognito), and requires the production searches to
// match them exactly:
//   - release cells, partition classes, suppressed rows, feasibility,
//     best node, loss bits, steps and RunStats.steps;
//   - Incognito's anonymous and minimal nodes and frequency evaluations,
//     at 1 and 4 threads;
//   - for Samarati, Stochastic and Optimal (also resumed from a truncated
//     checkpoint, and with verify_monotonicity), `best` equals
//     EvaluateNode(best_node);
//   - no search evaluates a node on the string path (eval.nodes_legacy).
// Inputs: the 5-QI census at 60 and 300 rows on two seeds and the paper's
// Table 1, k in {2, 5, 10}, suppression in {0, 0.02, 0.1}, under ProxyLoss
// and Iyengar's LM. A budget sweep then requires every max_steps budget
// to give the reference's Status or truncated result after the same
// number of full_domain.evaluate passes, also with a fault injected at
// each of those passes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anonymize/datafly.h"
#include "anonymize/encoded_eval.h"
#include "anonymize/full_domain.h"
#include "anonymize/incognito.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "anonymize/top_down.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/run_context.h"
#include "datagen/census_generator.h"
#include "hierarchy/level_codec.h"
#include "paper/paper_data.h"
#include "table/encoded_view.h"
#include "utility/loss_metric.h"

namespace mdc {
namespace reference {

// Datafly over the string path: every step evaluates the node with
// EvaluateNode and counts the distinct released labels per column.
StatusOr<DataflyResult> Datafly(std::shared_ptr<const Dataset> original,
                                const HierarchySet& hierarchies,
                                const DataflyConfig& config, RunContext* run) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  LatticeNode node = lattice.Bottom();
  int steps = 0;
  while (true) {
    MDC_FAILPOINT("datafly.step");
    MDC_ASSIGN_OR_RETURN(NodeEvaluation evaluation,
                         EvaluateNode(original, hierarchies, node, config.k,
                                      config.suppression, "datafly", run));
    if (evaluation.feasible) {
      return DataflyResult{std::move(evaluation), node, steps,
                           RunContext::Stats(run)};
    }
    size_t best_pos = hierarchies.size();
    size_t best_distinct = 0;
    for (size_t pos = 0; pos < hierarchies.size(); ++pos) {
      if (node[pos] >= hierarchies.At(pos).height()) continue;
      size_t column = hierarchies.columns()[pos];
      std::set<std::string> distinct;
      for (size_t r = 0; r < evaluation.anonymization.release.row_count();
           ++r) {
        distinct.insert(
            evaluation.anonymization.release.cell(r, column).ToString());
      }
      if (best_pos == hierarchies.size() || distinct.size() > best_distinct) {
        best_pos = pos;
        best_distinct = distinct.size();
      }
    }
    if (best_pos == hierarchies.size()) {
      return Status::Infeasible(
          "Datafly: table cannot be made " + std::to_string(config.k) +
          "-anonymous even at full generalization");
    }
    ++node[best_pos];
    ++steps;
  }
}

StatusOr<GreedyWalkResult> TopDown(std::shared_ptr<const Dataset> original,
                                   const HierarchySet& hierarchies,
                                   const GreedyWalkConfig& config,
                                   const LossFn& loss, RunContext* run) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  LatticeNode node = lattice.Top();
  MDC_ASSIGN_OR_RETURN(NodeEvaluation current,
                       EvaluateNode(original, hierarchies, node, config.k,
                                    config.suppression, "top-down", run));
  if (!current.feasible) {
    return Status::Infeasible(
        "top-down specialization: table infeasible even at full "
        "generalization");
  }
  double current_loss = loss(current.anonymization, current.partition);
  int steps = 0;
  while (true) {
    bool moved = false;
    LatticeNode best_node;
    NodeEvaluation best_evaluation;
    double best_loss = current_loss;
    for (const LatticeNode& candidate : lattice.Predecessors(node)) {
      MDC_FAILPOINT("top_down.step");
      auto evaluation_or = EvaluateNode(original, hierarchies, candidate,
                                        config.k, config.suppression,
                                        "top-down", run);
      if (!evaluation_or.ok()) {
        if (evaluation_or.status().IsBudgetError()) {
          return GreedyWalkResult{std::move(current), node, steps,
                                  RunContext::Stats(run, true)};
        }
        return evaluation_or.status();
      }
      NodeEvaluation evaluation = std::move(evaluation_or).value();
      if (!evaluation.feasible) continue;
      double candidate_loss =
          loss(evaluation.anonymization, evaluation.partition);
      if (candidate_loss < best_loss ||
          (!moved && candidate_loss <= best_loss)) {
        best_loss = candidate_loss;
        best_node = candidate;
        best_evaluation = std::move(evaluation);
        moved = true;
      }
    }
    if (!moved) break;
    node = best_node;
    current = std::move(best_evaluation);
    current_loss = best_loss;
    ++steps;
  }
  return GreedyWalkResult{std::move(current), node, steps,
                          RunContext::Stats(run)};
}

StatusOr<GreedyWalkResult> BottomUp(std::shared_ptr<const Dataset> original,
                                    const HierarchySet& hierarchies,
                                    const GreedyWalkConfig& config,
                                    const LossFn& loss, RunContext* run) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  LatticeNode node = lattice.Bottom();
  MDC_ASSIGN_OR_RETURN(NodeEvaluation current,
                       EvaluateNode(original, hierarchies, node, config.k,
                                    config.suppression, "bottom-up", run));
  int steps = 0;
  while (!current.feasible) {
    size_t current_undersized = 0;
    for (ClassSpan members : current.partition.classes()) {
      if (members.size() < static_cast<size_t>(config.k)) {
        current_undersized += members.size();
      }
    }
    double current_loss = loss(current.anonymization, current.partition);
    bool moved = false;
    LatticeNode best_node;
    NodeEvaluation best_evaluation;
    double best_ratio = -std::numeric_limits<double>::infinity();
    for (const LatticeNode& candidate : lattice.Successors(node)) {
      MDC_FAILPOINT("bottom_up.step");
      MDC_ASSIGN_OR_RETURN(
          NodeEvaluation evaluation,
          EvaluateNode(original, hierarchies, candidate, config.k,
                       config.suppression, "bottom-up", run));
      size_t undersized = 0;
      for (ClassSpan members : evaluation.partition.classes()) {
        if (members.size() < static_cast<size_t>(config.k)) {
          undersized += members.size();
        }
      }
      double privacy_gain = static_cast<double>(current_undersized) -
                            static_cast<double>(undersized);
      if (evaluation.feasible) {
        privacy_gain = static_cast<double>(current_undersized);
      }
      double loss_increase =
          loss(evaluation.anonymization, evaluation.partition) -
          current_loss;
      double ratio = loss_increase <= 1e-12
                         ? (privacy_gain > 0
                                ? std::numeric_limits<double>::infinity()
                                : 0.0)
                         : privacy_gain / loss_increase;
      if (!moved || ratio > best_ratio) {
        best_ratio = ratio;
        best_node = candidate;
        best_evaluation = std::move(evaluation);
        moved = true;
      }
    }
    if (!moved) {
      return Status::Infeasible(
          "bottom-up generalization: table infeasible even at full "
          "generalization");
    }
    node = best_node;
    current = std::move(best_evaluation);
    ++steps;
  }
  return GreedyWalkResult{std::move(current), node, steps,
                          RunContext::Stats(run)};
}

// Incognito's frequency check over interned labels: label_ids[pos][level]
// [row] identifies the row's label, and rows are counted in a hash map
// keyed by the projected label tuple.
struct LabelTable {
  std::vector<std::vector<std::vector<int>>> label_ids;

  static StatusOr<LabelTable> Build(const Dataset& data,
                                    const HierarchySet& hierarchies) {
    MDC_ASSIGN_OR_RETURN(EncodedView view,
                         EncodedView::Build(data, hierarchies.columns()));
    MDC_ASSIGN_OR_RETURN(LevelCodec codec,
                         LevelCodec::Build(view, hierarchies));
    LabelTable table;
    table.label_ids.resize(hierarchies.size());
    for (size_t pos = 0; pos < hierarchies.size(); ++pos) {
      const AlignedVector<uint32_t>& codes = view.codes(pos);
      table.label_ids[pos].resize(static_cast<size_t>(codec.height(pos)) + 1);
      for (int level = 0; level <= codec.height(pos); ++level) {
        const LevelCodeTable& lut = codec.table(pos, level);
        std::vector<int>& ids =
            table.label_ids[pos][static_cast<size_t>(level)];
        ids.resize(codes.size());
        for (size_t row = 0; row < codes.size(); ++row) {
          ids[row] = static_cast<int>(lut.value_to_label[codes[row]]);
        }
      }
    }
    return table;
  }
};

struct VectorHash {
  size_t operator()(const std::vector<int>& v) const {
    size_t h = 146527;
    for (int x : v) h = h * 1000003 + static_cast<size_t>(x);
    return h;
  }
};

bool ProjectionFeasible(const LabelTable& labels,
                        const std::vector<size_t>& subset,
                        const std::vector<int>& node, size_t row_count, int k,
                        size_t max_suppressed) {
  std::unordered_map<std::vector<int>, size_t, VectorHash> counts;
  std::vector<int> key(subset.size());
  for (size_t row = 0; row < row_count; ++row) {
    for (size_t i = 0; i < subset.size(); ++i) {
      key[i] = labels.label_ids[subset[i]][static_cast<size_t>(node[i])][row];
    }
    ++counts[key];
  }
  size_t undersized = 0;
  for (const auto& [group, count] : counts) {
    if (count < static_cast<size_t>(k)) undersized += count;
  }
  return undersized <= max_suppressed;
}

// Serial Incognito over the reference frequency check; EvaluateNode
// scores the minimal nodes.
StatusOr<IncognitoResult> Incognito(std::shared_ptr<const Dataset> original,
                                    const HierarchySet& hierarchies,
                                    const IncognitoConfig& config,
                                    const LossFn& loss, RunContext* run) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  MDC_RETURN_IF_ERROR(hierarchies.CoversQuasiIdentifiers(original->schema()));
  MDC_ASSIGN_OR_RETURN(Lattice lattice, Lattice::ForHierarchies(hierarchies));
  MDC_ASSIGN_OR_RETURN(LabelTable labels,
                       LabelTable::Build(*original, hierarchies));
  IncognitoResult result;
  result.lattice_size = lattice.NodeCount();
  const size_t m = hierarchies.size();
  const size_t row_count = original->row_count();
  const size_t max_suppressed = config.suppression.MaxRows(row_count);
  const std::vector<int> all_max = hierarchies.MaxLevels();

  std::map<std::vector<size_t>, std::set<std::vector<int>>> satisfying;
  std::vector<std::vector<size_t>> subsets;
  for (uint64_t mask = 1; mask < (uint64_t{1} << m); ++mask) {
    std::vector<size_t> subset;
    for (size_t i = 0; i < m; ++i) {
      if (mask & (uint64_t{1} << i)) subset.push_back(i);
    }
    subsets.push_back(std::move(subset));
  }
  std::stable_sort(
      subsets.begin(), subsets.end(),
      [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
        return a.size() < b.size();
      });
  std::vector<size_t> full(m);
  for (size_t i = 0; i < m; ++i) full[i] = i;

  bool truncated = false;
  for (const std::vector<size_t>& subset : subsets) {
    if (truncated) break;
    // The sub-lattice's nodes by height (mixed-radix count-up, then a
    // stable sort).
    std::vector<int> max_levels;
    for (size_t pos : subset) max_levels.push_back(all_max[pos]);
    std::vector<std::vector<int>> nodes;
    std::vector<int> counter(max_levels.size(), 0);
    while (true) {
      nodes.push_back(counter);
      size_t i = 0;
      while (i < counter.size() && counter[i] == max_levels[i]) {
        counter[i] = 0;
        ++i;
      }
      if (i == counter.size()) break;
      ++counter[i];
    }
    auto height = [](const std::vector<int>& node) {
      int h = 0;
      for (int v : node) h += v;
      return h;
    };
    std::stable_sort(nodes.begin(), nodes.end(),
                     [&](const std::vector<int>& a, const std::vector<int>& b) {
                       return height(a) < height(b);
                     });

    std::set<std::vector<int>>& sat = satisfying[subset];
    for (const std::vector<int>& node : nodes) {
      if (Status status = RunContext::Check(run); !status.ok()) {
        if (satisfying[full].empty()) return status;
        truncated = true;
        break;
      }
      MDC_FAILPOINT("incognito.node");
      bool pruned = false;
      for (size_t drop = 0; subset.size() > 1 && drop < subset.size();
           ++drop) {
        std::vector<size_t> sub_subset;
        std::vector<int> sub_node;
        for (size_t i = 0; i < subset.size(); ++i) {
          if (i == drop) continue;
          sub_subset.push_back(subset[i]);
          sub_node.push_back(node[i]);
        }
        if (satisfying[sub_subset].count(sub_node) == 0) pruned = true;
      }
      if (pruned) continue;
      bool implied = false;
      for (size_t i = 0; i < node.size(); ++i) {
        if (node[i] > 0) {
          std::vector<int> pred = node;
          --pred[i];
          if (sat.count(pred) != 0) implied = true;
        }
      }
      if (implied) {
        sat.insert(node);
        continue;
      }
      ++result.frequency_evaluations;
      if (ProjectionFeasible(labels, subset, node, row_count, config.k,
                             max_suppressed)) {
        sat.insert(node);
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
    MDC_ASSIGN_OR_RETURN(NodeEvaluation evaluation,
                         EvaluateNode(original, hierarchies, node, config.k,
                                      config.suppression, "incognito"));
    MDC_CHECK(evaluation.feasible);
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

}  // namespace reference

namespace {

struct Workload {
  std::string name;
  std::shared_ptr<const Dataset> data;
  HierarchySet hierarchies;
};

Workload Table1Workload() {
  auto data = paper::Table1();
  MDC_CHECK(data.ok());
  auto hierarchies = paper::HierarchySetA();
  MDC_CHECK(hierarchies.ok());
  return {"table1", *data, std::move(hierarchies).value()};
}

Workload CensusWorkload(size_t rows, uint64_t seed) {
  CensusConfig config;
  config.rows = rows;
  config.seed = seed;
  config.with_occupation = true;  // 5 QIs: the 972-node lattice.
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  return {"census_rows" + std::to_string(rows) + "_seed" +
              std::to_string(seed),
          census->data, std::move(census->hierarchies)};
}

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  out.push_back(Table1Workload());
  for (size_t rows : {60, 300}) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{20261017}}) {
      out.push_back(CensusWorkload(rows, seed));
    }
  }
  return out;
}

double LmLoss(const Anonymization& anonymization,
              const EquivalencePartition&) {
  auto loss = LossMetric::TotalLoss(anonymization);
  MDC_CHECK(loss.ok());
  return *loss;
}

struct NamedLoss {
  const char* name = "";
  LossFn fn;
};

std::vector<NamedLoss> Losses() {
  return {{"proxy", ProxyLoss}, {"lm", LmLoss}};
}

uint64_t LegacyNodeCount() {
  return metrics::Snapshot().counters["eval.nodes_legacy"];
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameEvaluation(const NodeEvaluation& want,
                          const NodeEvaluation& got) {
  EXPECT_EQ(want.anonymization.release.ToCsv(),
            got.anonymization.release.ToCsv());
  EXPECT_EQ(want.anonymization.suppressed, got.anonymization.suppressed);
  EXPECT_EQ(want.anonymization.qi_columns, got.anonymization.qi_columns);
  EXPECT_EQ(want.anonymization.algorithm, got.anonymization.algorithm);
  ASSERT_EQ(want.anonymization.scheme.has_value(),
            got.anonymization.scheme.has_value());
  if (want.anonymization.scheme.has_value()) {
    EXPECT_EQ(want.anonymization.scheme->levels(),
              got.anonymization.scheme->levels());
  }
  EXPECT_EQ(want.partition.classes(), got.partition.classes());
  EXPECT_EQ(want.suppressed_count, got.suppressed_count);
  EXPECT_EQ(want.feasible, got.feasible);
}

template <typename T, typename U>
bool SameOutcome(const StatusOr<T>& want, const StatusOr<U>& got) {
  EXPECT_EQ(want.ok(), got.ok())
      << "want " << (want.ok() ? "ok" : want.status().ToString()) << ", got "
      << (got.ok() ? "ok" : got.status().ToString());
  if (want.ok() != got.ok()) return false;
  if (!want.ok()) {
    EXPECT_EQ(want.status().ToString(), got.status().ToString());
    return false;
  }
  return true;
}

void ExpectSameRunStats(const RunStats& want, const RunStats& got) {
  EXPECT_EQ(want.steps, got.steps);
  EXPECT_EQ(want.truncated, got.truncated);
}

void ExpectSameDatafly(const StatusOr<DataflyResult>& want,
                       const StatusOr<DataflyResult>& got) {
  if (!SameOutcome(want, got)) return;
  ExpectSameEvaluation(want->evaluation, got->evaluation);
  EXPECT_EQ(want->node, got->node);
  EXPECT_EQ(want->generalization_steps, got->generalization_steps);
  ExpectSameRunStats(want->run_stats, got->run_stats);
}

void ExpectSameWalk(const StatusOr<GreedyWalkResult>& want,
                    const StatusOr<GreedyWalkResult>& got,
                    const LossFn& loss) {
  if (!SameOutcome(want, got)) return;
  ExpectSameEvaluation(want->evaluation, got->evaluation);
  EXPECT_EQ(want->node, got->node);
  EXPECT_EQ(want->steps, got->steps);
  ExpectSameRunStats(want->run_stats, got->run_stats);
  EXPECT_TRUE(SameBits(
      loss(want->evaluation.anonymization, want->evaluation.partition),
      loss(got->evaluation.anonymization, got->evaluation.partition)));
}

void ExpectSameIncognito(const StatusOr<IncognitoResult>& want,
                         const StatusOr<IncognitoResult>& got) {
  if (!SameOutcome(want, got)) return;
  EXPECT_EQ(want->anonymous_nodes, got->anonymous_nodes);
  EXPECT_EQ(want->minimal_nodes, got->minimal_nodes);
  EXPECT_EQ(want->frequency_evaluations, got->frequency_evaluations);
  EXPECT_EQ(want->lattice_size, got->lattice_size);
  EXPECT_EQ(want->best_node, got->best_node);
  EXPECT_TRUE(SameBits(want->best_loss, got->best_loss));
  ExpectSameEvaluation(want->best, got->best);
  ExpectSameRunStats(want->run_stats, got->run_stats);
}

// `best` must be what the string path returns for `best_node`; when the
// search reports `best_loss`, it must be the loss of that release.
void ExpectBestIsReference(const Workload& workload, int k,
                           const SuppressionBudget& suppression,
                           const std::string& algorithm,
                           const LatticeNode& best_node,
                           const NodeEvaluation& best, const LossFn& loss,
                           const double* best_loss) {
  auto want = EvaluateNode(workload.data, workload.hierarchies, best_node, k,
                           suppression, algorithm);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameEvaluation(*want, best);
  if (best_loss != nullptr) {
    EXPECT_TRUE(SameBits(
        loss(want->anonymization, want->partition), *best_loss));
  }
}

// One (workload, k, suppression, loss) point and what the production
// searches returned for it.
struct Point {
  const Workload* workload = nullptr;
  int k = 0;
  SuppressionBudget suppression;
  NamedLoss loss;
  std::string name;

  std::optional<StatusOr<DataflyResult>> datafly;
  std::optional<StatusOr<GreedyWalkResult>> top_down;
  std::optional<StatusOr<GreedyWalkResult>> bottom_up;
  std::vector<StatusOr<IncognitoResult>> incognito;  // 1 and 4 threads.
  std::optional<StatusOr<SamaratiResult>> samarati;
  std::optional<StatusOr<StochasticResult>> stochastic;
  std::optional<StatusOr<OptimalSearchResult>> optimal;
};

void RunProduction(Point& p) {
  const Workload& w = *p.workload;
  RunContext datafly_run;
  p.datafly = DataflyAnonymize(w.data, w.hierarchies,
                               DataflyConfig{p.k, p.suppression},
                               &datafly_run);
  RunContext top_down_run;
  p.top_down = TopDownSpecialize(w.data, w.hierarchies,
                                 GreedyWalkConfig{p.k, p.suppression},
                                 p.loss.fn, &top_down_run);
  RunContext bottom_up_run;
  p.bottom_up = BottomUpGeneralize(w.data, w.hierarchies,
                                   GreedyWalkConfig{p.k, p.suppression},
                                   p.loss.fn, &bottom_up_run);
  for (int threads : {1, 4}) {
    IncognitoConfig config{p.k, p.suppression};
    config.threads = threads;
    RunContext run;
    p.incognito.push_back(IncognitoAnonymize(w.data, w.hierarchies, config,
                                             p.loss.fn, &run));
  }
  SamaratiConfig samarati;
  samarati.k = p.k;
  samarati.suppression = p.suppression;
  p.samarati =
      SamaratiAnonymize(w.data, w.hierarchies, samarati, p.loss.fn);
  StochasticConfig stochastic{p.k, p.suppression};
  stochastic.restarts = 3;
  p.stochastic =
      StochasticAnonymize(w.data, w.hierarchies, stochastic, p.loss.fn);
  OptimalSearchConfig optimal;
  optimal.k = p.k;
  optimal.suppression = p.suppression;
  optimal.verify_monotonicity = true;
  p.optimal = OptimalLatticeSearch(w.data, w.hierarchies, optimal, p.loss.fn);
}

void CheckAgainstReference(const Point& p) {
  SCOPED_TRACE(p.name);
  const Workload& w = *p.workload;
  RunContext run;
  ExpectSameDatafly(reference::Datafly(w.data, w.hierarchies,
                                       DataflyConfig{p.k, p.suppression},
                                       &run),
                    *p.datafly);
  run = RunContext();
  ExpectSameWalk(reference::TopDown(w.data, w.hierarchies,
                                    GreedyWalkConfig{p.k, p.suppression},
                                    p.loss.fn, &run),
                 *p.top_down, p.loss.fn);
  run = RunContext();
  ExpectSameWalk(reference::BottomUp(w.data, w.hierarchies,
                                     GreedyWalkConfig{p.k, p.suppression},
                                     p.loss.fn, &run),
                 *p.bottom_up, p.loss.fn);
  run = RunContext();
  auto incognito = reference::Incognito(
      w.data, w.hierarchies, IncognitoConfig{p.k, p.suppression}, p.loss.fn,
      &run);
  for (const StatusOr<IncognitoResult>& got : p.incognito) {
    ExpectSameIncognito(incognito, got);
  }

  // Searches without a string-path copy: `best` is checked against
  // EvaluateNode(best_node). Feasibility is monotone in the lattice, so
  // all three agree on whether a release exists.
  const auto& samarati = *p.samarati;
  const auto& stochastic = *p.stochastic;
  const auto& optimal = *p.optimal;
  ASSERT_EQ(samarati.ok(), optimal.ok());
  ASSERT_EQ(stochastic.ok(), optimal.ok());
  if (!optimal.ok()) {
    EXPECT_EQ(optimal.status().code(), StatusCode::kInfeasible);
    return;
  }
  ExpectBestIsReference(w, p.k, p.suppression, "samarati",
                        samarati->best_node, samarati->best, p.loss.fn,
                        nullptr);
  ExpectBestIsReference(w, p.k, p.suppression, "stochastic",
                        stochastic->best_node, stochastic->best, p.loss.fn,
                        &stochastic->best_loss);
  ExpectBestIsReference(w, p.k, p.suppression, "optimal", optimal->best_node,
                        optimal->best, p.loss.fn, &optimal->best_loss);
}

// Runs `fn` over `points` on four workers. The searches and the string
// path only read the shared datasets and hierarchies.
void ForEachPoint(std::vector<Point>& points,
                  const std::function<void(Point&)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < points.size(); i = next++) fn(points[i]);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

TEST(SearchOracleTest, EverySearchMatchesTheStringPathReference) {
  const std::vector<Workload> workloads = Workloads();
  std::vector<Point> points;
  for (const Workload& workload : workloads) {
    for (int k : {2, 5, 10}) {
      for (double fraction : {0.0, 0.02, 0.1}) {
        for (const NamedLoss& loss : Losses()) {
          Point p;
          p.workload = &workload;
          p.k = k;
          p.suppression = SuppressionBudget{fraction};
          p.loss = loss;
          p.name = workload.name + " k=" + std::to_string(k) +
                   " supp=" + std::to_string(fraction) + " loss=" + loss.name;
          points.push_back(std::move(p));
        }
      }
    }
  }
  // Every production search runs before any reference, so the string-path
  // counter must not move across the whole first phase.
  const uint64_t legacy_before = LegacyNodeCount();
  ForEachPoint(points, RunProduction);
  EXPECT_EQ(LegacyNodeCount(), legacy_before)
      << "a search evaluated a node on the string path";
  ForEachPoint(points, CheckAgainstReference);
}

// An Optimal search resumed from a truncation point re-derives `best` from
// its checkpoint; that release must be the string path's too. The
// truncation points are spread geometrically over the sweep.
TEST(SearchOracleTest, OptimalResumeRederivesTheReferenceBest) {
  for (const Workload& workload :
       {Table1Workload(), CensusWorkload(60, 1)}) {
    SCOPED_TRACE(workload.name);
    OptimalSearchConfig config;
    config.k = 3;
    config.suppression = SuppressionBudget{0.1};
    auto full = OptimalLatticeSearch(workload.data, workload.hierarchies,
                                     config, LmLoss);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    size_t resumed_with_best = 0;
    for (uint64_t steps = 1; steps <= full->nodes_evaluated;
         steps += 1 + steps / 4) {
      SCOPED_TRACE("max_steps=" + std::to_string(steps));
      RunContext run;
      run.set_max_steps(steps);
      OptimalLatticeCheckpoint checkpoint;
      (void)OptimalLatticeSearch(workload.data, workload.hierarchies, config,
                                 LmLoss, &run, &checkpoint);
      if (!checkpoint.has_state()) continue;
      auto bytes = checkpoint.SaveCheckpoint();
      ASSERT_TRUE(bytes.ok());
      OptimalLatticeCheckpoint loaded;
      ASSERT_TRUE(loaded.ResumeFrom(*bytes).ok());
      if (!loaded.minimal_nodes.empty()) ++resumed_with_best;
      const uint64_t legacy_before = LegacyNodeCount();
      auto resumed = OptimalLatticeSearch(workload.data, workload.hierarchies,
                                          config, LmLoss, nullptr, &loaded);
      EXPECT_EQ(LegacyNodeCount(), legacy_before);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_EQ(resumed->best_node, full->best_node);
      EXPECT_TRUE(SameBits(resumed->best_loss, full->best_loss));
      ExpectBestIsReference(workload, config.k, config.suppression, "optimal",
                            resumed->best_node, resumed->best, LmLoss,
                            &resumed->best_loss);
    }
    // Some truncation point held a best node, so the resume path ran.
    EXPECT_GT(resumed_with_best, 0u);
  }
}

// What one budgeted run of a search reports, in a form both paths share.
struct Outcome {
  std::string status;  // "ok" or the Status text.
  std::string release;
  LatticeNode node;
  int steps = 0;
  RunStats run_stats;
  std::vector<LatticeNode> anonymous_nodes;
  size_t frequency_evaluations = 0;
};

template <typename Result>
Outcome StatusOnly(const StatusOr<Result>& result) {
  Outcome outcome;
  outcome.status = result.ok() ? "ok" : result.status().ToString();
  return outcome;
}

void ExpectSameOutcome(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(want.status, got.status);
  EXPECT_EQ(want.release, got.release);
  EXPECT_EQ(want.node, got.node);
  EXPECT_EQ(want.steps, got.steps);
  EXPECT_EQ(want.run_stats.steps, got.run_stats.steps);
  EXPECT_EQ(want.run_stats.truncated, got.run_stats.truncated);
  EXPECT_EQ(want.anonymous_nodes, got.anonymous_nodes);
  EXPECT_EQ(want.frequency_evaluations, got.frequency_evaluations);
}

// A search under test: runs the production (`reference` false) or the
// string-path implementation under `run`.
using SearchFn = std::function<Outcome(RunContext* run, bool reference)>;

SearchFn DataflySearch(const Workload& w, int k, SuppressionBudget s) {
  return [&w, k, s](RunContext* run, bool ref) {
    const DataflyConfig config{k, s};
    auto result =
        ref ? reference::Datafly(w.data, w.hierarchies, config, run)
            : DataflyAnonymize(w.data, w.hierarchies, config, run);
    Outcome outcome = StatusOnly(result);
    if (result.ok()) {
      outcome.release = result->evaluation.anonymization.release.ToCsv();
      outcome.node = result->node;
      outcome.steps = result->generalization_steps;
      outcome.run_stats = result->run_stats;
    }
    return outcome;
  };
}

SearchFn WalkSearch(const Workload& w, int k, SuppressionBudget s,
                    bool top_down) {
  return [&w, k, s, top_down](RunContext* run, bool ref) {
    const GreedyWalkConfig config{k, s};
    StatusOr<GreedyWalkResult> result =
        top_down
            ? (ref ? reference::TopDown(w.data, w.hierarchies, config,
                                        ProxyLoss, run)
                   : TopDownSpecialize(w.data, w.hierarchies, config,
                                       ProxyLoss, run))
            : (ref ? reference::BottomUp(w.data, w.hierarchies, config,
                                         ProxyLoss, run)
                   : BottomUpGeneralize(w.data, w.hierarchies, config,
                                        ProxyLoss, run));
    Outcome outcome = StatusOnly(result);
    if (result.ok()) {
      outcome.release = result->evaluation.anonymization.release.ToCsv();
      outcome.node = result->node;
      outcome.steps = result->steps;
      outcome.run_stats = result->run_stats;
    }
    return outcome;
  };
}

SearchFn IncognitoSearch(const Workload& w, int k, SuppressionBudget s) {
  return [&w, k, s](RunContext* run, bool ref) {
    const IncognitoConfig config{k, s};
    auto result =
        ref ? reference::Incognito(w.data, w.hierarchies, config, ProxyLoss,
                                   run)
            : IncognitoAnonymize(w.data, w.hierarchies, config, ProxyLoss,
                                 run);
    Outcome outcome = StatusOnly(result);
    if (result.ok()) {
      outcome.release = result->best.anonymization.release.ToCsv();
      outcome.node = result->best_node;
      outcome.run_stats = result->run_stats;
      outcome.anonymous_nodes = result->anonymous_nodes;
      outcome.frequency_evaluations = result->frequency_evaluations;
    }
    return outcome;
  };
}

// Runs `search` under a max_steps budget (0 = unbudgeted) and counts the
// full_domain.evaluate passes: a site armed with an OK Status counts
// every pass as a hit without failing it.
Outcome RunCounted(const SearchFn& search, uint64_t max_steps, bool ref,
                   int& evaluate_passes) {
  failpoint::ScopedFailpoint count("full_domain.evaluate", Status::Ok());
  RunContext run;
  if (max_steps > 0) run.set_max_steps(max_steps);
  Outcome outcome = search(&run, ref);
  evaluate_passes = failpoint::HitCount("full_domain.evaluate");
  return outcome;
}

// Sweeps max_steps from 1 to one past completion, in steps of `stride`
// (completion and one past it always included). At every budget the
// production search must return the reference's Status or truncated
// result after the same number of full_domain.evaluate passes. With
// `inject_faults`, a fault injected at each of those passes must also
// surface identically.
void ExpectBudgetParity(const SearchFn& search, uint64_t stride,
                        bool inject_faults) {
  int passes = 0;
  Outcome unbudgeted = RunCounted(search, 0, false, passes);
  ASSERT_EQ(unbudgeted.status, "ok");
  const uint64_t completion = unbudgeted.run_stats.steps;
  ASSERT_GT(completion, 0u);
  std::vector<uint64_t> budgets;
  for (uint64_t steps = 1; steps < completion; steps += stride) {
    budgets.push_back(steps);
  }
  budgets.push_back(completion);
  budgets.push_back(completion + 1);
  for (uint64_t steps : budgets) {
    SCOPED_TRACE("max_steps=" + std::to_string(steps));
    int want_passes = 0;
    int got_passes = 0;
    Outcome want = RunCounted(search, steps, true, want_passes);
    Outcome got = RunCounted(search, steps, false, got_passes);
    ExpectSameOutcome(want, got);
    EXPECT_EQ(want_passes, got_passes);
    if (steps > completion) {
      EXPECT_EQ(got.status, "ok");
      EXPECT_FALSE(got.run_stats.truncated);
    }
    if (!inject_faults) continue;
    for (int skip = 0; skip < want_passes; ++skip) {
      SCOPED_TRACE("fault at pass " + std::to_string(skip));
      Outcome faulted[2];
      for (bool ref : {true, false}) {
        failpoint::ScopedFailpoint fault("full_domain.evaluate",
                                         Status::Internal("injected"), skip,
                                         1);
        RunContext run;
        run.set_max_steps(steps);
        faulted[ref ? 0 : 1] = search(&run, ref);
        EXPECT_EQ(failpoint::HitCount("full_domain.evaluate"), 1);
      }
      ExpectSameOutcome(faulted[0], faulted[1]);
    }
  }
}

TEST(SearchBudgetParityTest, EveryBudgetMatchesTheReference) {
  if (!failpoint::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  struct Case {
    Workload workload;
    int k;
    SuppressionBudget suppression;
    uint64_t stride;
    bool inject_faults;
  };
  // Table 1 at every budget with a fault at every pass; the census, whose
  // Incognito sweep passes ~10^3 budget checks, at every 7th budget.
  std::vector<Case> cases;
  cases.push_back({Table1Workload(), 3, SuppressionBudget{}, 1, true});
  cases.push_back({Table1Workload(), 2, SuppressionBudget{0.2}, 1, true});
  cases.push_back(
      {CensusWorkload(60, 1), 5, SuppressionBudget{0.02}, 7, false});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.workload.name + " k=" + std::to_string(c.k));
    {
      SCOPED_TRACE("datafly");
      ExpectBudgetParity(DataflySearch(c.workload, c.k, c.suppression),
                         c.stride, c.inject_faults);
    }
    {
      SCOPED_TRACE("top-down");
      ExpectBudgetParity(WalkSearch(c.workload, c.k, c.suppression, true),
                         c.stride, c.inject_faults);
    }
    {
      SCOPED_TRACE("bottom-up");
      ExpectBudgetParity(WalkSearch(c.workload, c.k, c.suppression, false),
                         c.stride, c.inject_faults);
    }
    {
      SCOPED_TRACE("incognito");
      ExpectBudgetParity(IncognitoSearch(c.workload, c.k, c.suppression),
                         c.stride, c.inject_faults);
    }
  }
}

}  // namespace
}  // namespace mdc
