// Workload `study`: the paper's comparison study, in process, one thread.
//
// One pass runs eight disclosure-control algorithms on one census table
// at k=5 with a 2% suppression budget (LM loss wherever a search takes a
// loss function), the Pareto sweep over the whole generalization lattice,
// extracts each release's class-size and per-tuple utility vectors,
// ranks the releases with the all-pairs engine on both property matrices,
// and compares every pair of releases with the full comparator battery.
// The lattice, node-evaluation and LM layers do nearly all the work.

#include <memory>
#include <string>
#include <vector>

#include "anonymize/datafly.h"
#include "anonymize/incognito.h"
#include "anonymize/mondrian.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/pareto_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "anonymize/top_down.h"
#include "bench.h"
#include "core/compare_engine.h"
#include "core/properties.h"
#include "core/property_matrix.h"
#include "core/report.h"
#include "datagen/census_generator.h"
#include "privacy/k_anonymity.h"
#include "utility/loss_metric.h"

namespace perfbench {
namespace {

using namespace mdc;

constexpr int kK = 5;
constexpr double kSuppression = 0.02;
constexpr int kSetupSamples = 5;  // Before the first pass and after each.

struct Release {
  std::string name;
  Anonymization anonymization;
  EquivalencePartition partition;
};

double LmLoss(const Anonymization& anonymization,
              const EquivalencePartition&) {
  auto loss = LossMetric::TotalLoss(anonymization);
  MDC_CHECK(loss.ok());
  return *loss;
}

using Pair = std::pair<Anonymization, EquivalencePartition>;

// Runs one algorithm under its layer span; a failed status fails the op.
template <typename Fn>
void RunRelease(const char* span_name, const std::string& name, Fn&& fn,
                std::vector<Release>& releases, Result& result) {
  trace::Span span(span_name);
  StatusOr<Pair> release = fn();
  if (result.Gate(release.ok(), name + ": " + release.status().ToString())) {
    releases.push_back({name, std::move(release->first),
                        std::move(release->second)});
  }
}

uint64_t RunPass(const CensusData& census, uint64_t seed,
                 uint64_t expected_lattice, Result& result) {
  uint64_t fingerprint = 0;
  const SuppressionBudget budget{kSuppression};
  std::vector<Release> releases;
  auto data = census.data;
  const HierarchySet& hierarchies = census.hierarchies;

  RunRelease("anonymize.datafly", "datafly", [&]() -> StatusOr<Pair> {
    MDC_ASSIGN_OR_RETURN(auto r, DataflyAnonymize(data, hierarchies,
                                                  DataflyConfig{kK, budget}));
    return Pair{std::move(r.evaluation.anonymization),
                std::move(r.evaluation.partition)};
  }, releases, result);
  RunRelease("anonymize.samarati", "samarati", [&]() -> StatusOr<Pair> {
    SamaratiConfig config;
    config.k = kK;
    config.suppression = budget;
    MDC_ASSIGN_OR_RETURN(auto r,
                         SamaratiAnonymize(data, hierarchies, config, LmLoss));
    return Pair{std::move(r.best.anonymization), std::move(r.best.partition)};
  }, releases, result);
  RunRelease("anonymize.optimal", "optimal", [&]() -> StatusOr<Pair> {
    OptimalSearchConfig config;
    config.k = kK;
    config.suppression = budget;
    MDC_ASSIGN_OR_RETURN(
        auto r, OptimalLatticeSearch(data, hierarchies, config, LmLoss));
    return Pair{std::move(r.best.anonymization), std::move(r.best.partition)};
  }, releases, result);
  RunRelease("anonymize.incognito", "incognito", [&]() -> StatusOr<Pair> {
    IncognitoConfig config;
    config.k = kK;
    config.suppression = budget;
    MDC_ASSIGN_OR_RETURN(
        auto r, IncognitoAnonymize(data, hierarchies, config, LmLoss));
    return Pair{std::move(r.best.anonymization), std::move(r.best.partition)};
  }, releases, result);
  RunRelease("anonymize.stochastic", "stochastic", [&]() -> StatusOr<Pair> {
    StochasticConfig config;
    config.k = kK;
    config.suppression = budget;
    config.seed = seed;
    MDC_ASSIGN_OR_RETURN(
        auto r, StochasticAnonymize(data, hierarchies, config, LmLoss));
    return Pair{std::move(r.best.anonymization), std::move(r.best.partition)};
  }, releases, result);
  RunRelease("anonymize.top_down", "top-down", [&]() -> StatusOr<Pair> {
    MDC_ASSIGN_OR_RETURN(
        auto r, TopDownSpecialize(data, hierarchies,
                                  GreedyWalkConfig{kK, budget}, LmLoss));
    return Pair{std::move(r.evaluation.anonymization),
                std::move(r.evaluation.partition)};
  }, releases, result);
  RunRelease("anonymize.bottom_up", "bottom-up", [&]() -> StatusOr<Pair> {
    MDC_ASSIGN_OR_RETURN(
        auto r, BottomUpGeneralize(data, hierarchies,
                                   GreedyWalkConfig{kK, budget}, LmLoss));
    return Pair{std::move(r.evaluation.anonymization),
                std::move(r.evaluation.partition)};
  }, releases, result);
  RunRelease("anonymize.mondrian", "mondrian", [&]() -> StatusOr<Pair> {
    MDC_ASSIGN_OR_RETURN(auto r, MondrianAnonymize(data, MondrianConfig{kK}));
    return Pair{std::move(r.anonymization), std::move(r.partition)};
  }, releases, result);

  // Gate: every release is k-anonymous within the suppression budget.
  const size_t max_suppressed = budget.MaxRows(data->row_count());
  for (const Release& release : releases) {
    double min_class =
        KAnonymity(1).Measure(release.anonymization, release.partition);
    size_t suppressed = release.anonymization.SuppressedCount();
    result.Gate(min_class >= kK && suppressed <= max_suppressed,
                release.name + " reaches k=" + std::to_string(min_class) +
                    " with " + std::to_string(suppressed) +
                    " suppressed rows");
    fingerprint = Fnv(release.anonymization.release.ToCsv(),
                      Fnv(release.name, fingerprint));
  }
  result.Gate(releases.size() == 8, "study produced " +
                                        std::to_string(releases.size()) +
                                        " of 8 releases");

  {
    trace::Span span("anonymize.pareto");
    auto pareto = ParetoLatticeSearch(data, hierarchies);
    if (result.Gate(pareto.ok(), "pareto: " + pareto.status().ToString())) {
      result.Gate(pareto->lattice_size == expected_lattice &&
                      pareto->candidates.size() == expected_lattice,
                  "pareto scored " +
                      std::to_string(pareto->candidates.size()) + " of " +
                      std::to_string(pareto->lattice_size) +
                      " lattice nodes, want " +
                      std::to_string(expected_lattice));
      for (size_t index : pareto->vector_front) {
        fingerprint = Fnv(std::to_string(index), fingerprint);
      }
      fingerprint = Fnv("|", fingerprint);
      for (size_t index : pareto->scalar_front) {
        fingerprint = Fnv(std::to_string(index), fingerprint);
      }
    }
  }

  PropertySet privacy;
  PropertySet utility;
  {
    trace::Span span("utility.extract");
    for (const Release& release : releases) {
      privacy.emplace_back(
          release.name,
          EquivalenceClassSizeVector(release.partition).values());
      auto per_tuple =
          release.anonymization.scheme.has_value()
              ? LossMetric::PerTupleUtility(release.anonymization)
              : ClassSpreadLoss::PerTupleUtility(release.anonymization,
                                                 release.partition);
      if (!result.Gate(per_tuple.ok(), release.name + " utility: " +
                                           per_tuple.status().ToString())) {
        return fingerprint;
      }
      utility.emplace_back(release.name, per_tuple->values());
    }
  }
  for (const PropertySet* set : {&privacy, &utility}) {
    StatusOr<PropertyMatrix> matrix = [&] {
      trace::Span span("core.matrix");
      return PropertyMatrix::FromSet(*set);
    }();
    if (!result.Gate(matrix.ok(), "matrix: " + matrix.status().ToString())) {
      continue;
    }
    StatusOr<AllPairsResult> ranked = [&] {
      trace::Span span("core.compare");
      return AllPairsCompare(*matrix);
    }();
    if (!result.Gate(ranked.ok(), "all-pairs: " + ranked.status().ToString())) {
      continue;
    }
    for (const PairComparison& pair : ranked->pairs) {
      result.Gate(pair.cov12 + pair.cov21 >= 1.0,
                  "cov12 + cov21 < 1 for " + matrix->name(pair.first) +
                      " vs " + matrix->name(pair.second));
      const double values[] = {pair.cov12, pair.cov21, pair.spr12,
                               pair.spr21, pair.min1,  pair.min2};
      fingerprint = FnvDoubles(values, 6, fingerprint);
      fingerprint = Fnv(std::to_string(static_cast<int>(pair.relation)),
                        fingerprint);
    }
  }

  {
    trace::Span span("core.report");
    ComparisonOptions options;
    options.sensitive_column = census.sensitive_column;
    for (size_t i = 0; i < releases.size(); ++i) {
      for (size_t j = i + 1; j < releases.size(); ++j) {
        auto report = CompareAnonymizations(
            releases[i].anonymization, releases[i].partition,
            releases[j].anonymization, releases[j].partition, options);
        if (result.Gate(report.ok(), releases[i].name + " vs " +
                                         releases[j].name + ": " +
                                         report.status().ToString())) {
          fingerprint = Fnv(report->ToText(), fingerprint);
        }
      }
    }
  }
  return fingerprint;
}

uint64_t LatticeSize(const CensusData& census) {
  uint64_t size = 1;
  for (int height : census.hierarchies.MaxLevels()) {
    size *= static_cast<uint64_t>(height + 1);
  }
  return size;
}

}  // namespace

Result RunStudy(const Options& options) {
  Result result;
  CensusConfig config;
  config.rows = options.size == Size::kFull ? 300 : 60;
  config.seed = options.seed;
  config.with_occupation = true;

  // Set-up: generate the census table and its hierarchies. The first
  // result is the one measured; the rest are set-up samples.
  std::vector<double> setup_samples;
  auto set_up = [&] {
    Clock::time_point start = Clock::now();
    StatusOr<CensusData> census = GenerateCensus(config);
    setup_samples.push_back(SecondsSince(start));
    result.Gate(census.ok(), "census: " + census.status().ToString());
    return census;
  };
  auto sample_set_ups = [&] {
    for (int i = 0; i < kSetupSamples; ++i) set_up();
  };
  StatusOr<CensusData> census = set_up();
  if (!census.ok()) {
    result.EndOp();
    return result;
  }
  sample_set_ups();
  const uint64_t lattice = LatticeSize(*census);
  result.Gate(lattice == 972,
              "census lattice has " + std::to_string(lattice) +
                  " nodes, want 972");

  auto before = metrics::Snapshot();
  PassLoop loop = RunPasses(
      options, "study",
      [&] { return RunPass(*census, options.seed, lattice, result); },
      sample_set_ups, result);
  result.Note("study fingerprint " + Hex(loop.fingerprint) + " rows=" +
              std::to_string(config.rows) + " lattice=" +
              std::to_string(lattice) + " passes=" +
              std::to_string(loop.passes));
  if (!options.trace) {
    AddPassMetrics(setup_samples, loop, result);
    return result;
  }
  const CounterMap delta = CounterDelta(before, metrics::Snapshot());
  const double per_pass = 1.0 / loop.passes;
  auto per_pass_charged = [&](const char* counter) {
    return Charged(delta, counter, result) * per_pass;
  };
  result.Add("anonymize.eval_nodes", per_pass_charged("eval.nodes"), "count");
  // The legacy evaluator is due to be removed, so this one may be 0.
  result.Add("anonymize.eval_nodes_legacy",
             Counted(delta, "eval.nodes_legacy") * per_pass, "count");
  result.Add("anonymize.materialized", per_pass_charged("eval.materialized"),
             "count");
  result.Add("anonymize.partition_rows", per_pass_charged("partition.rows"),
             "count");
  result.Add("anonymize.pareto_candidates",
             per_pass_charged("search.pareto.candidates"), "count");
  result.Add("core.cmp_elements", per_pass_charged("cmp.elements"), "count");
  // One thread: the pool may see no jobs at all.
  result.Add("common.pool_jobs", Counted(delta, "pool.jobs") * per_pass,
             "count");
  AddTraceMetrics(loop.trace, OverheadPct(loop.plain_s, loop.traced_s),
                  {"anonymize.datafly", "anonymize.samarati",
                   "anonymize.optimal", "anonymize.incognito",
                   "anonymize.stochastic", "anonymize.top_down",
                   "anonymize.bottom_up", "anonymize.mondrian",
                   "anonymize.pareto", "utility.extract", "core.report",
                   "core.compare", "core.matrix"},
                  {"pareto/search", "encoded_eval/build",
                   "encoded_eval/materialize", "optimal/search",
                   "samarati/search", "samarati/sweep_height",
                   "incognito/search", "stochastic/search",
                   "stochastic/restart"},
                  result);
  return result;
}

}  // namespace perfbench
