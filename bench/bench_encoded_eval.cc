// PERF-3: columnar evaluation engine. Three comparisons back the numbers
// in BENCH_lattice.json (see docs/performance.md):
//   1. node evaluation — legacy string-path EvaluateNode vs encoded
//      Evaluate, swept over every node of the 5-QI census lattice;
//   2. lattice searches at 1 thread — encoded engine end to end;
//   3. lattice searches at N threads — wave-parallel speedup.
// items_processed counts lattice nodes, so items_per_second is
// node-evaluation throughput and ratios between counters are speedups.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "anonymize/encoded_eval.h"
#include "anonymize/full_domain.h"
#include "anonymize/incognito.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/pareto_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "datagen/census_generator.h"

namespace mdc {
namespace {

// 5-QI census: age/zip/education/marital/occupation — 972-node lattice.
CensusData MakeCensus(size_t rows) {
  CensusConfig config;
  config.rows = rows;
  config.seed = 1234;
  config.with_occupation = true;
  auto census = GenerateCensus(config);
  MDC_CHECK(census.ok());
  return std::move(census).value();
}

std::vector<LatticeNode> AllNodes(const CensusData& census) {
  auto lattice = Lattice::ForHierarchies(census.hierarchies);
  MDC_CHECK(lattice.ok());
  return lattice->AllNodesByHeight();
}

// Legacy path: string generalization + map-of-string-tuples grouping per
// node. One iteration = one full lattice sweep.
void BM_NodeEval_Legacy(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  std::vector<LatticeNode> nodes = AllNodes(census);
  SuppressionBudget budget{0.02};
  for (auto _ : state) {
    for (const LatticeNode& node : nodes) {
      auto evaluation =
          EvaluateNode(census.data, census.hierarchies, node, 5, budget,
                       "bench");
      MDC_CHECK(evaluation.ok());
      benchmark::DoNotOptimize(evaluation->suppressed_count);
    }
  }
  state.SetItemsProcessed(state.iterations() * nodes.size());
}
BENCHMARK(BM_NodeEval_Legacy)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

// Encoded path: per-node level lookup tables + integer-key grouping. The
// evaluator is built once (as the searches do) and amortized.
void BM_NodeEval_Encoded(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  std::vector<LatticeNode> nodes = AllNodes(census);
  auto evaluator =
      EncodedNodeEvaluator::Build(census.data, census.hierarchies);
  MDC_CHECK(evaluator.ok());
  SuppressionBudget budget{0.02};
  for (auto _ : state) {
    for (const LatticeNode& node : nodes) {
      auto evaluation = evaluator->Evaluate(node, 5, budget);
      MDC_CHECK(evaluation.ok());
      benchmark::DoNotOptimize(evaluation->suppressed_count);
    }
  }
  state.SetItemsProcessed(state.iterations() * nodes.size());
  // Per node, the gather/group hot path reads one u32 code and writes one
  // u32 label per row per QI column; the bytes counter tracks that
  // kernel-level traffic for the roofline in docs/performance.md.
  const size_t rows = static_cast<size_t>(state.range(0));
  state.SetBytesProcessed(static_cast<int64_t>(
      state.iterations() * nodes.size() * rows * 5 * 2 * sizeof(uint32_t)));
}
BENCHMARK(BM_NodeEval_Encoded)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

// Encoded + materialize for every node — upper bound on per-node cost when
// a search scores every feasible node (the Pareto sweep's profile).
void BM_NodeEval_EncodedMaterialize(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  std::vector<LatticeNode> nodes = AllNodes(census);
  auto evaluator =
      EncodedNodeEvaluator::Build(census.data, census.hierarchies);
  MDC_CHECK(evaluator.ok());
  SuppressionBudget budget{0.02};
  for (auto _ : state) {
    for (const LatticeNode& node : nodes) {
      auto evaluation = evaluator->Evaluate(node, 5, budget);
      MDC_CHECK(evaluation.ok());
      auto full = evaluator->Materialize(node, *evaluation, "bench");
      MDC_CHECK(full.ok());
      benchmark::DoNotOptimize(full->anonymization.release.row_count());
    }
  }
  state.SetItemsProcessed(state.iterations() * nodes.size());
}
BENCHMARK(BM_NodeEval_EncodedMaterialize)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// The searches, parameterized by worker threads (range(1); 0 = hardware
// concurrency). items_processed counts evaluated nodes so the 1-vs-N
// throughput ratio is the parallel speedup. Timed in wall clock: the
// default CPU time is the coordinator thread's alone, which hides the
// pool workers' time and would overstate the speedup.

void BM_Search_Optimal(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  OptimalSearchConfig config;
  config.k = 5;
  config.suppression.max_fraction = 0.02;
  config.threads = static_cast<int>(state.range(1));
  size_t nodes = 0;
  for (auto _ : state) {
    auto result =
        OptimalLatticeSearch(census.data, census.hierarchies, config);
    MDC_CHECK(result.ok());
    nodes += result->nodes_evaluated;
  }
  state.SetItemsProcessed(static_cast<int64_t>(nodes));
}
BENCHMARK(BM_Search_Optimal)
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->Args({1000, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Search_Samarati(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  SamaratiConfig config;
  config.k = 5;
  config.suppression.max_fraction = 0.02;
  config.threads = static_cast<int>(state.range(1));
  size_t nodes = 0;
  for (auto _ : state) {
    auto result = SamaratiAnonymize(census.data, census.hierarchies, config);
    MDC_CHECK(result.ok());
    nodes += result->nodes_evaluated;
  }
  state.SetItemsProcessed(static_cast<int64_t>(nodes));
}
BENCHMARK(BM_Search_Samarati)
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->Args({1000, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Search_Incognito(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  IncognitoConfig config;
  config.k = 5;
  config.suppression.max_fraction = 0.02;
  config.threads = static_cast<int>(state.range(1));
  size_t nodes = 0;
  for (auto _ : state) {
    auto result =
        IncognitoAnonymize(census.data, census.hierarchies, config);
    MDC_CHECK(result.ok());
    nodes += result->frequency_evaluations;
  }
  state.SetItemsProcessed(static_cast<int64_t>(nodes));
}
BENCHMARK(BM_Search_Incognito)
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->Args({1000, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Search_Pareto(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  ParetoLatticeConfig config;
  config.threads = static_cast<int>(state.range(1));
  size_t nodes = 0;
  for (auto _ : state) {
    auto result =
        ParetoLatticeSearch(census.data, census.hierarchies, config);
    MDC_CHECK(result.ok());
    nodes += result->candidates.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(nodes));
}
BENCHMARK(BM_Search_Pareto)
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->Args({1000, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Search_Stochastic(benchmark::State& state) {
  CensusData census = MakeCensus(static_cast<size_t>(state.range(0)));
  StochasticConfig config;
  config.k = 5;
  config.suppression.max_fraction = 0.02;
  config.restarts = 8;
  config.threads = static_cast<int>(state.range(1));
  size_t nodes = 0;
  for (auto _ : state) {
    auto result =
        StochasticAnonymize(census.data, census.hierarchies, config);
    MDC_CHECK(result.ok());
    nodes += result->nodes_evaluated;
  }
  state.SetItemsProcessed(static_cast<int64_t>(nodes));
}
BENCHMARK(BM_Search_Stochastic)
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->Args({1000, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mdc
