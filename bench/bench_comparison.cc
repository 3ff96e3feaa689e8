// Comparison-engine benchmarks backing BENCH_comparison.json (see
// docs/performance.md):
//   1. scalar reference (tests/oracle/) vs packed all-pairs throughput at
//      N ∈ {1e4, 1e5, 1e6}, r ∈ {2, 8, 32} — the packed/scalar
//      items_per_second ratio is the single-thread kernel speedup;
//   2. packed thread scaling at N = 1e6, r = 8 and N = 1e5, r = 32 over
//      {1, 2, 4, hw} threads, timed in wall clock (UseRealTime) — 1-vs-N
//      throughput ratios are the parallel speedup;
//   3. a thread-invariance check benchmark that asserts results and
//      cmp.* deterministic counters are byte-identical across thread
//      counts (the bench fails loudly if determinism regresses).
// items_processed counts element comparisons (pairs × N), so
// items_per_second is pairwise element throughput.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/compare_engine.h"
#include "core/property_matrix.h"
#include "oracle/comparison.h"

namespace mdc {
namespace {

// Tie-heavy positive values, like equivalence-class-size vectors: half
// the entries are small integers (many exact ties across rows), half are
// continuous.
PropertyMatrix MakeMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  PropertySet set;
  set.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> values(cols);
    for (size_t c = 0; c < cols; ++c) {
      values[c] = rng.NextBool(0.5)
                      ? static_cast<double>(rng.NextInt(1, 32))
                      : rng.NextDouble() * 100.0;
    }
    set.emplace_back("p" + std::to_string(r), std::move(values));
  }
  auto matrix = PropertyMatrix::FromSet(set);
  MDC_CHECK(matrix.ok());
  return std::move(matrix).value();
}

// Everything AllPairsCompare produced, rendered bit-exactly — the
// equality token for the thread-invariance check.
std::string Fingerprint(const AllPairsResult& result) {
  std::string out;
  for (double rank : result.ranks) {
    out += FormatDouble(rank, 17) + ";";
  }
  for (const PairComparison& pair : result.pairs) {
    out += std::to_string(pair.first) + "," + std::to_string(pair.second) +
           "," + std::to_string(static_cast<int>(pair.relation)) + "," +
           FormatDouble(pair.cov12, 17) + "," + FormatDouble(pair.cov21, 17) +
           "," + std::to_string(pair.binary12) + "," +
           std::to_string(pair.binary21) + "," +
           FormatDouble(pair.spr12, 17) + "," + FormatDouble(pair.spr21, 17) +
           "," + FormatDouble(pair.min1, 17) + "," +
           FormatDouble(pair.min2, 17) + "\n";
  }
  return out;
}

// `compare` is AllPairsCompare or the scalar reference.
template <typename CompareFn>
void RunAllPairs(benchmark::State& state, const CompareFn& compare) {
  const size_t cols = static_cast<size_t>(state.range(0));
  const size_t rows = static_cast<size_t>(state.range(1));
  PropertyMatrix matrix = MakeMatrix(rows, cols, /*seed=*/77);
  AllPairsOptions options;
  options.threads = static_cast<int>(state.range(2));
  size_t pairs = 0;
  for (auto _ : state) {
    auto result = compare(matrix, options);
    MDC_CHECK(result.ok());
    benchmark::DoNotOptimize(result->pairs.data());
    pairs += result->pairs.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(pairs * cols));
  // Each compared pair reads both property rows once per sweep; the
  // bytes counter is the kernel-level memory traffic the roofline in
  // docs/performance.md compares against measured peak bandwidth.
  state.SetBytesProcessed(
      static_cast<int64_t>(pairs * cols * 2 * sizeof(double)));
}

void BM_AllPairs_Scalar(benchmark::State& state) {
  RunAllPairs(state, [](const PropertyMatrix& matrix,
                        const AllPairsOptions& options) {
    return oracle::AllPairsCompareScalar(matrix, options);
  });
}
BENCHMARK(BM_AllPairs_Scalar)
    ->Args({10000, 2, 1})
    ->Args({10000, 8, 1})
    ->Args({10000, 32, 1})
    ->Args({100000, 2, 1})
    ->Args({100000, 8, 1})
    ->Args({100000, 32, 1})
    ->Args({1000000, 2, 1})
    ->Args({1000000, 8, 1})
    ->Args({1000000, 32, 1})
    ->Unit(benchmark::kMillisecond);

void BM_AllPairs_Packed(benchmark::State& state) {
  RunAllPairs(state, [](const PropertyMatrix& matrix,
                        const AllPairsOptions& options) {
    return AllPairsCompare(matrix, options);
  });
}
BENCHMARK(BM_AllPairs_Packed)
    ->Args({10000, 2, 1})
    ->Args({10000, 8, 1})
    ->Args({10000, 32, 1})
    ->Args({100000, 2, 1})
    ->Args({100000, 8, 1})
    ->Args({100000, 32, 1})
    ->Args({1000000, 2, 1})
    ->Args({1000000, 8, 1})
    ->Args({1000000, 32, 1})
    ->Unit(benchmark::kMillisecond);
// Thread scaling at the acceptance point (N = 1e6, r = 8) and on the
// widest matrix, timed in wall clock: CPU time counts only the calling
// thread, so it would overstate a multi-threaded speedup. The 1-thread
// rows are the baselines of the ratios.
BENCHMARK(BM_AllPairs_Packed)
    ->Args({1000000, 8, 1})
    ->Args({1000000, 8, 2})
    ->Args({1000000, 8, 4})
    ->Args({1000000, 8, 0})
    ->Args({100000, 32, 1})
    ->Args({100000, 32, 2})
    ->Args({100000, 32, 4})
    ->Args({100000, 32, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Determinism assertions as a benchmark: every iteration recomputes the
// all-pairs result at `threads` and requires a byte-identical result
// fingerprint and cmp.* counter text against the single-thread
// reference. A regression aborts the bench binary.
void BM_ThreadInvariance(benchmark::State& state) {
  PropertyMatrix matrix = MakeMatrix(8, 10000, /*seed=*/78);
  AllPairsOptions options;
  options.d_max = PropertyVector(
      "ideal", std::vector<double>(matrix.cols(), 101.0));
  options.threads = 1;
  metrics::ResetForTest();
  auto reference = AllPairsCompare(matrix, options);
  MDC_CHECK(reference.ok());
  const std::string reference_fingerprint = Fingerprint(*reference);
  const std::string reference_counters =
      metrics::Snapshot().DeterministicCountersText();
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    metrics::ResetForTest();
    auto result = AllPairsCompare(matrix, options);
    MDC_CHECK(result.ok());
    MDC_CHECK(Fingerprint(*result) == reference_fingerprint);
    MDC_CHECK(metrics::Snapshot().DeterministicCountersText() ==
              reference_counters);
  }
  state.SetItemsProcessed(static_cast<int64_t>(
      state.iterations() * reference->pairs.size() * matrix.cols()));
}
BENCHMARK(BM_ThreadInvariance)->Arg(2)->Arg(4)->Arg(0)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace mdc
