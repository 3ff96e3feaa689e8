// High-throughput pairwise comparison engine over packed property
// matrices.
//
// The scalar layer (core/{dominance,quality_index,comparator}.*) computes
// each Table-4 relation and each §5 index with its own pass over
// PropertyVector::operator[], so comparing r properties costs O(r²·N) of
// bounds-checked, virtually-dispatched element work. The packed engine
// streams the two rows once per pair in cache-sized blocks and derives
// every dominance relation and every index from a single fused pass
// (ComputePairwiseStats).
//
// Bit-exactness contract: packed results are required to equal the scalar
// results EXACTLY (double ==), not approximately. Integer quantities
// (coverage/strict counts, dominance flags) are order-free; floating-point
// accumulations (spread sums, hypervolume products, rank distances) are
// carried across blocks in the same index order 0..N-1 the scalar code
// uses, and the build does not enable fast-math, so the compiler preserves
// that order. comparison_oracle_test.cc enforces the contract
// differentially against the scalar reference in tests/oracle/, the only
// other implementation.
//
// Determinism contract (same as the lattice searches): AllPairsCompare
// admits pairs serially in row-major (i, j) order — charging RunContext
// steps so a budget expires at the same pair for every thread count —
// evaluates admitted waves in parallel into per-pair slots, and commits
// results and `cmp.*` metrics counters serially in admission order.
// Results and DeterministicCountersText() are byte-identical for any
// thread count, including under step-budget truncation.

#ifndef MDC_CORE_COMPARE_ENGINE_H_
#define MDC_CORE_COMPARE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/comparator.h"
#include "core/dominance.h"
#include "core/property_matrix.h"

namespace mdc {

// Default kernel block: 1024 doubles per row = 2 × 8 KiB resident per
// pair, comfortably inside a 32–48 KiB L1 while long enough to amortize
// loop overhead. Tests override it to exercise N % block != 0 remainders.
inline constexpr size_t kCompareBlockSize = 1024;

// ---------------------------------------------------------------------------
// Raw kernels (packed path). Semantics match core/dominance.h and
// core/quality_index.h exactly; see the bit-exactness contract above.

bool PackedWeaklyDominates(const double* d1, const double* d2, size_t n);
bool PackedStronglyDominates(const double* d1, const double* d2, size_t n);
bool PackedNonDominated(const double* d1, const double* d2, size_t n);
DominanceRelation PackedCompareDominance(const double* d1, const double* d2,
                                         size_t n);

// P_rank: Lp distance to the ideal, identical to
// PropertyVector::DistanceTo (same per-element std::pow chain).
double PackedRankIndex(const double* d, const double* d_max, size_t n,
                       double p = 2.0);

// Everything a pair comparison needs, from one fused blocked pass.
struct PairwiseStats {
  uint64_t ge12 = 0;  // |{i : d1[i] >= d2[i]}|  (P_cov numerator, 1 vs 2)
  uint64_t ge21 = 0;
  uint64_t gt12 = 0;  // |{i : d1[i] > d2[i]}|   (P_binary, 1 vs 2)
  uint64_t gt21 = 0;
  double spr12 = 0.0;  // Σ max(d1[i] - d2[i], 0)  (P_spr, 1 vs 2)
  double spr21 = 0.0;
  double min1 = 0.0;  // min over d1 / d2 (first-occurrence semantics).
  double min2 = 0.0;
  bool with_hv = false;  // hv fields valid only when requested.
  double hv12 = 0.0;     // P_hv(d1, d2) = Π d1 − Π min(d1, d2)
  double hv21 = 0.0;
};

// `with_hv` requires strictly positive entries in both rows (scalar
// semantics; callers validate — the kernel MDC_CHECKs). Both rows must be
// finite (the PropertyMatrix contract): the weak counts are derived from
// the strict ones by totality (d1 >= d2 ⟺ ¬(d2 > d1)), which halves the
// count work per element. `with_min = false` skips the running-min pass
// for callers that precompute per-row minima (minima depend on one row
// only, so the all-pairs driver hoists them out of the O(r²) pair loop);
// min1/min2 are then left at d1[0]/d2[0].
PairwiseStats ComputePairwiseStats(const double* d1, const double* d2,
                                   size_t n, bool with_hv,
                                   size_t block = kCompareBlockSize,
                                   bool with_min = true);

// Derivations from the fused stats. Each mirrors its scalar counterpart.
DominanceRelation RelationFromStats(const PairwiseStats& stats);
double CoverageFromStats(const PairwiseStats& stats, size_t n,
                         bool forward);  // forward: P_cov(d1, d2)

// Scalar-outcome helper with the exact tie/epsilon logic of the
// comparator battery (comparator.cc FromScalars).
ComparatorOutcome OutcomeFromScalars(double first, double second,
                                     double epsilon = 0.0);

// Increments the deterministic cmp.* counters for one committed pair
// comparison. Must be called from a serial commit point only (the
// counters' thread-count invariance depends on it).
void CommitComparisonMetrics(DominanceRelation relation, size_t cols);

// ---------------------------------------------------------------------------
// All-pairs driver.

struct AllPairsOptions {
  // Total comparison threads (workers + caller); <= 0 means hardware.
  int threads = 1;
  // Compute P_hv. Requires strictly positive matrix entries (clean
  // InvalidArgument otherwise).
  bool include_hypervolume = false;
  // Rank ideal; empty skips P_rank. Must match the matrix width.
  PropertyVector d_max;
  double rank_p = 2.0;
  // Kernel block size; kept configurable so tests can force remainder
  // blocks. Must be > 0.
  size_t block = kCompareBlockSize;
};

// One ordered pair (first < second, row-major order).
struct PairComparison {
  size_t first = 0;
  size_t second = 0;
  DominanceRelation relation = DominanceRelation::kEqual;
  double cov12 = 0.0;  // P_cov(first, second)
  double cov21 = 0.0;
  uint64_t binary12 = 0;  // P_binary: strictly-better counts.
  uint64_t binary21 = 0;
  double spr12 = 0.0;  // P_spr(first, second)
  double spr21 = 0.0;
  double min1 = 0.0;  // Scalar min index of each row.
  double min2 = 0.0;
  double hv12 = 0.0;  // Valid iff options.include_hypervolume.
  double hv21 = 0.0;
  double rank1 = 0.0;  // Valid iff options.d_max was set.
  double rank2 = 0.0;
};

struct AllPairsResult {
  size_t rows = 0;
  size_t cols = 0;
  // All rows*(rows-1)/2 pairs in row-major (i, j) order, i < j.
  std::vector<PairComparison> pairs;
  // Per-row P_rank when options.d_max was set (else empty).
  std::vector<double> ranks;

  const PairComparison& Pair(size_t i, size_t j) const;
};

// Compares every unordered row pair of `matrix`. Returns the budget
// Status when `run` expires mid-sweep (committed `cmp.*` counters remain
// deterministic: admission order fixes the truncation point).
StatusOr<AllPairsResult> AllPairsCompare(const PropertyMatrix& matrix,
                                         const AllPairsOptions& options = {},
                                         RunContext* run = nullptr);

// ---------------------------------------------------------------------------
// Multi-property scoring (§5.5–5.6) on packed matrices. The generic
// BinaryIndex takes arbitrary std::functions, so the packed engine
// supports the named index kinds and reproduces WtdIndex/LexIndex
// arithmetic (and validation) exactly.

enum class PackedBinaryIndexKind { kCoverage, kSpread, kHypervolume };

// P_WTD over aligned matrices (row i of s1 vs row i of s2). `kinds` has
// one entry or one per row, like BinaryIndexList.
StatusOr<double> PackedWtdIndex(const PropertyMatrix& s1,
                                const PropertyMatrix& s2,
                                const std::vector<double>& weights,
                                const std::vector<PackedBinaryIndexKind>& kinds);

// P_lex: 1-based position of the first decisive property, r+1 if none.
StatusOr<size_t> PackedLexIndex(const PropertyMatrix& s1,
                                const PropertyMatrix& s2,
                                const std::vector<double>& epsilons,
                                const std::vector<PackedBinaryIndexKind>& kinds);

// ---------------------------------------------------------------------------
// Set-level dominance (Table 4 over aligned candidate sets) on packed
// matrices — used by the Pareto-front extraction. Matrices must agree in
// rows() and cols().

bool PackedSetWeaklyDominates(const PropertyMatrix& s1,
                              const PropertyMatrix& s2);
bool PackedSetStronglyDominates(const PropertyMatrix& s1,
                                const PropertyMatrix& s2);

}  // namespace mdc

#endif  // MDC_CORE_COMPARE_ENGINE_H_
