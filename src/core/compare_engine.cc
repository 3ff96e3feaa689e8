#include "core/compare_engine.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/compare_kernels.h"
#include "core/quality_index.h"

namespace mdc {
namespace {

// One-vs-many evaluation of a run of pairs (i, j_0..j_{count-1}) sharing
// their first row. Blocks are the OUTER loop and partners the inner one,
// so each block of row i is loaded once per `count` partner blocks — at
// N=1e6 (rows far beyond LLC) that cuts DRAM traffic per pair-element
// from 16 bytes toward 8·(1+count)/count.
//
// Bit-exactness vs the per-pair path: every per-partner accumulator
// (counts, spreads, hv own/shared products) advances across blocks in
// index order exactly as ComputePairwiseStats does, and the own1 product
// depends only on row i, so hoisting it out of the partner loop keeps
// its chain identical for every pair.
void EvaluateRowGroupPacked(const PropertyMatrix& matrix, size_t i,
                            const std::pair<size_t, size_t>* pairs,
                            size_t count, const AllPairsOptions& options,
                            const std::vector<double>& row_mins,
                            PairComparison* out) {
  const CompareKernels& kernels = ActiveCompareKernels();
  const size_t n = matrix.cols();
  const double* d1 = matrix.row(i);
  const bool with_hv = options.include_hypervolume;
  std::vector<PairwiseStats> stats(count);
  double own1 = 1.0;
  std::vector<double> own2;
  std::vector<double> shared;
  if (with_hv) {
    own2.assign(count, 1.0);
    shared.assign(count, 1.0);
  }
  for (size_t start = 0; start < n; start += options.block) {
    const size_t end = std::min(n, start + options.block);
    const size_t len = end - start;
    if (with_hv) {
      for (size_t c = start; c < end; ++c) {
        MDC_CHECK_MSG(d1[c] > 0.0,
                      "hypervolume indices require strictly positive entries");
        own1 *= d1[c];
      }
    }
    for (size_t s = 0; s < count; ++s) {
      const double* d2 = matrix.row(pairs[s].second);
      kernels.count_spread(d1 + start, d2 + start, len, &stats[s].gt12,
                           &stats[s].gt21, &stats[s].spr12, &stats[s].spr21);
      if (with_hv) {
        for (size_t c = start; c < end; ++c) {
          MDC_CHECK_MSG(
              d2[c] > 0.0,
              "hypervolume indices require strictly positive entries");
          own2[s] *= d2[c];
          shared[s] *= std::min(d1[c], d2[c]);
        }
      }
    }
  }
  for (size_t s = 0; s < count; ++s) {
    const auto [first, second] = pairs[s];
    // Finite entries are totally ordered, so the weak counts follow from
    // the strict ones by totality.
    stats[s].ge12 = n - stats[s].gt21;
    stats[s].ge21 = n - stats[s].gt12;
    PairComparison& pair = out[s];
    pair.first = first;
    pair.second = second;
    pair.relation = RelationFromStats(stats[s]);
    pair.cov12 = CoverageFromStats(stats[s], n, /*forward=*/true);
    pair.cov21 = CoverageFromStats(stats[s], n, /*forward=*/false);
    pair.binary12 = stats[s].gt12;
    pair.binary21 = stats[s].gt21;
    pair.spr12 = stats[s].spr12;
    pair.spr21 = stats[s].spr21;
    // Minima were hoisted to one pass per row (they depend on a single
    // row), so the group kernel skips its min sweep.
    pair.min1 = row_mins[first];
    pair.min2 = row_mins[second];
    if (with_hv) {
      pair.hv12 = own1 - shared[s];
      pair.hv21 = own2[s] - shared[s];
    }
  }
}

Status ValidateKinds(const PropertyMatrix& s1,
                     const std::vector<PackedBinaryIndexKind>& kinds) {
  if (kinds.size() != 1 && kinds.size() != s1.rows()) {
    return Status::InvalidArgument(
        "index list must have one entry or one per property");
  }
  return Status::Ok();
}

Status ValidateAlignment(const PropertyMatrix& s1, const PropertyMatrix& s2) {
  if (s1.rows() != s2.rows()) {
    return Status::InvalidArgument("property sets have different arity");
  }
  if (s1.empty()) {
    return Status::InvalidArgument("property sets are empty");
  }
  if (s1.cols() != s2.cols()) {
    return Status::InvalidArgument("aligned property vectors differ in size");
  }
  return Status::Ok();
}

PackedBinaryIndexKind KindAt(const std::vector<PackedBinaryIndexKind>& kinds,
                             size_t i) {
  return kinds.size() == 1 ? kinds[0] : kinds[i];
}

Status RequirePositive(const PropertyMatrix& matrix) {
  for (size_t r = 0; r < matrix.rows(); ++r) {
    const double* values = matrix.row(r);
    for (size_t c = 0; c < matrix.cols(); ++c) {
      if (!(values[c] > 0.0)) {
        return Status::InvalidArgument(
            "hypervolume indices require strictly positive entries "
            "(property '" +
            matrix.name(r) + "', position " + std::to_string(c) + ")");
      }
    }
  }
  return Status::Ok();
}

// P_cov / P_spr / P_hv of one aligned row pair, by kind. The spread and
// hypervolume accumulations run in index order, matching the scalar code.
double PackedBinaryValue(PackedBinaryIndexKind kind, const double* a,
                         const double* b, size_t n, bool forward) {
  PairwiseStats stats = ComputePairwiseStats(
      a, b, n, /*with_hv=*/kind == PackedBinaryIndexKind::kHypervolume,
      kCompareBlockSize, /*with_min=*/false);  // No kind reads the mins.
  switch (kind) {
    case PackedBinaryIndexKind::kCoverage:
      return CoverageFromStats(stats, n, forward);
    case PackedBinaryIndexKind::kSpread:
      return forward ? stats.spr12 : stats.spr21;
    case PackedBinaryIndexKind::kHypervolume:
      return forward ? stats.hv12 : stats.hv21;
  }
  return 0.0;
}

}  // namespace

bool PackedWeaklyDominates(const double* d1, const double* d2, size_t n) {
  return ActiveCompareKernels().weakly_dominates(d1, d2, n);
}

bool PackedStronglyDominates(const double* d1, const double* d2, size_t n) {
  const CompareKernels& kernels = ActiveCompareKernels();
  if (!kernels.weakly_dominates(d1, d2, n)) return false;
  bool first_better = false;
  bool second_better = false;
  kernels.strict_flags(d1, d2, n, &first_better, &second_better);
  return first_better;
}

bool PackedNonDominated(const double* d1, const double* d2, size_t n) {
  bool first_better = false;
  bool second_better = false;
  ActiveCompareKernels().strict_flags(d1, d2, n, &first_better,
                                      &second_better);
  return first_better && second_better;
}

DominanceRelation PackedCompareDominance(const double* d1, const double* d2,
                                         size_t n) {
  bool first_better = false;
  bool second_better = false;
  ActiveCompareKernels().strict_flags(d1, d2, n, &first_better,
                                      &second_better);
  if (first_better && second_better) return DominanceRelation::kIncomparable;
  if (first_better) return DominanceRelation::kFirstDominates;
  if (second_better) return DominanceRelation::kSecondDominates;
  return DominanceRelation::kEqual;
}

double PackedRankIndex(const double* d, const double* d_max, size_t n,
                       double p) {
  MDC_CHECK_GE(p, 1.0);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += std::pow(std::abs(d[i] - d_max[i]), p);
  }
  return std::pow(sum, 1.0 / p);
}

PairwiseStats ComputePairwiseStats(const double* d1, const double* d2,
                                   size_t n, bool with_hv, size_t block,
                                   bool with_min) {
  MDC_CHECK_GT(n, 0u);
  MDC_CHECK_GT(block, 0u);
  const CompareKernels& kernels = ActiveCompareKernels();
  PairwiseStats stats;
  stats.with_hv = with_hv;
  stats.min1 = d1[0];
  stats.min2 = d2[0];
  double own1 = 1.0;
  double own2 = 1.0;
  double shared = 1.0;
  for (size_t start = 0; start < n; start += block) {
    const size_t end = std::min(n, start + block);
    const size_t len = end - start;
    // Fused strict counts + spread sums, one load per cache line. The
    // counts are order-free; the spread accumulators carry across blocks
    // in index order so results match the scalar code bit for bit
    // (reassociating per block would not; see compare_kernels.h for how
    // the SIMD variants keep the chain order). Only the two strict
    // counters are accumulated; the weak counts follow from totality
    // once the sweep is done.
    kernels.count_spread(d1 + start, d2 + start, len, &stats.gt12,
                         &stats.gt21, &stats.spr12, &stats.spr21);
    if (with_min) {
      // Running mins, blocked for locality, with min_element's
      // first-occurrence rule (the kernel contract).
      stats.min1 = kernels.row_min(d1 + start, len, stats.min1);
      stats.min2 = kernels.row_min(d2 + start, len, stats.min2);
    }
    if (with_hv) {
      for (size_t i = start; i < end; ++i) {
        MDC_CHECK_MSG(d1[i] > 0.0 && d2[i] > 0.0,
                      "hypervolume indices require strictly positive entries");
        own1 *= d1[i];
        own2 *= d2[i];
        shared *= std::min(d1[i], d2[i]);
      }
    }
  }
  if (with_hv) {
    stats.hv12 = own1 - shared;
    stats.hv21 = own2 - shared;
  }
  // Finite entries are totally ordered: d1[i] >= d2[i] ⟺ ¬(d2[i] > d1[i]).
  stats.ge12 = n - stats.gt21;
  stats.ge21 = n - stats.gt12;
  return stats;
}

DominanceRelation RelationFromStats(const PairwiseStats& stats) {
  const bool first_better = stats.gt12 > 0;
  const bool second_better = stats.gt21 > 0;
  if (first_better && second_better) return DominanceRelation::kIncomparable;
  if (first_better) return DominanceRelation::kFirstDominates;
  if (second_better) return DominanceRelation::kSecondDominates;
  return DominanceRelation::kEqual;
}

double CoverageFromStats(const PairwiseStats& stats, size_t n, bool forward) {
  MDC_CHECK_GT(n, 0u);
  return static_cast<double>(forward ? stats.ge12 : stats.ge21) /
         static_cast<double>(n);
}

ComparatorOutcome OutcomeFromScalars(double first, double second,
                                     double epsilon) {
  if (first > second + epsilon) return ComparatorOutcome::kFirstBetter;
  if (second > first + epsilon) return ComparatorOutcome::kSecondBetter;
  return ComparatorOutcome::kEquivalent;
}

void CommitComparisonMetrics(DominanceRelation relation, size_t cols) {
  MDC_METRIC_INC("cmp.pairs_compared");
  MDC_METRIC_ADD("cmp.elements", static_cast<uint64_t>(cols));
  switch (relation) {
    case DominanceRelation::kEqual:
      MDC_METRIC_INC("cmp.relation.equal");
      break;
    case DominanceRelation::kFirstDominates:
      MDC_METRIC_INC("cmp.relation.first");
      break;
    case DominanceRelation::kSecondDominates:
      MDC_METRIC_INC("cmp.relation.second");
      break;
    case DominanceRelation::kIncomparable:
      MDC_METRIC_INC("cmp.relation.incomparable");
      break;
  }
}

const PairComparison& AllPairsResult::Pair(size_t i, size_t j) const {
  MDC_CHECK_LT(i, j);
  MDC_CHECK_LT(j, rows);
  // Row-major pair order: pairs (i, *) start after all pairs (i', *) with
  // i' < i, i.e. after i*rows - i*(i+1)/2 entries.
  const size_t offset = i * rows - i * (i + 1) / 2 + (j - i - 1);
  MDC_CHECK_LT(offset, pairs.size());
  return pairs[offset];
}

StatusOr<AllPairsResult> AllPairsCompare(const PropertyMatrix& matrix,
                                         const AllPairsOptions& options,
                                         RunContext* run) {
  if (matrix.empty()) {
    return Status::InvalidArgument("empty property matrix");
  }
  if (options.block == 0) {
    return Status::InvalidArgument("block size must be positive");
  }
  const bool with_rank = !options.d_max.empty();
  if (with_rank && options.d_max.size() != matrix.cols()) {
    return Status::InvalidArgument("rank ideal size does not match matrix");
  }
  if (options.include_hypervolume) {
    MDC_RETURN_IF_ERROR(RequirePositive(matrix));
  }
  MDC_METRIC_INC("cmp.runs");

  // One min pass per row instead of two per pair: minima are unary, so
  // this turns O(r²·N) min work into O(r·N). Unbudgeted.
  std::vector<double> row_mins;
  row_mins.reserve(matrix.rows());
  const CompareKernels& kernels = ActiveCompareKernels();
  for (size_t r = 0; r < matrix.rows(); ++r) {
    const double* d = matrix.row(r);
    row_mins.push_back(kernels.row_min(d, matrix.cols(), d[0]));
  }

  AllPairsResult result;
  result.rows = matrix.rows();
  result.cols = matrix.cols();

  // Per-row ranks first, in row order (unary; cheap next to the pairs).
  if (with_rank) {
    const double* ideal = options.d_max.values().data();
    result.ranks.reserve(matrix.rows());
    for (size_t r = 0; r < matrix.rows(); ++r) {
      MDC_RETURN_IF_ERROR(RunContext::Check(run));
      result.ranks.push_back(PackedRankIndex(matrix.row(r), ideal,
                                             matrix.cols(), options.rank_p));
      MDC_METRIC_INC("cmp.rank_rows");
    }
  }

  std::vector<std::pair<size_t, size_t>> index_of_pair;
  index_of_pair.reserve(matrix.rows() * (matrix.rows() - 1) / 2);
  for (size_t i = 0; i < matrix.rows(); ++i) {
    for (size_t j = i + 1; j < matrix.rows(); ++j) {
      index_of_pair.emplace_back(i, j);
    }
  }
  result.pairs.reserve(index_of_pair.size());

  ThreadPool pool(ThreadPool::ResolveThreadCount(options.threads));
  // Waves are sized for the grouped kernel: enough pairs that runs
  // sharing a first row amortize its block loads, capped groups so one
  // long run cannot serialize a multi-threaded wave. Wave/group sizing
  // affects scheduling only — per-pair results are pure and the commit
  // below replays admission order, so every choice here is
  // thread-count-invariant.
  const size_t threads = static_cast<size_t>(pool.thread_count());
  const size_t wave_size = std::max<size_t>(32, threads * 32);
  const size_t group_cap = threads == 1 ? 32 : 8;

  size_t next = 0;
  Status admit = Status::Ok();
  std::vector<PairComparison> slots;
  std::vector<std::pair<size_t, size_t>> groups;  // (wave offset, count)
  while (next < index_of_pair.size()) {
    // Serial admission: budget charges replay in pair order, so a step
    // budget truncates at the identical pair for every thread count.
    const size_t begin = next;
    while (next < index_of_pair.size() && next - begin < wave_size) {
      admit = RunContext::Check(run);
      if (!admit.ok()) break;
      ++next;
    }
    const size_t count = next - begin;
    if (count == 0) break;
    slots.assign(count, PairComparison{});
    // Runs of pairs sharing a first row evaluate one-vs-many.
    groups.clear();
    for (size_t start = 0; start < count;) {
      size_t end = start + 1;
      while (end < count && end - start < group_cap &&
             index_of_pair[begin + end].first ==
                 index_of_pair[begin + start].first) {
        ++end;
      }
      groups.emplace_back(start, end - start);
      start = end;
    }
    pool.ParallelFor(groups.size(), [&](size_t g) {
      const auto [offset, size] = groups[g];
      EvaluateRowGroupPacked(matrix, index_of_pair[begin + offset].first,
                             index_of_pair.data() + begin + offset, size,
                             options, row_mins, slots.data() + offset);
    });
    // In-order commit: results append and counters increment in admission
    // order regardless of evaluation schedule.
    for (size_t s = 0; s < count; ++s) {
      if (with_rank) {
        slots[s].rank1 = result.ranks[slots[s].first];
        slots[s].rank2 = result.ranks[slots[s].second];
      }
      CommitComparisonMetrics(slots[s].relation, matrix.cols());
      result.pairs.push_back(slots[s]);
    }
    if (!admit.ok()) break;
  }
  MDC_RETURN_IF_ERROR(admit);
  return result;
}

StatusOr<double> PackedWtdIndex(
    const PropertyMatrix& s1, const PropertyMatrix& s2,
    const std::vector<double>& weights,
    const std::vector<PackedBinaryIndexKind>& kinds) {
  MDC_RETURN_IF_ERROR(ValidateAlignment(s1, s2));
  MDC_RETURN_IF_ERROR(ValidateKinds(s1, kinds));
  if (weights.size() != s1.rows()) {
    return Status::InvalidArgument("weight vector arity mismatch");
  }
  double sum = 0.0;
  for (double w : weights) {
    if (w <= 0.0 || w >= 1.0) {
      // A single property with weight 1 is allowed as the degenerate case.
      if (!(weights.size() == 1 && w == 1.0)) {
        return Status::InvalidArgument(
            "weights must lie strictly between 0 and 1");
      }
    }
    sum += w;
  }
  if (std::abs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("weights must sum to 1");
  }
  for (size_t i = 0; i < s1.rows(); ++i) {
    if (KindAt(kinds, i) == PackedBinaryIndexKind::kHypervolume) {
      MDC_RETURN_IF_ERROR(RequirePositive(s1));
      MDC_RETURN_IF_ERROR(RequirePositive(s2));
      break;
    }
  }
  double value = 0.0;
  for (size_t i = 0; i < s1.rows(); ++i) {
    value += weights[i] * PackedBinaryValue(KindAt(kinds, i), s1.row(i),
                                            s2.row(i), s1.cols(),
                                            /*forward=*/true);
  }
  return value;
}

StatusOr<size_t> PackedLexIndex(
    const PropertyMatrix& s1, const PropertyMatrix& s2,
    const std::vector<double>& epsilons,
    const std::vector<PackedBinaryIndexKind>& kinds) {
  MDC_RETURN_IF_ERROR(ValidateAlignment(s1, s2));
  MDC_RETURN_IF_ERROR(ValidateKinds(s1, kinds));
  if (epsilons.size() != 1 && epsilons.size() != s1.rows()) {
    return Status::InvalidArgument(
        "epsilon vector must have one entry or one per property");
  }
  for (double e : epsilons) {
    if (e < 0.0) {
      return Status::InvalidArgument("epsilons must be non-negative");
    }
  }
  for (size_t i = 0; i < s1.rows(); ++i) {
    if (KindAt(kinds, i) == PackedBinaryIndexKind::kHypervolume) {
      MDC_RETURN_IF_ERROR(RequirePositive(s1));
      MDC_RETURN_IF_ERROR(RequirePositive(s2));
      break;
    }
  }
  for (size_t i = 0; i < s1.rows(); ++i) {
    const PackedBinaryIndexKind kind = KindAt(kinds, i);
    double forward =
        PackedBinaryValue(kind, s1.row(i), s2.row(i), s1.cols(), true);
    double backward =
        PackedBinaryValue(kind, s1.row(i), s2.row(i), s1.cols(), false);
    double epsilon = epsilons.size() == 1 ? epsilons[0] : epsilons[i];
    if (forward - backward > epsilon) return i + 1;
  }
  return s1.rows() + 1;
}

bool PackedSetWeaklyDominates(const PropertyMatrix& s1,
                              const PropertyMatrix& s2) {
  MDC_CHECK_EQ(s1.rows(), s2.rows());
  MDC_CHECK_EQ(s1.cols(), s2.cols());
  for (size_t i = 0; i < s1.rows(); ++i) {
    if (!PackedWeaklyDominates(s1.row(i), s2.row(i), s1.cols())) return false;
  }
  return true;
}

bool PackedSetStronglyDominates(const PropertyMatrix& s1,
                                const PropertyMatrix& s2) {
  MDC_CHECK_EQ(s1.rows(), s2.rows());
  MDC_CHECK_EQ(s1.cols(), s2.cols());
  if (!PackedSetWeaklyDominates(s1, s2)) return false;
  for (size_t i = 0; i < s1.rows(); ++i) {
    if (PackedStronglyDominates(s1.row(i), s2.row(i), s1.cols())) return true;
  }
  return false;
}

}  // namespace mdc
