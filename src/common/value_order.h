// The stable ascending order of a numeric column — the one rank-order
// kernel of the permutation paradigm. Permutation-model ranks
// (core/permutation_metrics), microaggregation groups and rank-swap
// windows (anonymize/perturb) all walk this order.
//
// Contract: exactly the order `std::stable_sort` of the row indices by
// `values[a] < values[b]` gives — ascending by `operator<`, equal values
// (including -0.0 and +0.0, which tie under `<`) in row-index order. The
// order is therefore a pure function of the column.
//
// Implementation: an LSD radix sort of row indices by order-preserving
// 64-bit keys, 11-bit digits, all six digit histograms filled in one
// pass and digits constant over the column skipped. Every pass is a
// stable scatter, so ties keep their row order.

#ifndef MDC_COMMON_VALUE_ORDER_H_
#define MDC_COMMON_VALUE_ORDER_H_

#include <cstdint>
#include <vector>

namespace mdc {

// order[r] = the row holding the r-th smallest value. Preconditions
// (MDC_CHECK): no NaN in `values` (it has no place in the `<` order) and
// at most UINT32_MAX rows. ±inf sort to the ends.
std::vector<uint32_t> StableValueOrder(const std::vector<double>& values);

}  // namespace mdc

#endif  // MDC_COMMON_VALUE_ORDER_H_
