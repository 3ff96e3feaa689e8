// Unified ▶-better comparator interface.
//
// The paper treats a comparator ▶ as a user-defined ordering on property
// vectors (§3, Table 4 bottom row). This header reifies that: every
// comparator of §4–§5 — dominance, min (the k-anonymity practice), rank,
// coverage, spread, hypervolume — implements one interface, so comparative
// studies can sweep a whole battery of comparators over the same pair of
// anonymizations. core/report.h scores the same battery through the packed
// kernels; the battery built from these objects is its test oracle
// (tests/oracle/comparison.h).

#ifndef MDC_CORE_COMPARATOR_H_
#define MDC_CORE_COMPARATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/property_vector.h"

namespace mdc {

enum class ComparatorOutcome {
  kFirstBetter,
  kSecondBetter,
  kEquivalent,    // Neither better (tie under the comparator).
  kIncomparable,  // Only dominance-style comparators produce this.
};

const char* ComparatorOutcomeName(ComparatorOutcome outcome);

class Comparator {
 public:
  virtual ~Comparator() = default;

  // Short name for report tables ("cov-better", "weak-dominance", ...).
  virtual std::string Name() const = 0;

  // Compares D1 against D2 (both higher-is-better, equal size).
  virtual ComparatorOutcome Compare(const PropertyVector& d1,
                                    const PropertyVector& d2) const = 0;
};

// Strict comparator: ≻ / ∥ / equality per Table 4.
std::unique_ptr<Comparator> MakeDominanceComparator();

// ▶_min: compares min(D1) vs min(D2) — the scalar k-anonymity practice.
std::unique_ptr<Comparator> MakeMinComparator();

// ▶_rank with the given ideal vector and tolerance (§5.1).
std::unique_ptr<Comparator> MakeRankComparator(PropertyVector d_max,
                                               double epsilon = 0.0,
                                               double p = 2.0);

// ▶_cov (§5.2), ▶_spr (§5.3), ▶_hv (§5.4; positive vectors only).
std::unique_ptr<Comparator> MakeCoverageComparator();
std::unique_ptr<Comparator> MakeSpreadComparator();
std::unique_ptr<Comparator> MakeHypervolumeComparator();

}  // namespace mdc

#endif  // MDC_CORE_COMPARATOR_H_
