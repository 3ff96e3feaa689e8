// Value generalization hierarchies (domain generalization hierarchies, DGH).
//
// A ValueHierarchy defines, for one attribute domain, a chain of
// generalization levels: level 0 is the exact value, level height() is full
// suppression (the most general label). Generalizing a value to a level
// yields a *label* (a string such as "1305*", "(25,35]", or "Married").
//
// The nesting invariant every hierarchy must satisfy: if two values map to
// the same label at level l, they map to the same label at every level
// above l. Full-domain algorithms (Datafly, Samarati, the optimal lattice
// search) rely on this; VerifyNesting() checks it for a concrete value set
// and is used by tests and by algorithm preflight checks.

#ifndef MDC_HIERARCHY_HIERARCHY_H_
#define MDC_HIERARCHY_HIERARCHY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "table/value.h"

namespace mdc {

// The conventional label for a fully suppressed cell.
inline constexpr const char kSuppressedLabel[] = "*";

class ValueHierarchy {
 public:
  virtual ~ValueHierarchy() = default;

  // A short human-readable description ("suffix(5)", "interval[10@5,20@15]").
  virtual std::string Describe() const = 0;

  // Number of generalization steps; valid levels are 0..height().
  // Level height() always yields the most general label.
  virtual int height() const = 0;

  // Label of `value` at `level`. Level 0 returns the value's own rendering.
  // Fails if the value is outside the hierarchy's domain or the level is
  // out of range.
  virtual StatusOr<std::string> Generalize(const Value& value,
                                           int level) const = 0;

  // True if the generalized cell `label` (produced by any level of this
  // hierarchy) covers the raw `value`. Values outside the domain are
  // never covered. Used by label-based loss metrics.
  virtual bool Covers(const std::string& label, const Value& value) const = 0;
};

// Checks the nesting invariant of `hierarchy` over the given values:
// equal labels at level l imply equal labels at level l+1, for all levels.
// Also checks that every value generalizes successfully at every level and
// that Covers(Generalize(v, l), v) holds.
Status VerifyNesting(const ValueHierarchy& hierarchy,
                     const std::vector<Value>& values);

// Label coverage over a set of distinct values, counted once: maps every
// label on some value's generalization chain Generalize(v, 0..height())
// to the number of values whose chain carries it (each value counted once
// per label, however many levels repeat the label). For the labels a
// nesting hierarchy produces, this equals the number of values v with
// Covers(label, v) — the chain of v is exactly the set of labels covering
// it. That includes unbalanced taxonomies, where a shallow leaf reaches the
// root below height() and no single level lists every label covering it.
// A value that fails to generalize is outside the domain and, as with
// Covers, covered by no label. Labels absent from the map cover nothing.
std::unordered_map<std::string, size_t> CountLabelCoverage(
    const ValueHierarchy& hierarchy, const std::vector<Value>& values);

}  // namespace mdc

#endif  // MDC_HIERARCHY_HIERARCHY_H_
