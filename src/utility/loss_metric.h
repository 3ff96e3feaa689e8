// Iyengar's general loss metric (LM, KDD 2002) and a class-spread (NCP)
// variant for hierarchy-free anonymizations.
//
// LM charges each generalized quasi-identifier cell (m-1)/(M-1), where m is
// the number of distinct values *present in the data set* that the cell's
// label covers and M the number of distinct present values of the
// attribute. A per-tuple loss is the sum over QI cells (in [0, #QI]);
// per-tuple utility is (#QI - loss), higher better — the orientation the
// paper's §5.5 example uses for its utility property vectors u_a, u_b.
//
// The paper does not fully specify the hierarchy conventions behind its
// printed utility numbers; present-value semantics reproduces the
// *structure* its argument needs (see DESIGN.md, substitution 1).
//
// Coverage m is counted once per QI column, not once per label: a label
// covers a present value v exactly when it lies on v's generalization
// chain Generalize(v, 0..height()) (CountLabelCoverage), which for a
// nesting hierarchy is the set of labels with Covers(label, v). The string
// path counts it per column of the release; the code-space overload reads
// the same counts from the LevelCodec tables. Both use one charge formula
// and one summation order, so they agree bit for bit. Their test oracle,
// the direct Covers test over every present value, lives in
// tests/oracle/evaluation.h.
//
// The NCP variant needs no hierarchies: it charges a class the normalized
// spread of the original values inside it (numeric: range ratio;
// categorical: distinct-count ratio), so it applies to Mondrian releases.

#ifndef MDC_UTILITY_LOSS_METRIC_H_
#define MDC_UTILITY_LOSS_METRIC_H_

#include <cstdint>
#include <vector>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "core/property_vector.h"
#include "hierarchy/lattice.h"
#include "hierarchy/level_codec.h"

namespace mdc {

class LossMetric {
 public:
  // Requires anonymization.scheme (full-domain releases). Lower is better;
  // entries lie in [0, #QI].
  static StatusOr<PropertyVector> PerTupleLoss(
      const Anonymization& anonymization);

  // (#QI - loss_i) per tuple; higher is better.
  static StatusOr<PropertyVector> PerTupleUtility(
      const Anonymization& anonymization);

  // PerTupleUtility in code space, for the release of lattice `node` held
  // as label codes: label_codes[pos][r] indexes codec.table(pos,
  // node[pos]).labels, positions in qi_columns order. Bit-identical to
  // PerTupleUtility on the materialized release (same status too, for a
  // row whose label covers nothing). Safe to call concurrently.
  static StatusOr<PropertyVector> PerTupleUtility(
      const LevelCodec& codec, const LatticeNode& node,
      const std::vector<std::vector<uint32_t>>& label_codes, size_t rows);

  // Sum of per-tuple losses.
  static StatusOr<double> TotalLoss(const Anonymization& anonymization);
};

class ClassSpreadLoss {
 public:
  // Hierarchy-free per-tuple loss: for each QI attribute, the normalized
  // spread of ORIGINAL values within the tuple's equivalence class
  // (numeric: (max-min)/global range; categorical: (distinct-1)/(M-1)),
  // summed over QI attributes. Works for any Anonymization, including
  // Mondrian. Suppressed rows are charged the maximum (1 per attribute).
  static StatusOr<PropertyVector> PerTupleLoss(
      const Anonymization& anonymization,
      const EquivalencePartition& partition);

  static StatusOr<PropertyVector> PerTupleUtility(
      const Anonymization& anonymization,
      const EquivalencePartition& partition);

  static StatusOr<double> TotalLoss(const Anonymization& anonymization,
                                    const EquivalencePartition& partition);
};

}  // namespace mdc

#endif  // MDC_UTILITY_LOSS_METRIC_H_
