// One-call comparison of two anonymizations under the paper's framework.
//
// CompareAnonymizations extracts the privacy (and optionally utility)
// property vectors of both releases, runs a comparator battery over each
// property, and returns a structured, renderable report: the verdict of
// every comparator, the dominance relation, and the per-release bias
// statistics. This is the "downstream user" API of the library.

#ifndef MDC_CORE_REPORT_H_
#define MDC_CORE_REPORT_H_

#include <optional>
#include <string>
#include <vector>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "common/run_context.h"
#include "core/bias.h"
#include "core/comparator.h"

namespace mdc {

struct ComparisonOptions {
  // Sensitive column for the diversity property; when unset the property
  // is skipped unless the schema has exactly one kSensitive attribute.
  std::optional<size_t> sensitive_column;
  // Include a per-tuple utility property. Uses the Iyengar loss metric
  // for full-domain releases and the class-spread loss otherwise.
  bool include_utility = true;
  // Rank comparator ideal: the class-size vector of the fully-linked
  // table (all N), built automatically.
  bool include_rank = true;
  // Comparison threads (one property's battery each); <= 0 means
  // hardware.
  int threads = 1;
};

struct ComparatorVerdict {
  std::string property;    // "equivalence-class-size", "lm-utility", ...
  std::string comparator;  // "cov-better", ...
  ComparatorOutcome outcome = ComparatorOutcome::kEquivalent;
};

struct ComparisonReport {
  std::string first_name;
  std::string second_name;
  std::vector<ComparatorVerdict> verdicts;
  std::vector<std::string> properties;  // Property names compared.
  BiasReport first_bias;   // Bias of the first release's privacy vector.
  BiasReport second_bias;
  // Net score: +1 per comparator verdict for first, -1 for second.
  int net_score = 0;

  // Aligned text rendering for console output.
  std::string ToText() const;
};

// Compares two releases OF THE SAME ORIGINAL DATA SET (sizes must match).
// A report is all-or-nothing: when `run`'s budget expires mid-battery the
// budget Status is returned (a partially scored report would be
// misleading).
StatusOr<ComparisonReport> CompareAnonymizations(
    const Anonymization& first, const EquivalencePartition& first_partition,
    const Anonymization& second,
    const EquivalencePartition& second_partition,
    const ComparisonOptions& options = {}, RunContext* run = nullptr);

}  // namespace mdc

#endif  // MDC_CORE_REPORT_H_
