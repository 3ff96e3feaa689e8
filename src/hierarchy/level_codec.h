// Per-level integer code translation for dictionary-encoded columns.
//
// A LevelCodeTable maps the value codes of one EncodedView position to
// dense *label codes* for one generalization level. Label codes are
// assigned in sorted label-string order, so the numeric order of label
// codes is isomorphic to the lexicographic order of the labels they stand
// for: sorting integer code tuples reproduces the legacy string-keyed
// equivalence-class order bit for bit. Every table also carries the code
// of the suppression label "*" so suppressed rows can be regrouped without
// leaving integer space.
//
// Building a table costs O(distinct values) hierarchy lookups; applying it
// is an O(rows) gather. Label coverage is counted once per position and
// stored per label code, so a loss metric never re-derives it per node. A
// LevelCodec holds the tables for every (position, level) of a
// HierarchySet, which is all a full-domain lattice search ever needs.

#ifndef MDC_HIERARCHY_LEVEL_CODEC_H_
#define MDC_HIERARCHY_LEVEL_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "hierarchy/scheme.h"
#include "table/encoded_view.h"

namespace mdc {

struct LevelCodeTable {
  // value_to_label[value_code] -> label code at this level.
  std::vector<uint32_t> value_to_label;
  // label_coverage[label_code] -> how many of the position's distinct
  // values the label covers (CountLabelCoverage over every level, so a
  // label repeated up an unbalanced taxonomy counts all its leaves). The
  // input of the code-space LM charge; 0 only for a "*" the hierarchy
  // never produces.
  std::vector<uint32_t> label_coverage;
  // labels[label_code] -> label string; sorted, so code order == string
  // order. Always contains kSuppressedLabel ("*").
  std::vector<std::string> labels;
  // Code of kSuppressedLabel within `labels`.
  uint32_t star_code = 0;
};

class LevelCodec {
 public:
  // Builds tables for every level of every hierarchy position over the
  // distinct values of `view`. The view must have been built over
  // `hierarchies.columns()`. Fails if any distinct value is outside its
  // hierarchy's domain (the same values the string path would fail on,
  // just all at once). Checks `run`'s deadline and cancellation before
  // each (position, level) table, charging no steps.
  static StatusOr<LevelCodec> Build(const EncodedView& view,
                                    const HierarchySet& hierarchies,
                                    RunContext* run = nullptr);

  size_t position_count() const { return tables_.size(); }
  int height(size_t pos) const {
    return static_cast<int>(tables_[pos].size()) - 1;
  }

  const LevelCodeTable& table(size_t pos, int level) const;

  // Bytes held by the translation tables (for memory accounting).
  uint64_t TableBytes() const;

 private:
  // tables_[pos][level].
  std::vector<std::vector<LevelCodeTable>> tables_;
};

}  // namespace mdc

#endif  // MDC_HIERARCHY_LEVEL_CODEC_H_
