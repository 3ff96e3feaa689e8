#include "table/encoded_view.h"

#include <algorithm>

namespace mdc {

StatusOr<EncodedView> EncodedView::Build(const Dataset& dataset,
                                         const std::vector<size_t>& columns,
                                         RunContext* run) {
  EncodedView view;
  view.row_count_ = dataset.row_count();
  view.columns_ = columns;
  view.distinct_.resize(columns.size());
  view.codes_.resize(columns.size());
  for (size_t pos = 0; pos < columns.size(); ++pos) {
    MDC_RETURN_IF_ERROR(RunContext::Check(run, 0));
    size_t column = columns[pos];
    if (column >= dataset.column_count()) {
      return Status::OutOfRange("encoded view column out of range: " +
                                std::to_string(column));
    }
    std::vector<Value>& distinct = view.distinct_[pos];
    distinct = dataset.DistinctValues(column);
    AlignedVector<uint32_t>& codes = view.codes_[pos];
    codes.resize(dataset.row_count());
    for (size_t row = 0; row < dataset.row_count(); ++row) {
      auto it = std::lower_bound(distinct.begin(), distinct.end(),
                                 dataset.cell(row, column));
      codes[row] = static_cast<uint32_t>(it - distinct.begin());
    }
  }
  return view;
}

const std::vector<Value>& EncodedView::distinct_values(size_t pos) const {
  MDC_CHECK_LT(pos, distinct_.size());
  return distinct_[pos];
}

const AlignedVector<uint32_t>& EncodedView::codes(size_t pos) const {
  MDC_CHECK_LT(pos, codes_.size());
  return codes_[pos];
}

uint64_t EncodedView::CodeBytes() const {
  uint64_t bytes = 0;
  for (const AlignedVector<uint32_t>& codes : codes_) {
    bytes += codes.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace mdc
