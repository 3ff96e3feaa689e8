#include "hierarchy/level_codec.h"

#include <algorithm>
#include <unordered_map>

#include "hierarchy/hierarchy.h"

namespace mdc {
namespace {

StatusOr<LevelCodeTable> BuildTable(const ValueHierarchy& hierarchy,
                                    const std::vector<Value>& distinct,
                                    int level) {
  // Label per distinct value, then dense codes in sorted-label order.
  std::vector<std::string> value_labels;
  value_labels.reserve(distinct.size());
  for (const Value& value : distinct) {
    MDC_ASSIGN_OR_RETURN(std::string label,
                         hierarchy.Generalize(value, level));
    value_labels.push_back(std::move(label));
  }
  LevelCodeTable table;
  table.labels = value_labels;
  table.labels.push_back(kSuppressedLabel);
  std::sort(table.labels.begin(), table.labels.end());
  table.labels.erase(std::unique(table.labels.begin(), table.labels.end()),
                     table.labels.end());
  table.value_to_label.resize(distinct.size());
  for (size_t i = 0; i < value_labels.size(); ++i) {
    auto it = std::lower_bound(table.labels.begin(), table.labels.end(),
                               value_labels[i]);
    table.value_to_label[i] = static_cast<uint32_t>(it - table.labels.begin());
  }
  auto star = std::lower_bound(table.labels.begin(), table.labels.end(),
                               kSuppressedLabel);
  table.star_code = static_cast<uint32_t>(star - table.labels.begin());
  return table;
}

}  // namespace

StatusOr<LevelCodec> LevelCodec::Build(const EncodedView& view,
                                       const HierarchySet& hierarchies) {
  if (view.position_count() != hierarchies.size() ||
      view.columns() != hierarchies.columns()) {
    return Status::InvalidArgument(
        "level codec: view columns do not match the hierarchy set");
  }
  LevelCodec codec;
  codec.tables_.resize(hierarchies.size());
  for (size_t pos = 0; pos < hierarchies.size(); ++pos) {
    const ValueHierarchy& hierarchy = hierarchies.At(pos);
    codec.tables_[pos].reserve(static_cast<size_t>(hierarchy.height()) + 1);
    for (int level = 0; level <= hierarchy.height(); ++level) {
      MDC_ASSIGN_OR_RETURN(
          LevelCodeTable table,
          BuildTable(hierarchy, view.distinct_values(pos), level));
      codec.tables_[pos].push_back(std::move(table));
    }
    // After every level built, so an out-of-domain value surfaces as the
    // Generalize error above.
    const std::unordered_map<std::string, size_t> coverage =
        CountLabelCoverage(hierarchy, view.distinct_values(pos));
    for (LevelCodeTable& table : codec.tables_[pos]) {
      table.label_coverage.assign(table.labels.size(), 0);
      for (size_t code = 0; code < table.labels.size(); ++code) {
        auto it = coverage.find(table.labels[code]);
        if (it != coverage.end()) {
          table.label_coverage[code] = static_cast<uint32_t>(it->second);
        }
      }
    }
  }
  return codec;
}

const LevelCodeTable& LevelCodec::table(size_t pos, int level) const {
  MDC_CHECK_LT(pos, tables_.size());
  MDC_CHECK(level >= 0 &&
            static_cast<size_t>(level) < tables_[pos].size());
  return tables_[pos][static_cast<size_t>(level)];
}

uint64_t LevelCodec::TableBytes() const {
  uint64_t bytes = 0;
  for (const auto& levels : tables_) {
    for (const LevelCodeTable& table : levels) {
      bytes += (table.value_to_label.size() + table.label_coverage.size()) *
               sizeof(uint32_t);
      for (const std::string& label : table.labels) bytes += label.size();
    }
  }
  return bytes;
}

}  // namespace mdc
