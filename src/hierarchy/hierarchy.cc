#include "hierarchy/hierarchy.h"

#include <algorithm>
#include <map>

namespace mdc {

Status VerifyNesting(const ValueHierarchy& hierarchy,
                     const std::vector<Value>& values) {
  const int height = hierarchy.height();
  if (height < 1) {
    return Status::InvalidArgument("hierarchy height must be >= 1");
  }
  // labels[l][i] = label of values[i] at level l.
  std::vector<std::vector<std::string>> labels(
      static_cast<size_t>(height) + 1);
  for (int level = 0; level <= height; ++level) {
    for (const Value& v : values) {
      auto label = hierarchy.Generalize(v, level);
      if (!label.ok()) {
        return Status::FailedPrecondition(
            "value '" + v.ToString() + "' fails to generalize at level " +
            std::to_string(level) + ": " + label.status().ToString());
      }
      if (!hierarchy.Covers(*label, v)) {
        return Status::FailedPrecondition(
            "label '" + *label + "' at level " + std::to_string(level) +
            " does not cover its own value '" + v.ToString() + "'");
      }
      labels[level].push_back(*label);
    }
  }
  for (int level = 0; level < height; ++level) {
    // Equal label at `level` must imply equal label at `level + 1`.
    std::map<std::string, std::string> parent_of;
    for (size_t i = 0; i < values.size(); ++i) {
      auto [it, inserted] =
          parent_of.emplace(labels[level][i], labels[level + 1][i]);
      if (!inserted && it->second != labels[level + 1][i]) {
        return Status::FailedPrecondition(
            "nesting violated: label '" + labels[level][i] + "' at level " +
            std::to_string(level) + " maps to both '" + it->second +
            "' and '" + labels[level + 1][i] + "' at level " +
            std::to_string(level + 1));
      }
    }
  }
  // The top level must be a single label.
  for (size_t i = 1; i < values.size(); ++i) {
    if (labels[height][i] != labels[height][0]) {
      return Status::FailedPrecondition(
          "top level is not a single label: '" + labels[height][0] +
          "' vs '" + labels[height][i] + "'");
    }
  }
  return Status::Ok();
}

std::unordered_map<std::string, size_t> CountLabelCoverage(
    const ValueHierarchy& hierarchy, const std::vector<Value>& values) {
  std::unordered_map<std::string, size_t> coverage;
  std::vector<std::string> chain;
  for (const Value& value : values) {
    chain.clear();
    bool in_domain = true;
    for (int level = 0; level <= hierarchy.height() && in_domain; ++level) {
      StatusOr<std::string> label = hierarchy.Generalize(value, level);
      if (!label.ok()) {
        in_domain = false;
      } else if (std::find(chain.begin(), chain.end(), *label) ==
                 chain.end()) {
        chain.push_back(std::move(label).value());
      }
    }
    if (!in_domain) continue;
    for (std::string& label : chain) ++coverage[std::move(label)];
  }
  return coverage;
}

}  // namespace mdc
