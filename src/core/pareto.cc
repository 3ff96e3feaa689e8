#include "core/pareto.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/compare_engine.h"

namespace mdc {
namespace {

// Set-level strong dominance through the packed kernels, on the vectors'
// raw storage (no per-candidate repacking). Logic mirrors dominance.cc.
bool SetStronglyDominatesPacked(const PropertySet& a, const PropertySet& b) {
  for (size_t p = 0; p < a.size(); ++p) {
    if (!PackedWeaklyDominates(a[p].values().data(), b[p].values().data(),
                               a[p].size())) {
      return false;
    }
  }
  for (size_t p = 0; p < a.size(); ++p) {
    if (PackedStronglyDominates(a[p].values().data(), b[p].values().data(),
                                a[p].size())) {
      return true;
    }
  }
  return false;
}

// Shared front extraction: `dominates(j, i)` answers "does candidate j
// strongly dominate candidate i". Wave protocol — serial admission (one
// budget charge per candidate), parallel per-candidate domination checks,
// in-order commit with cmp.pareto.* counters.
template <typename DominatesFn>
StatusOr<std::vector<size_t>> Front(size_t count, int threads,
                                    RunContext* run,
                                    const DominatesFn& dominates) {
  for (size_t i = 0; i < count; ++i) {
    MDC_RETURN_IF_ERROR(RunContext::Check(run));
  }
  std::vector<uint8_t> dominated(count, 0);
  ThreadPool pool(ThreadPool::ResolveThreadCount(threads));
  pool.ParallelFor(count, [&](size_t i) {
    for (size_t j = 0; j < count; ++j) {
      if (i != j && dominates(j, i)) {
        dominated[i] = 1;
        break;
      }
    }
  });
  std::vector<size_t> front;
  for (size_t i = 0; i < count; ++i) {
    if (!dominated[i]) front.push_back(i);
  }
  MDC_METRIC_ADD("cmp.pareto.candidates", static_cast<uint64_t>(count));
  MDC_METRIC_ADD("cmp.pareto.front", static_cast<uint64_t>(front.size()));
  return front;
}

}  // namespace

StatusOr<std::vector<size_t>> ParetoFront(
    const std::vector<PropertySet>& candidates, const ParetoOptions& options,
    RunContext* run) {
  if (candidates.empty()) return std::vector<size_t>{};
  const PropertySet& reference = candidates[0];
  for (const PropertySet& candidate : candidates) {
    if (candidate.size() != reference.size()) {
      return Status::InvalidArgument("candidates differ in arity");
    }
    for (size_t p = 0; p < candidate.size(); ++p) {
      if (candidate[p].size() != reference[p].size()) {
        return Status::InvalidArgument(
            "aligned property vectors differ in size at position " +
            std::to_string(p));
      }
    }
  }
  return Front(candidates.size(), options.threads, run,
               [&](size_t j, size_t i) {
                 return SetStronglyDominatesPacked(candidates[j],
                                                   candidates[i]);
               });
}

StatusOr<std::vector<size_t>> ParetoFrontScalar(
    const std::vector<std::vector<double>>& points,
    const ParetoOptions& options, RunContext* run) {
  if (points.empty()) return std::vector<size_t>{};
  for (const std::vector<double>& point : points) {
    if (point.size() != points[0].size()) {
      return Status::InvalidArgument("inconsistent point arity");
    }
  }
  return Front(points.size(), options.threads, run, [&](size_t j, size_t i) {
    return PackedStronglyDominates(points[j].data(), points[i].data(),
                                   points[i].size());
  });
}

StatusOr<size_t> KneePoint(const std::vector<std::vector<double>>& points) {
  if (points.empty()) {
    return Status::InvalidArgument("empty point set");
  }
  const size_t dims = points[0].size();
  if (dims == 0) {
    return Status::InvalidArgument("zero-dimensional points");
  }
  std::vector<double> lo(dims), hi(dims);
  for (size_t d = 0; d < dims; ++d) {
    lo[d] = hi[d] = points[0][d];
  }
  for (const std::vector<double>& p : points) {
    if (p.size() != dims) {
      return Status::InvalidArgument("inconsistent point arity");
    }
    for (size_t d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  size_t best = 0;
  double best_distance = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    double distance = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      double span = hi[d] - lo[d];
      double normalized =
          span > 0.0 ? (hi[d] - points[i][d]) / span : 0.0;
      distance += normalized * normalized;
    }
    distance = std::sqrt(distance);
    if (i == 0 || distance < best_distance) {
      best = i;
      best_distance = distance;
    }
  }
  return best;
}

}  // namespace mdc
