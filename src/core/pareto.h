// Pareto-front machinery — the paper's §7 extension made concrete.
//
// The paper closes by arguing that under vector-valued privacy the search
// for "good" anonymizations becomes multi-objective: privacy should be an
// objective, not a constraint. These helpers extract non-dominated sets
// from candidate anonymizations, in both the set-dominance form (aligned
// property vectors, Table 4 semantics) and the scalarized form used for
// plotting trade-off fronts, plus a knee-point selector.

#ifndef MDC_CORE_PARETO_H_
#define MDC_CORE_PARETO_H_

#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/dominance.h"

namespace mdc {

struct ParetoOptions {
  // Dominance-check threads (workers + caller); <= 0 means hardware.
  int threads = 1;
};

// Indices of candidates not STRONGLY dominated (set-level, Table 4) by
// any other candidate, through the packed dominance kernels. Duplicate
// candidates all survive (none strongly dominates its copy). Wave
// protocol: serial admission charging `run` once per candidate, parallel
// dominance checks, in-order commit, so the front is the same for every
// thread count. Returns InvalidArgument on misaligned candidates and the
// budget Status when `run` expires.
StatusOr<std::vector<size_t>> ParetoFront(
    const std::vector<PropertySet>& candidates, const ParetoOptions& options,
    RunContext* run = nullptr);

// Same over scalar objective tuples (higher is better in every
// coordinate).
StatusOr<std::vector<size_t>> ParetoFrontScalar(
    const std::vector<std::vector<double>>& points,
    const ParetoOptions& options, RunContext* run = nullptr);

// Knee point of a scalar front: the point minimizing the L2 distance to
// the ideal (per-coordinate maximum) after min-max normalization. Fails
// on an empty set or inconsistent arity.
StatusOr<size_t> KneePoint(const std::vector<std::vector<double>>& points);

}  // namespace mdc

#endif  // MDC_CORE_PARETO_H_
