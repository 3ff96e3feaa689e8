// Process-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms.
//
// The engine's hot loops (wave-parallel node evaluation, per-row
// partitioning) cannot afford a contended atomic or a lock per event, so
// counter and histogram cells live in thread-local shards: an Increment or
// Observe is one relaxed fetch_add on a cell no other thread writes.
// Snapshot() merges on read — it sums every live shard plus the values
// retired threads folded in on exit — so reading is O(threads) and writing
// stays O(1). Merging is a pure sum of monotone cells, which makes
// Snapshot() idempotent: two snapshots with no events in between are
// equal, and a snapshot never perturbs the registry.
//
// Counters are the deterministic layer: an event count is a property of
// the work performed, not of the schedule, so for every counter
// incremented at a point the wave protocol replays deterministically
// (admission / commit order; see docs/observability.md for the naming
// scheme), the merged total is identical for any worker-thread count.
// Histograms record wall-clock durations and are NOT deterministic; their
// bucket counts still always sum to the (deterministic) observation count.
//
// Instruments are interned forever: GetCounter("x") returns the same
// Counter& for the life of the process, so call sites cache the reference
// in a function-local static (the MDC_METRIC_* macros do this) and pay the
// registry lookup once.

#ifndef MDC_COMMON_METRICS_H_
#define MDC_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mdc::metrics {

// Power-of-two latency buckets: bucket b counts observations with
// bit_width(value) == b, i.e. [2^(b-1), 2^b). Bucket 0 is value == 0;
// the last bucket absorbs everything >= 2^(kHistogramBuckets-2).
inline constexpr size_t kHistogramBuckets = 28;

// Monotone event counter. Increment is one relaxed fetch_add on a
// thread-local cell.
class Counter {
 public:
  void Increment(uint64_t delta = 1);

 private:
  friend class Registry;
  explicit Counter(size_t slot) : slot_(slot) {}
  size_t slot_;
};

// Last-value instrument (queue depth, pool size). Set/Add hit one shared
// atomic — gauges are for low-rate state, not hot loops.
class Gauge {
 public:
  // Constructed only by the registry; obtain one via GetGauge().
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram of non-negative values (conventionally
// microseconds; name such metrics *_us). Observe is two relaxed adds on
// thread-local cells (bucket + sum).
class Histogram {
 public:
  void Observe(uint64_t value);

  // Bucket index for `value` under the power-of-two layout above.
  static size_t BucketOf(uint64_t value);

 private:
  friend class Registry;
  explicit Histogram(size_t base_slot) : base_slot_(base_slot) {}
  size_t base_slot_;  // kHistogramBuckets bucket cells, then one sum cell.
};

struct HistogramSnapshot {
  std::vector<uint64_t> buckets;  // kHistogramBuckets entries.
  uint64_t count = 0;             // Sum of buckets.
  uint64_t sum = 0;               // Sum of observed values.

  bool operator==(const HistogramSnapshot&) const = default;
};

// Merged view of every instrument at one instant.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Stable JSON: {"counters":{...},"gauges":{...},"histograms":{...}},
  // keys sorted (std::map order), no whitespace dependence on content.
  std::string ToJson() const;

  // The same JSON with no newlines or indentation — one line, so the
  // newline-framed wire protocol can carry a live snapshot in a single
  // `ok metrics ...` reply.
  std::string ToCompactJson() const;

  // The deterministic subset: counters whose name starts with one of the
  // prefixes in kDeterministicPrefixes, rendered one "name=value" per
  // line in sorted order. This is what thread-count invariance tests
  // compare byte for byte.
  std::string DeterministicCountersText() const;
};

// Counter-name prefixes that are deterministic for a fixed seed/config
// regardless of worker-thread count (instrumented at wave admission /
// commit points). "eval." and "partition." counters are also
// schedule-independent for the wave searches but NOT for stochastic
// speculation, so they are excluded here.
// "net." counters are charged at protocol commit points in the socket
// front-end (a line fully parsed, a connection accepted/shed/reaped), so
// for a fixed client script they are independent of worker-thread count;
// client-side "client.*" counters are fault-timing-dependent and stay out.
// "perturb." and "perm." counters are committed serially in column /
// attribute admission order by the perturbation backend and the
// permutation-model builder, so they share the same invariance.
inline constexpr const char* kDeterministicPrefixes[] = {
    "search.", "run.", "cmp.", "svc.", "net.", "perturb.", "perm."};

// Interns `name` (first call) and returns the process-wide instrument.
// The same name always maps to the same instrument; a name must not be
// reused across kinds (checked).
Counter& GetCounter(std::string_view name);
Gauge& GetGauge(std::string_view name);
Histogram& GetHistogram(std::string_view name);

// Merge-on-read over all shards. Never blocks writers for more than the
// shard-list mutex.
MetricsSnapshot Snapshot();

// Adds `values` into the registry (used to restore cumulative totals from
// a checkpointed snapshot: restored counters and new events sum).
void MergeCounters(const std::map<std::string, uint64_t>& values);

// Zeroes every cell (live shards, retired totals, gauges). Instruments
// stay interned. Tests call this between runs they want to compare.
void ResetForTest();

// Writes Snapshot().ToJson() durably (temp + fsync + rename).
Status WriteSnapshotFile(const std::string& path);

}  // namespace mdc::metrics

// Call-site macros: intern once per site via a function-local static, then
// one relaxed atomic per event.
#define MDC_METRICS_CONCAT_INNER(a, b) a##b
#define MDC_METRICS_CONCAT(a, b) MDC_METRICS_CONCAT_INNER(a, b)

#define MDC_METRIC_ADD(name, delta)                                  \
  do {                                                               \
    static ::mdc::metrics::Counter& MDC_METRICS_CONCAT(              \
        _mdc_counter_, __LINE__) = ::mdc::metrics::GetCounter(name); \
    MDC_METRICS_CONCAT(_mdc_counter_, __LINE__).Increment(delta);    \
  } while (false)
#define MDC_METRIC_INC(name) MDC_METRIC_ADD(name, 1)

#define MDC_METRIC_OBSERVE(name, value)                                  \
  do {                                                                   \
    static ::mdc::metrics::Histogram& MDC_METRICS_CONCAT(                \
        _mdc_histogram_, __LINE__) = ::mdc::metrics::GetHistogram(name); \
    MDC_METRICS_CONCAT(_mdc_histogram_, __LINE__).Observe(value);        \
  } while (false)

#endif  // MDC_COMMON_METRICS_H_
