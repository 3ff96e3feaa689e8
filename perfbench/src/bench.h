// Shared plumbing of the end-to-end benchmark: the run options,
// the result a workload hands back (gates, ops, metrics), timing and
// percentile helpers, content fingerprints, process memory, and the
// trace analysis that turns recorded spans into per-layer self times.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace perfbench {

// Input sizes. kFull is what the benchmark measures; kSmoke is a tiny
// variant of every workload with every gate on, run by the benchmark's
// own tests.
enum class Size { kFull, kSmoke };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string cli_path;  // mdc_cli binary (serve workload).
  std::string work_dir;  // Scratch directory inside the checkout.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload run produces. A failed gate marks the op it belongs to
// as failed and makes the whole run incorrect (non-zero exit). Gates
// recorded after the last EndOp (a run's closing checks) that fail count
// as one more attempted and failed op.
class Result {
 public:
  // Records one gate; returns `ok` so callers can chain.
  bool Gate(bool ok, const std::string& what);
  // Counts an attempted op and whether every gate since the previous
  // EndOp passed.
  void EndOp();
  void Add(std::string name, double value, std::string unit);
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return gate_failures_ == 0; }
  uint64_t attempted() const { return attempted_ + (op_failed_ ? 1 : 0); }
  uint64_t failed() const { return failed_ + (op_failed_ ? 1 : 0); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t gate_failures_ = 0;
  bool op_failed_ = false;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

// 64-bit FNV-1a, chainable through `seed`.
uint64_t Fnv(std::string_view bytes, uint64_t seed = 0xcbf29ce484222325ull);
// FNV-style hash over the 64-bit bit patterns of `values`, a word per
// step, so hashing large matrices stays cheap next to the work measured.
uint64_t FnvDoubles(const double* values, size_t count, uint64_t seed);
std::string Hex(uint64_t value);

// VmHWM (peak resident set) of `pid` in MiB (0 = this process); 0 when
// unreadable.
double PeakRssMb(int pid = 0);
// Restarts this process's VmHWM at its current resident set, so the next
// PeakRssMb() covers only what runs in between.
void ResetPeakRss();

// Counter deltas between two registry snapshots.
using CounterMap = std::map<std::string, uint64_t>;
CounterMap CounterDelta(const mdc::metrics::MetricsSnapshot& before,
                        const mdc::metrics::MetricsSnapshot& after);

// Counter `name` from `delta`, gated to be non-zero: a counter the
// workload must charge that is renamed or no longer charged fails the run
// instead of reading as a perfect 0.
double Charged(const CounterMap& delta, const std::string& name,
               Result& result);
// Counter `name` from `delta`; 0 when absent. For counters that may
// legitimately stay at 0.
double Counted(const CounterMap& delta, const std::string& name);

// Accumulates spans over the traced passes of a run. Self time of a span
// is its duration minus the durations of its direct children.
class TraceAccumulator {
 public:
  // Folds the spans recorded since the last trace::Enable(). `wall_s` is
  // the wall time of the pass they cover; root spans on the recording
  // thread count towards the covered share of it.
  void AddPass(const std::vector<mdc::trace::SpanRecord>& spans,
               uint64_t dropped, double wall_s);

  int passes() const { return passes_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t spans() const { return spans_; }
  // Share of traced pass wall time covered by root spans.
  double Coverage() const;
  // Per-pass inclusive and self seconds of span `name` (0 when absent).
  double InclusivePerPass(const std::string& name) const;
  double SelfPerPass(const std::string& name) const;
  // Times span `name` was recorded.
  uint64_t Calls(const std::string& name) const;
  // One line per span name, sorted by self time: the report printed
  // ahead of the result line.
  std::vector<std::string> Table() const;

 private:
  struct Totals {
    double inclusive_s = 0.0;
    double self_s = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> totals_;
  int passes_ = 0;
  uint64_t dropped_ = 0;
  uint64_t spans_ = 0;
  double covered_s_ = 0.0;
  double wall_s_ = 0.0;
};

// The timed loop shared by the in-process workloads: runs `pass` (which
// returns its result fingerprint) until `options.seconds` have elapsed,
// at least once (twice when tracing). Every pass is one op, and must
// reproduce the first pass's fingerprint. A traced run alternates
// untraced and traced passes, so the tracing overhead is measured inside
// the same run. `between` runs untimed after every pass; the workloads
// take more set-up samples there, because set-up time drifts by tens of
// percent from one second to the next on a shared host, and samples
// spread over the run give a steadier median than one burst.
struct PassLoop {
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<double> peak_rss_mb;  // VmHWM over each pass.
  TraceAccumulator trace;
  int passes = 0;
  double busy_s = 0.0;  // Sum of all pass walls.
  uint64_t fingerprint = 0;
};
PassLoop RunPasses(const Options& options, const std::string& label,
                   const std::function<uint64_t()>& pass,
                   const std::function<void()>& between, Result& result);

// setup_s: the median of a run's set-up samples (all printed as a note).
void AddSetupMetric(const std::vector<double>& setup_samples, Result& result);

// The end-to-end metrics of an in-process workload: median set-up, median
// untraced pass, passes per second of pass time, and the peak resident
// memory during the first pass.
void AddPassMetrics(const std::vector<double>& setup_samples,
                    const PassLoop& loop, Result& result);

// Median traced pass over median untraced pass, minus 1, in percent.
double OverheadPct(const std::vector<double>& plain_s,
                   const std::vector<double>& traced_s);

// Emits the trace-derived per-layer metrics of a workload: `<span>_s`
// inclusive seconds per pass for each of `layer_spans` (spans the
// benchmark records around layer calls), `self.<layer>.<stage>_s` for
// each of `program_spans` (spans the program records as "layer/stage"),
// and the trace.* bookkeeping. Gates that every listed span was recorded,
// that no span was dropped, and that root spans cover at least 90% of the
// traced wall time.
void AddTraceMetrics(const TraceAccumulator& trace, double overhead_pct,
                     const std::vector<std::string>& layer_spans,
                     const std::vector<std::string>& program_spans,
                     Result& result);

// Workload entry points.
Result RunStudy(const Options& options);
Result RunRank(const Options& options);
Result RunServe(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
