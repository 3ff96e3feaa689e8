#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace perfbench {

bool Result::Gate(bool ok, const std::string& what) {
  if (!ok) {
    ++gate_failures_;
    op_failed_ = true;
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Result::EndOp() {
  ++attempted_;
  if (op_failed_) ++failed_;
  op_failed_ = false;
}

void Result::Add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t Fnv(std::string_view bytes, uint64_t seed) {
  uint64_t hash = seed;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t FnvDoubles(const double* values, size_t count, uint64_t seed) {
  uint64_t hash = seed;
  for (size_t i = 0; i < count; ++i) {
    uint64_t word;
    std::memcpy(&word, &values[i], sizeof(word));
    hash = (hash ^ word) * 0x100000001b3ull;
    hash ^= hash >> 32;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

double PeakRssMb(int pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kb = std::strtod(line.c_str() + 6, nullptr);
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

CounterMap CounterDelta(const mdc::metrics::MetricsSnapshot& before,
                        const mdc::metrics::MetricsSnapshot& after) {
  CounterMap delta;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    uint64_t base = it == before.counters.end() ? 0 : it->second;
    delta[name] = value - base;
  }
  return delta;
}

double Counted(const CounterMap& delta, const std::string& name) {
  auto it = delta.find(name);
  return it == delta.end() ? 0.0 : static_cast<double>(it->second);
}

double Charged(const CounterMap& delta, const std::string& name,
               Result& result) {
  const double value = Counted(delta, name);
  result.Gate(value > 0, "counter " + name + " was not charged");
  return value;
}

void TraceAccumulator::AddPass(
    const std::vector<mdc::trace::SpanRecord>& spans, uint64_t dropped,
    double wall_s) {
  ++passes_;
  dropped_ += dropped;
  spans_ += spans.size();
  wall_s_ += wall_s;
  std::unordered_map<uint64_t, uint64_t> child_us;
  for (const auto& span : spans) {
    if (span.parent_id != 0) child_us[span.parent_id] += span.duration_us;
  }
  // The thread running the pass records its first span, so it owns the
  // earliest-started root span.
  uint32_t pass_thread = 0;
  uint64_t earliest = UINT64_MAX;
  for (const auto& span : spans) {
    if (span.parent_id == 0 && span.start_us < earliest) {
      earliest = span.start_us;
      pass_thread = span.thread_id;
    }
  }
  for (const auto& span : spans) {
    Totals& totals = totals_[span.name];
    double inclusive = static_cast<double>(span.duration_us) * 1e-6;
    auto it = child_us.find(span.span_id);
    double children =
        it == child_us.end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
    totals.inclusive_s += inclusive;
    totals.self_s += std::max(0.0, inclusive - children);
    ++totals.count;
    if (span.parent_id == 0 && span.thread_id == pass_thread) {
      covered_s_ += inclusive;
    }
  }
}

double TraceAccumulator::Coverage() const {
  return wall_s_ > 0.0 ? covered_s_ / wall_s_ : 0.0;
}

double TraceAccumulator::InclusivePerPass(const std::string& name) const {
  auto it = totals_.find(name);
  if (it == totals_.end() || passes_ == 0) return 0.0;
  return it->second.inclusive_s / passes_;
}

double TraceAccumulator::SelfPerPass(const std::string& name) const {
  auto it = totals_.find(name);
  if (it == totals_.end() || passes_ == 0) return 0.0;
  return it->second.self_s / passes_;
}

uint64_t TraceAccumulator::Calls(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.count;
}

std::vector<std::string> TraceAccumulator::Table() const {
  std::vector<std::pair<std::string, Totals>> rows(totals_.begin(),
                                                   totals_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::vector<std::string> lines;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%-34s %12s %12s %10s", "span",
                "self_s/pass", "incl_s/pass", "calls/pass");
  lines.push_back(buffer);
  const double passes = passes_ > 0 ? passes_ : 1;
  for (const auto& [name, totals] : rows) {
    std::snprintf(buffer, sizeof(buffer), "%-34s %12.6f %12.6f %10.1f",
                  name.c_str(), totals.self_s / passes,
                  totals.inclusive_s / passes,
                  static_cast<double>(totals.count) / passes);
    lines.push_back(buffer);
  }
  return lines;
}

double OverheadPct(const std::vector<double>& plain_s,
                   const std::vector<double>& traced_s) {
  const double plain = Median(plain_s);
  return plain > 0.0 ? (Median(traced_s) / plain - 1.0) * 100.0 : 0.0;
}

PassLoop RunPasses(const Options& options, const std::string& label,
                   const std::function<uint64_t()>& pass,
                   const std::function<void()>& between, Result& result) {
  PassLoop loop;
  const Clock::time_point measure_start = Clock::now();
  const int min_passes = options.trace ? 2 : 1;
  while (loop.passes < min_passes ||
         SecondsSince(measure_start) < options.seconds) {
    const bool traced = options.trace && loop.passes % 2 == 1;
    if (traced) mdc::trace::Enable(1 << 18);
    ResetPeakRss();
    Clock::time_point start = Clock::now();
    uint64_t fingerprint = pass();
    double wall = SecondsSince(start);
    loop.peak_rss_mb.push_back(PeakRssMb());
    loop.busy_s += wall;
    if (traced) {
      mdc::trace::Disable();
      loop.trace.AddPass(mdc::trace::Spans(), mdc::trace::Dropped(), wall);
      loop.traced_s.push_back(wall);
    } else {
      loop.plain_s.push_back(wall);
    }
    if (loop.passes == 0) loop.fingerprint = fingerprint;
    result.Gate(fingerprint == loop.fingerprint,
                label + " pass " + std::to_string(loop.passes) +
                    " fingerprint " + Hex(fingerprint) + " != " +
                    Hex(loop.fingerprint));
    result.EndOp();
    ++loop.passes;
    between();
  }
  std::string walls;
  for (double wall : loop.plain_s) walls += " " + std::to_string(wall);
  result.Note(label + " untraced pass walls (s):" + walls);
  std::string peaks;
  for (double peak : loop.peak_rss_mb) peaks += " " + std::to_string(peak);
  result.Note(label + " pass peak RSS (MB):" + peaks);
  return loop;
}

void AddSetupMetric(const std::vector<double>& setup_samples,
                    Result& result) {
  std::string samples;
  for (double s : setup_samples) samples += " " + std::to_string(s);
  result.Note("set-up samples (s):" + samples);
  result.Add("setup_s", Median(setup_samples), "s");
}

void AddPassMetrics(const std::vector<double>& setup_samples,
                    const PassLoop& loop, Result& result) {
  AddSetupMetric(setup_samples, result);
  result.Add("pass_s", Median(loop.plain_s), "s");
  result.Add("ops_per_s", loop.passes / loop.busy_s, "1/s");
  // The first pass starts from the set-up state alone. Later passes also
  // carry whatever the allocator kept from earlier ones, which varies from
  // run to run with thread timing.
  result.Add("peak_rss_mb", loop.peak_rss_mb.front(), "MB");
}

void AddTraceMetrics(const TraceAccumulator& trace, double overhead_pct,
                     const std::vector<std::string>& layer_spans,
                     const std::vector<std::string>& program_spans,
                     Result& result) {
  for (const std::string& span : layer_spans) {
    result.Gate(trace.Calls(span) > 0, "span " + span + " never recorded");
    result.Add(span + "_s", trace.InclusivePerPass(span), "s");
  }
  for (const std::string& span : program_spans) {
    result.Gate(trace.Calls(span) > 0, "span " + span + " never recorded");
    std::string name = "self." + span + "_s";
    std::replace(name.begin(), name.end(), '/', '.');
    result.Add(name, trace.SelfPerPass(span), "s");
  }
  result.Add("trace.coverage", trace.Coverage(), "ratio");
  result.Add("trace.overhead_pct", overhead_pct, "%");
  result.Add("trace.spans", static_cast<double>(trace.spans()), "count");
  result.Add("trace.dropped", static_cast<double>(trace.dropped()), "count");
  result.Gate(trace.dropped() == 0, "trace dropped " +
                                        std::to_string(trace.dropped()) +
                                        " spans");
  result.Gate(trace.passes() > 0, "no traced pass");
  result.Gate(trace.Coverage() >= 0.9,
              "layer spans cover " + std::to_string(trace.Coverage()) +
                  " of traced wall time, want >= 0.9");
  for (const std::string& line : trace.Table()) result.Note("span " + line);
}

}  // namespace perfbench
