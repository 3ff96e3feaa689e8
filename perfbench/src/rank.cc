// Workload `rank`: ranking many perturbative releases of one large table
// under the permutation paradigm, in process, two threads.
//
// One pass produces 12 releases (correlated noise, rank swapping and
// microaggregation at four strengths each), extracts each release's
// permutation model (per-tuple rank-displacement privacy and utility
// vectors), packs the two 12 × N property matrices and ranks every pair
// of releases on both. It never touches the lattice or the LM metric.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/perturb/perturb.h"
#include "bench.h"
#include "common/rng.h"
#include "core/compare_engine.h"
#include "core/permutation_metrics.h"
#include "core/property_matrix.h"
#include "table/dataset.h"
#include "table/schema.h"

namespace perfbench {
namespace {

using namespace mdc;

constexpr int kThreads = 2;
constexpr size_t kColumns = 4;

struct ReleaseSpec {
  PerturbMechanism mechanism;
  const char* span;
  double strength;  // noise scale, swap window, or microaggregation k.
};

constexpr ReleaseSpec kReleases[] = {
    {PerturbMechanism::kNoise, "anonymize.perturb.noise", 0.05},
    {PerturbMechanism::kNoise, "anonymize.perturb.noise", 0.1},
    {PerturbMechanism::kNoise, "anonymize.perturb.noise", 0.2},
    {PerturbMechanism::kNoise, "anonymize.perturb.noise", 0.4},
    {PerturbMechanism::kRankSwap, "anonymize.perturb.rankswap", 0.01},
    {PerturbMechanism::kRankSwap, "anonymize.perturb.rankswap", 0.02},
    {PerturbMechanism::kRankSwap, "anonymize.perturb.rankswap", 0.05},
    {PerturbMechanism::kRankSwap, "anonymize.perturb.rankswap", 0.1},
    {PerturbMechanism::kMicroaggregation, "anonymize.perturb.microagg", 3},
    {PerturbMechanism::kMicroaggregation, "anonymize.perturb.microagg", 5},
    {PerturbMechanism::kMicroaggregation, "anonymize.perturb.microagg", 10},
    {PerturbMechanism::kMicroaggregation, "anonymize.perturb.microagg", 20},
};
constexpr size_t kReleaseCount = std::size(kReleases);

// `rows` × 4 real columns: age-like integers a quarter of the time (exact
// ties for the rank sort), uniform reals otherwise.
std::string GenerateCsv(size_t rows, uint64_t seed) {
  std::string csv = "c0,c1,c2,c3\n";
  csv.reserve(rows * kColumns * 12);
  Rng rng(seed);
  char buffer[32];
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < kColumns; ++c) {
      double v = rng.NextBool(0.25)
                     ? static_cast<double>(rng.NextInt(18, 90))
                     : rng.NextDouble() * 100.0;
      std::snprintf(buffer, sizeof(buffer), "%.6f", v);
      csv += buffer;
      csv += c + 1 < kColumns ? ',' : '\n';
    }
  }
  return csv;
}

PerturbConfig ConfigFor(const ReleaseSpec& spec, uint64_t seed) {
  PerturbConfig config;
  config.mechanism = spec.mechanism;
  config.seed = seed;
  config.threads = kThreads;
  if (spec.mechanism == PerturbMechanism::kNoise) {
    config.noise_scale = spec.strength;
  } else if (spec.mechanism == PerturbMechanism::kRankSwap) {
    config.swap_window = spec.strength;
  } else {
    config.k = static_cast<int>(spec.strength);
  }
  return config;
}

std::string ReleaseName(const ReleaseSpec& spec) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s-%g",
                PerturbMechanismName(spec.mechanism), spec.strength);
  return buffer;
}

uint64_t RunPass(std::shared_ptr<const Dataset> data, uint64_t seed,
                 Result& result) {
  uint64_t fingerprint = 0;
  PropertySet privacy;
  PropertySet utility;
  PermutationMetricsOptions model_options;
  model_options.threads = kThreads;
  for (size_t i = 0; i < kReleaseCount; ++i) {
    const ReleaseSpec& spec = kReleases[i];
    const std::string name = ReleaseName(spec);
    StatusOr<PerturbResult> release = [&] {
      trace::Span span(spec.span);
      return PerturbAnonymize(data, ConfigFor(spec, seed + i));
    }();
    if (!result.Gate(release.ok(), name + ": " + release.status().ToString())) {
      return fingerprint;
    }
    StatusOr<PermutationModel> model = [&] {
      trace::Span span("core.model");
      return PermutationModelFor(release->anonymization, nullptr,
                                 model_options);
    }();
    if (!result.Gate(model.ok(), name + " model: " +
                                     model.status().ToString())) {
      return fingerprint;
    }
    const std::vector<double>& p = model->privacy.values();
    const std::vector<double>& u = model->utility.values();
    bool complementary = p.size() == data->row_count() && u.size() == p.size();
    for (size_t row = 0; complementary && row < p.size(); ++row) {
      complementary = u[row] == 1.0 - p[row];
    }
    result.Gate(complementary, name + ": utility != 1 - privacy");
    privacy.emplace_back(name, p);
    utility.emplace_back(name, u);
  }

  AllPairsOptions compare_options;
  compare_options.threads = kThreads;
  for (const PropertySet* set : {&privacy, &utility}) {
    StatusOr<PropertyMatrix> matrix = [&] {
      trace::Span span("core.matrix");
      return PropertyMatrix::FromSet(*set);
    }();
    if (!result.Gate(matrix.ok(), "matrix: " + matrix.status().ToString())) {
      continue;
    }
    for (size_t row = 0; row < matrix->rows(); ++row) {
      fingerprint = FnvDoubles(matrix->row(row), matrix->cols(), fingerprint);
    }
    StatusOr<AllPairsResult> ranked = [&] {
      trace::Span span("core.compare");
      return AllPairsCompare(*matrix, compare_options);
    }();
    if (!result.Gate(ranked.ok(), "all-pairs: " + ranked.status().ToString())) {
      continue;
    }
    result.Gate(ranked->pairs.size() == kReleaseCount * (kReleaseCount - 1) / 2,
                "all-pairs compared " + std::to_string(ranked->pairs.size()) +
                    " pairs");
    for (const PairComparison& pair : ranked->pairs) {
      const double values[] = {pair.cov12, pair.cov21, pair.spr12,
                               pair.spr21, pair.min1,  pair.min2};
      fingerprint = FnvDoubles(values, 6, fingerprint);
      fingerprint = Fnv(std::to_string(static_cast<int>(pair.relation)),
                        fingerprint);
    }
  }
  return fingerprint;
}

}  // namespace

Result RunRank(const Options& options) {
  Result result;
  const size_t rows = options.size == Size::kFull ? 200000 : 5000;

  // Set-up: generate the table as CSV text and parse it. The first result
  // is the one measured; one more set-up sample follows every pass.
  std::vector<double> setup_samples;
  std::vector<double> parse_samples;
  auto schema = ParseSchemaSpec("c0:real:qi,c1:real:qi,c2:real:qi,c3:real:qi");
  MDC_CHECK(schema.ok());
  auto set_up = [&]() -> std::shared_ptr<const Dataset> {
    Clock::time_point start = Clock::now();
    std::string csv = GenerateCsv(rows, options.seed);
    Clock::time_point parse_start = Clock::now();
    auto parsed = Dataset::FromCsv(*schema, csv);
    parse_samples.push_back(SecondsSince(parse_start));
    if (!result.Gate(parsed.ok() && parsed->row_count() == rows,
                     "parse: " + parsed.status().ToString())) {
      return nullptr;
    }
    auto data = std::make_shared<const Dataset>(std::move(parsed).value());
    setup_samples.push_back(SecondsSince(start));
    return data;
  };
  std::shared_ptr<const Dataset> data = set_up();
  if (data == nullptr) {
    result.EndOp();
    return result;
  }
  // Each property matrix is kReleaseCount × rows doubles.
  const double matrix_mb =
      static_cast<double>(kReleaseCount * rows * sizeof(double)) / 1e6;

  auto before = metrics::Snapshot();
  PassLoop loop = RunPasses(
      options, "rank", [&] { return RunPass(data, options.seed, result); },
      [&] { set_up(); }, result);
  char note[160];
  std::snprintf(note, sizeof(note),
                "rank fingerprint %s rows=%zu releases=%zu threads=%d "
                "matrix_mb=%.1f passes=%d",
                Hex(loop.fingerprint).c_str(), rows, kReleaseCount, kThreads,
                matrix_mb, loop.passes);
  result.Note(note);
  if (!options.trace) {
    AddPassMetrics(setup_samples, loop, result);
    return result;
  }
  const CounterMap delta = CounterDelta(before, metrics::Snapshot());
  const double per_pass = 1.0 / loop.passes;
  auto per_pass_charged = [&](const char* counter) {
    return Charged(delta, counter, result) * per_pass;
  };
  result.Add("table.parse_s", Median(parse_samples), "s");
  result.Add("anonymize.perturb_cells",
             per_pass_charged("perturb.cells_perturbed"), "count");
  result.Add("core.rows_ranked", per_pass_charged("perm.rows_ranked"),
             "count");
  result.Add("core.cmp_elements", per_pass_charged("cmp.elements"), "count");
  result.Add("common.pool_jobs", per_pass_charged("pool.jobs"), "count");
  const double compare_s = loop.trace.InclusivePerPass("core.compare");
  // Computed, not measured: every pair streams two rows of N doubles, on
  // both matrices.
  const double pair_bytes = 2.0 * (kReleaseCount * (kReleaseCount - 1) / 2) *
                            static_cast<double>(rows) * 16.0;
  result.Add("core.allpairs_gbps",
             compare_s > 0.0 ? pair_bytes / compare_s / 1e9 : 0.0,
             "GB/s-computed");
  AddTraceMetrics(loop.trace, OverheadPct(loop.plain_s, loop.traced_s),
                  {"anonymize.perturb.noise", "anonymize.perturb.rankswap",
                   "anonymize.perturb.microagg", "core.model", "core.matrix",
                   "core.compare"},
                  {}, result);
  return result;
}

}  // namespace perfbench
