#include "service/executor.h"

#include <cmath>
#include <limits>
#include <optional>

#include "anonymize/clustering.h"
#include "anonymize/datafly.h"
#include "anonymize/mondrian.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/samarati.h"
#include "common/csv.h"
#include "common/strings.h"
#include "common/text_table.h"
#include "core/compare_engine.h"
#include "core/property_matrix.h"
#include "core/report.h"
#include "hierarchy/spec_parser.h"
#include "paper/paper_data.h"
#include "privacy/k_anonymity.h"
#include "table/schema.h"

namespace mdc::service {
namespace {

std::string GetParam(const ParamMap& params, const std::string& key) {
  auto it = params.find(key);
  return it == params.end() ? std::string() : it->second;
}

// Parses `text` as an integer in [lo, hi]; never narrows out-of-range
// values into range.
StatusOr<int> ParseIntKnob(const std::string& name, const std::string& text,
                           int64_t lo, int64_t hi) {
  std::optional<int64_t> parsed = ParseInt64(text);
  if (!parsed.has_value() || *parsed < lo || *parsed > hi) {
    return Status::InvalidArgument("bad " + name + " '" + text +
                                   "': must be an integer in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  return static_cast<int>(*parsed);
}

}  // namespace

StatusOr<int> ParseKKnob(const std::string& name, const std::string& text) {
  return ParseIntKnob(name, text, 1, std::numeric_limits<int>::max());
}

StatusOr<int> ParseThreadsKnob(const std::string& name,
                               const std::string& text) {
  return ParseIntKnob(name, text, std::numeric_limits<int>::min(),
                      std::numeric_limits<int>::max());
}

StatusOr<double> ParseMaxSuppressionKnob(const std::string& name,
                                         const std::string& text) {
  std::optional<double> parsed = ParseDouble(text);
  // The negated range test also rejects NaN.
  if (!parsed.has_value() || !std::isfinite(*parsed) ||
      !(*parsed >= 0.0 && *parsed <= 1.0)) {
    return Status::InvalidArgument("bad " + name + " '" + text +
                                   "': must be a fraction in [0, 1]");
  }
  return *parsed;
}

Status ParseJobKnobs(const ParamMap& params, const std::string& label,
                     int& k, double& max_suppression) {
  k = 2;
  max_suppression = 0.0;
  auto prefixed = [&label](const Status& status) {
    return Status(status.code(), label + ": " + status.message());
  };
  if (std::string text = GetParam(params, "k"); !text.empty()) {
    StatusOr<int> parsed = ParseKKnob("k", text);
    if (!parsed.ok()) return prefixed(parsed.status());
    k = *parsed;
  }
  if (std::string text = GetParam(params, "max_suppression"); !text.empty()) {
    StatusOr<double> parsed = ParseMaxSuppressionKnob("max_suppression", text);
    if (!parsed.ok()) return prefixed(parsed.status());
    max_suppression = *parsed;
  }
  return Status::Ok();
}

std::shared_ptr<const EncodedBundle> JobCacheContext::EncodedOrNull() const {
  if (!active) return nullptr;
  auto bundle_or = cache->Encoded(resolved);
  if (!bundle_or.ok()) return nullptr;
  return std::move(bundle_or).value();
}

Status LoadJobInputs(const ParamMap& params, const std::string& label,
                     std::shared_ptr<const Dataset>& data,
                     HierarchySet& hierarchies) {
  std::string dataset = GetParam(params, "dataset");
  if (dataset == "table1" ||
      (dataset.empty() && GetParam(params, "input").empty())) {
    MDC_ASSIGN_OR_RETURN(data, paper::Table1());
    MDC_ASSIGN_OR_RETURN(hierarchies, paper::HierarchySetA());
    return Status::Ok();
  }
  if (!dataset.empty()) {
    return Status::InvalidArgument(label + ": unknown dataset '" + dataset +
                                   "' (table1 or input+schema)");
  }
  MDC_ASSIGN_OR_RETURN(Schema schema,
                       ParseSchemaSpec(GetParam(params, "schema")));
  MDC_ASSIGN_OR_RETURN(std::string csv,
                       ReadFileToString(GetParam(params, "input")));
  MDC_ASSIGN_OR_RETURN(Dataset parsed, Dataset::FromCsv(schema, csv));
  data = std::make_shared<const Dataset>(std::move(parsed));
  if (!GetParam(params, "hierarchies").empty()) {
    MDC_ASSIGN_OR_RETURN(std::string spec,
                         ReadFileToString(GetParam(params, "hierarchies")));
    MDC_ASSIGN_OR_RETURN(hierarchies,
                         ParseHierarchySpec(data->schema(), spec));
  }
  return Status::Ok();
}

Status ResolveJobInputs(const ParamMap& params, const std::string& label,
                        DatasetCache* cache,
                        std::shared_ptr<const Dataset>& data,
                        HierarchySet& hierarchies, JobCacheContext& jc) {
  const bool file_backed = GetParam(params, "dataset").empty() &&
                           !GetParam(params, "input").empty();
  if (cache == nullptr || !file_backed || GetParam(params, "cache") == "off") {
    return LoadJobInputs(params, label, data, hierarchies);
  }
  MDC_ASSIGN_OR_RETURN(jc.resolved,
                       cache->Resolve(GetParam(params, "input"),
                                      GetParam(params, "schema"),
                                      GetParam(params, "hierarchies")));
  jc.cache = cache;
  jc.active = true;
  data = jc.resolved.data;
  hierarchies = jc.resolved.hierarchies;
  return Status::Ok();
}

StatusOr<PerturbConfig> PerturbConfigFromJobParams(const ParamMap& params,
                                                   int k) {
  ParamMap knobs;
  for (const char* key : {"mechanism", "seed", "noise_scale", "swap_window"}) {
    auto it = params.find(key);
    if (it != params.end()) knobs[key] = it->second;
  }
  MDC_ASSIGN_OR_RETURN(PerturbConfig config, PerturbConfigFromParams(knobs));
  if (k >= 2) config.k = k;
  return config;
}

StatusOr<NamedRelease> RunAlgorithm(const std::string& algorithm,
                                    std::shared_ptr<const Dataset> data,
                                    const HierarchySet& hierarchies, int k,
                                    double max_suppression,
                                    RunContext* run, int threads,
                                    const JobCacheContext* jc) {
  SuppressionBudget budget{max_suppression};
  if (algorithm == "datafly") {
    DataflyConfig config{k, budget};
    MDC_ASSIGN_OR_RETURN(auto result,
                         DataflyAnonymize(data, hierarchies, config, run));
    return NamedRelease{std::move(result.evaluation.anonymization),
                        std::move(result.evaluation.partition),
                        result.run_stats};
  }
  if (algorithm == "samarati") {
    SamaratiConfig config{.k = k, .suppression = budget};
    config.threads = threads;
    if (jc != nullptr) config.encoded = jc->EncodedOrNull();
    MDC_ASSIGN_OR_RETURN(
        auto result,
        SamaratiAnonymize(data, hierarchies, config, ProxyLoss, run));
    return NamedRelease{std::move(result.best.anonymization),
                        std::move(result.best.partition), result.run_stats};
  }
  if (algorithm == "optimal") {
    OptimalSearchConfig config;
    config.k = k;
    config.suppression = budget;
    config.threads = threads;
    if (jc != nullptr) config.encoded = jc->EncodedOrNull();
    MDC_ASSIGN_OR_RETURN(
        auto result,
        OptimalLatticeSearch(data, hierarchies, config, ProxyLoss, run));
    return NamedRelease{std::move(result.best.anonymization),
                        std::move(result.best.partition), result.run_stats};
  }
  if (algorithm == "mondrian") {
    MondrianConfig config{k};
    MDC_ASSIGN_OR_RETURN(auto result, MondrianAnonymize(data, config, run));
    return NamedRelease{std::move(result.anonymization),
                        std::move(result.partition), result.run_stats};
  }
  if (algorithm == "cluster") {
    ClusteringConfig config{k};
    MDC_ASSIGN_OR_RETURN(auto result,
                         KMemberClusterAnonymize(data, config, run));
    return NamedRelease{std::move(result.anonymization),
                        std::move(result.partition), result.run_stats};
  }
  return Status::InvalidArgument("unknown algorithm '" + algorithm +
                                 "' (datafly|samarati|optimal|mondrian|"
                                 "cluster)");
}

StatusOr<ModeledRelease> ModelRelease(const std::string& name,
                                      std::shared_ptr<const Dataset> data,
                                      const HierarchySet& hierarchies, int k,
                                      double max_suppression,
                                      const PerturbConfig& perturb_base,
                                      RunContext* run, int threads,
                                      const JobCacheContext* jc) {
  ModeledRelease out;
  out.name = name;
  // Derived-model store: a hit returns the resident property vectors and
  // replays the deterministic-counter delta the skipped build would have
  // charged (see service/dataset_cache.h) — artifacts AND counters stay
  // byte-identical with the cache off.
  const bool cache_models = jc != nullptr && jc->derived_ok;
  std::string model_key;
  if (cache_models) {
    model_key = name + jc->key_suffix;
    if (std::optional<CachedModel> cached =
            jc->cache->FindModel(jc->resolved.content_hash, model_key)) {
      out.model.rows = cached->rows;
      out.model.privacy = cached->matrix->ToVector(0);
      out.model.utility = cached->matrix->ToVector(1);
      return out;
    }
  }
  std::map<std::string, uint64_t> counters_before;
  if (cache_models) {
    counters_before = DatasetCache::WorkCounterSnapshot();
  }
  PermutationMetricsOptions metric_options;
  metric_options.threads = threads;
  if (IsPerturbMechanismName(name)) {
    PerturbConfig config = perturb_base;
    MDC_ASSIGN_OR_RETURN(config.mechanism, ParsePerturbMechanism(name));
    config.threads = threads;
    MDC_ASSIGN_OR_RETURN(PerturbResult result,
                         PerturbAnonymize(data, config, run));
    out.truncated = result.run_stats.truncated;
    MDC_ASSIGN_OR_RETURN(out.model,
                         PermutationModelFor(result.anonymization, nullptr,
                                             metric_options, run));
  } else {
    MDC_ASSIGN_OR_RETURN(NamedRelease release,
                         RunAlgorithm(name, data, hierarchies, k,
                                      max_suppression, run, threads, jc));
    out.truncated = release.run_stats.truncated;
    MDC_ASSIGN_OR_RETURN(
        out.model, PermutationModelFor(release.anonymization,
                                       &release.partition, metric_options,
                                       run));
  }
  out.model.privacy = PropertyVector(name + "-privacy",
                                     out.model.privacy.values());
  out.model.utility = PropertyVector(name + "-utility",
                                     out.model.utility.values());
  if (cache_models && !out.truncated) {
    PropertySet set;
    set.push_back(out.model.privacy);
    set.push_back(out.model.utility);
    if (auto matrix_or = PropertyMatrix::FromSet(set); matrix_or.ok()) {
      CachedModel cached;
      cached.rows = out.model.rows;
      cached.matrix = std::make_shared<const PropertyMatrix>(
          std::move(matrix_or).value());
      jc->cache->PutModel(
          jc->resolved.content_hash, model_key, cached,
          DatasetCache::WorkCounterDelta(counters_before));
    }
  }
  return out;
}

StatusOr<std::string> PermutationCompareReport(
    const std::vector<std::string>& names,
    std::shared_ptr<const Dataset> data, const HierarchySet& hierarchies,
    int k, double max_suppression, const PerturbConfig& perturb_base,
    int threads, RunContext* run, bool* truncated,
    const JobCacheContext* jc) {
  if (names.size() < 2) {
    return Status::InvalidArgument(
        "permutation comparison needs at least two algorithm names");
  }
  std::vector<ModeledRelease> releases;
  for (const std::string& name : names) {
    MDC_ASSIGN_OR_RETURN(ModeledRelease modeled,
                         ModelRelease(name, data, hierarchies, k,
                                      max_suppression, perturb_base, run,
                                      threads, jc));
    if (truncated != nullptr && modeled.truncated) *truncated = true;
    releases.push_back(std::move(modeled));
  }

  std::string text = "permutation comparison (" +
                     std::to_string(releases.size()) + " releases, N=" +
                     std::to_string(releases.front().model.rows) + ")\n";
  TextTable summary;
  summary.SetHeader({"release", "mean_privacy", "mean_utility"});
  for (const ModeledRelease& release : releases) {
    summary.AddRow({release.name,
                    FormatDouble(release.model.privacy.Mean(), 4),
                    FormatDouble(release.model.utility.Mean(), 4)});
  }
  text += summary.Render();

  // Dominance wins per release across both dimensions — the ranking the
  // acceptance gate reads.
  std::vector<int> wins(releases.size(), 0);
  for (const bool privacy_dimension : {true, false}) {
    const std::string dimension = privacy_dimension ? "privacy" : "utility";
    PropertySet set;
    for (const ModeledRelease& release : releases) {
      set.push_back(privacy_dimension ? release.model.privacy
                                      : release.model.utility);
    }
    MDC_ASSIGN_OR_RETURN(PropertyMatrix matrix, PropertyMatrix::FromSet(set));
    AllPairsOptions options;
    options.threads = threads;
    // Ideal point: normalized displacement (and its complement) live in
    // [0, 1], so the all-ones vector is the per-dimension optimum.
    options.d_max = PropertyVector(
        "ideal", std::vector<double>(matrix.cols(), 1.0));
    MDC_ASSIGN_OR_RETURN(AllPairsResult pairs,
                         AllPairsCompare(matrix, options, run));
    TextTable table;
    table.SetHeader({"pair (" + dimension + ")", "relation", "cov12", "cov21",
                     "spr12", "spr21"});
    for (const PairComparison& pair : pairs.pairs) {
      table.AddRow({releases[pair.first].name + " vs " +
                        releases[pair.second].name,
                    DominanceRelationName(pair.relation),
                    FormatDouble(pair.cov12, 4), FormatDouble(pair.cov21, 4),
                    FormatDouble(pair.spr12, 4),
                    FormatDouble(pair.spr21, 4)});
      if (pair.relation == DominanceRelation::kFirstDominates) {
        ++wins[pair.first];
      } else if (pair.relation == DominanceRelation::kSecondDominates) {
        ++wins[pair.second];
      }
    }
    text += table.Render();
    TextTable ranks;
    ranks.SetHeader({"release", "P_rank(" + dimension + ")"});
    for (size_t r = 0; r < releases.size(); ++r) {
      ranks.AddRow({releases[r].name, FormatDouble(pairs.ranks[r], 4)});
    }
    text += ranks.Render();
  }
  for (size_t r = 0; r < releases.size(); ++r) {
    text += "dominance wins: " + releases[r].name + "=" +
            std::to_string(wins[r]) + "\n";
  }
  return text;
}

ServiceCore::ExecResult ExecuteServiceJob(
    const ServiceCore::ExecRequest& request, int threads,
    bool service_unbudgeted) {
  const JobSpec& spec = request.spec;
  RunContext* run = request.run;
  std::string_view resume_checkpoint = request.resume_checkpoint;
  ServiceCore::ExecResult out;
  std::string label = "job " + spec.id;
  JobCacheContext jc;
  out.status = [&]() -> Status {
    std::shared_ptr<const Dataset> data;
    HierarchySet hierarchies;
    MDC_RETURN_IF_ERROR(ResolveJobInputs(spec.params, label, request.cache,
                                         data, hierarchies, jc));
    // The derived-model store may only stand in for work that is provably
    // complete and repeatable: no deadline or step budget anywhere (a
    // budget can truncate the build) and no checkpoint resume (the replayed
    // counter delta must match a from-scratch build).
    jc.derived_ok = jc.active && service_unbudgeted &&
                    spec.deadline_ms == 0 && spec.max_steps == 0 &&
                    resume_checkpoint.empty();
    jc.key_suffix = "|" + GetParam(spec.params, "k") + "|" +
                    GetParam(spec.params, "max_suppression") + "|" +
                    GetParam(spec.params, "seed") + "|" +
                    GetParam(spec.params, "noise_scale") + "|" +
                    GetParam(spec.params, "swap_window");
    int k = 2;
    double max_suppression = 0.0;
    MDC_RETURN_IF_ERROR(
        ParseJobKnobs(spec.params, label, k, max_suppression));
    if (spec.kind == "anonymize") {
      std::string algorithm = GetParam(spec.params, "algorithm");
      if (algorithm.empty()) algorithm = "mondrian";
      if (algorithm == "optimal") {
        OptimalLatticeCheckpoint checkpoint;
        if (!resume_checkpoint.empty()) {
          MDC_RETURN_IF_ERROR(checkpoint.ResumeFrom(resume_checkpoint));
        }
        OptimalSearchConfig config;
        config.k = k;
        config.suppression = SuppressionBudget{max_suppression};
        config.threads = threads;
        config.encoded = jc.EncodedOrNull();
        auto result = OptimalLatticeSearch(data, hierarchies, config,
                                           ProxyLoss, run, &checkpoint);
        if (checkpoint.has_state()) {
          // Budget expiry (drain, deadline, steps) captured the sweep
          // position; hand it to the service for the next attempt/life.
          if (auto bytes = checkpoint.SaveCheckpoint(); bytes.ok()) {
            out.checkpoint = std::move(bytes).value();
          }
        }
        if (!result.ok()) return result.status();
        out.truncated = result->run_stats.truncated;
        out.artifact = result->best.anonymization.release.ToCsv();
        return Status::Ok();
      }
      MDC_ASSIGN_OR_RETURN(NamedRelease release,
                           RunAlgorithm(algorithm, data, hierarchies, k,
                                        max_suppression, run, threads, &jc));
      out.truncated = release.run_stats.truncated;
      out.artifact = release.anonymization.release.ToCsv();
      return Status::Ok();
    }

    if (spec.kind == "perturb") {
      MDC_ASSIGN_OR_RETURN(PerturbConfig config,
                           PerturbConfigFromJobParams(spec.params, k));
      config.threads = threads;
      PerturbCheckpoint checkpoint;
      if (!resume_checkpoint.empty()) {
        MDC_RETURN_IF_ERROR(checkpoint.ResumeFrom(resume_checkpoint));
      }
      auto result = PerturbAnonymize(data, config, run, &checkpoint);
      if (checkpoint.has_state()) {
        // Budget expiry (drain, deadline, steps) captured the column-sweep
        // position; hand it to the service for the next attempt/life.
        if (auto bytes = checkpoint.SaveCheckpoint(); bytes.ok()) {
          out.checkpoint = std::move(bytes).value();
        }
      }
      if (!result.ok()) return result.status();
      out.truncated = result->run_stats.truncated;
      out.artifact = result->anonymization.release.ToCsv();
      return Status::Ok();
    }

    if (spec.kind == "compare") {
      std::string algorithms = GetParam(spec.params, "algorithms");
      if (algorithms.empty()) algorithms = "datafly,mondrian";
      std::vector<std::string> names = StrSplit(algorithms, ',');
      bool perturbative = false;
      for (const std::string& name : names) {
        perturbative = perturbative || IsPerturbMechanismName(name);
      }
      if (perturbative || names.size() > 2) {
        // Cross-family or multi-way: rank under the permutation paradigm.
        MDC_ASSIGN_OR_RETURN(PerturbConfig perturb_base,
                             PerturbConfigFromJobParams(spec.params, k));
        bool truncated = false;
        MDC_ASSIGN_OR_RETURN(
            out.artifact,
            PermutationCompareReport(names, data, hierarchies, k,
                                     max_suppression, perturb_base, threads,
                                     run, &truncated, &jc));
        out.truncated = truncated;
        return Status::Ok();
      }
      if (names.size() != 2) {
        return Status::InvalidArgument(
            label + ": algorithms needs two comma-separated names");
      }
      MDC_ASSIGN_OR_RETURN(NamedRelease first,
                           RunAlgorithm(names[0], data, hierarchies, k,
                                        max_suppression, run, threads, &jc));
      MDC_ASSIGN_OR_RETURN(NamedRelease second,
                           RunAlgorithm(names[1], data, hierarchies, k,
                                        max_suppression, run, threads, &jc));
      ComparisonOptions options;
      options.threads = threads;
      std::string sensitive = GetParam(spec.params, "sensitive");
      if (!sensitive.empty()) {
        auto parsed = ParseInt64(sensitive);
        if (!parsed.has_value() || *parsed < 0) {
          return Status::InvalidArgument(label +
                                         ": sensitive must be a column index");
        }
        options.sensitive_column = static_cast<size_t>(*parsed);
      } else if (GetParam(spec.params, "input").empty()) {
        options.sensitive_column = paper::kMaritalColumn;  // table1
      }
      MDC_ASSIGN_OR_RETURN(
          ComparisonReport report,
          CompareAnonymizations(first.anonymization, first.partition,
                                second.anonymization, second.partition,
                                options, run));
      out.truncated = first.run_stats.truncated ||
                      second.run_stats.truncated;
      out.artifact = report.ToText();
      return Status::Ok();
    }

    if (spec.kind == "report") {
      std::string algorithm = GetParam(spec.params, "algorithm");
      if (algorithm.empty()) algorithm = "mondrian";
      if (IsPerturbMechanismName(algorithm)) {
        MDC_ASSIGN_OR_RETURN(PerturbConfig config,
                             PerturbConfigFromJobParams(spec.params, k));
        config.threads = threads;
        MDC_ASSIGN_OR_RETURN(config.mechanism,
                             ParsePerturbMechanism(algorithm));
        MDC_ASSIGN_OR_RETURN(PerturbResult result,
                             PerturbAnonymize(data, config, run));
        PermutationMetricsOptions metric_options;
        metric_options.threads = threads;
        MDC_ASSIGN_OR_RETURN(PermutationModel model,
                             PermutationModelFor(result.anonymization,
                                                 nullptr, metric_options,
                                                 run));
        out.truncated = result.run_stats.truncated;
        out.artifact = result.anonymization.release.ToText();
        out.artifact += PermutationModelSummary(model);
        return Status::Ok();
      }
      MDC_ASSIGN_OR_RETURN(NamedRelease release,
                           RunAlgorithm(algorithm, data, hierarchies, k,
                                        max_suppression, run, threads, &jc));
      double achieved = KAnonymity(1).Measure(release.anonymization,
                                              release.partition);
      out.truncated = release.run_stats.truncated;
      out.artifact = release.anonymization.release.ToText();
      out.artifact += "achieved_k=" + std::to_string(achieved) +
                      " suppressed=" +
                      std::to_string(release.anonymization.SuppressedCount()) +
                      "\n";
      return Status::Ok();
    }
    return Status::InvalidArgument(label + ": unknown kind '" + spec.kind +
                                   "' (anonymize|perturb|compare|report)");
  }();
  return out;
}

ServiceCore::Executor MakeServiceExecutor(const ServiceConfig& config,
                                          int threads) {
  // A service-wide default deadline budgets every job, so the derived-model
  // store (which requires provably unbudgeted builds) stays off under one.
  const bool service_unbudgeted = config.default_deadline_ms == 0;
  return [threads, service_unbudgeted](const ServiceCore::ExecRequest& request) {
    return ExecuteServiceJob(request, threads, service_unbudgeted);
  };
}

}  // namespace mdc::service
