// The job executor: one attempt at one anonymize / perturb / compare /
// report job, shared by `mdc_cli serve`, `mdc_cli batch`, the CLI's
// one-shot commands and bench_service, so every surface runs the same
// path.
//
// Jobs describe their work as string key=value params (JobSpec::params):
// `dataset=table1` (the paper's Table 1, also the default) or
// `input`+`schema`[+`hierarchies`] files, `algorithm` / `algorithms`, and
// the numeric knobs `k`, `max_suppression`, `seed`, `noise_scale`,
// `swap_window`, `sensitive`. Every artifact is a deterministic function
// of the spec (no timings), which is what makes service crash recovery
// byte-identical.

#ifndef MDC_SERVICE_EXECUTOR_H_
#define MDC_SERVICE_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/equivalence.h"
#include "anonymize/generalizer.h"
#include "anonymize/perturb/perturb.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/permutation_metrics.h"
#include "hierarchy/scheme.h"
#include "service/dataset_cache.h"
#include "service/service_core.h"
#include "table/dataset.h"

namespace mdc::service {

using ParamMap = std::map<std::string, std::string>;

// The numeric knobs, validated here for the CLI flags and the job params
// alike. `name` is the spelling the caller knows ("--k" or "k"); errors
// read "bad <name> '<text>': <constraint>".
//   k:               an integer in [1, INT_MAX]
//   max_suppression: a finite fraction in [0, 1]
//   threads:         an integer that fits an int (<= 0 = one per core)
StatusOr<int> ParseKKnob(const std::string& name, const std::string& text);
StatusOr<double> ParseMaxSuppressionKnob(const std::string& name,
                                         const std::string& text);
StatusOr<int> ParseThreadsKnob(const std::string& name,
                               const std::string& text);

// k (default 2) and max_suppression (default 0) from job params.
Status ParseJobKnobs(const ParamMap& params, const std::string& label,
                     int& k, double& max_suppression);

// Per-job view of the resident dataset cache; inert (cache == nullptr /
// !active) when the job was not resolved through one. When it was,
// `resolved` keys the shared encoded bundle and the derived-model store.
// `derived_ok` additionally gates the counter-replaying model store to
// jobs with no budget and no resume checkpoint — a budget could truncate
// the build, and cached models must only ever stand in for complete work.
struct JobCacheContext {
  DatasetCache* cache = nullptr;
  bool active = false;
  bool derived_ok = false;
  DatasetCache::Resolved resolved;
  // Raw algorithm knobs ("|k|max_suppression|seed|noise_scale|
  // swap_window"), appended to the release name to key derived models.
  std::string key_suffix;

  // The entry's shared dictionary-encode bundle, or null when inactive or
  // the build failed (callers then build fresh, so the failing Status
  // surfaces exactly where it does without a cache).
  std::shared_ptr<const EncodedBundle> EncodedOrNull() const;
};

// dataset=table1 (the default) or input+schema[+hierarchies] files.
Status LoadJobInputs(const ParamMap& params, const std::string& label,
                     std::shared_ptr<const Dataset>& data,
                     HierarchySet& hierarchies);

// LoadJobInputs routed through `cache` when there is one and the job is
// file-backed (`dataset=table1` never touches disk; per-job `cache=off`
// opts out). Falls through to the plain loader otherwise.
Status ResolveJobInputs(const ParamMap& params, const std::string& label,
                        DatasetCache* cache,
                        std::shared_ptr<const Dataset>& data,
                        HierarchySet& hierarchies, JobCacheContext& jc);

// The perturbation knobs of a job (mechanism, seed, noise_scale,
// swap_window). `k` doubles as the microaggregation group size.
StatusOr<PerturbConfig> PerturbConfigFromJobParams(const ParamMap& params,
                                                   int k);

struct NamedRelease {
  Anonymization anonymization;
  EquivalencePartition partition;
  RunStats run_stats;
};

// One generalization algorithm (datafly|samarati|optimal|mondrian|
// cluster) over `data`.
StatusOr<NamedRelease> RunAlgorithm(const std::string& algorithm,
                                    std::shared_ptr<const Dataset> data,
                                    const HierarchySet& hierarchies, int k,
                                    double max_suppression,
                                    RunContext* run = nullptr,
                                    int threads = 1,
                                    const JobCacheContext* jc = nullptr);

// One release under either backend family, reduced to its permutation
// model: perturbative mechanisms run directly; generalization algorithms
// run through RunAlgorithm and reverse-map via their equivalence
// partition. The model's property vectors are renamed after the release
// so a PropertyMatrix row carries the algorithm it scores.
struct ModeledRelease {
  std::string name;
  PermutationModel model;
  bool truncated = false;
};
StatusOr<ModeledRelease> ModelRelease(const std::string& name,
                                      std::shared_ptr<const Dataset> data,
                                      const HierarchySet& hierarchies, int k,
                                      double max_suppression,
                                      const PerturbConfig& perturb_base,
                                      RunContext* run, int threads,
                                      const JobCacheContext* jc = nullptr);

// Cross-family comparison under the permutation paradigm: every release
// is reduced to its two Def.-1 property vectors, packed into a
// PropertyMatrix per dimension, and ranked with the Table-4 all-pairs
// engine. The report is a pure function of the inputs (no timings).
StatusOr<std::string> PermutationCompareReport(
    const std::vector<std::string>& names,
    std::shared_ptr<const Dataset> data, const HierarchySet& hierarchies,
    int k, double max_suppression, const PerturbConfig& perturb_base,
    int threads, RunContext* run, bool* truncated = nullptr,
    const JobCacheContext* jc = nullptr);

// One service-job attempt. anonymize -> release CSV; perturb -> the
// perturbative release CSV; compare -> the comparison report text (the
// permutation-paradigm report when the list is cross-family or wider than
// two); report -> release text + achieved-k or permutation summary. The
// optimal search and the perturbation sweep thread their Checkpointable
// state through resume_checkpoint so a drained job resumes mid-sweep.
// `service_unbudgeted` is false under a service-wide default deadline,
// which keeps the derived-model store off.
ServiceCore::ExecResult ExecuteServiceJob(
    const ServiceCore::ExecRequest& request, int threads,
    bool service_unbudgeted);

// ExecuteServiceJob bound to `threads` and to `config`'s budget policy.
ServiceCore::Executor MakeServiceExecutor(const ServiceConfig& config,
                                          int threads);

}  // namespace mdc::service

#endif  // MDC_SERVICE_EXECUTOR_H_
