// Run-to-completion over ServiceCore: the in-process client behind
// `mdc_cli batch` and `repro_algorithm_comparison --checkpoint-dir`.
//
// A batch is a list of JobSpecs submitted to a ServiceCore on the batch's
// state directory. The service journals each one before admitting it, so
// a killed batch resumes on the next run through the ordinary journal
// recovery: finished jobs answer duplicate_id with their recorded outcome
// and are not executed again, and incomplete ones re-run (from their
// drain checkpoint, where the executor keeps one). Supervision (retry with
// backoff, quarantine, truncation) is the service's own.

#ifndef MDC_SERVICE_BATCH_H_
#define MDC_SERVICE_BATCH_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "service/job_spec.h"
#include "service/service_core.h"

namespace mdc::service {

// Parses a job-spec CSV into anonymize JobSpecs. The first row is a header
// and must contain an `id` column; `deadline_ms` and `max_steps` columns
// (optional) become the per-attempt budgets; every other column becomes a
// params entry. Blank ids, ids outside the service token rule
// (IsValidToken) and duplicate ids are rejected.
StatusOr<std::vector<JobSpec>> ParseJobSpecCsv(std::string_view text);

struct CompletionReport {
  std::vector<JobOutcome> outcomes;  // One per job, in job order.
  // The service's drain token was cancelled (SIGINT/SIGTERM) before every
  // job finished; the unfinished ones are kPending.
  bool interrupted = false;

  size_t CountState(JobState state) const;

  // Per-job outcome table plus the line
  // "totals: ok=… truncated=… quarantined=… exhausted=… pending=…".
  std::string Summary() const;

  // 3 when interrupted, 0 when every job ended ok or truncated, else 1.
  int ExitCode() const;
};

// Starts a ServiceCore on `config` (window capacity sized to the jobs'
// total cost, so no job is shed), submits `jobs` in order, waits until
// the service is idle or `config.drain_token` is cancelled, and drains.
// Errors: an empty, invalid (IsValidToken) or repeated job id, a config
// ServiceCore::Start rejects, and infrastructure problems (state
// directory, journal I/O).
StatusOr<CompletionReport> RunJobsToCompletion(
    const std::vector<JobSpec>& jobs, ServiceConfig config,
    ServiceCore::Executor executor);

}  // namespace mdc::service

#endif  // MDC_SERVICE_BATCH_H_
