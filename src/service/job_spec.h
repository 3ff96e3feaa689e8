// Job specifications for the resident mdcd service.
//
// A JobSpec is one unit of client work — an anonymize / compare / report
// request — carrying a tenant label for fair scheduling, a scheduling cost,
// and the client's execution budgets (deadline, step cap), which the
// service propagates into the job's RunContext. Specs arrive over the
// newline-delimited wire protocol (`submit <id> key=value ...`, see
// docs/service.md) and are journaled durably (snapshot kind kServiceJob)
// before the submit is acknowledged, so a crash can never lose an accepted
// job. Terminal outcomes are recorded the same way (kServiceOutcome).

#ifndef MDC_SERVICE_JOB_SPEC_H_
#define MDC_SERVICE_JOB_SPEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mdc::service {

struct JobSpec {
  std::string id;                // Unique across the service; resume key.
  std::string tenant = "default";
  std::string kind = "anonymize";  // anonymize | perturb | compare | report.
  uint64_t cost = 1;             // Deficit-round-robin scheduling units.
  int64_t deadline_ms = 0;       // Client deadline; 0 = unbounded.
  uint64_t max_steps = 0;        // Client step budget; 0 = unbounded.
  // Opaque key=value parameters interpreted by the executor (algorithm,
  // dataset, k, ...).
  std::map<std::string, std::string> params;
};

// True when `text` is non-empty and uses only [A-Za-z0-9_.-]: ids and
// tenants become file names and protocol tokens, so they must be safe for
// both.
bool IsValidToken(std::string_view text);

// Parses the payload of a `submit` protocol line: "<id> key=value ...".
// Reserved keys tenant / kind / cost / deadline_ms / max_steps fill the
// typed fields; everything else lands in params. Rejects malformed tokens,
// unknown kinds, and non-positive cost with a clean status.
StatusOr<JobSpec> ParseSubmitSpec(std::string_view text);

// Durable journal record: the spec plus its admission sequence number
// (recovery re-queues incomplete jobs in admission order).
std::string SerializeJobSpec(const JobSpec& spec, uint64_t seq);

struct JobRecord {
  JobSpec spec;
  uint64_t seq = 0;
};
StatusOr<JobRecord> DeserializeJobSpec(std::string_view bytes);

enum class JobState : uint32_t {
  kPending = 0,      // Not yet run (or interrupted before it finished).
  kOk = 1,           // Executor returned OK with no budget expiry.
  kTruncated = 2,    // Executor returned OK but degraded to best-so-far.
  kQuarantined = 3,  // Deterministic failure; retrying cannot help.
  kExhausted = 4,    // Transient failure persisted through every retry.
};

// Stable name for reports and records ("ok", "quarantined", ...).
std::string JobStateName(JobState state);

struct JobOutcome {
  std::string id;
  JobState state = JobState::kPending;
  uint32_t attempts = 0;   // Executor invocations (1 = no retry needed).
  std::string message;     // Last failure message; empty on success.
};

// A status worth retrying: budget expiry from an over-tight deadline or
// step budget, and internal errors (I/O flakes). Everything else is
// deterministic and quarantines the job.
bool IsTransientStatus(const Status& status);

// Terminal outcome record (the done file of a finished job).
std::string SerializeOutcome(const JobOutcome& outcome);
StatusOr<JobOutcome> DeserializeOutcome(std::string_view bytes);

}  // namespace mdc::service

#endif  // MDC_SERVICE_JOB_SPEC_H_
