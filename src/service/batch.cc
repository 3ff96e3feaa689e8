#include "service/batch.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "common/csv.h"
#include "common/strings.h"
#include "common/text_table.h"

namespace mdc::service {

StatusOr<std::vector<JobSpec>> ParseJobSpecCsv(std::string_view text) {
  MDC_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
                       ParseCsv(text));
  if (rows.empty()) {
    return Status::InvalidArgument("job spec: empty CSV");
  }
  const std::vector<std::string>& header = rows[0];
  size_t id_col = header.size();
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "id") id_col = i;
  }
  if (id_col == header.size()) {
    return Status::InvalidArgument("job spec: header has no `id` column");
  }

  std::set<std::string> seen;
  std::vector<JobSpec> jobs;
  for (size_t r = 1; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    if (row.size() != header.size()) {
      return Status::InvalidArgument(
          "job spec: row " + std::to_string(r + 1) + " has " +
          std::to_string(row.size()) + " fields, header has " +
          std::to_string(header.size()));
    }
    JobSpec job;
    job.id = row[id_col];
    if (job.id.empty()) {
      return Status::InvalidArgument("job spec: row " +
                                     std::to_string(r + 1) + " has empty id");
    }
    // Ids name journal records and artifact files.
    if (!IsValidToken(job.id)) {
      return Status::InvalidArgument("job spec: id '" + job.id +
                                     "' must be [A-Za-z0-9_.-]+");
    }
    if (!seen.insert(job.id).second) {
      return Status::InvalidArgument("job spec: duplicate id " + job.id);
    }
    for (size_t c = 0; c < header.size(); ++c) {
      if (c == id_col) continue;
      const std::string& key = header[c];
      const std::string& value = row[c];
      if (key == "deadline_ms" || key == "max_steps") {
        if (value.empty()) continue;
        std::optional<int64_t> parsed = ParseInt64(value);
        if (!parsed.has_value() || *parsed < 0) {
          return Status::InvalidArgument("job spec: bad " + key + " for " +
                                         job.id + ": " + value);
        }
        if (key == "deadline_ms") {
          job.deadline_ms = *parsed;
        } else {
          job.max_steps = static_cast<uint64_t>(*parsed);
        }
      } else {
        job.params[key] = value;
      }
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

size_t CompletionReport::CountState(JobState state) const {
  return static_cast<size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [state](const JobOutcome& o) { return o.state == state; }));
}

std::string CompletionReport::Summary() const {
  TextTable table;
  table.SetHeader({"job", "state", "attempts", "note"});
  for (const JobOutcome& outcome : outcomes) {
    std::string state = JobStateName(outcome.state);
    if (outcome.state != JobState::kPending && outcome.attempts > 1) {
      state += " (retried x" + std::to_string(outcome.attempts - 1) + ")";
    }
    table.AddRow({outcome.id, state, std::to_string(outcome.attempts),
                  outcome.message});
  }
  return table.Render() +
         "\ntotals: ok=" + std::to_string(CountState(JobState::kOk)) +
         " truncated=" + std::to_string(CountState(JobState::kTruncated)) +
         " quarantined=" +
         std::to_string(CountState(JobState::kQuarantined)) +
         " exhausted=" + std::to_string(CountState(JobState::kExhausted)) +
         " pending=" + std::to_string(CountState(JobState::kPending)) +
         (interrupted ? " (interrupted)" : "") + "\n";
}

int CompletionReport::ExitCode() const {
  if (interrupted) return 3;
  return CountState(JobState::kOk) + CountState(JobState::kTruncated) ==
                 outcomes.size()
             ? 0
             : 1;
}

StatusOr<CompletionReport> RunJobsToCompletion(
    const std::vector<JobSpec>& jobs, ServiceConfig config,
    ServiceCore::Executor executor) {
  // Ids are resume keys: a repeated one would read as "journaled by a
  // previous run" and an invalid one is never admitted.
  std::set<std::string> ids;
  for (const JobSpec& job : jobs) {
    if (!IsValidToken(job.id) || !ids.insert(job.id).second) {
      return Status::InvalidArgument("batch: job id '" + job.id +
                                     "' is empty, invalid or repeated");
    }
  }
  // One admission window holds the whole batch: no job is shed, and the
  // batch is already held in memory, so the window bounds nothing more.
  uint64_t total_cost = 0;
  for (const JobSpec& job : jobs) total_cost += job.cost;
  config.admission.window_capacity =
      std::max(config.admission.window_capacity, total_cost);
  MDC_ASSIGN_OR_RETURN(std::unique_ptr<ServiceCore> core,
                       ServiceCore::Start(config, std::move(executor)));
  std::map<std::string, std::string> rejected;
  for (const JobSpec& job : jobs) {
    MDC_ASSIGN_OR_RETURN(AdmitDecision decision, core->Submit(job));
    // duplicate_id: a previous run journaled the job; it is finished or
    // was re-queued by recovery.
    if (decision != AdmitDecision::kAdmitted &&
        decision != AdmitDecision::kDuplicateId) {
      rejected[job.id] = std::string("rejected: ") +
                         AdmitDecisionName(decision);
    }
  }
  // The drain token may be cancelled from a signal handler, which cannot
  // wake a condition variable, so the wait polls it beside Idle().
  const CancellationToken interrupt = core->drain_token();
  while (!core->Idle() && !interrupt.cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Read before Drain(), which cancels the token itself.
  const bool signalled = interrupt.cancelled();
  MDC_RETURN_IF_ERROR(core->Drain());

  CompletionReport report;
  for (const JobSpec& job : jobs) {
    std::optional<JobOutcome> outcome = core->KnownOutcome(job.id);
    if (!outcome.has_value()) {
      outcome = JobOutcome{job.id, JobState::kPending, 0, rejected[job.id]};
    }
    report.outcomes.push_back(std::move(*outcome));
  }
  report.interrupted =
      signalled && report.CountState(JobState::kPending) > 0;
  return report;
}

}  // namespace mdc::service
