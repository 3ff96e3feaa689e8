#include "service/job_spec.h"

#include "common/snapshot.h"
#include "common/strings.h"

namespace mdc::service {
namespace {

constexpr uint32_t kJobPayloadVersion = 1;
constexpr uint32_t kOutcomePayloadVersion = 1;

bool IsKnownKind(std::string_view kind) {
  return kind == "anonymize" || kind == "perturb" || kind == "compare" ||
         kind == "report";
}

}  // namespace

std::string JobStateName(JobState state) {
  switch (state) {
    case JobState::kPending:
      return "pending";
    case JobState::kOk:
      return "ok";
    case JobState::kTruncated:
      return "truncated";
    case JobState::kQuarantined:
      return "quarantined";
    case JobState::kExhausted:
      return "exhausted";
  }
  return "unknown";
}

bool IsTransientStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

bool IsValidToken(std::string_view text) {
  if (text.empty() || text.size() > 128) return false;
  for (char c : text) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

StatusOr<JobSpec> ParseSubmitSpec(std::string_view text) {
  std::vector<std::string> tokens;
  for (const std::string& token : StrSplit(std::string(text), ' ')) {
    if (!token.empty()) tokens.push_back(token);
  }
  if (tokens.empty()) {
    return Status::InvalidArgument("submit: missing job id");
  }
  JobSpec spec;
  spec.id = tokens[0];
  if (!IsValidToken(spec.id)) {
    return Status::InvalidArgument("submit: job id '" + spec.id +
                                   "' must be [A-Za-z0-9_.-]+");
  }
  for (size_t i = 1; i < tokens.size(); ++i) {
    std::vector<std::string> kv = StrSplit(tokens[i], '=');
    if (kv.size() != 2 || kv[0].empty()) {
      return Status::InvalidArgument("submit: token '" + tokens[i] +
                                     "' is not key=value");
    }
    const std::string& key = kv[0];
    const std::string& value = kv[1];
    if (key == "tenant") {
      if (!IsValidToken(value)) {
        return Status::InvalidArgument("submit: bad tenant '" + value + "'");
      }
      spec.tenant = value;
    } else if (key == "kind") {
      if (!IsKnownKind(value)) {
        return Status::InvalidArgument(
            "submit: unknown kind '" + value +
            "' (anonymize|perturb|compare|report)");
      }
      spec.kind = value;
    } else if (key == "cost") {
      std::optional<int64_t> parsed = ParseInt64(value);
      if (!parsed.has_value() || *parsed <= 0) {
        return Status::InvalidArgument("submit: cost must be positive, got '" +
                                       value + "'");
      }
      spec.cost = static_cast<uint64_t>(*parsed);
    } else if (key == "deadline_ms") {
      std::optional<int64_t> parsed = ParseInt64(value);
      if (!parsed.has_value() || *parsed < 0) {
        return Status::InvalidArgument("submit: bad deadline_ms '" + value +
                                       "'");
      }
      spec.deadline_ms = *parsed;
    } else if (key == "max_steps") {
      std::optional<int64_t> parsed = ParseInt64(value);
      if (!parsed.has_value() || *parsed < 0) {
        return Status::InvalidArgument("submit: bad max_steps '" + value +
                                       "'");
      }
      spec.max_steps = static_cast<uint64_t>(*parsed);
    } else if (key == "cache") {
      // Per-job cache opt-out; validated here so a typo is rejected at
      // submit instead of silently caching. Stored in params — the journal
      // record format is unchanged.
      if (value != "on" && value != "off") {
        return Status::InvalidArgument("submit: bad cache '" + value +
                                       "' (on|off)");
      }
      spec.params[key] = value;
    } else {
      spec.params[key] = value;
    }
  }
  return spec;
}

std::string SerializeJobSpec(const JobSpec& spec, uint64_t seq) {
  SnapshotWriter writer(SnapshotKind::kServiceJob, kJobPayloadVersion);
  writer.WriteU64(seq);
  writer.WriteString(spec.id);
  writer.WriteString(spec.tenant);
  writer.WriteString(spec.kind);
  writer.WriteU64(spec.cost);
  writer.WriteI64(spec.deadline_ms);
  writer.WriteU64(spec.max_steps);
  writer.WriteU64(spec.params.size());
  for (const auto& [key, value] : spec.params) {
    writer.WriteString(key);
    writer.WriteString(value);
  }
  return writer.Finish();
}

StatusOr<JobRecord> DeserializeJobSpec(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kServiceJob,
                           kJobPayloadVersion));
  JobRecord record;
  MDC_ASSIGN_OR_RETURN(record.seq, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(record.spec.id, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(record.spec.tenant, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(record.spec.kind, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(record.spec.cost, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(record.spec.deadline_ms, reader.ReadI64());
  MDC_ASSIGN_OR_RETURN(record.spec.max_steps, reader.ReadU64());
  MDC_ASSIGN_OR_RETURN(uint64_t param_count, reader.ReadU64());
  if (param_count > reader.remaining() / (2 * sizeof(uint64_t))) {
    return Status::InvalidArgument("job record: param count exceeds data");
  }
  for (uint64_t i = 0; i < param_count; ++i) {
    MDC_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
    MDC_ASSIGN_OR_RETURN(std::string value, reader.ReadString());
    record.spec.params[std::move(key)] = std::move(value);
  }
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  if (!IsValidToken(record.spec.id) || !IsValidToken(record.spec.tenant) ||
      !IsKnownKind(record.spec.kind) || record.spec.cost == 0) {
    return Status::InvalidArgument("job record: invalid field values");
  }
  return record;
}

std::string SerializeOutcome(const JobOutcome& outcome) {
  SnapshotWriter writer(SnapshotKind::kServiceOutcome,
                        kOutcomePayloadVersion);
  writer.WriteString(outcome.id);
  writer.WriteU32(static_cast<uint32_t>(outcome.state));
  writer.WriteU32(outcome.attempts);
  writer.WriteString(outcome.message);
  return writer.Finish();
}

StatusOr<JobOutcome> DeserializeOutcome(std::string_view bytes) {
  MDC_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(bytes, SnapshotKind::kServiceOutcome,
                           kOutcomePayloadVersion));
  JobOutcome outcome;
  MDC_ASSIGN_OR_RETURN(outcome.id, reader.ReadString());
  MDC_ASSIGN_OR_RETURN(uint32_t state, reader.ReadU32());
  if (state > static_cast<uint32_t>(JobState::kExhausted)) {
    return Status::InvalidArgument("outcome record: unknown job state");
  }
  outcome.state = static_cast<JobState>(state);
  MDC_ASSIGN_OR_RETURN(outcome.attempts, reader.ReadU32());
  MDC_ASSIGN_OR_RETURN(outcome.message, reader.ReadString());
  MDC_RETURN_IF_ERROR(reader.ExpectEnd());
  return outcome;
}

}  // namespace mdc::service
