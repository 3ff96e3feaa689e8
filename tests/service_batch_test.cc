// service/batch.h, service/executor.h and service/backoff.h: the batch
// path that runs a job list to completion on ServiceCore (retry,
// quarantine, truncation, resume through the journal), the executor's knob
// validation, the job-CSV parser, the shared backoff law, and the
// `mdc_cli batch` contract end to end (artifacts byte-identical to
// `mdc_cli anonymize`, exit codes, re-runs that execute nothing).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/metrics.h"
#include "service/backoff.h"
#include "service/batch.h"
#include "service/executor.h"

namespace mdc::service {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = "/tmp/mdc_service_batch_test_" +
                    std::to_string(::getpid()) + "_" + name;
  EXPECT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
  EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0);
  return dir;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<JobSpec> MakeJobs(size_t count) {
  std::vector<JobSpec> jobs;
  for (size_t i = 0; i < count; ++i) {
    JobSpec job;
    job.id = "job" + std::to_string(i);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

ServiceConfig ConfigFor(const std::string& dir) {
  ServiceConfig config;
  config.state_dir = dir;
  config.backoff_base_ms = 0;
  return config;
}

// A fake executor: `fn` decides each attempt's status; OK attempts
// produce a one-line artifact.
ServiceCore::Executor FakeExecutor(
    std::function<Status(const JobSpec&, RunContext*)> fn) {
  return [fn](const ServiceCore::ExecRequest& request) {
    ServiceCore::ExecResult out;
    out.status = fn(request.spec, request.run);
    if (out.status.ok()) out.artifact = request.spec.id + "\n";
    return out;
  };
}

const JobOutcome& OutcomeOf(const CompletionReport& report,
                            const std::string& id) {
  for (const JobOutcome& outcome : report.outcomes) {
    if (outcome.id == id) return outcome;
  }
  MDC_CHECK(false);
  static JobOutcome unreachable;
  return unreachable;
}

uint64_t CounterValue(const std::string& name) {
  const auto counters = metrics::Snapshot().counters;
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// RunJobsToCompletion: supervision is ServiceCore's.

TEST(ServiceBatchTest, PoisonedAndTransientJobsAmongHealthyOnes) {
  // Twelve jobs: job3 deterministically poisoned (quarantined after ONE
  // attempt, no retries wasted), job7 transient (fails twice, then
  // succeeds), the rest healthy.
  std::map<std::string, int> calls;
  ServiceConfig config = ConfigFor(FreshDir("poison"));
  config.max_retries = 3;
  auto report = RunJobsToCompletion(
      MakeJobs(12), config,
      FakeExecutor([&calls](const JobSpec& job, RunContext*) -> Status {
        int attempt = ++calls[job.id];
        if (job.id == "job3") return Status::InvalidArgument("bad spec row");
        if (job.id == "job7" && attempt <= 2) {
          return Status::Internal("flaky dependency");
        }
        return Status::Ok();
      }));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_FALSE(report->interrupted);
  EXPECT_EQ(report->CountState(JobState::kOk), 11u);
  EXPECT_EQ(report->CountState(JobState::kQuarantined), 1u);
  EXPECT_EQ(report->ExitCode(), 1);

  const JobOutcome& poisoned = OutcomeOf(*report, "job3");
  EXPECT_EQ(poisoned.state, JobState::kQuarantined);
  EXPECT_EQ(poisoned.attempts, 1u);  // Deterministic failures never retry.
  EXPECT_EQ(calls["job3"], 1);
  EXPECT_NE(poisoned.message.find("bad spec row"), std::string::npos);

  const JobOutcome& flaky = OutcomeOf(*report, "job7");
  EXPECT_EQ(flaky.state, JobState::kOk);
  EXPECT_EQ(flaky.attempts, 3u);
  EXPECT_EQ(calls["job7"], 3);

  std::string summary = report->Summary();
  EXPECT_NE(summary.find("quarantined"), std::string::npos);
  EXPECT_NE(summary.find("retried x2"), std::string::npos);
  EXPECT_NE(summary.find("totals: ok=11 truncated=0 quarantined=1 "
                         "exhausted=0 pending=0"),
            std::string::npos)
      << summary;
}

TEST(ServiceBatchTest, TransientFailuresExhaustAfterMaxRetries) {
  int calls = 0;
  ServiceConfig config = ConfigFor(FreshDir("exhaust"));
  config.max_retries = 2;
  auto report = RunJobsToCompletion(
      MakeJobs(1), config,
      FakeExecutor([&calls](const JobSpec&, RunContext*) -> Status {
        ++calls;
        return Status::DeadlineExceeded("always slow");
      }));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcomes[0].state, JobState::kExhausted);
  EXPECT_EQ(report->outcomes[0].attempts, 3u);  // Initial + 2 retries.
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(report->ExitCode(), 1);
}

TEST(ServiceBatchTest, BudgetTruncationIsReportedNotRetried) {
  std::vector<JobSpec> jobs = MakeJobs(1);
  jobs[0].max_steps = 1;
  int calls = 0;
  auto report = RunJobsToCompletion(
      jobs, ConfigFor(FreshDir("truncate")),
      FakeExecutor([&calls](const JobSpec&, RunContext* run) -> Status {
        ++calls;
        // Exhaust the step budget, then degrade to a best-so-far answer
        // the way the lattice searches do: the job itself succeeds.
        while (run->Check().ok()) {
        }
        return Status::Ok();
      }));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcomes[0].state, JobState::kTruncated);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(report->ExitCode(), 0);
}

TEST(ServiceBatchTest, InterruptedBatchResumesAtFirstIncompleteJob) {
  // "Kill" the batch by cancelling its drain token from inside job5; a
  // second run on the same state directory must not re-run jobs 0-4 and
  // must run 5-11 for real.
  const std::string dir = FreshDir("resume");
  std::map<std::string, int> calls;
  auto executor =
      FakeExecutor([&calls](const JobSpec& job, RunContext* run) -> Status {
        ++calls[job.id];
        return run->Check();
      });
  ServiceConfig config = ConfigFor(dir);
  CancellationToken token = config.drain_token;
  auto first = RunJobsToCompletion(
      MakeJobs(12), config,
      [&](const ServiceCore::ExecRequest& request) {
        if (request.spec.id == "job5") token.Cancel();
        return executor(request);
      });
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->interrupted);
  EXPECT_EQ(first->ExitCode(), 3);
  EXPECT_EQ(first->CountState(JobState::kOk), 5u);
  // The interrupted job and everything after it stay pending.
  EXPECT_EQ(first->CountState(JobState::kPending), 7u);
  EXPECT_EQ(OutcomeOf(*first, "job5").state, JobState::kPending);
  EXPECT_NE(first->Summary().find("(interrupted)"), std::string::npos);
  EXPECT_EQ(calls.size(), 6u);  // Jobs 6-11 were never attempted.

  auto second = RunJobsToCompletion(MakeJobs(12), ConfigFor(dir), executor);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second->interrupted);
  EXPECT_EQ(second->CountState(JobState::kOk), 12u);
  EXPECT_EQ(second->ExitCode(), 0);
  for (int i = 0; i < 12; ++i) {
    // Completed jobs ran exactly once across both runs; the interrupted
    // job ran once in each.
    EXPECT_EQ(calls["job" + std::to_string(i)], i == 5 ? 2 : 1) << i;
  }
}

TEST(ServiceBatchTest, RerunOfAFinishedBatchExecutesNothing) {
  // Quarantined is terminal: re-running a finished batch replays every
  // recorded outcome (same summary) and charges no attempt.
  const std::string dir = FreshDir("rerun");
  int calls = 0;
  auto executor =
      FakeExecutor([&calls](const JobSpec& job, RunContext*) -> Status {
        ++calls;
        if (job.id == "job1") return Status::InvalidArgument("poisoned");
        return Status::Ok();
      });
  auto first = RunJobsToCompletion(MakeJobs(3), ConfigFor(dir), executor);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(calls, 3);
  const uint64_t attempts = CounterValue("svc.attempts");

  auto second = RunJobsToCompletion(MakeJobs(3), ConfigFor(dir), executor);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(calls, 3);  // Nothing re-ran.
  EXPECT_EQ(CounterValue("svc.attempts"), attempts);
  EXPECT_EQ(second->Summary(), first->Summary());
  EXPECT_EQ(second->CountState(JobState::kOk), 2u);
  EXPECT_EQ(OutcomeOf(*second, "job1").state, JobState::kQuarantined);
  EXPECT_NE(OutcomeOf(*second, "job1").message.find("poisoned"),
            std::string::npos);
}

TEST(ServiceBatchTest, CorruptOutcomeRecordIsQuarantinedAndRerun) {
  // A rotted done record is quarantined (renamed *.corrupt), not fatal:
  // its job re-runs and reproduces the identical artifact.
  const std::string dir = FreshDir("corrupt");
  int calls = 0;
  auto executor = FakeExecutor([&calls](const JobSpec&, RunContext*) {
    ++calls;
    return Status::Ok();
  });
  ASSERT_TRUE(RunJobsToCompletion(MakeJobs(2), ConfigFor(dir), executor).ok());
  const std::string artifact = ReadFileOrEmpty(dir + "/artifacts/job0");
  ASSERT_FALSE(artifact.empty());
  ASSERT_TRUE(DurableWriteFile(dir + "/done/job0.done", "garbage bytes").ok());

  auto report = RunJobsToCompletion(MakeJobs(2), ConfigFor(dir), executor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->CountState(JobState::kOk), 2u);
  EXPECT_EQ(calls, 3);  // job0 ran again, job1 did not.
  EXPECT_EQ(ReadFileOrEmpty(dir + "/artifacts/job0"), artifact);
  EXPECT_FALSE(ReadFileOrEmpty(dir + "/done/job0.done.corrupt").empty());
}

TEST(ServiceBatchTest, WindowIsSizedSoNoJobIsShed) {
  ServiceConfig config = ConfigFor(FreshDir("window"));
  config.admission.window_capacity = 2;  // Smaller than the batch.
  auto report = RunJobsToCompletion(
      MakeJobs(10), config,
      FakeExecutor([](const JobSpec&, RunContext*) { return Status::Ok(); }));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->CountState(JobState::kOk), 10u);
}

TEST(ServiceBatchTest, RejectsBadBatches) {
  auto ok = FakeExecutor([](const JobSpec&, RunContext*) {
    return Status::Ok();
  });
  EXPECT_FALSE(RunJobsToCompletion(MakeJobs(1), ConfigFor("/dev/null"), ok)
                   .ok());  // Not a writable directory.
  EXPECT_FALSE(
      RunJobsToCompletion(MakeJobs(1), ConfigFor(FreshDir("null")), nullptr)
          .ok());
  std::vector<JobSpec> duplicate = MakeJobs(2);
  duplicate[1].id = duplicate[0].id;
  EXPECT_FALSE(
      RunJobsToCompletion(duplicate, ConfigFor(FreshDir("dup")), ok).ok());
  std::vector<JobSpec> nameless(1);
  EXPECT_FALSE(
      RunJobsToCompletion(nameless, ConfigFor(FreshDir("nameless")), ok).ok());
  ServiceConfig negative = ConfigFor(FreshDir("negative"));
  negative.max_retries = -1;
  EXPECT_FALSE(RunJobsToCompletion(MakeJobs(1), negative, ok).ok());
}

// ---------------------------------------------------------------------------
// The executor's knob validation: one parser for CLI flags and job params.

TEST(ServiceExecutorTest, KnobParsersRejectOutOfRangeValues) {
  EXPECT_EQ(*ParseKKnob("k", "3"), 3);
  EXPECT_EQ(*ParseKKnob("k", "2147483647"), 2147483647);
  for (const char* bad : {"4294967299", "0", "-1", "2147483648", "x", ""}) {
    EXPECT_FALSE(ParseKKnob("k", bad).ok()) << bad;
  }
  EXPECT_EQ(*ParseMaxSuppressionKnob("m", "0"), 0.0);
  EXPECT_EQ(*ParseMaxSuppressionKnob("m", "1"), 1.0);
  EXPECT_EQ(*ParseMaxSuppressionKnob("m", "0.25"), 0.25);
  for (const char* bad : {"-0.5", "nan", "1.5", "inf", "-inf", "x"}) {
    EXPECT_FALSE(ParseMaxSuppressionKnob("m", bad).ok()) << bad;
  }
  EXPECT_EQ(*ParseThreadsKnob("--threads", "4"), 4);
  EXPECT_EQ(*ParseThreadsKnob("--threads", "0"), 0);  // One per core.
  EXPECT_EQ(*ParseThreadsKnob("--threads", "-1"), -1);
  auto narrowed = ParseThreadsKnob("--threads", "4294967297");
  ASSERT_FALSE(narrowed.ok());
  EXPECT_EQ(narrowed.status().message(),
            "bad --threads '4294967297': must be an integer in "
            "[-2147483648, 2147483647]");
}

TEST(ServiceExecutorTest, OutOfRangeKnobsAreInvalidArgument) {
  for (const char* knob :
       {"k=4294967299", "k=0", "max_suppression=-0.5", "max_suppression=nan",
        "max_suppression=1.5"}) {
    SCOPED_TRACE(knob);
    auto spec = ParseSubmitSpec(std::string("j kind=anonymize "
                                            "algorithm=datafly ") + knob);
    ASSERT_TRUE(spec.ok());
    RunContext run;
    ServiceCore::ExecResult result =
        ExecuteServiceJob({*spec, &run, "", nullptr}, 1, true);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
        << result.status.ToString();
    EXPECT_TRUE(result.artifact.empty());
  }
}

TEST(ServiceExecutorTest, OutOfRangeKnobJobsAreQuarantinedNotRun) {
  ServiceConfig config = ConfigFor(FreshDir("knobs"));
  std::vector<JobSpec> jobs;
  for (const char* line :
       {"big_k kind=anonymize algorithm=datafly k=4294967299",
        "neg_ms kind=report algorithm=samarati max_suppression=-0.5",
        "nan_ms kind=anonymize algorithm=optimal max_suppression=nan",
        "over_ms kind=compare algorithms=datafly,mondrian "
        "max_suppression=1.5",
        "fine kind=anonymize algorithm=datafly k=3"}) {
    auto spec = ParseSubmitSpec(line);
    ASSERT_TRUE(spec.ok()) << line;
    jobs.push_back(*spec);
  }
  auto report =
      RunJobsToCompletion(jobs, config, MakeServiceExecutor(config, 1));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const JobOutcome& outcome : report->outcomes) {
    SCOPED_TRACE(outcome.id);
    if (outcome.id == "fine") {
      EXPECT_EQ(outcome.state, JobState::kOk);
      continue;
    }
    // Deterministic: one attempt, quarantined, no artifact.
    EXPECT_EQ(outcome.state, JobState::kQuarantined);
    EXPECT_EQ(outcome.attempts, 1u);
    EXPECT_NE(outcome.message.find("bad "), std::string::npos)
        << outcome.message;
    EXPECT_TRUE(
        ReadFileOrEmpty(config.state_dir + "/artifacts/" + outcome.id)
            .empty());
  }
  EXPECT_NE(OutcomeOf(*report, "big_k").message.find("4294967299"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Job-CSV parser.

TEST(ServiceBatchTest, ParsesJobSpecsWithBudgetsAndParams) {
  auto jobs = ParseJobSpecCsv(
      "id,algorithm,k,deadline_ms,max_steps\n"
      "a,datafly,2,,\n"
      "b,samarati,5,2500,\n"
      "c,optimal,10,,100000\n");
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  ASSERT_EQ(jobs->size(), 3u);
  EXPECT_EQ((*jobs)[0].id, "a");
  EXPECT_EQ((*jobs)[0].kind, "anonymize");
  EXPECT_EQ((*jobs)[0].params.at("algorithm"), "datafly");
  EXPECT_EQ((*jobs)[0].params.at("k"), "2");
  EXPECT_EQ((*jobs)[0].deadline_ms, 0);
  EXPECT_EQ((*jobs)[1].deadline_ms, 2500);
  EXPECT_EQ((*jobs)[2].max_steps, 100000u);
  // Budget columns become budgets, not params.
  EXPECT_EQ((*jobs)[1].params.count("deadline_ms"), 0u);
}

TEST(ServiceBatchTest, RejectsMalformedJobSpecs) {
  EXPECT_FALSE(ParseJobSpecCsv("").ok());
  EXPECT_FALSE(ParseJobSpecCsv("algorithm,k\ndatafly,2\n").ok());   // No id.
  EXPECT_FALSE(ParseJobSpecCsv("id,k\na,2\na,3\n").ok());    // Duplicate id.
  EXPECT_FALSE(ParseJobSpecCsv("id,k\n,2\n").ok());              // Empty id.
  EXPECT_FALSE(ParseJobSpecCsv("id,k\na\n").ok());              // Ragged row.
  EXPECT_FALSE(ParseJobSpecCsv("id,deadline_ms\na,soon\n").ok());
  EXPECT_FALSE(ParseJobSpecCsv("id,max_steps\na,-5\n").ok());
  // Ids name journal records and artifact files: the service token rule.
  EXPECT_FALSE(ParseJobSpecCsv("id,k\na b,2\n").ok());
  EXPECT_FALSE(ParseJobSpecCsv("id,k\n../x,2\n").ok());
}

// ---------------------------------------------------------------------------
// Backoff law and transient classification.

TEST(ServiceBatchTest, BackoffWithoutJitterIsTheClassicDoubling) {
  BackoffSequence backoff(/*base_ms=*/10, /*max_ms=*/1000, /*jitter=*/false,
                          /*seed=*/0, /*salt=*/0);
  EXPECT_EQ(backoff.NextDelayMs(1), 10);
  EXPECT_EQ(backoff.NextDelayMs(2), 20);
  EXPECT_EQ(backoff.NextDelayMs(3), 40);
  EXPECT_EQ(backoff.NextDelayMs(7), 640);
  EXPECT_EQ(backoff.NextDelayMs(8), 1000);   // Capped.
  EXPECT_EQ(backoff.NextDelayMs(20), 1000);  // Stays capped.
}

TEST(ServiceBatchTest, JitteredBackoffStaysWithinTheDecorrelatedEnvelope) {
  const int64_t base = 10;
  const int64_t max = 1000;
  BackoffSequence backoff(base, max, /*jitter=*/true, /*seed=*/42,
                          BackoffSalt("job-a"));
  int64_t prev = base;
  for (int retry = 1; retry <= 50; ++retry) {
    int64_t delay = backoff.NextDelayMs(retry);
    EXPECT_GE(delay, base) << "retry " << retry;
    EXPECT_LE(delay, max) << "retry " << retry;
    // Decorrelated jitter bound: no delay exceeds 3x its predecessor.
    EXPECT_LE(delay, std::max(base, 3 * prev)) << "retry " << retry;
    prev = delay;
  }
}

TEST(ServiceBatchTest, JitteredBackoffIsReproduciblePerSeedAndSalt) {
  auto draw = [](uint64_t seed, const std::string& job) {
    BackoffSequence backoff(10, 1000, /*jitter=*/true, seed,
                            BackoffSalt(job));
    std::vector<int64_t> delays;
    for (int retry = 1; retry <= 8; ++retry) {
      delays.push_back(backoff.NextDelayMs(retry));
    }
    return delays;
  };
  // Same seed + same job id -> the identical stream.
  EXPECT_EQ(draw(42, "job-a"), draw(42, "job-a"));
  // Different jobs under one seed (and different seeds for one job)
  // desynchronize — the whole point of jitter.
  EXPECT_NE(draw(42, "job-a"), draw(42, "job-b"));
  EXPECT_NE(draw(42, "job-a"), draw(43, "job-a"));
}

TEST(ServiceBatchTest, ZeroBaseBackoffNeverSleepsEvenWithJitter) {
  BackoffSequence jittered(/*base_ms=*/0, /*max_ms=*/1000, /*jitter=*/true,
                           /*seed=*/7, /*salt=*/9);
  for (int retry = 1; retry <= 5; ++retry) {
    EXPECT_EQ(jittered.NextDelayMs(retry), 0);
  }
}

TEST(ServiceBatchTest, BackoffSaltDiffersAcrossJobIds) {
  EXPECT_NE(BackoffSalt("job-a"), BackoffSalt("job-b"));
  EXPECT_EQ(BackoffSalt("job-a"), BackoffSalt("job-a"));
}

TEST(ServiceBatchTest, TransientStatusClassification) {
  EXPECT_TRUE(IsTransientStatus(Status::DeadlineExceeded("x")));
  EXPECT_TRUE(IsTransientStatus(Status::ResourceExhausted("x")));
  EXPECT_TRUE(IsTransientStatus(Status::Internal("x")));
  EXPECT_FALSE(IsTransientStatus(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsTransientStatus(Status::NotFound("x")));
  EXPECT_FALSE(IsTransientStatus(Status::Cancelled("x")));
  EXPECT_FALSE(IsTransientStatus(Status::Ok()));
}

// ---------------------------------------------------------------------------
// `mdc_cli batch` end to end.

constexpr const char* kPatientsSchema =
    "zip:string:qi,age:int:qi,marital:string:qi,diagnosis:string:sensitive";

// Runs the CLI with `args`; returns the exit code and captures stdout.
int RunCli(const std::string& args, std::string* out) {
  FILE* pipe =
      popen((std::string(MDC_CLI_BIN) + " " + args + " 2>/dev/null").c_str(),
            "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  size_t n;
  out->clear();
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out->append(buffer, n);
  }
  int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string WriteJobs(const std::string& dir, const std::string& csv) {
  std::string path = dir + ".jobs.csv";  // Outside the state directory.
  EXPECT_TRUE(DurableWriteFile(path, csv).ok());
  return path;
}

TEST(CliBatchTest, ArtifactsAreByteIdenticalToAnonymizeStdout) {
  const std::string data = MDC_EXAMPLES_DATA_DIR;
  const std::vector<std::string> algorithms = {"datafly", "samarati",
                                               "optimal", "mondrian",
                                               "cluster"};
  std::string csv = "id,algorithm,k,max_suppression,input,schema,hierarchies\n";
  for (const std::string& algorithm : algorithms) {
    csv += algorithm + "," + algorithm + ",2,0.1," + data + "/patients.csv,\"" +
           kPatientsSchema + "\"," + data + "/patients.spec\n";
  }
  const std::string dir = FreshDir("cli_diff");
  std::string summary;
  ASSERT_EQ(RunCli("batch --jobs " + WriteJobs(dir, csv) +
                       " --checkpoint-dir " + dir,
                   &summary),
            0)
      << summary;
  EXPECT_NE(summary.find("ok=5"), std::string::npos) << summary;
  for (const std::string& algorithm : algorithms) {
    SCOPED_TRACE(algorithm);
    std::string stdout_text;
    ASSERT_EQ(RunCli("anonymize --input " + data + "/patients.csv" +
                         " --schema " + kPatientsSchema +
                         " --hierarchies " + data + "/patients.spec" +
                         " --algorithm " + algorithm +
                         " --k 2 --max-suppression 0.1",
                     &stdout_text),
              0);
    ASSERT_FALSE(stdout_text.empty());
    EXPECT_EQ(ReadFileOrEmpty(dir + "/artifacts/" + algorithm), stdout_text);
  }
}

TEST(CliBatchTest, PoisonedRowIsQuarantinedAndExitsOne) {
  const std::string dir = FreshDir("cli_poison");
  const std::string jobs =
      WriteJobs(dir, "id,algorithm,k\ngood,datafly,3\nbad,nope,3\n");
  std::string summary;
  EXPECT_EQ(RunCli("batch --jobs " + jobs + " --checkpoint-dir " + dir,
                   &summary),
            1);
  EXPECT_NE(summary.find("ok=1 truncated=0 quarantined=1"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("unknown algorithm 'nope'"), std::string::npos)
      << summary;
}

TEST(CliBatchTest, RerunOfAFinishedBatchPrintsTheSameSummaryWithoutRunning) {
  const std::string dir = FreshDir("cli_rerun");
  const std::string jobs = WriteJobs(
      dir, "id,algorithm,k\nd,datafly,3\nm,mondrian,3\nx,nope,2\n");
  const std::string command = "batch --jobs " + jobs + " --checkpoint-dir " +
                              dir + " --metrics-out " + dir + ".metrics.json";
  std::string first;
  ASSERT_EQ(RunCli(command, &first), 1);
  EXPECT_NE(ReadFileOrEmpty(dir + ".metrics.json").find("\"svc.attempts\""),
            std::string::npos);
  std::string second;
  ASSERT_EQ(RunCli(command, &second), 1);
  EXPECT_EQ(second, first);
  // The second life executed nothing: it never charged an attempt.
  EXPECT_EQ(ReadFileOrEmpty(dir + ".metrics.json").find("\"svc.attempts\""),
            std::string::npos);
}

}  // namespace
}  // namespace mdc::service
