// mdc_cli — command-line anonymization and comparison.
//
//   example_mdc_cli anonymize --input data.csv --schema <spec>
//       --hierarchies spec.txt --algorithm datafly --k 3
//       [--max-suppression 0.02] [--output out.csv]
//       [--deadline-ms 500] [--max-steps 100000] [--threads 4]
//   example_mdc_cli perturb --input data.csv --schema <spec>
//       --mechanism <noise|rankswap|microagg> [--seed <n>]
//       [--noise-scale <frac>] [--swap-window <frac>] [--k <n>]
//       [--output out.csv]
//   example_mdc_cli compare --input data.csv --schema <spec>
//       --hierarchies spec.txt --k 3 --algorithms datafly,mondrian
//
// `perturb` releases numeric quasi-identifiers through a perturbative
// (non-generalization) mechanism and prints the permutation-model summary
// (docs/permutation.md) on stderr. `compare` with more than two names, or
// with any perturbative mechanism in the list, ranks all releases under
// the permutation paradigm instead of the two-release report.
//   example_mdc_cli batch --jobs jobs.csv --checkpoint-dir out
//       [--max-retries 2] [--backoff-ms 10] [--threads <n>]
//
// `--schema` is an inline column list "name:type:role,..." with type in
// {int,real,string} and role in {qi,sensitive,insensitive,id}.
// `--hierarchies` is a hierarchy spec file (see hierarchy/spec_parser.h);
// Mondrian and clustering work without one. `--deadline-ms` and
// `--max-steps` bound each algorithm run (see docs/error_handling.md);
// truncated results are flagged on stderr. `--k` must lie in
// [1, INT_MAX] and `--max-suppression` in [0, 1].
//
// `batch` runs a CSV of jobs (columns: id, and optionally algorithm
// (default mondrian), dataset|input+schema+hierarchies, k,
// max_suppression, deadline_ms, max_steps) as anonymize jobs through the
// service core with --checkpoint-dir as its state directory
// (service/batch.h): transient failures are retried with backoff,
// deterministic failures are quarantined, and every job is journaled
// before it runs, so a killed batch resumes at the first incomplete job.
// Job releases are written durably to <checkpoint-dir>/artifacts/<id>.
// SIGINT/SIGTERM interrupt the running job and drain the batch with its
// state durable (exit code 3, "interrupted").
//
//   example_mdc_cli serve --state-dir <dir> [--window-capacity <n>]
//       [--tenant-budget <n>] [--quantum <n>] [--default-deadline-ms <ms>]
//       [--max-retries <n>] [--backoff-ms <ms>] [--threads <n>]
//       [--cache-bytes <n>] [--no-cache]
//
// `serve` runs the resident job service (docs/service.md): newline
// protocol on stdin/stdout (`submit <id> key=value ...`, `status`, `wait`,
// `drain`, `metrics`, `cache stats|clear`), durable job journal +
// artifacts under --state-dir, crash recovery on restart, graceful drain
// on SIGTERM/SIGINT or EOF. File-backed job inputs are served from a
// resident dataset cache (--cache-bytes budget, --no-cache to disable,
// per-job `cache=off` to opt one job out); artifacts and deterministic
// counters are byte-identical with the cache on or off.
//
// Every command runs jobs through the one executor in
// service/executor.h, so a `serve` or `batch` artifact is byte-identical
// to the one-shot command's output for the same knobs.
//
// The MDC_FAILPOINTS environment variable arms fault-injection sites in
// any command (see common/failpoint.h) — the kill-torture harness uses it
// to crash the service inside durable-write windows.
//
// Run without arguments for a self-contained demo on the paper's Table 1.

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/perturb/perturb.h"
#include "common/cpu_dispatch.h"
#include "common/csv.h"
#include "common/durable_io.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/run_context.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/permutation_metrics.h"
#include "core/report.h"
#include "paper/paper_data.h"
#include "privacy/k_anonymity.h"
#include "service/batch.h"
#include "service/executor.h"
#include "service/service_core.h"
#include "service/transport.h"

using namespace mdc;
using service::ParamMap;
using service::RunAlgorithm;

namespace {

constexpr const char* kUsageHint =
    "usage: mdc_cli <anonymize|perturb|compare|batch|serve|version> "
    "--input <csv> --schema <spec> "
    "[--hierarchies <file>] [--algorithm <name>] [--algorithms <a,b,...>] "
    "[--k <n>] [--max-suppression <frac>] [--output <csv>] "
    "[--mechanism <noise|rankswap|microagg>] [--seed <n>] "
    "[--noise-scale <frac>] [--swap-window <frac>] "
    "[--deadline-ms <ms>] [--max-steps <n>] [--threads <n>] "
    "[--metrics-out <file>] [--trace-out <file>] | batch "
    "--jobs <spec.csv> --checkpoint-dir <dir> [--max-retries <n>] "
    "[--backoff-ms <ms>] | serve --state-dir <dir> "
    "[--window-capacity <n>] [--tenant-budget <n>] [--quantum <n>] "
    "[--default-deadline-ms <ms>] [--listen <unix:path|tcp:ip:port>] "
    "[--max-connections <n>] [--max-line-bytes <n>] "
    "[--net-read-deadline-ms <ms>] [--net-idle-deadline-ms <ms>] "
    "[--net-write-deadline-ms <ms>] [--cache-bytes <n>] [--no-cache]";

constexpr const char* kKnownFlags[] = {
    "input",       "schema",      "hierarchies",    "algorithm",
    "algorithms",  "k",           "output",         "max-steps",
    "deadline-ms", "max-suppression", "jobs",       "checkpoint-dir",
    "max-retries", "backoff-ms",  "threads",        "metrics-out",
    "trace-out",   "state-dir",
    "mechanism",   "seed",        "noise-scale",    "swap-window",
    "window-capacity", "tenant-budget", "quantum",
    "default-deadline-ms",
    "listen",      "max-connections", "max-line-bytes",
    "net-read-deadline-ms", "net-idle-deadline-ms",
    "net-write-deadline-ms", "cache-bytes"};

// Flags that take no value; parsed as present/absent.
constexpr const char* kBoolFlags[] = {"no-cache"};

// Signal plumbing shared by `batch` and `serve`: the handler records the
// signal and cancels the shared token, which interrupts the service's
// in-flight job (its RunContext carries a copy). Everything else —
// checkpointing, draining, the exit code — happens in normal control flow.
//
// The serve loop blocks in read(2) on stdin, and EINTR alone is not
// enough to wake it: a signal that lands between the g_signal check and
// the read() call would be recorded but never noticed (the classic lost
// wake-up). The handler therefore also writes one byte to a self-pipe,
// and the protocol reader poll(2)s on {stdin, self-pipe} so a pending
// signal is level-triggered rather than edge-triggered.
volatile std::sig_atomic_t g_signal = 0;
int g_wakeup_pipe[2] = {-1, -1};
CancellationToken& InterruptToken() {
  static CancellationToken token;
  return token;
}

void OnSignal(int sig) {
  g_signal = sig;
  // CancellationToken::Cancel is one relaxed store on a lock-free atomic
  // reached through a stable shared_ptr — safe from a handler here, as is
  // write(2) on the non-blocking self-pipe (errno is preserved).
  InterruptToken().Cancel();
  if (g_wakeup_pipe[1] >= 0) {
    int saved_errno = errno;
    char byte = 1;
    (void)!::write(g_wakeup_pipe[1], &byte, 1);
    errno = saved_errno;
  }
}

void InstallSignalHandlers() {
  if (g_wakeup_pipe[0] < 0) {
    if (::pipe(g_wakeup_pipe) == 0) {
      ::fcntl(g_wakeup_pipe[0], F_SETFL, O_NONBLOCK);
      ::fcntl(g_wakeup_pipe[1], F_SETFL, O_NONBLOCK);
    }
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // No SA_RESTART: blocking reads must wake.
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

struct CliArgs {
  std::string command;
  std::map<std::string, std::string> flags;
};

StatusOr<CliArgs> ParseArgs(int argc, char** argv) {
  CliArgs args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (!StartsWith(key, "--")) {
      return Status::InvalidArgument("unexpected argument '" + key + "'; " +
                                     kUsageHint);
    }
    key = key.substr(2);
    bool boolean = false;
    for (const char* flag : kBoolFlags) {
      if (key == flag) {
        boolean = true;
        break;
      }
    }
    if (boolean) {
      args.flags[key] = "1";
      continue;
    }
    bool known = false;
    for (const char* flag : kKnownFlags) {
      if (key == flag) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown flag '--" + key + "'; " +
                                     kUsageHint);
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag '--" + key +
                                     "' is missing a value; " + kUsageHint);
    }
    args.flags[key] = argv[++i];
  }
  return args;
}

// Parses flag `name` with `parse` (one of the service::Parse*Knob
// validators) into `out` when the flag is present.
template <typename T, typename Parse>
Status ParseKnobFlag(const CliArgs& args, const std::string& name,
                     Parse parse, T& out) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) return Status::Ok();
  MDC_ASSIGN_OR_RETURN(out, parse("--" + name, it->second));
  return Status::Ok();
}

// --input/--schema[/--hierarchies] through the job input loader.
Status LoadInputs(const CliArgs& args,
                  std::shared_ptr<const Dataset>& data,
                  HierarchySet& hierarchies) {
  ParamMap params;
  for (const char* key : {"input", "schema", "hierarchies"}) {
    if (auto it = args.flags.find(key); it != args.flags.end()) {
      params[key] = it->second;
    }
  }
  if (params["schema"].empty() || params["input"].empty()) {
    return Status::InvalidArgument("--schema and --input are required");
  }
  return service::LoadJobInputs(params, "input", data, hierarchies);
}

// The perturbation knobs from CLI flags (dashed spelling: --noise-scale,
// --swap-window) through the job-param parser.
StatusOr<PerturbConfig> PerturbConfigFromFlags(const CliArgs& args, int k) {
  ParamMap params;
  static constexpr const char* kPairs[][2] = {{"mechanism", "mechanism"},
                                              {"seed", "seed"},
                                              {"noise-scale", "noise_scale"},
                                              {"swap-window", "swap_window"}};
  for (const auto& pair : kPairs) {
    auto it = args.flags.find(pair[0]);
    if (it != args.flags.end()) params[pair[1]] = it->second;
  }
  return service::PerturbConfigFromJobParams(params, k);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Flushes --metrics-out / --trace-out when main returns, whatever the exit
// path: command dispatch, Fail(), or success.
struct ObservabilitySinks {
  std::string metrics_path;
  std::string trace_path;

  ~ObservabilitySinks() {
    if (!metrics_path.empty()) {
      if (Status status = metrics::WriteSnapshotFile(metrics_path);
          !status.ok()) {
        std::fprintf(stderr, "warning: --metrics-out: %s\n",
                     status.ToString().c_str());
      }
    }
    if (!trace_path.empty()) {
      trace::Disable();
      if (Status status = trace::WriteChromeTrace(trace_path);
          !status.ok()) {
        std::fprintf(stderr, "warning: --trace-out: %s\n",
                     status.ToString().c_str());
      }
    }
  }
};

// --max-retries / --backoff-ms onto the service's retry policy (shared by
// `batch` and `serve`).
Status ParseRetryFlags(const CliArgs& args, service::ServiceConfig& config) {
  if (auto it = args.flags.find("max-retries"); it != args.flags.end()) {
    auto parsed = ParseInt64(it->second);
    if (!parsed.has_value() || *parsed < 0 ||
        *parsed > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("bad --max-retries");
    }
    config.max_retries = static_cast<int>(*parsed);
  }
  if (auto it = args.flags.find("backoff-ms"); it != args.flags.end()) {
    auto parsed = ParseInt64(it->second);
    if (!parsed.has_value() || *parsed < 0) {
      return Status::InvalidArgument("bad --backoff-ms");
    }
    config.backoff_base_ms = *parsed;
  }
  return Status::Ok();
}

int BatchCommand(const CliArgs& args, int threads) {
  auto jobs_flag = args.flags.find("jobs");
  auto dir_flag = args.flags.find("checkpoint-dir");
  if (jobs_flag == args.flags.end() || dir_flag == args.flags.end()) {
    return Fail(Status::InvalidArgument(
        "batch needs --jobs and --checkpoint-dir; " + std::string(kUsageHint)));
  }
  // Validate the state directory up front: a batch that runs for an hour
  // and then cannot persist its first artifact helps nobody.
  const std::string& dir = dir_flag->second;
  if (Status status = EnsureWritableDir(dir); !status.ok()) {
    return Fail(Status(status.code(),
                       "--checkpoint-dir " + dir + " is not a writable "
                       "directory: " + status.message()));
  }
  service::ServiceConfig config;
  config.state_dir = dir;
  if (Status status = ParseRetryFlags(args, config); !status.ok()) {
    return Fail(status);
  }
  auto spec_or = ReadFileToString(jobs_flag->second);
  if (!spec_or.ok()) return Fail(spec_or.status());
  auto jobs_or = service::ParseJobSpecCsv(*spec_or);
  if (!jobs_or.ok()) return Fail(jobs_or.status());

  // SIGINT/SIGTERM cancel the shared token: the running job is
  // interrupted and the batch drains with its journal durable, so
  // re-running the same command resumes at the first incomplete job.
  config.drain_token = InterruptToken();
  InstallSignalHandlers();
  auto report = service::RunJobsToCompletion(
      *jobs_or, config, service::MakeServiceExecutor(config, threads));
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report->Summary().c_str());
  if (report->interrupted) {
    std::fprintf(stderr,
                 "interrupted: the job journal is durable; re-run the same "
                 "command to resume\n");
  }
  return report->ExitCode();
}

// Reads one newline-terminated line from stdin. The wait is a poll(2)
// over {stdin, signal self-pipe}: a SIGTERM that arrived at any earlier
// point left a byte in the self-pipe, so the poll returns immediately and
// the drain path runs even if the signal raced the transition into the
// blocking wait.
//
// Lines are capped at kMaxStdinLineBytes — the same frame bound the socket
// front-end enforces — so a runaway writer cannot grow the buffer without
// bound. An oversize line reports kOversize exactly once; `discarding`
// carries the skip-to-next-newline state across calls, and the dropped
// bytes never accumulate.
enum class ReadLineResult { kLine, kEof, kSignal, kOversize };
constexpr size_t kMaxStdinLineBytes = 64 * 1024;
ReadLineResult ReadProtocolLine(std::string& line, std::string& buffer,
                                bool& discarding) {
  while (true) {
    size_t pos = buffer.find('\n');
    if (discarding) {
      if (pos == std::string::npos) {
        buffer.clear();  // Still inside the oversize line: drop and keep going.
      } else {
        buffer.erase(0, pos + 1);  // The oversize line finally ended.
        discarding = false;
        continue;
      }
    } else if (pos != std::string::npos) {
      if (pos > kMaxStdinLineBytes) {
        buffer.erase(0, pos + 1);
        return ReadLineResult::kOversize;
      }
      line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      return ReadLineResult::kLine;
    } else if (buffer.size() > kMaxStdinLineBytes) {
      buffer.clear();
      buffer.shrink_to_fit();
      discarding = true;
      return ReadLineResult::kOversize;
    }
    if (g_signal != 0) return ReadLineResult::kSignal;
    struct pollfd fds[2];
    fds[0].fd = STDIN_FILENO;
    fds[0].events = POLLIN;
    fds[1].fd = g_wakeup_pipe[0];
    fds[1].events = POLLIN;
    int ready = ::poll(fds, g_wakeup_pipe[0] >= 0 ? 2 : 1, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;  // Loop re-checks g_signal.
      return ReadLineResult::kEof;
    }
    if (g_signal != 0) return ReadLineResult::kSignal;
    if (!(fds[0].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    char chunk[4096];
    ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n > 0) {
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF (or a read error, which ends the session the same way). A final
    // unterminated fragment of a discarded oversize line stays dropped.
    if (buffer.empty() || discarding) return ReadLineResult::kEof;
    line = std::move(buffer);
    buffer.clear();
    return ReadLineResult::kLine;
  }
}

void Reply(const std::string& text) {
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

int ServeCommand(const CliArgs& args, int threads) {
  auto dir_flag = args.flags.find("state-dir");
  if (dir_flag == args.flags.end()) {
    return Fail(Status::InvalidArgument("serve needs --state-dir; " +
                                        std::string(kUsageHint)));
  }
  service::ServiceConfig config;
  config.state_dir = dir_flag->second;
  config.drain_token = InterruptToken();
  auto parse_u64 = [&](const char* flag, uint64_t& out) -> Status {
    if (auto it = args.flags.find(flag); it != args.flags.end()) {
      auto parsed = ParseInt64(it->second);
      if (!parsed.has_value() || *parsed < 0) {
        return Status::InvalidArgument(std::string("bad --") + flag);
      }
      out = static_cast<uint64_t>(*parsed);
    }
    return Status::Ok();
  };
  if (Status s = parse_u64("window-capacity", config.admission.window_capacity);
      !s.ok()) {
    return Fail(s);
  }
  if (Status s = parse_u64("tenant-budget", config.admission.tenant_budget);
      !s.ok()) {
    return Fail(s);
  }
  if (Status s = parse_u64("quantum", config.admission.quantum); !s.ok()) {
    return Fail(s);
  }
  if (auto it = args.flags.find("default-deadline-ms");
      it != args.flags.end()) {
    auto parsed = ParseInt64(it->second);
    if (!parsed.has_value() || *parsed < 0) {
      return Fail(Status::InvalidArgument("bad --default-deadline-ms"));
    }
    config.default_deadline_ms = *parsed;
  }
  if (Status s = ParseRetryFlags(args, config); !s.ok()) return Fail(s);
  if (args.flags.count("no-cache") > 0) config.cache_enabled = false;
  if (Status s = parse_u64("cache-bytes", config.cache.max_bytes); !s.ok()) {
    return Fail(s);
  }
  service::TransportConfig transport;
  const bool use_socket = args.flags.count("listen") > 0;
  if (use_socket) transport.listen = args.flags.at("listen");
  auto parse_i64 = [&](const char* flag, int64_t& out) -> Status {
    if (auto it = args.flags.find(flag); it != args.flags.end()) {
      auto parsed = ParseInt64(it->second);
      if (!parsed.has_value() || *parsed < 0) {
        return Status::InvalidArgument(std::string("bad --") + flag);
      }
      out = *parsed;
    }
    return Status::Ok();
  };
  if (auto it = args.flags.find("max-connections"); it != args.flags.end()) {
    auto parsed = ParseInt64(it->second);
    if (!parsed.has_value() || *parsed < 1) {
      return Fail(Status::InvalidArgument("bad --max-connections"));
    }
    transport.max_connections = static_cast<int>(*parsed);
  }
  if (Status s = parse_u64("max-line-bytes", transport.max_line_bytes);
      !s.ok()) {
    return Fail(s);
  }
  if (Status s = parse_i64("net-read-deadline-ms", transport.read_deadline_ms);
      !s.ok()) {
    return Fail(s);
  }
  if (Status s = parse_i64("net-idle-deadline-ms", transport.idle_deadline_ms);
      !s.ok()) {
    return Fail(s);
  }
  if (Status s =
          parse_i64("net-write-deadline-ms", transport.write_deadline_ms);
      !s.ok()) {
    return Fail(s);
  }

  auto core_or = service::ServiceCore::Start(
      config, service::MakeServiceExecutor(config, threads));
  if (!core_or.ok()) return Fail(core_or.status());
  service::ServiceCore& core = **core_or;
  InstallSignalHandlers();

  if (use_socket) {
    service::SocketFrontEnd front(&core, transport);
    if (Status s = front.Listen(); !s.ok()) return Fail(s);
    // Startup banner: the client driver syncs on it; `recovered` tells the
    // torture harness how many jobs survived the previous life, `listen`
    // reports the bound address (an ephemeral tcp port is resolved here).
    Reply("ready recovered=" + std::to_string(core.recovered_jobs()) +
          " listen=" + front.bound_address());
    Status drained = front.Run(g_wakeup_pipe[0], [] { return g_signal != 0; });
    if (g_signal != 0) {
      std::fprintf(stderr, "interrupted: drained after signal %d\n",
                   static_cast<int>(g_signal));
    }
    if (!drained.ok()) return Fail(drained);
    return 0;
  }

  // Startup banner: the client driver syncs on it; `recovered` tells the
  // torture harness how many jobs survived the previous life.
  Reply("ready recovered=" + std::to_string(core.recovered_jobs()));

  std::string line;
  std::string buffer;
  bool discarding = false;
  bool interrupted = false;
  while (true) {
    ReadLineResult read = ReadProtocolLine(line, buffer, discarding);
    if (read == ReadLineResult::kSignal) {
      interrupted = true;
      break;
    }
    if (read == ReadLineResult::kEof) break;
    if (read == ReadLineResult::kOversize) {
      // Same typed rejection as the socket front-end's frame bound; the
      // stdin session survives it (the oversize line was discarded).
      MDC_METRIC_INC("net.rejected.line_too_long");
      Reply(service::TransportRejectReply(
                service::TransportReject::kLineTooLong) +
            " limit=" + std::to_string(kMaxStdinLineBytes));
      continue;
    }
    // Empty command (blank line or leading space): silently ignored, as
    // this front-end always has.
    if (line.empty() || line[0] == ' ') continue;
    service::ProtocolAction action = service::HandleProtocolLine(core, line);
    switch (action.kind) {
      case service::ProtocolAction::Kind::kReply:
        Reply(action.reply);
        break;
      case service::ProtocolAction::Kind::kWaitIdle:
        core.WaitIdle();
        if (g_signal != 0) {
          interrupted = true;
        } else {
          Reply("ok wait idle");
        }
        break;
      case service::ProtocolAction::Kind::kDrain: {
        Status status = core.Drain();
        Reply(status.ok() ? "ok drain" : "err drain " + status.ToString());
        break;
      }
    }
    if (interrupted) break;
  }
  Status drained = core.Drain();
  if (interrupted) {
    std::fprintf(stderr, "interrupted: drained after signal %d\n",
                 static_cast<int>(g_signal));
  }
  if (!drained.ok()) return Fail(drained);
  return 0;
}

int Demo() {
  std::printf("no arguments: demo on the paper's Table 1\n\n");
  auto data = paper::Table1();
  MDC_CHECK(data.ok());
  auto hierarchies = paper::HierarchySetA();
  MDC_CHECK(hierarchies.ok());
  auto datafly =
      RunAlgorithm("datafly", *data, *hierarchies, 3, 0.0);
  auto mondrian =
      RunAlgorithm("mondrian", *data, *hierarchies, 3, 0.0);
  MDC_CHECK(datafly.ok());
  MDC_CHECK(mondrian.ok());
  std::printf("datafly release:\n%s\n",
              datafly->anonymization.release.ToText().c_str());
  ComparisonOptions options;
  options.sensitive_column = paper::kMaritalColumn;
  auto report = CompareAnonymizations(
      datafly->anonymization, datafly->partition, mondrian->anonymization,
      mondrian->partition, options);
  MDC_CHECK(report.ok());
  std::printf("%s", report->ToText().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Fault-injection arming from the environment (torture harnesses pass
  // e.g. MDC_FAILPOINTS="io.rename=kill:skip=3" to child processes).
  if (const char* spec = std::getenv("MDC_FAILPOINTS");
      spec != nullptr && *spec != '\0') {
    if (Status status = failpoint::ArmFromEnvSpec(spec); !status.ok()) {
      return Fail(status);
    }
  }
  auto args_or = ParseArgs(argc, argv);
  if (!args_or.ok()) return Fail(args_or.status());
  CliArgs args = std::move(args_or).value();
  ObservabilitySinks sinks;
  if (auto it = args.flags.find("metrics-out"); it != args.flags.end()) {
    sinks.metrics_path = it->second;
  }
  if (auto it = args.flags.find("trace-out"); it != args.flags.end()) {
    sinks.trace_path = it->second;
    trace::Enable();
  }
  if (args.command == "version") {
    // `active` reflects any MDC_SIMD_LEVEL clamp; `detected` is what the
    // hardware and build support.
    std::printf("mdc_cli\nsimd_level: %s\nsimd_detected: %s\n",
                SimdLevelName(ActiveSimdLevel()),
                SimdLevelName(DetectSimdLevel()));
    return 0;
  }
  if (args.command.empty()) return Demo();
  // <= 0 means one worker per hardware thread; results are identical for
  // any value (docs/performance.md).
  int threads = 1;
  if (Status s = ParseKnobFlag(args, "threads", service::ParseThreadsKnob,
                               threads);
      !s.ok()) {
    return Fail(s);
  }
  if (args.command == "batch") return BatchCommand(args, threads);
  if (args.command == "serve") return ServeCommand(args, threads);

  int k = 2;
  double max_suppression = 0.0;
  if (Status s = ParseKnobFlag(args, "k", service::ParseKKnob, k); !s.ok()) {
    return Fail(s);
  }
  if (Status s = ParseKnobFlag(args, "max-suppression",
                               service::ParseMaxSuppressionKnob,
                               max_suppression);
      !s.ok()) {
    return Fail(s);
  }
  RunContext run_context;
  bool budgeted = false;
  if (auto it = args.flags.find("deadline-ms"); it != args.flags.end()) {
    auto parsed = ParseInt64(it->second);
    if (!parsed.has_value() || *parsed <= 0) {
      return Fail(Status::InvalidArgument("bad --deadline-ms"));
    }
    run_context.set_deadline_ms(*parsed);
    budgeted = true;
  }
  if (auto it = args.flags.find("max-steps"); it != args.flags.end()) {
    auto parsed = ParseInt64(it->second);
    if (!parsed.has_value() || *parsed <= 0) {
      return Fail(Status::InvalidArgument("bad --max-steps"));
    }
    run_context.set_max_steps(static_cast<uint64_t>(*parsed));
    budgeted = true;
  }
  RunContext* run = budgeted ? &run_context : nullptr;

  std::shared_ptr<const Dataset> data;
  HierarchySet hierarchies;
  if (Status status = LoadInputs(args, data, hierarchies); !status.ok()) {
    return Fail(status);
  }

  if (args.command == "anonymize") {
    std::string algorithm = "mondrian";
    if (auto it = args.flags.find("algorithm"); it != args.flags.end()) {
      algorithm = it->second;
    }
    auto release = RunAlgorithm(algorithm, data, hierarchies, k,
                                max_suppression, run, threads);
    if (!release.ok()) return Fail(release.status());
    double achieved = KAnonymity(1).Measure(release->anonymization,
                                            release->partition);
    std::fprintf(stderr, "%s: %zu rows, achieved k=%.0f, %zu suppressed\n",
                 algorithm.c_str(), release->anonymization.row_count(),
                 achieved, release->anonymization.SuppressedCount());
    if (budgeted) {
      std::fprintf(stderr, "run stats: %s\n",
                   release->run_stats.ToString().c_str());
    }
    std::string csv = release->anonymization.release.ToCsv();
    if (auto it = args.flags.find("output"); it != args.flags.end()) {
      // Durable: a crash mid-write leaves either the old file or the new
      // one, never a torn release.
      if (Status status = DurableWriteFile(it->second, csv); !status.ok()) {
        return Fail(status);
      }
    } else {
      std::printf("%s", csv.c_str());
    }
    return 0;
  }

  if (args.command == "perturb") {
    auto config_or = PerturbConfigFromFlags(args, k);
    if (!config_or.ok()) return Fail(config_or.status());
    PerturbConfig config = *config_or;
    config.threads = threads;
    auto result = PerturbAnonymize(data, config, run);
    if (!result.ok()) return Fail(result.status());
    PermutationMetricsOptions metric_options;
    metric_options.threads = threads;
    auto model = PermutationModelFor(result->anonymization, nullptr,
                                     metric_options, run);
    if (!model.ok()) return Fail(model.status());
    std::fprintf(stderr, "%s: %zu rows, %zu columns perturbed\n%s",
                 PerturbMechanismName(config.mechanism),
                 result->anonymization.release.row_count(),
                 result->perturbed_columns.size(),
                 PermutationModelSummary(*model).c_str());
    if (budgeted) {
      std::fprintf(stderr, "run stats: %s\n",
                   result->run_stats.ToString().c_str());
    }
    std::string csv = result->anonymization.release.ToCsv();
    if (auto it = args.flags.find("output"); it != args.flags.end()) {
      if (Status status = DurableWriteFile(it->second, csv); !status.ok()) {
        return Fail(status);
      }
    } else {
      std::printf("%s", csv.c_str());
    }
    return 0;
  }

  if (args.command == "compare") {
    std::string algorithms = "datafly,mondrian";
    if (auto it = args.flags.find("algorithms"); it != args.flags.end()) {
      algorithms = it->second;
    }
    std::vector<std::string> names = StrSplit(algorithms, ',');
    bool perturbative = false;
    for (const std::string& name : names) {
      perturbative = perturbative || IsPerturbMechanismName(name);
    }
    if (perturbative || names.size() > 2) {
      // Cross-family or multi-way: the permutation paradigm is the common
      // currency (docs/permutation.md). The two-generalization path below
      // stays byte-identical to what it always printed.
      auto perturb_base = PerturbConfigFromFlags(args, k);
      if (!perturb_base.ok()) return Fail(perturb_base.status());
      auto report = service::PermutationCompareReport(
          names, data, hierarchies, k, max_suppression, *perturb_base,
          threads, run);
      if (!report.ok()) return Fail(report.status());
      std::printf("%s", report->c_str());
      if (budgeted) {
        std::fprintf(stderr, "run stats: %s\n",
                     RunContext::Stats(run).ToString().c_str());
      }
      return 0;
    }
    if (names.size() != 2) {
      return Fail(Status::InvalidArgument(
          "--algorithms needs exactly two comma-separated names"));
    }
    auto first = RunAlgorithm(names[0], data, hierarchies, k,
                              max_suppression, run, threads);
    if (!first.ok()) return Fail(first.status());
    auto second = RunAlgorithm(names[1], data, hierarchies, k,
                               max_suppression, run, threads);
    if (!second.ok()) return Fail(second.status());
    ComparisonOptions comparison_options;
    comparison_options.threads = threads;
    auto report = CompareAnonymizations(first->anonymization,
                                        first->partition,
                                        second->anonymization,
                                        second->partition,
                                        comparison_options, run);
    if (!report.ok()) return Fail(report.status());
    std::printf("%s", report->ToText().c_str());
    if (budgeted) {
      std::fprintf(stderr, "run stats: %s\n",
                   RunContext::Stats(run).ToString().c_str());
    }
    return 0;
  }

  return Fail(Status::InvalidArgument(
      "unknown command '" + args.command +
      "' (anonymize|perturb|compare|batch|serve)"));
}
