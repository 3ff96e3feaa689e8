// Workload `serve`: the production job path. The benchmark starts the
// real `mdc_cli serve --listen unix:...` (one worker thread, dataset cache
// on) as a child process and drives it with one ServiceClient connection
// in a closed loop, one job outstanding: submit, then `wait`.
//
// Every cycle submits the six-job mix over one census CSV plus its
// hierarchy spec, and the cache=off twin of the four-way permutation
// compare, in an order shuffled by the seed. Repeats hit the dataset and
// model cache; the twin keeps CSV parsing and model extraction on the
// path. Artifacts of repeated specs, and of the twin, must be
// byte-identical to the first artifact of their spec.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "datagen/census_generator.h"
#include "service/client.h"
#include "table/dataset.h"
#include "table/schema.h"

namespace perfbench {
namespace {

using namespace mdc;
namespace fs = std::filesystem;

constexpr int kSampleSetUps = 6;
// peak_rss_mb is the daemon's peak over its set-up, the warm-up cycle and
// this many timed cycles (all of them, in a shorter run). The daemon's
// peak grows slowly with the jobs it has served, so a fixed count of
// cycles, not the run's length, decides what it covers.
constexpr int kRssCycles = 20;
constexpr const char* kSchema =
    "age:int:qi,zip:string:qi,education:string:qi,marital:string:qi,"
    "occupation:string:qi,disease:string:sensitive";

struct JobKind {
  const char* name;  // Metric key: service.job_ms.<name>.p50.
  const char* spec;  // Kind and algorithm params of the submit line.
  int reference;     // Kind whose artifact this one must equal.
};

// The mix, then the cache=off twin of the permutation compare.
constexpr JobKind kKinds[] = {
    {"anonymize_optimal", "kind=anonymize algorithm=optimal", 0},
    {"anonymize_mondrian", "kind=anonymize algorithm=mondrian", 1},
    {"report_datafly", "kind=report algorithm=datafly", 2},
    {"compare_samarati_mondrian",
     "kind=compare algorithms=samarati,mondrian sensitive=5", 3},
    {"report_noise", "kind=report algorithm=noise", 4},
    {"compare_perm4", "kind=compare algorithms=noise,rankswap,microagg,mondrian",
     5},
    {"compare_perm4_cache_off",
     "kind=compare algorithms=noise,rankswap,microagg,mondrian cache=off", 5},
};
constexpr size_t kKindCount = std::size(kKinds);

// The hierarchy spec matching GenerateCensus: the age interval chain, zip
// suffix masking, and the two-level taxonomies read back from the
// generated hierarchies for every value present in the data.
std::string HierarchySpec(const CensusData& census) {
  std::string spec =
      "column age intervals 5@0 10@0 20@0 40@0\ncolumn zip suffix 5\n";
  const Schema& schema = census.data->schema();
  for (size_t column = 2; column < schema.attribute_count(); ++column) {
    const ValueHierarchy* hierarchy = census.hierarchies.ForColumn(column);
    if (hierarchy == nullptr) continue;
    std::set<std::string> leaves;
    std::set<std::string> groups;
    std::string edges;
    for (size_t row = 0; row < census.data->row_count(); ++row) {
      const Value& value = census.data->row(row)[column];
      std::string leaf = value.ToString();
      if (!leaves.insert(leaf).second) continue;
      auto group = hierarchy->Generalize(value, 1);
      MDC_CHECK(group.ok());
      if (groups.insert(*group).second) edges += "edge " + *group + "|*\n";
      edges += "edge " + leaf + "|" + *group + "\n";
    }
    spec += "column " + schema.attribute(column).name + " taxonomy\n" + edges +
            "end\n";
  }
  return spec;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return static_cast<bool>(out);
}

bool ReadFile(const std::string& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  bytes = buffer.str();
  return true;
}

// The daemon child: stdout piped (the `ready` banner), stderr to a log.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns `cli serve` on `state_dir`, listening on `socket`, and waits
  // for its banner.
  bool Start(const std::string& cli, const std::string& state_dir,
             const std::string& socket) {
    int out[2];
    if (::pipe(out) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      int log = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) ::dup2(log, STDERR_FILENO);
      int null = ::open("/dev/null", O_RDONLY);
      if (null >= 0) ::dup2(null, STDIN_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(cli.c_str(), cli.c_str(), "serve", "--state-dir",
              state_dir.c_str(), "--listen", socket.c_str(), "--threads", "1",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    std::string banner;
    char c = 0;
    while (banner.find('\n') == std::string::npos) {
      struct pollfd fds = {out_fd_, POLLIN, 0};
      if (::poll(&fds, 1, 30000) <= 0) return false;
      if (::read(out_fd_, &c, 1) != 1) return false;
      banner += c;
    }
    return banner.rfind("ready", 0) == 0;
  }

  int pid() const { return pid_; }

  // Drains through `client` and reaps; SIGKILL after 30 s. Returns true
  // on a clean exit 0.
  bool Drain(service::ServiceClient& client) {
    if (pid_ <= 0) return false;
    Status drained = client.Drain(30000);
    return drained.ok() && Reap(30000);
  }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Reap(-1);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  bool Reap(int timeout_ms) {
    int status = 0;
    for (int waited = 0;; waited += 10) {
      pid_t done = ::waitpid(pid_, &status, timeout_ms < 0 ? 0 : WNOHANG);
      if (done == pid_) break;
      if (done < 0) {
        pid_ = -1;
        return false;
      }
      if (waited >= timeout_ms) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      ::usleep(10000);
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  int pid_ = -1;
  int out_fd_ = -1;
};

service::ClientConfig ClientFor(const std::string& socket) {
  service::ClientConfig config;
  config.target = socket;
  config.request_timeout_ms = 60000;
  return config;
}

// Counter `name` from the daemon's one-line metrics JSON (0 if absent).
uint64_t JsonCounter(const std::string& json, const std::string& name) {
  size_t at = json.find("\"" + name + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + name.size() + 3, nullptr, 10);
}

struct JobTimes {
  std::vector<double> ack_ms;
  std::vector<double> job_ms;
  std::vector<double> kind_ms[kKindCount];
  std::vector<double> plain_cycle_s;
  std::vector<double> traced_cycle_s;
};

}  // namespace

Result RunServe(const Options& options) {
  Result result;
  const size_t rows = options.size == Size::kFull ? 2000 : 300;
  const fs::path work = fs::path(options.work_dir) / "serve";
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work, ec);
  // Relative paths from here on: the unix socket path stays short however
  // deep the checkout is.
  if (!result.Gate(!ec && ::chdir(work.c_str()) == 0,
                   "cannot enter " + work.string())) {
    result.EndOp();
    return result;
  }

  // One set-up: generate the census CSV and hierarchy spec, write them as
  // <name>.csv and <name>.spec, and start a daemon with state directory
  // <name>-state on unix:<name>.sock until it prints `ready`.
  std::vector<double> setup_samples;
  auto set_up = [&](const std::string& name, Daemon& daemon) {
    Clock::time_point start = Clock::now();
    CensusConfig config;
    config.rows = rows;
    config.seed = options.seed;
    auto census = GenerateCensus(config);
    bool ok = census.ok() &&
              WriteFile(name + ".csv", census->data->ToCsv()) &&
              WriteFile(name + ".spec", HierarchySpec(*census)) &&
              daemon.Start(options.cli_path, name + "-state",
                           "unix:" + name + ".sock");
    setup_samples.push_back(SecondsSince(start));
    return result.Gate(ok, name + " daemon set-up failed (see daemon.log)");
  };
  // A set-up taken only as a setup_s sample: its daemon drains at once
  // and its state goes. The samples are all taken before the serving
  // daemon starts: daemons started between cycles, beside it, measured
  // about 30% slower and more spread.
  auto sample_set_up = [&] {
    {
      Daemon sample;
      if (set_up("sample", sample)) {
        service::ServiceClient client(ClientFor("unix:sample.sock"));
        result.Gate(sample.Drain(client),
                    "sample daemon did not drain cleanly");
      }
    }
    fs::remove_all("sample-state", ec);
  };
  for (int i = 0; i < kSampleSetUps; ++i) sample_set_up();
  Daemon daemon;
  if (!set_up("census", daemon)) {
    result.EndOp();
    return result;
  }
  const std::string state = "census-state";

  // The program parses this file; parse it here too, as a check on the
  // generated input and a measure of the table layer.
  std::vector<double> parse_samples;
  {
    std::string csv;
    auto schema = ParseSchemaSpec(kSchema);
    for (int i = 0; i < 3 && schema.ok() && ReadFile("census.csv", csv);
         ++i) {
      Clock::time_point start = Clock::now();
      auto parsed = Dataset::FromCsv(*schema, csv);
      parse_samples.push_back(SecondsSince(start));
      result.Gate(parsed.ok() && parsed->row_count() == rows,
                  "generated census CSV does not parse back");
    }
    result.Gate(!parse_samples.empty(), "census CSV unreadable");
  }

  service::ServiceClient client(ClientFor("unix:census.sock"));
  const std::string common = " input=census.csv schema=" + std::string(kSchema) +
                             " hierarchies=census.spec k=5"
                             " max_suppression=0.02 seed=" +
                             std::to_string(options.seed % 1000000 + 1);
  std::string references[kKindCount];
  uint64_t next_id = 0;
  JobTimes times;
  TraceAccumulator trace;

  // One job: submit, wait, check the artifact.
  auto run_job = [&](size_t kind, bool timed) {
    const std::string id = "j" + std::to_string(next_id++);
    Clock::time_point start = Clock::now();
    StatusOr<service::SubmitResult> submit = [&] {
      trace::Span span("service.submit");
      return client.Submit(id + " " + kKinds[kind].spec + common);
    }();
    const double ack_ms = SecondsSince(start) * 1e3;
    bool ok = result.Gate(
        submit.ok() && submit->decision == service::AdmitDecision::kAdmitted,
        id + " (" + kKinds[kind].name + ") not admitted: " +
            (submit.ok() ? submit->reply : submit.status().ToString()));
    Status waited = [&] {
      trace::Span span("service.wait");
      return client.WaitIdle(60000);
    }();
    const double job_ms = SecondsSince(start) * 1e3;
    ok = ok && result.Gate(waited.ok(), id + " wait: " + waited.ToString());
    {
      trace::Span span("service.artifact");
      std::string artifact;
      ok = ok && result.Gate(ReadFile(state + "/artifacts/" + id, artifact) &&
                                 !artifact.empty(),
                             id + " (" + kKinds[kind].name +
                                 ") left no artifact");
      std::string& reference = references[kKinds[kind].reference];
      if (ok && reference.empty()) reference = artifact;
      result.Gate(!ok || artifact == reference,
                  id + " (" + kKinds[kind].name +
                      ") artifact differs from its spec's first artifact");
    }
    result.EndOp();
    if (timed) {
      times.ack_ms.push_back(ack_ms);
      times.job_ms.push_back(job_ms);
      times.kind_ms[kind].push_back(job_ms);
    }
  };

  // One cycle (the serve workload's pass): every kind once, in a seeded
  // order.
  std::vector<size_t> order(kKindCount);
  for (size_t i = 0; i < kKindCount; ++i) order[i] = i;
  Rng shuffle(options.seed);
  auto run_cycle = [&](bool timed, bool traced) {
    shuffle.Shuffle(order);
    if (traced) trace::Enable(1 << 16);
    Clock::time_point start = Clock::now();
    for (size_t kind : order) run_job(kind, timed);
    const double wall = SecondsSince(start);
    if (traced) {
      trace::Disable();
      trace.AddPass(trace::Spans(), trace::Dropped(), wall);
    }
    if (timed) {
      (traced ? times.traced_cycle_s : times.plain_cycle_s).push_back(wall);
    }
  };

  // Warm-up cycle: fills the dataset and model cache and records the
  // reference artifacts; gated, not timed.
  run_cycle(false, false);
  auto warm_metrics = client.GetMetricsJson();
  result.Gate(warm_metrics.ok(), "metrics pull failed");

  const Clock::time_point measure_start = Clock::now();
  int cycles = 0;
  const int min_cycles = options.trace ? 2 : 1;
  double daemon_rss = 0.0;
  while (cycles < min_cycles || SecondsSince(measure_start) < options.seconds) {
    run_cycle(true, options.trace && cycles % 2 == 1);
    ++cycles;
    if (cycles == kRssCycles) daemon_rss = PeakRssMb(daemon.pid());
  }
  if (cycles < kRssCycles) daemon_rss = PeakRssMb(daemon.pid());
  double busy_s = 0.0;
  for (double wall : times.plain_cycle_s) busy_s += wall;
  for (double wall : times.traced_cycle_s) busy_s += wall;

  auto end_metrics = client.GetMetricsJson();
  const std::string before = warm_metrics.ok() ? *warm_metrics : "";
  const std::string after = end_metrics.ok() ? *end_metrics : "";
  result.Gate(end_metrics.ok(), "metrics pull failed");
  auto delta = [&](const char* name) {
    return static_cast<double>(JsonCounter(after, name) -
                               JsonCounter(before, name));
  };
  const double hits = delta("svc.cache.hits");
  const double misses = delta("svc.cache.misses");
  result.Gate(JsonCounter(after, "svc.jobs.quarantined") == 0,
              "daemon quarantined jobs");
  result.Gate(hits > 0, "dataset cache never hit");
  result.Gate(daemon_rss > 0, "daemon peak RSS unreadable");
  result.Gate(daemon.Drain(client), "daemon did not drain cleanly");
  if (::chdir(options.work_dir.c_str()) == 0) fs::remove_all(work, ec);

  char note[200];
  std::snprintf(note, sizeof(note),
                "serve rows=%zu cycles=%d jobs=%zu cache hits=%.0f "
                "misses=%.0f model_hits=%.0f",
                rows, cycles, times.job_ms.size(), hits, misses,
                delta("svc.cache.model_hits"));
  result.Note(note);

  if (!options.trace) {
    AddSetupMetric(setup_samples, result);
    result.Add("pass_s", Median(times.plain_cycle_s), "s");
    result.Add("ops_per_s", times.job_ms.size() / busy_s, "1/s");
    result.Add("peak_rss_mb", daemon_rss, "MB");
    return result;
  }
  result.Add("table.parse_s", Median(parse_samples), "s");
  result.Add("service.jobs", static_cast<double>(times.job_ms.size()),
             "count");
  result.Add("service.job_ms.p50", Median(times.job_ms), "ms");
  result.Add("service.job_ms.p99", Quantile(times.job_ms, 0.99), "ms");
  result.Add("service.ack_ms.p50", Median(times.ack_ms), "ms");
  result.Add("service.ack_ms.p99", Quantile(times.ack_ms, 0.99), "ms");
  for (size_t kind = 0; kind < kKindCount; ++kind) {
    result.Add(std::string("service.job_ms.") + kKinds[kind].name + ".p50",
               Median(times.kind_ms[kind]), "ms");
  }
  result.Add("service.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  result.Add("service.cache_lookups", hits + misses, "count");
  result.Add("service.model_hits", delta("svc.cache.model_hits"), "count");
  result.Add("service.attempts", delta("svc.attempts"), "count");
  result.Add("service.retries", delta("svc.retries"), "count");
  result.Add("service.quarantined", delta("svc.jobs.quarantined"), "count");
  result.Add("service.persist_failures", delta("svc.persist_failures"),
             "count");
  // The jobs run in the daemon: only the client's spans are recorded
  // here, and they carry no per-layer metric of their own.
  AddTraceMetrics(trace,
                  OverheadPct(times.plain_cycle_s, times.traced_cycle_s), {},
                  {}, result);
  return result;
}

}  // namespace perfbench
