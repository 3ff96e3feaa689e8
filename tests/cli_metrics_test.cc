// End-to-end contract for `mdc_cli --metrics-out`: the deterministic
// counter subset (search.* / run.* / batch.*) in the emitted JSON must be
// identical for any --threads value on a fixed input, and the trace sink
// must produce loadable Chrome-trace JSON. Drives the real binary via
// popen — paths are injected by the build (MDC_CLI_BIN,
// MDC_EXAMPLES_DATA_DIR).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace mdc {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

// Runs `command`, swallowing stdout; returns the process exit code.
int RunCommand(const std::string& command) {
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  std::string output;
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    output += buffer;
  }
  int status = pclose(pipe);
  if (status != 0) {
    ADD_FAILURE() << "command failed (" << status << "): " << command
                  << "\n" << output;
  }
  return status;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool IsDeterministicName(const std::string& name) {
  for (const char* prefix : {"search.", "run.", "cmp."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// Pulls the "counters" object out of a metrics snapshot JSON file and
// keeps the deterministic subset. A tiny purpose-built scanner — counter
// names never contain escapes and values are plain integers.
std::map<std::string, uint64_t> DeterministicCounters(
    const std::string& json) {
  std::map<std::string, uint64_t> counters;
  size_t at = json.find("\"counters\"");
  EXPECT_NE(at, std::string::npos) << "no counters section in: " << json;
  if (at == std::string::npos) return counters;
  at = json.find('{', at);
  EXPECT_NE(at, std::string::npos);
  ++at;
  while (true) {
    size_t next = json.find_first_of("\"}", at);
    if (next == std::string::npos) {
      ADD_FAILURE() << "unterminated counters object in: " << json;
      return counters;
    }
    if (json[next] == '}') break;
    size_t name_start = next;
    size_t name_end = json.find('"', name_start + 1);
    size_t colon = json.find(':', name_end);
    size_t value_end = json.find_first_of(",}", colon);
    if (value_end == std::string::npos) {
      ADD_FAILURE() << "malformed counter entry in: " << json;
      return counters;
    }
    std::string name = json.substr(name_start + 1, name_end - name_start - 1);
    uint64_t value = std::stoull(json.substr(colon + 1,
                                             value_end - colon - 1));
    if (IsDeterministicName(name)) counters[name] = value;
    at = value_end;
    if (json[at] == ',') ++at;
  }
  return counters;
}

std::string AnonymizeCommand(int threads, const std::string& metrics_out) {
  std::string data = MDC_EXAMPLES_DATA_DIR;
  return std::string(MDC_CLI_BIN) + " anonymize" +
         " --input " + data + "/patients.csv" +
         " --schema zip:string:qi,age:int:qi,marital:string:qi,"
         "diagnosis:string:sensitive" +
         " --hierarchies " + data + "/patients.spec" +
         " --algorithm optimal --k 2" +
         " --threads " + std::to_string(threads) +
         " --metrics-out " + metrics_out + " > /dev/null";
}

TEST(CliMetricsTest, DeterministicCountersInvariantAcrossThreadCounts) {
  std::string baseline_path = TempPath("mdc_cli_metrics_t1.json");
  ASSERT_EQ(RunCommand(AnonymizeCommand(1, baseline_path)), 0);
  std::map<std::string, uint64_t> baseline =
      DeterministicCounters(ReadFile(baseline_path));
  ASSERT_FALSE(baseline.empty());
  EXPECT_GT(baseline.count("search.optimal.nodes_evaluated"), 0u);
  EXPECT_GT(baseline.count("search.optimal.runs"), 0u);

  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string path =
        TempPath("mdc_cli_metrics_t" + std::to_string(threads) + ".json");
    ASSERT_EQ(RunCommand(AnonymizeCommand(threads, path)), 0);
    EXPECT_EQ(DeterministicCounters(ReadFile(path)), baseline);
  }
}

std::string CompareCommand(int threads, const std::string& metrics_out) {
  std::string data = MDC_EXAMPLES_DATA_DIR;
  return std::string(MDC_CLI_BIN) + " compare" +
         " --input " + data + "/patients.csv" +
         " --schema zip:string:qi,age:int:qi,marital:string:qi,"
         "diagnosis:string:sensitive" +
         " --hierarchies " + data + "/patients.spec" +
         " --algorithms datafly,mondrian --k 2" +
         " --threads " + std::to_string(threads) +
         " --metrics-out " + metrics_out + " > /dev/null";
}

// The comparison engine's cmp.* counters are part of the deterministic
// contract: the compare command must emit byte-identical totals for any
// --threads value.
TEST(CliMetricsTest, CompareEngineCountersInvariantAcrossThreadCounts) {
  std::string baseline_path = TempPath("mdc_cli_cmp_metrics_t1.json");
  ASSERT_EQ(RunCommand(CompareCommand(1, baseline_path)), 0);
  std::map<std::string, uint64_t> baseline =
      DeterministicCounters(ReadFile(baseline_path));
  ASSERT_FALSE(baseline.empty());
  EXPECT_GT(baseline.count("cmp.runs"), 0u);
  EXPECT_GT(baseline.count("cmp.pairs_compared"), 0u);
  EXPECT_GT(baseline.count("cmp.elements"), 0u);

  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::string path =
        TempPath("mdc_cli_cmp_metrics_t" + std::to_string(threads) +
                 ".json");
    ASSERT_EQ(RunCommand(CompareCommand(threads, path)), 0);
    EXPECT_EQ(DeterministicCounters(ReadFile(path)), baseline);
  }
}

TEST(CliMetricsTest, TraceSinkWritesChromeTraceJson) {
  std::string trace_path = TempPath("mdc_cli_trace.json");
  std::string data = MDC_EXAMPLES_DATA_DIR;
  std::string command =
      std::string(MDC_CLI_BIN) + " anonymize" +
      " --input " + data + "/patients.csv" +
      " --schema zip:string:qi,age:int:qi,marital:string:qi,"
      "diagnosis:string:sensitive" +
      " --hierarchies " + data + "/patients.spec" +
      " --algorithm optimal --k 2" +
      " --trace-out " + trace_path + " > /dev/null";
  ASSERT_EQ(RunCommand(command), 0);

  std::string json = ReadFile(trace_path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"optimal/search\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

}  // namespace
}  // namespace mdc
