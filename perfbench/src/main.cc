// End-to-end benchmark of libmdc: the paper's comparison study,
// a ranking of many perturbative releases, and the mdcd job service.
//
//   mdc_perfbench --workload study|rank|serve --seed <n> --seconds <s>
//                    --trace 0|1 --cli <mdc_cli> --work-dir <dir>
//                    [--size full|smoke]
//
// Prints a host/build stamp, optional notes (the per-span self-time table
// in a traced run), and as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The metrics are the untraced run's end-to-end ones, or the traced run's
// per-layer ones that the workload touched. Exit status is 0 only when
// every correctness gate passed.

#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/cpu_dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Result;

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: mdc_perfbench --workload "
               "study|rank|serve --seed <n> --seconds <s> --trace 0|1 "
               "--cli <mdc_cli> --work-dir <dir> [--size full|smoke]\n",
               why);
  return 2;
}

std::string FilesystemName(const std::string& path) {
  struct statfs info;
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0x01021997: return "9p";
    case 0x65735546: return "fuse";
    case 0x6A656A63: return "virtiofs";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buffer;
    }
  }
}

long CacheKb(int index) {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                   std::to_string(index) + "/size");
  std::string text;
  if (!(in >> text)) return 0;
  long value = std::strtol(text.c_str(), nullptr, 10);
  if (!text.empty() && (text.back() == 'M' || text.back() == 'm')) {
    value *= 1024;
  }
  return value;
}

long CacheKbAtLevel(int level) {
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/level");
    int found = 0;
    if (in >> found && found == level) return CacheKb(index);
  }
  return 0;
}

// Every result carries what is needed to interpret it.
void PrintStamp(const Options& options) {
#ifdef MDC_FAILPOINTS_ENABLED
  const char* failpoints = "on";
#else
  const char* failpoints = "off";
#endif
  std::printf(
      "# host {\"nproc\": %u, \"simd\": \"%s\", \"build_type\": \"%s\", "
      "\"failpoints\": \"%s\", \"work_dir_fs\": \"%s\", \"l2_kb\": %ld, "
      "\"l3_kb\": %ld, \"workload\": \"%s\", \"seed\": %llu, "
      "\"size\": \"%s\"}\n",
      std::thread::hardware_concurrency(),
      mdc::SimdLevelName(mdc::ActiveSimdLevel()), PERFBENCH_BUILD_TYPE,
      failpoints, FilesystemName(options.work_dir).c_str(), CacheKbAtLevel(2),
      CacheKbAtLevel(3), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed),
      options.size == perfbench::Size::kFull ? "full" : "smoke");
}

void PrintResult(const Result& result) {
  for (const std::string& note : result.notes()) {
    std::printf("# %s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted());
  json += ", \"failed\": " + std::to_string(result.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& metric : result.metrics()) {
    char value[64];
    double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) json += ", ";
    first = false;
    json += "\"" + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--cli") {
      options.cli_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") return Usage("bad --size");
      options.size = value == "full" ? perfbench::Size::kFull
                                     : perfbench::Size::kSmoke;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  // Timings from a debug or sanitizer build are not comparable to
  // anything; refuse instead of printing plausible-looking numbers.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "refusing to run: built as %s, the benchmark needs a "
                 "Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  PrintStamp(options);
  Result result;
  if (options.workload == "study") {
    result = perfbench::RunStudy(options);
  } else if (options.workload == "rank") {
    result = perfbench::RunRank(options);
  } else if (options.workload == "serve") {
    if (options.cli_path.empty()) return Usage("serve needs --cli");
    result = perfbench::RunServe(options);
  } else {
    return Usage("unknown --workload");
  }
  PrintResult(result);
  return result.correct() && result.failed() == 0 ? 0 : 1;
}
