#!/usr/bin/env python3
"""End-to-end benchmark of libmdc (see perfbench/README.md).

    python3 perfbench/run.py --workload study|rank|serve --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

Run from the root of a source checkout. The first run configures and
builds the mdc library, the real mdc_cli and the benchmark binary in
Release mode (failpoints off) under .bench_build/; later runs only check
that the build is current. The binary's stdout is passed through; its last
line is the JSON result. Its metrics are checked against BENCHMARK.json
before it is printed; in a traced run, the per-layer metrics of the layers
the workload bypasses (BYPASSED below) are added as 0. The exit status is
0 only when every correctness gate passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_run")
# Time allowed past --seconds for set-up, the last pass and the drain.
RUN_MARGIN_S = 140

# Per-layer metrics of the layers each workload never enters. They read 0;
# every other per-layer metric must come from the benchmark binary.
STUDY_LAYERS = [
    "anonymize.%s_s" % name for name in (
        "datafly", "samarati", "optimal", "incognito", "stochastic",
        "top_down", "bottom_up", "mondrian", "pareto")] + [
    "utility.extract_s", "core.report_s", "anonymize.eval_nodes",
    "anonymize.eval_nodes_legacy", "anonymize.materialized",
    "anonymize.partition_rows", "anonymize.pareto_candidates",
] + ["self.%s_s" % name for name in (
    "pareto.search", "encoded_eval.build", "encoded_eval.materialize",
    "optimal.search", "samarati.search", "samarati.sweep_height",
    "incognito.search", "stochastic.search", "stochastic.restart")]
RANK_LAYERS = [
    "anonymize.perturb.noise_s", "anonymize.perturb.rankswap_s",
    "anonymize.perturb.microagg_s", "core.model_s", "core.allpairs_gbps",
    "anonymize.perturb_cells", "core.rows_ranked",
]
COMPARE_LAYERS = [  # Entered by both study and rank.
    "core.compare_s", "core.matrix_s", "core.cmp_elements",
    "common.pool_jobs",
]
SERVICE_LAYERS = [
    "service.jobs", "service.job_ms.p50", "service.job_ms.p99",
    "service.ack_ms.p50", "service.ack_ms.p99",
] + ["service.job_ms.%s.p50" % kind for kind in (
    "anonymize_optimal", "anonymize_mondrian", "report_datafly",
    "compare_samarati_mondrian", "report_noise", "compare_perm4",
    "compare_perm4_cache_off")] + [
    "service.cache_hit_ratio", "service.cache_lookups", "service.model_hits",
    "service.attempts", "service.retries", "service.quarantined",
    "service.persist_failures",
]
BYPASSED = {
    "study": RANK_LAYERS + SERVICE_LAYERS + ["table.parse_s"],
    "rank": STUDY_LAYERS + SERVICE_LAYERS,
    "serve": STUDY_LAYERS + RANK_LAYERS + COMPARE_LAYERS,
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(command, log):
    log.write("$ " + " ".join(command) + "\n")
    log.flush()
    return subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                          cwd=ROOT).returncode


def build():
    """Configures, then brings the two binaries up to date."""
    for needed in ("src/CMakeLists.txt", "examples/mdc_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("repository sources not found (no %s next to perfbench/)"
                 % needed)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configure every time: it is quick once cached, and it picks up
        # a changed target list that a bare --target build would miss.
        if run_logged([cmake, "-S", HERE, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail("configure failed, see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if run_logged([cmake, "--build", BUILD_DIR, "-j", jobs, "--target",
                       "mdc_perfbench", "mdc_cli"], log) != 0:
            fail("build failed, see " + log_path)
    return (os.path.join(BUILD_DIR, "mdc_perfbench"),
            os.path.join(BUILD_DIR, "mdc_cli"))


def stop_group(proc):
    """SIGKILLs what is left of the benchmark's process group, reaps the
    benchmark binary, and waits until the group is empty."""
    for _ in range(500):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        proc.poll()
        time.sleep(0.01)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["study", "rank", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found next to perfbench/")

    binary, cli = build()
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--cli", cli, "--work-dir", work_dir]
    # The benchmark binary leads its own process group, so the serve
    # daemon it forks can be stopped with it whatever way the binary ends.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=work_dir, start_new_session=True)
    # A SIGTERM to this script unwinds through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    timeout = args.seconds + RUN_MARGIN_S
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %g s" % timeout)
    finally:
        stop_group(proc)
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(stdout)
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    want = expected_metrics(args.trace == 1)
    metrics = result["metrics"]
    if args.trace == 1:
        # A layer the workload bypasses does no work: it reads 0.
        for name in BYPASSED[args.workload]:
            if name in metrics:
                fail("%s reported %s, a layer it should bypass"
                     % (args.workload, name))
            metrics[name] = {"value": 0, "unit": want.get(name, "?")}
    got = {name: value["unit"] for name, value in metrics.items()}
    if got != want:
        sys.stderr.write(stdout)
        fail("metrics do not match BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (
                 sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                 sorted(n for n in set(want) & set(got)
                        if want[n] != got[n])))
    result["metrics"] = {name: metrics[name] for name in want}
    lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
