#!/usr/bin/env python3
"""End-to-end sweep benchmark: build the harness from this source tree, run
one workload, check its results against the golden file and print the
benchmark's result line.  README.md in this directory explains the
workloads and the metrics.

    python3 e2ebench/run.py --workload table1-mlp --seed 1 --seconds 40 --trace 0

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it records provenance (host, GEMM variant, thread
budget, source identity, seed) and the per-pass work counts.

Maintenance:
    python3 e2ebench/run.py --make-golden
regenerates golden/<workload>.tsv for every input variant, after checking
that each variant's results are identical at 1 and 2 threads and under the
thread and tcp backends.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
HARNESS = os.path.join(BUILD, "e2e_harness")
WORKLOADS = ["table1-mlp", "dispatch-tcp"]
VARIANTS = 8  # must match kVariants in harness.cpp
RUN_TIMEOUT_S = 170
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def source_tree_ok():
    return (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src")))


def source_identity():
    """sha256 over the library sources and the harness: identifies the code
    a run measured, in checkouts that are not git repositories."""
    digest = hashlib.sha256()
    files = [os.path.join(HERE, "harness.cpp"), os.path.join(HERE, "CMakeLists.txt"),
             os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files += [os.path.join(base, name) for name in sorted(names)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def commit():
    # Only this tree's own repository: git would otherwise search the
    # directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "e2e_harness", "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def harness_env():
    # The harness fixes every knob itself; inherited FEDHISYN_* settings
    # would silently change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDHISYN_")}
    env["FEDHISYN_QUIET"] = "1"
    return env


def run_harness(args, log_name):
    log_path = os.path.join(BUILD, log_name)
    with open(log_path, "w") as log:
        # Its own session, so a timeout can stop the harness and its workers.
        proc = subprocess.Popen([HARNESS] + args, stdout=subprocess.PIPE, stderr=log,
                                text=True, env=harness_env(), cwd=ROOT,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail("harness timed out after %ds (log: %s)" % (RUN_TIMEOUT_S, log_path))
    if proc.returncode != 0:
        with open(log_path) as text:
            sys.stderr.write(text.read()[-4000:])
        fail("harness exited with %d (log: %s)" % (proc.returncode, log_path))
    return stdout


def check_counts(report, identity):
    """Work counts must repeat exactly: across the passes of this run and
    against the previous run of the same code and input variant."""
    passes = report["counts"]
    problems = []
    if any(c != passes[0] for c in passes):
        problems.append("passes of this run disagree: %s" % passes)
    store_path = os.path.join(BUILD, "counts.json")
    store = {}
    if os.path.isfile(store_path):
        with open(store_path) as handle:
            store = json.load(handle)
    key = "%s/%s/%d" % (identity, report["workload"], report["variant"])
    if key in store and store[key] != passes[0]:
        problems.append("counts %s differ from the previous run's %s" % (passes[0], store[key]))
    store[key] = passes[0]
    with open(store_path, "w") as handle:
        json.dump(store, handle, indent=1, sort_keys=True)
    for problem in problems:
        print("e2ebench: determinism: " + problem, file=sys.stderr)
    return not problems


def manifest_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode:
    end_to_end untraced, per_layer traced."""
    if not os.path.isfile(MANIFEST):
        fail("BENCHMARK.json missing at %s" % ROOT)
    with open(MANIFEST) as handle:
        metrics = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def benchmark(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    if args.seed < 0 or args.seconds <= 0 or args.trace not in (0, 1):
        fail("--seed must be >= 0, --seconds > 0, --trace 0 or 1")
    units = manifest_units(args.trace)
    build()
    identity = source_identity()
    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--golden", os.path.join(HERE, "golden", args.workload + ".tsv")]
    if args.trace:
        harness_args += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % args.workload)]
    output = run_harness(harness_args, "harness-%s.log" % args.workload)
    report = json.loads(output.strip().splitlines()[-1])
    if set(report["metrics"]) != set(units):
        fail("harness metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(units) - set(report["metrics"])),
                sorted(set(report["metrics"]) - set(units))))
    counts_ok = check_counts(report, identity)
    provenance = {k: report[k] for k in ("workload", "seed", "variant", "cpu", "nproc",
                                         "gemm_variant", "threads", "workers",
                                         "worker_threads", "host_slowdown")}
    provenance.update(commit=commit(), source_sha256=identity, trace=args.trace,
                      counts_per_pass=report["counts"][0], passes=len(report["counts"]),
                      counts_repeat=counts_ok)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    result = {
        "correct": report["failed"] == 0 and counts_ok,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }
    print(json.dumps(result))


def make_golden():
    build()
    for workload in WORKLOADS:
        default = "tcp" if workload == "dispatch-tcp" else "thread"
        other = "thread" if default == "tcp" else "tcp"
        lines = []
        for variant in range(VARIANTS):
            base = ["--emit-golden", "--workload", workload, "--variant", str(variant)]
            reference = run_harness(base + ["--threads", "2", "--backend", default],
                                    "golden.log")
            for check in (["--threads", "1", "--backend", default],
                          ["--threads", "2", "--backend", other]):
                if run_harness(base + check, "golden.log") != reference:
                    fail("%s variant %d differs under %s" % (workload, variant, " ".join(check)))
            lines.append(reference)
            print("%s variant %d: %d cells, identical at 1/2 threads and thread/tcp"
                  % (workload, variant, len(reference.splitlines())), file=sys.stderr)
        path = os.path.join(HERE, "golden", workload + ".tsv")
        with open(path, "w") as handle:
            handle.write("# variant<TAB>cell label<TAB>Table-1 cell<TAB>final accuracy"
                         " (exact), in spec order; written by run.py --make-golden\n")
            handle.write("".join(lines))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--make-golden", action="store_true")
    args = parser.parse_args()
    if not source_tree_ok():
        fail("no FedHiSyn source tree around %s (CMakeLists.txt and src/ missing)" % HERE)
    if args.make_golden:
        make_golden()
    else:
        benchmark(args)


if __name__ == "__main__":
    main()
