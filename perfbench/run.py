#!/usr/bin/env python3
"""Repository benchmark: verified-break throughput on RIL and Anti-SAT locks,
a certified large-host pipeline, and a mixed `ril serve` load.

Run from the repository root:

    python3 perfbench/run.py --workload break-ril --seed 1 --seconds 25 \
        --trace 0

The first run configures and builds perfbench/ (the library under src/ plus
the runner) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later runs reuse the build. The runner's report is
echoed; its last line is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1). See perfbench/NOTES.md for the workloads and metrics.

Each run also records its work fingerprint (every op's exact work counts)
under the build directory. A later run of the same build and seed that did
different work on any common op is reported as not correct: the search is
meant to be deterministic, and time comparisons are meaningless without it.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

WORKLOADS = ["break-ril", "break-antisat", "certify-b20", "serve-mix"]
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
# A run must end within 180 s; the runner's own 60 s per-op guard fires
# first.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the runner; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ril_perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        remaining = deadline - time.monotonic()
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=max(1.0, remaining))
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "ril_perfbench")
    if not os.path.isfile(binary):
        raise RuntimeError("build produced no runner binary")
    return binary


def read_work(path):
    work = {}
    with open(path) as f:
        for line in f:
            key, _, counts = line.rstrip("\n").partition("\t")
            work[key] = counts
    return work


def check_fingerprint(store_dir, workload, seed, binary, work):
    """Compares this run's per-op work with an earlier run of the same build
    and seed; returns the number of common ops whose work differs."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    os.makedirs(store_dir, exist_ok=True)
    name = "%s-%d-%s.json" % (workload, seed, build_id)
    path = os.path.join(store_dir, name)
    lines = "\n".join(k + "\t" + work[k] for k in sorted(work))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    print("work fingerprint %s over %d ops" % (digest[:16], len(work)))
    earlier = {}
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
    common = sorted(set(earlier) & set(work))
    differing = [k for k in common if earlier[k] != work[k]]
    if earlier:
        print("work fingerprint vs earlier run of this build: %d common ops, "
              "%d differ" % (len(common), len(differing)))
    for key in differing[:5]:
        print("  op %s: was [%s] now [%s]" % (key, earlier[key], work[key]))
    merged = dict(earlier)
    merged.update(work)
    with open(path, "w") as f:
        json.dump(merged, f)
    return len(differing)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    repo_src = os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")
    if not os.path.isfile(repo_src):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        log("perfbench: %s" % error)
        return 2

    scratch_root = os.path.join(build_root, "perfbench-tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        work_file = os.path.join(tmp, "work.tsv")
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--tmp", tmp,
                   "--work-out", work_file]
        try:
            run = subprocess.run(command, stdout=subprocess.PIPE,
                                 stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                                 text=True)
        except subprocess.TimeoutExpired:
            log("perfbench: runner exceeded %d s and was killed"
                % RUN_TIMEOUT_S)
            return 1
        lines = run.stdout.splitlines()
        if run.returncode != 0 or not lines:
            sys.stdout.write(run.stdout)
            log("perfbench: runner exited with code %d" % run.returncode)
            return 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        differing = check_fingerprint(
            os.path.join(build_root, "perfbench-fingerprints"),
            args.workload, args.seed, binary, read_work(work_file))
        if differing:
            result["correct"] = False
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
