#!/usr/bin/env python3
"""Benchmark entry point: builds rtp and the perfbench binary from source,
runs one workload, and prints the result.

    python3 perfbench/run.py --workload criterion|update_stream|serve \\
        --seed N --seconds S --trace 0|1 [--ops N]

Run from the root of a source tree. The build goes to .bench_build/ (a
no-op when nothing changed). stdout ends with two lines: one JSON object
with host context and run details (sample counts, per-kind figures), then
the result object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics, and the spans go to
.bench_build/perfbench-trace-<workload>-<seed>.json. --ops N stops after
N ops instead of after --seconds (the self-test uses it).

Exits non-zero, without a result, when the tree cannot be built or the
workload cannot run.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("criterion", "update_stream", "serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "rtpd", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the result stream.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def first_line(cmd):
    # The ceiling keeps git from reporting a repository that encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=10, env=env)
        if out.returncode != 0:
            return None
        return out.stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over the program sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def host_context(load_at_start):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": first_line([compiler, "--version"]) or compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_revision": first_line(["git", "rev-parse", "HEAD"]) or "unknown",
        "source_sha256": source_digest(),
        "loadavg_at_start": list(load_at_start),
        "kernel": platform.release(),
    }


def shape_metrics(reported, declared):
    """Keeps the declared metrics, in declared order, with their units.

    A declared metric the run did not report is an error for the
    end-to-end set; per-layer metrics of a layer the workload does not
    exercise read 0.
    """
    out = {}
    for spec in declared["list"]:
        name, unit = spec["name"], spec["unit"]
        got = reported.get(name)
        if got is None:
            if declared["required"]:
                fail(f"metric {name} missing from the run")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"metric {name} has unit {got['unit']}, declared {unit}")
        out[name] = {"value": got["value"], "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0)
    args = parser.parse_args()

    load_at_start = os.getloadavg()
    if not (ROOT / "src").is_dir() or not (ROOT / "tools").is_dir():
        fail(f"no rtp source tree (src/, tools/) under {ROOT}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()

    cmd = [str(BUILD / "perfbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--ops={args.ops}",
           f"--rtpd={BUILD / 'tools' / 'rtpd'}",
           # Relative, so rtpd socket paths stay short.
           "--scratch=.bench_build"]
    if args.trace:
        cmd.append(f"--trace-out={BUILD}/perfbench-trace-{args.workload}-"
                   f"{args.seed}.json")
    # Own process group, so a run that has to be cut also takes down the
    # rtpd it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S}s")
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # strays of a crashed run
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        fail(f"workload {args.workload} exited with {proc.returncode}")
    lines = {}
    for line in stdout.splitlines():
        tag, _, body = line.partition(" ")
        lines[tag] = json.loads(body)
    if "RESULT" not in lines:
        fail("the workload printed no result")
    result = lines["RESULT"]
    if args.trace:
        declared = {"list": spec["per_layer"], "required": False}
    else:
        declared = {"list": spec["end_to_end"], "required": True}
    result["metrics"] = shape_metrics(result["metrics"], declared)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "context": host_context(load_at_start),
                      "detail": lines.get("DETAIL", {})}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
