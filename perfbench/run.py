#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--events <n>]

Run from the repository root. Builds the program and the benchmark if needed
(see build.py), then runs the workload in a JVM of its own with a pinned heap,
collector and core count. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md for the
workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

HEAP = "2g"
GC = ["-XX:+UseParallelGC", "-XX:ParallelGCThreads=2", "-XX:-UseAdaptiveSizePolicy", "-Xmn128m"]
MAX_CORES = 2


def timeout(seconds):
    """Wall-time allowance of one run: set-up, gate and warm-up, plus three times the measured seconds."""
    return 120 + 3 * seconds


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--events", type=int, help="input size in events (default: the workload's)")
    a = p.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "main", "scala", "repro")):
        sys.exit("run: no program sources under src/main/scala; run from the repository root")
    classes = build.build(root)

    nproc = len(os.sched_getaffinity(0))
    cores = min(MAX_CORES, nproc)
    work = os.path.join(root, build.OUT, f"run-{os.getpid()}")
    traces = os.path.join(root, build.OUT, "traces")
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", *GC, "-XX:+AlwaysPreTouch", "-XX:-UsePerfData", "-Xss8m",
           f"-Djava.io.tmpdir={work}",
           f"-Dlog4j2.configurationFile={os.path.join(root, 'perfbench', 'log4j2.properties')}"]
    cmd += ["-cp", os.pathsep.join([classes, os.path.join(build.spark_jars(), "*")]),
            "perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace, "--cores", str(cores), "--work-dir", work]
    if a.events:
        cmd += ["--events", str(a.events)]
    if a.trace == "1":
        cmd += ["--trace-file", os.path.join(traces, f"{a.workload}-seed{a.seed}.csv")]
    print(f"pin: heap={HEAP} gc={' '.join(GC)} cores={cores} shuffle_partitions={cores} nproc={nproc}", flush=True)

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout(a.seconds))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if out is None:
        sys.exit(f"run: {a.workload} did not finish within {timeout(a.seconds)} s")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if proc.returncode != 0 or not ok:
        print("\n".join(lines[:-1] if ok else lines), file=sys.stderr)
        sys.exit(f"run: {a.workload} failed (exit code {proc.returncode})")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
