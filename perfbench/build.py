#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program and the benchmark.

    python3 perfbench/build.py        (from the repository root)

Compiles the program's sources (src/main/scala) together with the
benchmark's (perfbench/src) into .bench_build/classes, using the Scala
compiler that ships with Spark. Spark's jars are found through SPARK_HOME,
or next to `spark-submit` on the PATH. The compile is skipped when no source
file changed since the last one.
"""
import hashlib
import os
import shutil
import subprocess
import sys

SOURCE_DIRS = ["src/main/scala", "perfbench/src"]
OUT = ".bench_build"


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else ""
    if not os.path.isdir(jars) or not any(f.startswith("scala-compiler-") for f in os.listdir(jars)):
        sys.exit("build: Spark's jars (with scala-compiler) not found; set SPARK_HOME")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        sys.exit("build: no java found; set JAVA_HOME")
    return exe


def sources(root):
    files = []
    for d in SOURCE_DIRS:
        path = os.path.join(root, d)
        if not os.path.isdir(path):
            sys.exit(f"build: missing source directory {d}; run from the repository root")
        for dirpath, _, names in os.walk(path):
            files += [os.path.join(dirpath, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def build(root="."):
    """Returns the classes directory, compiling first if any source changed."""
    files = sources(root)
    digest = hashlib.sha256()
    for f in files:
        digest.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    out = os.path.join(root, OUT)
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "classes.sha256")
    if os.path.isdir(classes) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                return classes
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java(), "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.path.join(spark_jars(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + files
    print(f"build: compiling {len(files)} files", file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit("build: compile failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp_file, "w") as fh:
        fh.write(stamp + "\n")
    return classes


if __name__ == "__main__":
    print(build())
