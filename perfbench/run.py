#!/usr/bin/env python3
"""Run the SparkER benchmark for one workload and seed.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload blast-cc-1k --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --record 0 1 2      # expected.tsv lines for these seeds

Builds the program and the harness with sbt when their sources changed
(the build lives in perfbench/build.sbt and compiles ../src/main/scala),
then starts one JVM with a local Spark master. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "bench.classpath")
STAMP = os.path.join(TARGET, "bench.stamp")
RUN_TIMEOUT_S = 170
HEAP = "3g"

ADD_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def sources():
    """Every file the build reads, in a stable order."""
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        if not os.path.isdir(r):
            sys.exit(f"perfbench: missing source directory {os.path.relpath(r, ROOT)}")
        for d, _, fs in sorted(os.walk(r)):
            files += [os.path.join(d, f) for f in sorted(fs)]
    return files


def build():
    digest = hashlib.sha256()
    for f in sources():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read() == stamp:
                return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    res = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "benchClasspath"],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr, stdin=subprocess.DEVNULL)
    if res.returncode != 0 or not os.path.exists(CLASSPATH):
        sys.exit("perfbench: build failed")
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def run_jvm(main_class, args, timeout):
    """Runs one benchmark JVM; returns its standard output or exits."""
    build()
    with open(CLASSPATH) as fh:
        classpath = fh.read().strip()
    work = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        f"perfbench-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", f"-Djava.io.tmpdir={tmp}",
            "-Dspark.driver.host=127.0.0.1", "-XX:+IgnoreUnrecognizedVMOptions"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in ADD_OPENS]
           + ["-cp", classpath, main_class, "--work-dir", work] + args)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True)
    # A terminated benchmark stops its JVM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {timeout} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit(f"perfbench: benchmark JVM exited with code {proc.returncode}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--record", type=int, nargs="+", metavar="SEED",
                    help="print expected.tsv lines for every workload at these seeds")
    a = ap.parse_args()

    if a.record:
        sys.stdout.write(run_jvm("repro.perfbench.Record", [str(s) for s in a.record], None))
        return
    if None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    out = run_jvm("repro.perfbench.Bench", [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--expected", os.path.join(HERE, "expected.tsv")], RUN_TIMEOUT_S)
    lines = out.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        sys.exit("perfbench: the benchmark printed no result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
