#!/usr/bin/env python3
"""Benchmark entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload tpch --seed 1 --seconds 20 --trace 0

Builds the engine and the benchmark harness from source with sbt when
the sources changed since the last build, then runs one workload in a
JVM and relays its report. The last line of standard output is one JSON
object with the run's metrics. Everything the run writes stays under
perfbench/target, perfbench/project and perfbench/work, plus the
repository build's own target directories.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tpch", "uc10_spill", "plan_wide")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
HEAP = "3g"
# Module opens Spark needs on Java 17 (as in the repository's build.sbt).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [ROOT / "src" / "main", HERE / "src"]
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             HERE / "build.sbt", HERE / "project" / "build.properties"]
    for r in roots:
        files += sorted(p for p in r.rglob("*") if p.is_file())
    return files


def fingerprint():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_bounded(cmd, cwd, env, timeout, capture):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def classpath(env):
    stamp = HERE / "target" / "perfbench.classpath"
    key = fingerprint()
    if stamp.exists():
        lines = stamp.read_text().splitlines()
        if len(lines) == 2 and lines[0] == key:
            return lines[1]
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        code, out = run_bounded(cmd, HERE, env, BUILD_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if code != 0:
        sys.stderr.write(out)
        fail(f"build failed with exit code {code}")
    cps = [l for l in out.splitlines() if ".jar" in l and os.pathsep in l and not l.startswith("[")]
    if not cps:
        sys.stderr.write(out)
        fail("build printed no classpath")
    stamp.parent.mkdir(parents=True, exist_ok=True)
    stamp.write_text(f"{key}\n{cps[-1].strip()}\n")
    return cps[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala").is_dir() or not (ROOT / "build.sbt").is_file():
        fail(f"no engine sources under {ROOT}; run from a full checkout")
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java are required")

    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cp = classpath(env)

    work = HERE / "work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env["SPARK_LOCAL_DIRS"] = str(work / "spark")
    # The client compiler only: with the server compiler, Spark's driver
    # code keeps compiling through the first warm passes, on the same
    # cores the Spark tasks use, so passes drift and runs take longer.
    cmd = (["java", f"-Xmx{HEAP}", "-XX:TieredStopAtLevel=1", f"-Djava.io.tmpdir={work / 'tmp'}",
            "-Dspark.callstack.depth=200", f"-Dlog4j.configurationFile={HERE / 'log4j2.properties'}",
            f"-Dderby.system.home={work}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace, "--work", str(work)])
    try:
        code, _ = run_bounded(cmd, HERE / "work", env, RUN_TIMEOUT_S, capture=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
