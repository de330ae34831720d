#!/usr/bin/env python3
"""Progressive-ER benchmark: build the program with the benchmark, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload cddb-dirty --seed 19 --seconds 30 --trace 0

The first run in a checkout compiles the program's sources together with
perfbench/src through perfbench/build.sbt (offline sbt); later runs reuse the
classes until a source file changes. The benchmark itself runs in one JVM
with a pinned heap and collector; its last line of standard output is the
result object. Build logs go to standard error.

A run at the workloads' own scales is stopped after 145 s plus --seconds;
a run with --scale (e.g. at the paper's sizes) has no time limit.
"""
import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "sources.sha256")
OUT = os.path.join(BENCH, "out")
TMP = os.path.join(OUT, "tmp")

HEAP = "2g"
JVM_OPTS = [
    f"-Xms{HEAP}", f"-Xmx{HEAP}", "-Xmn1g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def sources_digest():
    """Hash of every input of the build, so a changed source triggers one."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src", "main"),
             os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        paths = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build(digest):
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    extra = [f"-Djava.io.tmpdir={TMP}", "-XX:-UsePerfData"]
    if "sbt.offline" not in env.get("SBT_OPTS", ""):
        repos = os.path.expanduser("~/.sbt/repositories")
        extra += ["-Dsbt.offline=true"]
        if os.path.isfile(repos):
            extra += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", "")] + extra).strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "writeClasspath"]
    print("[perfbench] building: " + " ".join(cmd), file=sys.stderr, flush=True)
    r = subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       stdin=subprocess.DEVNULL, timeout=850)
    if r.returncode != 0 or not os.path.isfile(CLASSPATH):
        sys.exit(f"[perfbench] build failed (exit {r.returncode})")
    with open(STAMP, "w") as fh:
        fh.write(digest)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def time_limit(args):
    """Seconds the benchmark JVM may run, or None with --scale."""
    if "--scale" in args:
        return None
    seconds = args[args.index("--seconds") + 1] if "--seconds" in args[:-1] else "10"
    return 145 + int(seconds)


def main():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        sys.exit("[perfbench] the program's sources (src/main/scala/repro) are missing next to perfbench/")
    os.makedirs(TMP, exist_ok=True)
    digest = sources_digest()
    stamp = open(STAMP).read() if os.path.isfile(STAMP) else ""
    if stamp != digest or not os.path.isfile(CLASSPATH):
        build(digest)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    cmd = ["java"] + JVM_OPTS + [f"-Djava.io.tmpdir={TMP}", f"-Dperfbench.commit={git_commit()}",
                                 "-cp", cp, "repro.perfbench.Main"] + sys.argv[1:]
    # Spark's scratch space stays inside the checkout
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(OUT, "spark-local"))
    limit = time_limit(sys.argv[1:])
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, timeout=limit)
    except subprocess.TimeoutExpired:
        sys.exit(f"[perfbench] stopped: the benchmark did not end within {limit} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
