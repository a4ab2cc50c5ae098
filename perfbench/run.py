#!/usr/bin/env python3
"""VUG query benchmark.

Builds the program and this benchmark from source (sbt, offline), then runs one
workload in one JVM and prints its metrics. The last line of standard output is the
result as one JSON object.

    python3 perfbench/run.py --workload r1-default --seed 1 --seconds 20 --trace 0

--trace 1 adds a traced pass and prints the per-layer metrics instead of the
end-to-end ones. --record-answers rewrites the committed answer digests of the
given seed (run it only after a change that is meant to alter answers).
See perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CLASSPATH = os.path.join(HERE, "target", "classpath.txt")
STAMP = os.path.join(WORK, "build.stamp")
BUILD_TIMEOUT_S = 840
# Runs right after a build measured ~30% slow, setup included: let the machine settle.
SETTLE_AFTER_BUILD_S = 20
RUN_TIMEOUT_S = 175
JVM_OPTS = ["-Xms3g", "-Xmx3g", "-XX:-UsePerfData"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_inputs():
    """Every file the build reads from the checkout, in a stable order."""
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for base in (os.path.join(ROOT, "project"), os.path.join(HERE, "project")):
        if os.path.isdir(base):
            files += [os.path.join(base, f) for f in sorted(os.listdir(base))
                      if os.path.isfile(os.path.join(base, f))]
    for tree in (os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
                 os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(tree):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    return files


def fingerprint():
    h = hashlib.sha256()
    for f in build_inputs():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    """The runtime classpath, building first unless the sources are unchanged."""
    stamp = fingerprint()
    if os.path.exists(STAMP) and os.path.exists(CLASSPATH):
        with open(STAMP) as fh, open(CLASSPATH) as cp:
            entries = cp.read().strip().split(os.pathsep)
            if fh.read() == stamp and all(os.path.exists(e) for e in entries):
                return os.pathsep.join(entries)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    tmp = os.path.join(WORK, "tmp")
    env["TMPDIR"] = tmp
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Djava.io.tmpdir={tmp}", "perfbench/benchClasspath"]
    print("perfbench: building with sbt", file=sys.stderr)
    try:
        # Build output goes to stderr: standard output ends with the result line.
        subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S, check=True)
    except (subprocess.SubprocessError, OSError) as e:
        die(f"build failed: {e}")
    with open(STAMP, "w") as fh:
        fh.write(stamp)
    time.sleep(SETTLE_AFTER_BUILD_S)
    with open(CLASSPATH) as cp:
        return cp.read().strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="r1-narrow or r1-default")
    ap.add_argument("--seed", type=int, help="workload seed (default: the bench suites' seed)")
    ap.add_argument("--seconds", type=int, default=20, help="query time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-answers", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        die(f"no program sources next to the benchmark (expected build.sbt and src/main/scala in {ROOT})")

    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cp = classpath()
    jvm_args = ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--answers", os.path.join(HERE, "answers"),
                "--record-answers", "1" if args.record_answers else "0"]
    if args.seed is not None:
        jvm_args += ["--seed", str(args.seed)]
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.sql.warehouse.dir={os.path.join(WORK, 'warehouse')}",
           "-cp", cp, "repro.perfbench.Main", *jvm_args]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(WORK, "spark"), TMPDIR=tmp)
    proc = subprocess.Popen(cmd, cwd=WORK, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=None if args.record_answers else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        die(f"benchmark JVM exited with {proc.returncode}")


if __name__ == "__main__":
    main()
