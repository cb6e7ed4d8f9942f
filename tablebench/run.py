#!/usr/bin/env python3
"""Run one Table III benchmark workload.

    python3 tablebench/run.py --workload ensemble-res --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run in a checkout compiles the
program (src/main/scala) with the benchmark's sources through the sbt build in
tablebench/; later runs reuse the compiled classpath until a source changes.
Everything built or written goes under .bench_build/ in the checkout. The last
line of standard output is the result as one JSON object.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "tablebench")
PROGRAM = os.path.join(ROOT, "src", "main", "scala")
BUILD_INPUTS = [PROGRAM, os.path.join(HERE, "src", "main"),
                os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
WORKLOADS = ["ensemble-res", "fraudar-k30"]
TIME_LIMIT_S = 175

# JDK 17 module opens Spark needs (spark-submit adds the same).
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
         "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
         "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]
# A fixed heap and the throughput collector: no heap resizing during a run.
HEAP_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC"]


def fail(msg, code=2):
    print(f"tablebench: {msg}", file=sys.stderr)
    sys.exit(code)


def files_under(path):
    if os.path.isfile(path):
        yield path
        return
    for d, dirs, files in os.walk(path):
        dirs.sort()
        for f in sorted(files):
            yield os.path.join(d, f)


def sources_stamp():
    h = hashlib.sha256()
    for p in BUILD_INPUTS:
        for f in files_under(p):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_tree_id(path):
    """The id git gives the tree at `path`, computed from the files alone."""
    entries = []
    for name in os.listdir(path):
        p = os.path.join(path, name)
        if os.path.islink(p):
            mode, oid = b"120000", git_object(b"blob", os.readlink(p).encode())
        elif os.path.isdir(p):
            oid = git_tree_id(p)
            if oid is None:
                continue
            mode = b"40000"
        else:
            with open(p, "rb") as fh:
                oid = git_object(b"blob", fh.read())
            mode = b"100755" if os.access(p, os.X_OK) else b"100644"
        key = name + "/" if mode == b"40000" else name
        entries.append((key.encode(), mode + b" " + name.encode() + b"\0" + bytes.fromhex(oid)))
    if not entries:
        return None
    return git_object(b"tree", b"".join(e for _, e in sorted(entries)))


def git_object(kind, data):
    return hashlib.sha1(kind + b" " + str(len(data)).encode() + b"\0" + data).hexdigest()


def source_identity():
    """Commit and dirty flag when the checkout is a git repository, and the
    git tree id of src/ in every case."""
    commit, dirty = "none: not a git checkout", "unknown"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, check=True).stdout
            dirty = "true" if status.strip() else "false"
        except subprocess.CalledProcessError:
            pass
    return commit, dirty, git_tree_id(os.path.join(ROOT, "src"))


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("SPARK_HOME must name a Spark 4.1 distribution")
    return home


def classpath():
    """Compile if a build input changed since the last build; return the classpath."""
    stamp_file = os.path.join(WORK, "stamp")
    cp_file = os.path.join(WORK, "classpath.txt")
    stamp = sources_stamp()
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read()
    if not shutil.which("sbt"):
        fail("sbt is needed to build the benchmark")
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_jars())
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos}")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(WORK, 'sbt-global')}", "export Runtime/fullClasspath"]
    print("tablebench: building (first run in this checkout)", file=sys.stderr)
    p = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, text=True, timeout=850)
    lines = [l for l in p.stdout.splitlines() if ".jar" in l and not l.startswith("[")]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed", 3)
    with open(cp_file, "w") as fh:
        fh.write(lines[-1].strip())
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    start = time.monotonic()

    if not os.path.isdir(os.path.join(PROGRAM, "repro")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM, os.getcwd())}")
    cp = classpath()
    commit, dirty, tree = source_identity()
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = ([java] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS] + HEAP_FLAGS +
           [f"-Djava.io.tmpdir={tmp}", f"-Dtablebench.commit={commit}", f"-Dtablebench.dirty={dirty}",
            f"-Dtablebench.tree={tree}", "-cp", cp, "repro.tablebench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", args.trace, "--work", WORK])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(10.0, TIME_LIMIT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded its time limit", 4)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(out)
        fail(f"benchmark process failed with exit code {proc.returncode}", 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
