#!/usr/bin/env python3
"""Builds and runs the wlbench binary for one workload run.

Usage (from the repository root):

    python3 wlbench/run.py --workload uplink_replay --seed 1 \
        --seconds 15 --trace 0

Builds ``wlbench`` from source into ``.bench_build`` (or
``$CARGO_TARGET_DIR`` when set), generates the seed's corpus once in a
separate process, runs the workload, prints the binary's report and a
provenance line, and ends with the binary's one-line JSON result. Exits
non-zero without a result when the sources are missing or anything fails.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("uplink_replay", "noisy_library")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir, env):
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(cmake_dir, "wlbench")


def cache_value(build_dir, key):
    path = os.path.join(build_dir, "cmake", "CMakeCache.txt")
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """sha256 over the library and benchmark sources (the checkout a run
    sees is not a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "bench", "wlbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if shutil.which("git") is None or not os.path.exists(
            os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(build_dir, load_before, digest):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True)
        version = out.stdout.splitlines()[0] if out.stdout else ""
    return {
        "git_sha": git_sha(),
        "source_digest": digest,
        "compiler": version or compiler,
        "cxx_flags": " ".join(
            cache_value(build_dir, key) for key in
            ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE")).strip(),
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "bench/common.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("wlbench: library sources missing (%s); nothing to run"
                % needed)
            return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    # Compiler and program temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    load_before = os.getloadavg()
    binary = build(build_dir, env)
    # Everything after the build must end within 180 s.
    deadline = time.monotonic() + RUN_TIMEOUT_S

    # The cached scans are named after the sources that generate them, so
    # a changed simulator or RF model never runs on stale scans.
    digest = source_digest()
    corpus = os.path.join(build_dir, "corpus",
                          "scans-seed%d-%s.bin" % (args.seed, digest))
    if not os.path.exists(corpus):
        for stale in glob.glob(os.path.join(
                build_dir, "corpus", "scans-seed%d-*.bin" % args.seed)):
            os.remove(stale)
        started = time.monotonic()
        subprocess.run([binary, "--make-corpus", "--seed", str(args.seed),
                        "--corpus", corpus],
                       check=True, stdout=sys.stderr,
                       timeout=deadline - time.monotonic(), env=env)
        log("corpus generated in %.1f s" % (time.monotonic() - started))

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", build_dir, "--corpus", corpus],
        capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()), env=env)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        log("wlbench: run failed with exit code %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("wlbench: malformed result line")
        return 1
    for line in lines[:-1]:
        print(line)
    print("provenance: " +
          json.dumps(provenance(build_dir, load_before, digest)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
