#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fig7|sweep-10k|queue-1k> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`, which also holds cargo's home), runs the workload
in a fresh process pinned to one CPU, checks that the result line has
the contracted shape, and prints the program's output with the result line last.
Exits non-zero, without a result line, if the build or the run fails or
the result is malformed; exits 1 after the result line if a correctness
check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
# What the benchmark's program is built from, for the source digest.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, **kw):
    """Run `cmd` to completion; kill it and wait if it overruns."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} overran {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def source_context():
    """The commit (when run from a git work tree) and a digest of every
    source file the program is built from."""
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else []
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            files.extend(os.path.join(root, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, REPO).encode() + b"\0")
            with open(f, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(REPO, ".git")):
        code, out = run_child(["git", "-C", REPO, "rev-parse", "HEAD"], 30,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = out.decode().strip() if code == 0 else None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def validate(line):
    """The result line, parsed, if it has exactly the contracted shape."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    if not isinstance(result["metrics"], dict) or not result["metrics"]:
        raise ValueError("no metrics")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not isinstance(m.get("unit"), str):
            raise ValueError(f"metric {name} has no numeric value or no unit")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["fig7", "sweep-10k", "queue-1k"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    for need in ("BENCHMARK.json", "Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(REPO, need)):
            fail(f"{need} is missing: run from a full checkout of the repository")
    env = dict(os.environ, CARGO_NET_OFFLINE="true")
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", os.path.join(REPO, ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    # Keep cargo's own caches and locks in the build directory too.
    env["CARGO_HOME"] = os.path.join(target, "cargo-home")
    manifest = os.path.join(HERE, "Cargo.toml")
    code, _ = run_child(["cargo", "build", "--release", "--offline", "--quiet",
                         "--manifest-path", manifest], BUILD_TIMEOUT_S, env=env,
                        stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")

    # Run on one CPU, so that the host-speed sampler (src/speed.rs) times
    # the CPU the workload runs on. The build above used them all.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = out.decode().splitlines()
    if code not in (0, 1) or not lines:
        fail(f"workload run failed (exit {code})")
    try:
        result = validate(lines[-1])
    except (ValueError, KeyError, AttributeError, json.JSONDecodeError) as e:
        fail(f"malformed result line: {e}")
    if result["correct"] != (code == 0):
        fail(f"verdict {result['correct']} disagrees with exit code {code}")

    print("source " + json.dumps(dict(source_context(), cpu=cpu)))
    for line in lines:
        print(line)
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
