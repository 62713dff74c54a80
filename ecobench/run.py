#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the repository root:

    python3 ecobench/run.py --workload suite_minimize --seed 1 --seconds 20 --trace 0

Builds the release `eco_patchd` daemon and the `ecobench` binary from
source (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload, and prints the host facts and then the result object as the
last stdout line. The result is also saved, stamped with the host facts,
under `.bench_out/`. See ecobench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

WORKLOADS = ("suite_minimize", "suite_prune", "daemon_stream")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"ecobench: {message}", file=sys.stderr)
    sys.exit(code)


def capture(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=60).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    digest = hashlib.sha256()
    paths = []
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "ecobench"):
        full = os.path.join(root, top)
        if os.path.isfile(full):
            paths.append(top)
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in filenames:
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    paths.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in sorted(paths):
        digest.update(rel.encode())
        with open(os.path.join(root, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def host_facts(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = capture(["git", "-C", root, "rev-parse", "HEAD"]) if os.path.isdir(
        os.path.join(root, ".git")) else "none"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": capture(["rustc", "-V"]),
        "git_commit": commit or "none",
        "source_digest": source_digest(root),
        "kernel": platform.release(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        fail("run from the repository root: Cargo.toml and crates/ are missing here")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for build in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "eco_patchd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("ecobench", "Cargo.toml")],
    ):
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(build)}", 1)

    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    argv = [
        os.path.join(target, "release", "ecobench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", os.path.join(target, "release", "eco_patchd"),
        "--out-dir", out_dir,
    ]
    # A session of its own, so a timeout also takes down the daemon that
    # ecobench spawned.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}", 1)
    result = json.loads(lines[-1])
    host = host_facts(root)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "result": result}
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
