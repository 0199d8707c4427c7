#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <e3|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--seed <n>]

The first form builds the `perfbench` package and the dispatch crate's
`mcdbr-worker` (release profile, both into `$CARGO_TARGET_DIR`, default
`.bench_build`) and replaces itself with the benchmark binary; the binary's last stdout line is the JSON result.  The
second form runs every workload twice for a fixed number of rounds, each
time in a fresh process, and checks that both runs report identical work
counters (replenishments, tasks, wire bytes, bytes materialized, skeleton
hits, pages read).  It exits non-zero when any counter differs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Rounds per self-test run; serve_mixed counts rounds per client.
SELF_TEST_ROUNDS = {"e3": 4, "serve_mixed": 24}


def build():
    """Build the benchmark binary and, beside it, the program's own
    `mcdbr-worker` (the dispatch crate's bin), which `ProcessBackend`
    spawns from the running binary's directory."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "crates", "dispatch", "Cargo.toml"), "--bin", "mcdbr-worker"],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        # Cargo's output goes to stderr: stdout carries only the result.
        status = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        if status != 0:
            sys.exit(f"perfbench: build failed ({status}): {' '.join(cmd)}")
    return os.path.join(target, "release", "perfbench")


def counters(binary, workload, seed, rounds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--rounds", str(rounds), "--trace", "0"],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"perfbench self-test: {workload} seed {seed} failed checks: {out[-1]}")
    line = next(l for l in out if l.startswith("counters "))
    return json.loads(line[len("counters "):])


def self_test(binary, seed):
    ok = True
    for workload, rounds in SELF_TEST_ROUNDS.items():
        first = counters(binary, workload, seed, rounds)
        second = counters(binary, workload, seed, rounds)
        same = first == second
        ok &= same
        print(f"{workload}: {'identical' if same else 'DIFFER'} {first}" + ("" if same else f" vs {second}"))
    return ok


def main():
    args = sys.argv[1:]
    binary = build()
    if args and args[0] == "--self-test":
        seed = int(args[2]) if len(args) >= 3 and args[1] == "--seed" else 7
        sys.exit(0 if self_test(binary, seed) else 1)
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
