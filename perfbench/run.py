#!/usr/bin/env python3
"""Builds and runs the benchmark in perfbench/ from the root of a checkout.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Steadiness report (runs one workload repeatedly, one seed each, and prints
per end-to-end metric, setup_s included, the median, the quartiles and the
spread relative to the median, flagging any spread wider than the metric's
bound):
    python3 perfbench/run.py --steadiness --workload <name> --runs 10 [--first-seed 1] [--seconds S]

The benchmark's own tests (tail selection, failure counting, open-loop timing):
    python3 perfbench/run.py --selftest

Rate ramp of the serve workload (the offered rate steps through the list,
a fresh server per step; prints the rate the server sustains):
    python3 perfbench/run.py --ramp 10,15,20,25,30 --seed 1 --seconds 12

Builds with cargo, offline, into $CARGO_TARGET_DIR (default .bench_build).
Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    # Build output goes to stderr so the last stdout line stays the result.
    return subprocess.run(
        ["cargo", *args, "--release", "--offline", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    ).returncode


def source_identity():
    """The git commit when there is one, and a digest of the sources built."""
    commit = "none"
    # Only a checkout that is itself a git repository has a commit; never
    # let git search the directories above it.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            ).stdout.strip() or "none"
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("crates", "vendor", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, capture=False, ramp=None):
    commit, tree = source_identity()
    # One malloc arena: with one per thread, which server worker happened to
    # take which request moved the serve workload's peak RSS by ±10 %.
    env = dict(os.environ, PERFBENCH_COMMIT=commit, PERFBENCH_TREE=tree,
               MALLOC_ARENA_MAX="1")
    exe = os.path.join(target_dir(), "release", "perfbench")
    if ramp:
        cmd = [exe, "--ramp", ramp, "--seed", str(seed), "--seconds", str(seconds)]
    else:
        cmd = [exe, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return subprocess.run(cmd, cwd=ROOT, env=env)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(workload, runs, first_seed, seconds):
    bench = load_benchmark()
    seconds = seconds or bench["run_seconds"]
    values = {}
    for i in range(runs):
        seed = first_seed + i
        proc = run_once(workload, seed, seconds, 0, capture=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"run with seed {seed} failed (exit {proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    print(f"\n{workload}: {runs} runs of {seconds} s, seeds {first_seed}..{first_seed + runs - 1}")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    wide = False
    for metric in bench["end_to_end"]:
        name = metric["name"]
        v = values.get(name)
        if not v:
            print(f"{name:<16} missing")
            wide = True
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = spread > metric["bound"]
        wide |= flag
        print(f"{name:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%} {metric['bound']:>6.0%}"
              + ("  WIDER THAN BOUND" if flag else ""))
    return 1 if wide else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--ramp")
    a = p.parse_args()

    if a.selftest:
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
        return subprocess.run(
            ["cargo", "test", "--release", "--offline", "--manifest-path", MANIFEST],
            cwd=ROOT, env=env).returncode
    if not a.workload and not a.ramp:
        p.error("--workload is required")
    if cargo("build") != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if a.steadiness:
        return steadiness(a.workload, a.runs, a.first_seed, a.seconds)
    if a.seed is None or a.seconds is None:
        p.error("--seed and --seconds are required")
    return run_once(a.workload, a.seed, a.seconds, a.trace, ramp=a.ramp).returncode


if __name__ == "__main__":
    sys.exit(main())
