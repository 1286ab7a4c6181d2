#!/usr/bin/env python3
"""Build and run the host-time benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exchange_dense --seed 2014 \
        --seconds 30 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs the workload in a process of its own and
prints the result.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 1` the
layer spans are written as a Chrome trace to
`perfbench/out/<workload>-seed<seed>.trace.json`.

`--workload all` runs every workload in turn (one process each) and
prints one table of every end-to-end metric instead of a JSON line.

Exits non-zero, without printing a result, when the build or the run
fails or a run exceeds its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["exchange_dense", "io_write", "exchange_wide"]
# A run must end within 180 s; leave room for the build check and
# process start.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary; returns its path."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    try:
        # Build output goes to stderr: stdout is reserved for the result.
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; returns (stdout lines, result).

    The last of the lines is the result line itself."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", os.path.join(ROOT, "results", "BENCH_exchange.json")]
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out_dir, f"{workload}-seed{seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"{workload}: {e}")
    out = proc.stdout
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"{workload} exited with {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail(f"{workload} printed no result line")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=2014)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    if args.workload != "all":
        lines, result = run_one(binary, args.workload, args.seed,
                                args.seconds, args.trace)
        print("\n".join(lines))
        return

    ok = True
    for w in WORKLOADS:
        _, result = run_one(binary, w, args.seed, args.seconds, args.trace)
        frac = result["failed"] / result["attempted"]
        ok = ok and result["correct"]
        print(f"{w}: correct={result['correct']} failed_frac={frac} "
              f"({result['failed']} of {result['attempted']})")
        for name, m in sorted(result["metrics"].items()):
            print(f"  {name:<30} {m['value']:>18.6g} {m['unit']}")
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
