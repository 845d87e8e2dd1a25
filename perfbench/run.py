#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload synth_cold|serve_mixed|paper_models \
        --seed N --seconds S --trace 0|1

Builds the benchmark and the rtsyn daemon with dune (the first run in a
fresh checkout compiles the tree), runs one workload, and passes the
benchmark's one-line JSON result through as the last line of stdout.
Diagnostics go to stderr.  Exits non-zero without a result when the
checkout is incomplete, the build fails or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("synth_cold", "serve_mixed", "paper_models")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SCRATCH = ".perfbench-run"
BENCH_EXE = "_build/default/perfbench/bench.exe"
RTSYN_EXE = "_build/default/bin/rtsyn.exe"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    # The benchmark drives the program's own sources; without them there
    # is nothing to measure.
    for needed in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    env = dict(os.environ)
    # The job count is the machine's, not the caller's.
    env.pop("RTCAD_JOBS", None)
    # Keep every build product inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--cache=disabled",
             "./perfbench/bench.exe", "./bin/rtsyn.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if build.returncode != 0:
        fail("build failed", 1)

    os.makedirs(SCRATCH, exist_ok=True)
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rtsyn", RTSYN_EXE, "--scratch", SCRATCH]
    # Its own process group, so a timed-out run takes the daemon it
    # started down with it.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark run timed out", 1)
    finally:
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}", 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
