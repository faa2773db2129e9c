#!/usr/bin/env python3
"""End-to-end benchmark entry point (see e2ebench/README.md).

Run from the root of a checkout:

    python3 e2ebench/run.py --workload f10_fattree --seed 1 --seconds 20 --trace 0

Builds e2ebench/ (CMake, Release) into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when that variable is unset, runs one workload and
prints the output of mcnk_e2ebench; its last line is the result JSON. Exits
non-zero, without a result, when the library sources or the build are
missing, and non-zero when any correctness check failed.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("f10_fattree", "chain_exact", "serve_mix")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    return code


def build(build_dir):
    """Configures (once) and builds mcnk_e2ebench; build logs go to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "mcnk_e2ebench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "mcnk_e2ebench")


def no_aslr():
    """Runs in the child before exec: a fixed address-space layout, so
    pointer-keyed hash tables behave the same in every run."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "analysis", "Verifier.cpp")):
        return fail("library sources not found in " + os.path.join(ROOT, "src"))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(os.path.join(target, "e2ebench"))
    except (subprocess.CalledProcessError, OSError) as e:
        return fail("build failed: %s" % e)
    workdir = os.path.join(target, "work")
    os.makedirs(workdir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--expected", os.path.join(HERE, "expected")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=no_aslr)
    except subprocess.TimeoutExpired:
        return fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return fail("mcnk_e2ebench printed no result (exit %d)" % proc.returncode)
    want = expected_metrics(args.trace)
    if set(result.get("metrics", {})) != want:
        return fail("metrics differ from BENCHMARK.json: %s" % sorted(
            want.symmetric_difference(result.get("metrics", {}))), 3)
    print("\n".join(lines))
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
