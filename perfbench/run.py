#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_churn|serve_storm|sim_fig6 \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test     # the output-check tests

Run from the repository root.  The build goes to $CARGO_TARGET_DIR when set
(relative to the repository root), else .bench_build; spans and sockets go
to .bench_out.  The last line of standard output is the JSON result of
perfbench/cpp/main.cc.  Exit status: the benchmark's (0 = output check
passed), or 2 when the program cannot be built.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_churn", "serve_storm", "sim_fig6")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(targets) -> bool:
    """Configures (once) and builds; compiler output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: program sources (src/) not found", file=sys.stderr)
        return False
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    os.chdir(ROOT)

    if a.self_test:
        if not build(["opcbench_checks_test"]):
            return 2
        return subprocess.run([str(build_dir() / "opcbench_checks_test")]).returncode
    if a.workload is None:
        ap.error("--workload is required")

    binary = "opcbench_traced" if a.trace else "opcbench"
    if not build([binary]):
        return 2
    cmd = [str(build_dir() / binary), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    child = subprocess.Popen(cmd)
    # A stopped runner stops its benchmark too, and waits for it.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: child.terminate())
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
