#!/usr/bin/env python3
"""Build and run the LTFB benchmark from a source checkout.

    python3 ltfb_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ltfb_bench/run.py [--seed N] [--seconds S]    # every workload

The benchmark binary is built from the checkout's sources into
.bench_build/ltfb_bench (configured once, rebuilt incrementally). Its
standard output is passed through unchanged, so the last line is the
result JSON. Everything it writes stays under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "ltfb_bench"
WORKLOADS = ["single_1x1", "ltfb_pop4", "ltfb_2x2_socket_bf16", "dp4_datastore"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def hermetic_env():
    """The caller's environment without any LTFB_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("LTFB_")}


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no ltfb sources (CMakeLists.txt, src/) under {ROOT}")
        return None
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "ltfb_bench"), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ltfb_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return BUILD / "ltfb_bench"


def run_group(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; on timeout the whole group (the
    binary and any rank processes it forked) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=hermetic_env(), stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout}s: {' '.join(cmd)}")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def source_id():
    """Keys a result to the code measured: the git commit when the checkout
    is a repository, and a digest of the sources either way."""
    digest = hashlib.sha256()
    tracked = [ROOT / "CMakeLists.txt", ROOT / "cmake", ROOT / "src",
               ROOT / "ltfb_bench"]
    for top in tracked:
        files = [top] if top.is_file() else sorted(top.rglob("*"))
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = f"src:{digest.hexdigest()[:16]}"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if sha.returncode == 0:
            ident = f"git:{sha.stdout.strip()},{ident}"
    return ident


def run_one(binary, workload, seed, seconds, trace, ident):
    """Runs one workload; returns the exit code and the result file."""
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    result = results / f"{workload}_seed{seed}_trace{trace}.json"
    result.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(BUILD / "work"), "--result", str(result),
           "--trace-dir", str(results), "--source-id", ident]
    sys.stdout.flush()
    return run_group(cmd, RUN_TIMEOUT_S), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    ident = source_id()
    if args.workload:
        return run_one(binary, args.workload, args.seed, args.seconds,
                       args.trace, ident)[0]

    # Every workload, end-to-end then traced; one summary line at the end.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, path = run_one(binary, workload, args.seed, args.seconds,
                                 trace, ident)
            result = json.loads(path.read_text()) if path.is_file() else {}
            summary["correct"] &= code == 0 and result.get("correct", False)
            summary["attempted"] += result.get("attempted", 0)
            summary["failed"] += result.get("failed", 0)
            for name, metric in result.get("metrics", {}).items():
                summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
