#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload query-sharded|query-local|ingest-stream|all
                           --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) as a Release
build with QRANK_AUDIT_LEVEL=0 and no sanitizer; the binary refuses to
report numbers from any other kind of build. Build logs go to stderr.
The last line of stdout is the run's JSON result. --workload all runs
the three workloads one after another and ends with one combined line.

Besides the binary's own checks this wrapper fails a run (correct =
false, exit 1) when a qrank_worker process outlives it, or when the
reported metrics differ from the ones BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("query-sharded", "query-local", "ingest-stream")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    return pathlib.Path(configured).resolve() if configured else ROOT / ".bench_build"


def build(targets):
    """Configures once, then builds `targets`; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no qrank sources under {ROOT}; nothing to build")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release", "-DQRANK_AUDIT_LEVEL=0",
             "-DQRANK_SANITIZE="],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
         "--target", *targets],
        stdout=sys.stderr, check=True)
    return out


def commit_stamp():
    """The git commit, or a digest of the sources when not a git checkout."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "source-sha256:" + digest.hexdigest()[:16]


def leftover_workers(scratch):
    """Processes whose command line names this run's scratch dir."""
    found = []
    for proc in pathlib.Path("/proc").iterdir():
        if not proc.name.isdigit() or int(proc.name) == os.getpid():
            continue
        try:
            cmdline = (proc / "cmdline").read_bytes()
        except OSError:
            continue
        if str(scratch).encode() in cmdline and b"qrank_worker" in cmdline:
            found.append(int(proc.name))
    return found


def declared_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    return {m["name"] for m in data["per_layer" if trace else "end_to_end"]}


def run_one(out, workload, seed, seconds, trace, env):
    """Runs the binary once; returns (exit code, stdout lines, result)."""
    scratch = out / "perfbench-scratch"
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--worker", str(out / "qrank" / "tools" / "qrank_worker"),
           "--scratch", str(scratch)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    interrupted = False
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except (KeyboardInterrupt, subprocess.TimeoutExpired) as exc:
        interrupted = isinstance(exc, KeyboardInterrupt)
        log("interrupted" if interrupted else "run timed out; stopping it")
        child.send_signal(signal.SIGINT)
        try:
            stdout, _ = child.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            child.kill()
            stdout, _ = child.communicate()
    leftovers = leftover_workers(scratch)
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    # A binary killed outright cannot remove its private temp dir.
    for stale in scratch.glob("run.*"):
        shutil.rmtree(stale, ignore_errors=True)
    lines = stdout.splitlines()
    if interrupted:
        return 130, lines, None
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        return child.returncode if child.returncode > 0 else 1, lines, None
    lines = lines[:-1]
    problems = []
    if leftovers:
        problems.append(f"qrank_worker processes outlived the run: {leftovers}")
    declared = declared_metrics(trace)
    if declared is not None and declared != set(result["metrics"]):
        problems.append("reported metrics differ from BENCHMARK.json: "
                        f"{sorted(declared ^ set(result['metrics']))}")
    for p in problems:
        lines.append(f"CHECK FAILED: {p}")
    if problems:
        result["correct"] = False
    return (0 if result["correct"] and child.returncode == 0 else 1), lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the measurement helpers' test")
    args = parser.parse_args()

    if args.selftest:
        out = build(["perfbench_stats_test"])
        sys.exit(subprocess.run([str(out / "perfbench_stats_test")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    out = build(["perfbench", "qrank_worker_tool"])
    env = dict(os.environ, PERFBENCH_COMMIT=commit_stamp())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in workloads:
        started = time.monotonic()
        rc, lines, result = run_one(out, workload, args.seed, args.seconds,
                                    args.trace, env)
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}) ==")
        print("\n".join(lines))
        log(f"{workload}: exit {rc} after {time.monotonic() - started:.1f} s")
        if result is None:
            sys.stdout.flush()
            sys.exit(rc or 1)
        code = max(code, rc)
        if len(workloads) == 1:
            combined = result
        else:
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
