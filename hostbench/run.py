#!/usr/bin/env python3
"""Build and run the host IPC benchmark; print its result as the last line.

    python3 hostbench/run.py --workload local_direct --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
hostbench/ (which compiles the runtime from ../src) into
$CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench; later runs only
check the build. The benchmark's own human-readable lines go to stdout
first, then a "machine: {...}" record, then the one-line JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, --trace 1
the per-layer ones. The binary prints bare name/value pairs; the units come
from BENCHMARK.json. A per-layer metric the traced workload does not emit
belongs to a layer that workload bypasses and is reported as 0. The exit
code is 0 only if the build succeeded, every answer was correct and every
name the binary printed is one BENCHMARK.json lists (and, untraced, every
end-to-end metric was printed).
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("local_direct", "kv_ring", "shm_bulk")
MAX_SECONDS = 600
BUILD_TIMEOUT_S = 850
# Source trees the benchmark compiles or includes; hashed into the record.
SOURCE_DIRS = ("rt", "shm", "mem", "obs", "repl", "fault", "common", "ppc")


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def cached_source_dir(bdir):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(bdir):
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(SRC, "rt", "runtime.cpp")):
        log(f"runtime sources not found under {SRC}; nothing to build")
        return None
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cached = cached_source_dir(bdir)
        if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
            os.remove(os.path.join(bdir, "CMakeCache.txt"))
            cached = None
        steps = []
        if cached is None:
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j2"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step failed: {e}")
                return None
            if rc != 0:
                log(f"build step failed ({rc}): {' '.join(cmd)}")
                return None
    binary = os.path.join(bdir, "hostbench")
    return binary if os.access(binary, os.X_OK) else None


def source_digest():
    h = hashlib.sha256()
    for top in [os.path.join(SRC, d) for d in SOURCE_DIRS] + [os.path.join(HERE, "src")]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def run_timeout(seconds):
    """Set-ups, warm-up, the measured phase and a traced run's untraced
    slice, with room for a loaded host."""
    return 60 + 2 * seconds


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def with_units(result, trace):
    """Attaches BENCHMARK.json units to the binary's bare metric values.

    Returns (result, problems)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, [f"unexpected result keys {sorted(result)}"]
    want = expected_metrics(trace)
    got = result["metrics"]
    extra = sorted(set(got) - set(want))
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    missing = sorted(set(want) - set(got))
    if missing and not trace:
        problems.append(f"end-to-end metrics not measured: {missing}")
    elif missing:
        log(f"bypassed, reported as 0: {' '.join(missing)}")
    for name, v in got.items():
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = {name: {"value": got.get(name, 0), "unit": unit}
               for name, unit in want.items()}
    return dict(result, metrics=metrics), problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt-check", type=int, default=-1,
                    help="test hook: falsify the K-th answer check")
    args = ap.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    broot = build_root()
    binary = build(os.path.join(broot, "hostbench"))
    if binary is None:
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(broot, "hostbench-spans")]
    if args.corrupt_check >= 0:
        cmd += ["--corrupt-check", str(args.corrupt_check)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout = run_timeout(args.seconds)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {timeout:g}s; killed")
        return 1

    result = machine = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif line.startswith("MACHINE "):
            machine = json.loads(line[len("MACHINE "):])
        else:
            print(line)
    if result is None:
        log(f"no result (exit code {proc.returncode})")
        return 1
    machine = machine or {}
    machine.update({"git_sha": git_sha(), "source_sha256": source_digest(),
                    "seed": args.seed, "workload": args.workload})
    print("machine: " + json.dumps(machine, sort_keys=True))
    result, problems = with_units(result, bool(args.trace))
    if problems:
        for p in problems:
            log(p)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
