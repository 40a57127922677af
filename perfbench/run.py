#!/usr/bin/env python3
"""Fleet-overhead benchmark of the Reduce pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. Builds the harness package in perfbench/
(which compiles the library from src/) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, and prints one JSON
object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end-to-end metrics, --trace 1 its
per-layer metrics, computed from the Chrome trace the run writes. The full
record (gates, thread budgets, CPUs, build, commit, per-span self times)
goes to a file under the build directory and, as one line prefixed
"perfbench-record ", to stdout just before the result. Exits 1 when a
correctness gate fails and 2 when the run cannot be made at all.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import trace_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures once, then rebuilds whatever changed. Output goes to stderr."""
    if not any((ROOT / "src").glob("*/*.cpp")):
        fail("no library sources under src/: run from a checkout of the repository")
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_CXX_COMPILER_LAUNCHER="]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / "perfbench_harness"


def effective_cpus():
    """CPUs this process may use: its affinity mask, capped by cgroup cpu.max."""
    affinity = len(os.sched_getaffinity(0))
    quota = None
    try:
        fields = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if fields and fields[0] != "max":
            quota = int(fields[0]) / int(fields[1])
    except (OSError, ValueError, IndexError):
        pass
    effective = affinity if quota is None else min(affinity, quota)
    return {"affinity": affinity, "cgroup_cpu_max": quota, "effective": effective}


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".h", ".py", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def contract_metrics(kind, computed):
    """BENCHMARK.json's metrics of one kind, by name and unit, from `computed`
    ({name: (value, unit)}). A missing or non-finite metric is a harness bug."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name not in computed:
            fail("metric %s was not computed" % name)
        value, unit = computed[name]
        if unit != entry["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" % (name, unit, entry["unit"]))
        if not math.isfinite(value):
            fail("metric %s is not finite" % name)
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test only)")
    args = parser.parse_args()

    started = time.monotonic()
    bdir = build_dir()
    harness = build(bdir)
    out_dir = bdir / "out"
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("harness exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": effective_cpus(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "harness": result,
    }
    if args.trace:
        computed, self_times = trace_metrics.compute(result["trace_file"])
        metrics = contract_metrics("per_layer", computed)
        record["per_layer_all"] = {k: {"value": v, "unit": u} for k, (v, u) in computed.items()}
        record["span_self_times"] = self_times
    else:
        computed = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        metrics = contract_metrics("end_to_end", computed)
    record["metrics"] = metrics
    record["run_wall_s"] = time.monotonic() - started

    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print("perfbench-record " + json.dumps(record, separators=(",", ":")))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
