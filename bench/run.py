"""Benchmark of the sexagesimal package, run from the repository root:

    python3 bench/run.py --workload exact_large --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1 [--record FILE]

Stdlib only; the package is run from ``src/`` through PYTHONPATH.  Each run
starts a fresh worker process (bench/worker.py) that is a closed loop with
one caller.  ``--seconds`` defaults to BENCHMARK.json's run_seconds.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a separate traced run.  The last
stdout line is one JSON object; a readable table goes to stderr.
``--workload all`` runs every workload untraced and traced, and
``--record FILE`` writes all of it, with the excluded inputs, to FILE.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "data" / "cli"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_REPEATS = {"cli_oneshot": 5, "exact_large": 7, "library_small": 7}
PROBE_REPEATS = 7
WORKER_TIMEOUT_S = 170
MODULES = ("exact", "glyphs", "floating", "algorithms", "constants", "cli")
# Times are scaled to a host on which the worker's calibration kernel takes
# this long (its best time on the reference host in a fast phase).
KERNEL_REF_S = 0.0013


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(workload: str, mode: str, seconds: int, payload: dict) -> dict:
    """Start one worker, feed it the payload, wait for it; returns its JSON
    plus ``spawned``, the clock reading just before it started."""
    argv = [sys.executable, str(BENCH / "worker.py"), workload, mode, str(seconds)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(json.dumps(payload).encode(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker timed out") from None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    return result


def _import_probe(env: dict) -> tuple[float, dict[str, float]]:
    """Wall ms of a bare interpreter, and ms of each module's import: its
    -X importtime self time plus that of the non-package modules it is the
    first to import."""
    t0 = time.perf_counter()
    bare = subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, timeout=60)
    start_ms = 1000 * (time.perf_counter() - t0)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sexagesimal.cli"],
                          env=env, capture_output=True, timeout=60)
    if bare.returncode or proc.returncode:
        raise BenchError("interpreter or package import failed")
    rows = []
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(self_us)))
    # the output is post-order; reversed, each parent precedes its subtree
    owned = dict.fromkeys(MODULES, 0.0)
    stack: list[tuple[int, str | None]] = []
    for depth, name, self_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        head, _, tail = name.rpartition(".")
        owner = tail if head == "sexagesimal" and tail in MODULES else None
        if owner is None and not name.startswith("sexagesimal") and stack:
            owner = stack[-1][1]
        stack.append((depth, owner))
        if owner:
            owned[owner] += self_us / 1000
    return start_ms, owned


def _golden() -> dict[str, str]:
    return {name: (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
            for name in workloads.GOLDEN_ARGV}


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    warmup = workloads.warmup(workload)
    payload = {"warmup": warmup, "seed": seed, "golden": _golden(), "trace_dir": str(TRACE_DIR)}
    failures: list[str] = []
    warmup_failed = 0
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS[workload]):
            r = _worker(workload, "setup", seconds, payload)
            setups.append(r["ready"] - r["spawned"])
            warmup_failed += r["warmup_failed"]
            failures += r["failures"]
        r = _worker(workload, "run", seconds, payload)
        attempted = r["attempted"] + len(warmup) * (len(setups) + 1)
        failed = r["failed"] + r["warmup_failed"] + warmup_failed
        raw = {
            "setup_s": statistics.median(setups),
            "ops_per_s": r["ops_per_s"],
            "digits_per_s": r["digits_per_s"],
            "latency_p50_ms": r["latency_p50_ms"],
            "latency_p90_ms": r["latency_p90_ms"],
        }
        # the host's speed drifts by up to 1.5x over minutes: scale every
        # time by how much slower the kernel ran in this run than the reference
        scale = KERNEL_REF_S / r["kernel_s"]
        values = {k: v / scale if k.endswith("per_s") else v * scale for k, v in raw.items()}
        values["peak_rss_mb"] = r["peak_rss_mb"]
        values["ops_ok_ratio"] = (attempted - failed) / attempted
        notes = {"ops": r["samples"], "beyond_p90": r["beyond_p90"], "reps": r["reps"],
                 "cycles": r["cycles"], "setup_runs": len(setups),
                 "ops_failed_ratio": failed / attempted, "timed_wall_s": r["wall_s"],
                 "kernel_ms": 1000 * r["kernel_s"], "time_scale": scale, "unscaled": raw}
        metric_specs = spec["end_to_end"]
    else:
        env = _env()
        starts, imports, probe_failed = [], {m: [] for m in MODULES}, 0
        for _ in range(PROBE_REPEATS):
            try:
                start_ms, owned = _import_probe(env)
            except (BenchError, subprocess.TimeoutExpired) as exc:
                probe_failed += 1
                failures.append(str(exc))
                continue
            starts.append(start_ms)
            for m in MODULES:
                imports[m].append(owned[m])
        r = _worker(workload, "trace", seconds, payload)
        attempted = r["attempted"] + len(warmup) + PROBE_REPEATS
        failed = r["failed"] + r["warmup_failed"] + probe_failed
        values = dict(r["layers"])
        values["python.start_ms"] = statistics.median(starts) if starts else 0.0
        values["python.failed"] = probe_failed
        for m in MODULES:
            values[f"{m}.import_ms"] = statistics.median(imports[m]) if imports[m] else 0.0
        notes = {"trace_file": str((TRACE_DIR / f"{workload}.json").relative_to(ROOT))}
        metric_specs = spec["per_layer"]
    failures = list(dict.fromkeys(failures + r["failures"]))[:10]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
            "notes": notes, "failures": failures}


def _table(workload: str, trace: bool, result: dict) -> str:
    lines = [f"== {workload} ({'traced' if trace else 'untraced'}): correct={result['correct']}"
             f" attempted={result['attempted']} failed={result['failed']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for key, value in result["notes"].items():
        lines.append(f"  ({key}: {value})")
    lines += [f"  failure: {f}" for f in result["failures"]]
    return "\n".join(lines)


def _contract_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="with --workload all: write the record here")
    args = parser.parse_args(argv)
    if not (spec_path.is_file() and (SRC / "sexagesimal" / "__init__.py").is_file()
            and GOLDEN_DIR.is_dir()):
        print("bench: run from a checkout holding BENCHMARK.json, src/sexagesimal and tests/data/cli",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1)

    if args.workload != "all":
        result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
        print(_table(args.workload, bool(args.trace), result), file=sys.stderr)
        print(_contract_line(result))
        return 0

    record = {
        "benchmark": "python3 bench/run.py --workload all",
        "seed": args.seed,
        "run_seconds": args.seconds,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "method": ("closed loop, one caller, one worker process per run; timings from "
                   "time.perf_counter, end-to-end times scaled by a calibration kernel timed "
                   "in the same run, peak RSS from getrusage, allocation from tracemalloc, "
                   "import cost from -X importtime; no machine-wide profiler, cache drop or "
                   "cgroup was used"),
        "workloads": {},
        "excluded_inputs": workloads.EXCLUDED_INPUTS,
    }
    for w in spec["workloads"]:
        entry = {"why": w["why"]}
        for trace in (False, True):
            result = run_workload(spec, w["name"], args.seed, args.seconds, trace)
            print(_table(w["name"], trace, result), file=sys.stderr)
            print(_contract_line(result))
            entry["per_layer" if trace else "end_to_end"] = result
        record["workloads"][w["name"]] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
