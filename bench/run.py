"""Exact-verdict benchmark for toric_gec.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh worker processes (bench/worker.py) with
TORIC_GEC_THREADS unset and PYTHONHASHSEED fixed, one at a time, and waits
for each. With --trace 0 it alternates set-up-only workers with pass
workers and reports the end-to-end metrics, in host-scaled seconds (see
worker.py); set-up time is the median, over all workers, of the time from
starting the process to the moment its first item could start. With
--trace 1 it starts one tracing worker and reports the per-layer metrics.
The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}; the line before it describes the run environment,
the sample counts and the unscaled times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mu-expand", "family-descent", "gec-decide")
MIN_PASSES = 3
SETUPS_BETWEEN_PASSES = 2
DEADLINE_S = 170.0
HASH_SEED = "0"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "item_max_s": "s",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.self_coverage":
        return "ratio"
    if name.endswith("json_bytes"):
        return "bytes"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("TORIC_GEC_THREADS", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def start_worker(args, mode: str, deadline: float, pass_index: int = 0) -> tuple[float, dict]:
    """Run one worker to completion; return its start time and its result."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--pass-index", str(pass_index),
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - started),
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise SystemExit(f"worker ({mode}) printed no result")
    return started, json.loads(lines[-1])


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timings(passes: list[dict], key: str, setups: list[float]) -> dict:
    """Timing metrics from per-item medians across passes."""
    per_item = [statistics.median(ts) for ts in zip(*(p[key] for p in passes))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_item),
        "item_p50_s": statistics.median(per_item),
        "item_p90_s": _percentile(per_item, 90),
        "item_max_s": max(per_item),
    }


def measure(args, deadline: float) -> dict:
    """Alternate set-up-only workers with pass workers until the time budget
    is spent (at least MIN_PASSES passes), so that set-up samples and the
    samples of each item are spread over the whole run."""
    start = time.monotonic()
    setups: list[float] = []  # (raw, scaled)
    passes: list[dict] = []
    durations: list[float] = []

    def add_setup(started: float, result: dict) -> None:
        raw = result["ready"] - started
        setups.append((raw, raw * result["host_factor"]))

    def setup_only() -> None:
        for _ in range(SETUPS_BETWEEN_PASSES):
            add_setup(*start_worker(args, "setup", deadline))

    while True:
        setup_only()
        started, result = start_worker(args, "pass", deadline, len(passes))
        durations.append(time.monotonic() - started)
        add_setup(started, result)
        passes.append(result)
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed + 0.5 * statistics.median(durations) > args.seconds:
            break
    setup_only()
    attempted = len(passes[0]["times"]) * len(passes)
    metrics = _timings(passes, "scaled", [scaled for _, scaled in setups])
    metrics["decided_share"] = sum(p["decided"] for p in passes) / attempted
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    return {
        "attempted": attempted,
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]],
        "items": len(passes[0]["times"]),
        "passes": len(passes),
        "setup_samples": len(setups),
        "unscaled": _timings(passes, "times", [raw for raw, _ in setups]),
        "host_factor": statistics.median(scaled / raw for raw, scaled in setups),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="toric_gec exact-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "toric_gec" / "__init__.py").is_file():
        print(f"error: no toric_gec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        _, result = start_worker(args, "trace", deadline)
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in result["metrics"].items()
        }
    else:
        result = measure(args, deadline)
        metrics = {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }

    for line in result["errors"]:
        print(f"error: {line}", file=sys.stderr)
    correct = result["failed"] == 0 and not result["errors"]
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": HASH_SEED,
        "TORIC_GEC_THREADS": "unset",
        "items_per_pass": result["items"],
        "passes": result["passes"],
        "error_rate": result["failed"] / result["attempted"],
    }
    if not args.trace:
        environment["setup_samples"] = result["setup_samples"]
        environment["host_factor"] = result["host_factor"]
        environment["unscaled"] = result["unscaled"]
    print(json.dumps({"run": environment}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
