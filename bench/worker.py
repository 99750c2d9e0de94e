"""One benchmark process: set up a workload, then run and check its items.

Started by run.py with a clean environment; prints one JSON object on its
last stdout line. Usage:

    python3 bench/worker.py --workload NAME --seed N --mode MODE [--pass-index K]

Modes: ``setup`` only builds the inputs and reports the moment the first
item could start; ``pass`` also runs every item once, in an order drawn
from the seed and the pass index, and reports per-item times in build
order; ``trace`` runs one untraced pass, then two traced rounds (set-up
plus pass each), and compares their exact counts.

Host speed on a shared machine drifts by tens of percent within seconds.
A fixed pure-Python probe therefore runs between items and every
PROBE_TICK_S within them; an item's scaled time is its measured time times
PROBE_REF_S over the median probe time during and around it, i.e. the time
the item would take on a host where the probe takes PROBE_REF_S. Measured
times are reported alongside.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ITEM_LIMIT_S = 10.0  # an item slower than this counts as undecided
PROBE_REF_S = 200e-6  # probe time that defines the reference host speed
PROBE_WINDOW_S = 0.05
PROBE_TICK_S = 0.05
TIME_RATIOS = ("trace.overhead_ratio", "trace.self_coverage")  # not exact counts


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import toric_gec

    if Path(toric_gec.__file__).resolve().parent != ROOT / "src" / "toric_gec":
        raise SystemExit(f"toric_gec imported from {toric_gec.__file__}, not from this checkout")


def _probe_work() -> None:
    acc: dict = {}
    f = Fraction(0)
    for i in range(600):
        e = (i % 7, i % 5)
        acc[e] = acc.get(e, 0) + i * i
        if i % 20 == 0:
            f += Fraction(i + 1, i % 9 + 2)


def probe() -> float:
    """Time a fixed piece of pure-Python work, with the collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def host_factor(probes: list[float]) -> float:
    return PROBE_REF_S / statistics.median(probes)


def run_pass(items, errors: list[str], order=None) -> dict:
    """Time every item once, in the given order; check each output outside
    its timed region.

    A probe runs before the first item, after every item and, from a
    SIGALRM timer, every PROBE_TICK_S inside an item; probe time inside an
    item is taken out of its time. Times are returned in build order, raw
    and scaled: an item's scaled time is its raw time times the host factor
    of the probes that ran during it or within PROBE_WINDOW_S of it."""
    order = order or list(range(len(items)))
    times, failed, decided, json_bytes = [0.0] * len(items), 0, 0, 0
    spans = [(0.0, 0.0)] * len(items)
    probe_at: list[float] = []
    probe_s: list[float] = []
    in_item = [0.0]  # probe time spent inside the running item
    in_items = 0.0

    def take_probe() -> float:
        probe_at.append(time.perf_counter())
        probe_s.append(probe())
        return probe_s[-1]

    def on_tick(signum, frame) -> None:
        in_item[0] += take_probe()

    previous = signal.signal(signal.SIGALRM, on_tick)
    try:
        take_probe()
        for index in order:
            item = items[index]
            problem = None
            in_item[0] = 0.0
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, PROBE_TICK_S, PROBE_TICK_S)
            try:
                out = item.call()
            except Exception as exc:  # a raising item is a failed item
                problem = f"raised {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                end = time.perf_counter()
            take_probe()
            if problem is None:
                try:
                    problem = item.check(out)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
                json_bytes += getattr(out, "json_bytes", 0)
                del out
            elapsed = end - start - in_item[0]
            in_items += in_item[0]
            times[index] = elapsed
            spans[index] = (start, end)
            if problem is None:
                decided += elapsed <= ITEM_LIMIT_S
            else:
                failed += 1
                if len(errors) < 20:
                    errors.append(f"{item.label}: {problem}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    scaled = []
    for (start, end), elapsed in zip(spans, times):
        lo = bisect.bisect_left(probe_at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(probe_at, end + PROBE_WINDOW_S)
        scaled.append(elapsed * host_factor(probe_s[lo:hi]))
    return {
        "times": times,
        "scaled": scaled,
        "wall": sum(times),
        "probes_in_items": in_items,
        "failed": failed,
        "decided": decided,
        "json_bytes": json_bytes,
    }


def trace(build, seed: int, out_dir: str, errors: list[str]) -> dict:
    from tracer import Tracer

    baseline = run_pass(build(seed, out_dir), errors)  # also fills lazy caches
    tracer = Tracer()
    tracer.install()
    rounds = []
    for _ in range(2):
        tracer.reset()
        start = time.perf_counter()
        items = build(seed, out_dir)
        setup = time.perf_counter() - start
        traced = run_pass(items, errors)
        # spans also cover the probes that ran inside items
        summary = tracer.summary(setup + traced["wall"] + traced["probes_in_items"])
        summary["cli.json_bytes"] = traced["json_bytes"]
        summary["trace.overhead_ratio"] = sum(traced["scaled"]) / sum(baseline["scaled"])
        rounds.append((summary, traced))
        del items
    (first, run_a), (second, run_b) = rounds
    metrics = {}
    for key in first:
        if key.endswith("_s") or key in TIME_RATIOS:
            metrics[key] = (first[key] + second[key]) / 2
        else:
            metrics[key] = first[key]
            if first[key] != second[key]:
                errors.append(f"count {key} differs between traced rounds: {first[key]} != {second[key]}")
    return {
        "attempted": 3 * len(baseline["times"]),
        "failed": baseline["failed"] + run_a["failed"] + run_b["failed"],
        "passes": 3,
        "items": len(baseline["times"]),
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "pass", "trace"], required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    args = parser.parse_args()

    _import_package()
    import workloads

    build = workloads.WORKLOADS[args.workload]
    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".cli-", dir=Path(__file__).parent) as out_dir:
        if args.mode == "trace":
            result = trace(build, args.seed, out_dir, errors)
        else:
            items = build(args.seed, out_dir)
            result = {"ready": time.monotonic()}
            result["host_factor"] = host_factor([probe() for _ in range(7)])
            if args.mode == "pass":
                order = list(range(len(items)))
                random.Random(f"{args.seed}/{args.pass_index}").shuffle(order)
                gc.collect()
                result.update(run_pass(items, errors, order))
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["errors"] = errors
    print(json.dumps(result))


if __name__ == "__main__":
    main()
