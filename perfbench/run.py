"""Run one serwalk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain-circle --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

A run is single-process and closed-loop: it feeds the workload's items one
at a time into serwalk, repeating whole passes until ``--seconds`` would be
exceeded (at least two passes, so repeats can be compared).  Each item's
output is checked after its timer stops.

Just before each item a fixed pure-Python reference loop is timed, and the
item's wall time divided by it is the item's time in reference loops.
``wall_ref`` is the sum over items of each item's median of that ratio over
the passes.  On a shared host whose speed drifts by up to 2x over tens of
seconds, the ratio follows the program and not the host; ``wall_s``, the
same sum of plain wall times, is printed beside it.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` alternates untraced and traced passes and reports the per-layer
metrics, writing the traced spans to ``perfbench/out/``.  ``--workload all``
runs every workload in its own process and prints one table.  The last
line of standard output is always one JSON object.

serwalk is imported from ``src/`` of the checkout holding this directory;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
REF_ITERATIONS = 1_500_000  # 0.12-0.2 s of pure Python on a 2 GHz Xeon
MIN_PASSES = 2  # a repeat lets each item's output digest be compared


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    return float(proc.stdout.split()[-1])


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i
    return time.perf_counter() - start


class Runner:
    """Runs passes over a workload's items and keeps the check results."""

    def __init__(self, name: str, items: list):
        self.name = name
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.limit_errors: dict = {}

    def run_pass(self, tracer: Tracer | None = None) -> tuple[list, list, int]:
        """One pass over every item; returns each item's wall time, each
        item's wall time in reference loops and the number of items that
        exited with a code other than the expected one."""
        wall, relative, unexpected = [], [], 0
        for item in self.items:
            gc.collect()  # no item pays for garbage an earlier one left
            reference = reference_seconds()
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                out, error = item.run(), None
            except Exception:  # an item that raises counts as failed
                out, error = None, traceback.format_exc()
            wall.append(time.perf_counter() - start)
            relative.append(wall[-1] / reference)
            if tracer is not None:
                tracer.uninstall()
            if item.expected_exit is not None and (out is None or out[0] != item.expected_exit):
                unexpected += 1
            self._record(item, out, error)
        return wall, relative, unexpected

    def _record(self, item, out, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                outcome = item.check(out)
            except Exception:  # a check that cannot read the output fails it
                error = traceback.format_exc()
        if error is not None:
            problems = [error.strip().splitlines()[-1]]
            print(error, file=sys.stderr)
        else:
            problems = list(outcome.problems)
            first = self.digests.setdefault(item.name, outcome.digest)
            if outcome.digest != first:
                problems.append("output differs from an earlier pass")
            if outcome.limit_error is not None:
                self.limit_errors[item.name] = outcome.limit_error
        if problems:
            self.failed += 1
            print(f"FAIL {self.name}/{item.name}: {'; '.join(problems)}", file=sys.stderr)


def run_passes(runner: Runner, seconds: float, tracer: Tracer | None):
    """Run passes until the next one would end past ``seconds``.  With a
    tracer, passes alternate untraced and traced, untraced first.

    Returns the untraced and traced per-item wall times of each pass, the
    untraced per-item times in reference loops, the per-layer values of
    each traced pass and the spans of each traced pass."""
    passes: dict = {False: [], True: []}
    relative, layer, spans = [], [], []
    start = time.perf_counter()
    count = 0
    while True:
        traced = tracer is not None and count % 2 == 1
        begun = time.perf_counter()
        if traced:
            tracer.reset()
        wall, rel, unexpected = runner.run_pass(tracer if traced else None)
        passes[traced].append(wall)
        if not traced:
            relative.append(rel)
        if traced:
            layer.append(layer_metrics(tracer, unexpected))
            spans.append(list(tracer.spans))
        count += 1
        now = time.perf_counter()
        if count >= MIN_PASSES and (now - start) + (now - begun) > seconds:
            return passes[False], passes[True], relative, layer, spans


def item_medians_total(passes: list) -> float:
    """Sum over items of each item's median over the passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def layer_metrics(tracer: Tracer, unexpected_exits: int) -> dict:
    """Per-layer values of one traced pass."""
    busy, calls = tracer.self_times()
    c = tracer.counts
    balance_calls = calls["rearrange.balance"]
    return {
        "core.gap_chainable_s": busy["core.gap_chainable"],
        "core.gap_chainable_calls": calls["core.gap_chainable"],
        "core.distance_entries": c["core.distance_entries"],
        "core.gap_components_s": busy["core.gap_components"],
        "core.hausdorff_s": busy["core.hausdorff"],
        "walks.build_s": busy["walks.build"],
        "walks.gen_s": busy["walks.gen"],
        "walks.sums": c["walks.sums"],
        "seqspace.gen_s": busy["seqspace.gen"],
        "seqspace.entries": c["seqspace.entries"],
        "rearrange.rearrange_s": busy["rearrange.rearrange"],
        "rearrange.n_threshold_s": busy["rearrange.n_threshold"],
        "rearrange.n_threshold_calls": calls["rearrange.n_threshold"],
        "rearrange.balance_s": busy["rearrange.balance"],
        "rearrange.balance_calls": balance_calls,
        "rearrange.balance_terms": c["rearrange.balance_terms"],
        "rearrange.balance_solved_ratio":
            c["rearrange.balance_solved"] / balance_calls if balance_calls else 0.0,
        "rearrange.prefix_used": c["rearrange.prefix_used"],
        "rearrange.invariants_s": busy["rearrange.invariants"],
        "analysis.estimate_s": busy["analysis.estimate"],
        "analysis.estimate_sums": c["analysis.estimate_sums"],
        "analysis.cauchy_s": busy["analysis.cauchy"],
        "analysis.cauchy_pairs": c["analysis.cauchy_pairs"],
        "analysis.dichotomy_s": busy["analysis.dichotomy"],
        "analysis.singleton_s": busy["analysis.singleton"],
        "traceio.write_s": busy["traceio.write"],
        "traceio.write_bytes": c["traceio.write_bytes"],
        "traceio.read_s": busy["traceio.read"],
        "traceio.read_bytes": c["traceio.read_bytes"],
        "traceio.svg_s": busy["traceio.svg"],
        "cli.self_s": busy["cli.main"],
        "cli.calls": calls["cli.main"],
        "cli.unexpected_exits": unexpected_exits,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    probes = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        items, _ = workloads.setup(name, seed, workdir)
        runner = Runner(name, items)
        untraced, traced, relative, layer, spans = run_passes(
            runner, seconds, Tracer() if trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = {
        "setup_s": statistics.median(probes),
        "wall_ref": item_medians_total(relative),
        "wall_s": item_medians_total(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "limit_error": max(runner.limit_errors.values(), default=0.0),
    }
    if trace:
        for key in layer[0]:
            values[key] = statistics.median(p[key] for p in layer)
        values["trace.overhead_s"] = item_medians_total(traced) - values["wall_s"]
        with open(OUT / f"spans-{name}-seed{seed}.json", "w") as fp:
            json.dump({"workload": name, "seed": seed,
                       "fields": ["name", "start", "end", "parent"],
                       "passes": spans}, fp)
    section = "per_layer" if trace else "end_to_end"
    with open(ROOT / "BENCHMARK.json") as fp:
        wanted = json.load(fp)[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for key, m in metrics.items():
        print(f"{name:18} {key:30} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print(f"{name:18} {'wall_s':30} {values['wall_s']:>14.6g} s (not gated: "
              f"it follows the host's speed)")
    print(f"{name:18} {'failed_ratio':30} {runner.failed / runner.attempted:>14.6g} "
          f"ratio ({runner.failed}/{runner.attempted} items)")
    print(f"{name:18} {'measured setup times':30} {_times(probes)} s")
    print(f"{name:18} {'measured pass times':30} untraced {_times(untraced)}"
          + (f"; traced {_times(traced)}" if trace else "") + " s")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def _times(values) -> str:
    """Set-up times, or the total of each pass's per-item times."""
    return " ".join(f"{sum(v) if isinstance(v, list) else v:.3f}" for v in values)


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in a fresh process, so peak memory is its own."""
    results = {}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=180)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            raise SystemExit(f"{name} exited with {proc.returncode}")
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        results[name] = json.loads(last)
    keys = list(results[workloads.NAMES[0]]["metrics"]) + ["failed_ratio"]
    print(f"{'workload':18}" + "".join(f"{k:>16}" for k in keys))
    for name, res in results.items():
        row = {k: v["value"] for k, v in res["metrics"].items()}
        row["failed_ratio"] = res["failed"] / res["attempted"]
        print(f"{name:18}" + "".join(f"{row[k]:>16.6g}" for k in keys))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "serwalk" / "__init__.py").is_file():
        print(f"serwalk sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = run_all(args.seed, args.seconds)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
